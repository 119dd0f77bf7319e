"""Embeddings, constructive cone location, partition scans, Monte Carlo."""

from __future__ import annotations

import math
import threading
import tracemalloc
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootvol import geometry
from rootvol.geometry import (
    as_decomposition,
    embedding_for,
    montecarlo_nu,
    partition_check,
    planar_cone_fraction,
)
from rootvol.identity import extended_diagram
from rootvol.invariants import nu_of
from rootvol.diagram import DecompositionLabel, parse_decomposition, parse_label

import geometry_oracle
from geometry_oracle import locate_cone

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


def test_as_decomposition_accepts_all_spellings():
    d = parse_decomposition("A1xB2")
    assert as_decomposition("A1xB2") == d
    assert as_decomposition(d) is d
    assert as_decomposition(parse_label("G2")) == parse_decomposition("G2")


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "F4", "D4", "A1xA1", "A2xB2"])
def test_embedding_reproduces_gram(name):
    emb = embedding_for(name)
    gram = np.array([[float(x) for x in row] for row in emb.gram])
    assert np.allclose(emb.factor @ emb.factor.T, gram, atol=1e-12)


def test_embedding_roundtrip():
    emb = embedding_for("B3")
    coords = np.array([0.3, -1.2, 2.5])
    point = coords @ emb.factor
    assert np.allclose(point @ emb.inverse, coords, atol=1e-10)


@pytest.mark.parametrize("spec", ["-", DecompositionLabel(())])
def test_embedding_of_rank_zero_is_refused_before_factorization(monkeypatch, spec):
    def no_cholesky(*args):
        raise AssertionError("a Cholesky factorization ran for a system of rank 0")

    monkeypatch.setattr(geometry.np.linalg, "cholesky", no_cholesky)
    with pytest.raises(ValueError, match="^type - has rank 0; ") as excinfo:
        embedding_for(spec)
    assert type(excinfo.value) is ValueError


def test_locate_cone_rank_one():
    loc = locate_cone((-3,), (-1,))
    assert loc.cone == 1
    assert loc.coefficients == (3,)


def test_locate_cone_rank_two_example():
    loc = locate_cone((1, -1), (-1, -1))
    assert loc.cone == 2
    assert loc.coefficients == (1, 2)


def test_locate_cone_nonnegative_input_is_cone_zero():
    loc = locate_cone((0, 2, 5), (-1, -2, -1))
    assert loc.cone == 0
    assert loc.coefficients == (0, 2, 5)


def test_locate_cone_tie_takes_smallest_index():
    loc = locate_cone((-1, -1), (-1, -1))
    assert loc.cone == 1
    assert loc.coefficients == (1, 0)


def test_locate_cone_length_mismatch():
    with pytest.raises(ValueError):
        locate_cone((1, 2), (-1,))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "A3", "B3", "C3"]), st.data())
def test_locate_cone_rewrites_nonnegatively(name, data):
    # exact inputs: the rewritten coefficients must be nonnegative and
    # reconstruct the original coordinate vector
    label = parse_label(name)
    marks = extended_diagram(label).marks
    coords = tuple(
        data.draw(rationals, label=f"b{i}") for i in range(label.rank)
    )
    loc = locate_cone(coords, marks)
    assert all(c >= 0 for c in loc.coefficients)
    if loc.cone == 0:
        assert loc.coefficients == coords
    else:
        i = loc.cone - 1
        c0 = loc.coefficients[0]
        rest = list(loc.coefficients[1:])
        rebuilt = [None] * label.rank
        rebuilt[i] = c0 * marks[i]
        for h in (h for h in range(label.rank) if h != i):
            rebuilt[h] = rest.pop(0) + c0 * marks[h]
        assert tuple(rebuilt) == coords
        assert c0 > 0


def test_montecarlo_requires_minimum_samples():
    with pytest.raises(ValueError):
        montecarlo_nu("A1", 999, 0)


def test_montecarlo_is_deterministic():
    a = montecarlo_nu("B2", 10_000, 3, workers=2)
    b = montecarlo_nu("B2", 10_000, 3, workers=2)
    assert a.hits == b.hits
    assert a.as_dict() == b.as_dict()


def test_montecarlo_thread_pool_is_capped_at_cpu_count(monkeypatch):
    # The pool is replaced by one that records its size and runs each
    # substream inline, so no thread is started for 2,000 substreams.
    sizes = []

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(geometry, "ThreadPoolExecutor", InlineExecutor)
    estimates = []
    for cpus in (None, 4):
        monkeypatch.setattr(geometry.os, "cpu_count", lambda: cpus)
        estimates.append(montecarlo_nu("B2", 20_000, 7, workers=2_000))
    assert sizes == [1, 4]
    assert estimates[0].workers == 2_000
    assert estimates[0].hits == estimates[1].hits


def test_montecarlo_refuses_more_than_max_workers(monkeypatch):
    # A refused count builds no pool and draws no substream.
    built = []
    monkeypatch.setattr(geometry, "ThreadPoolExecutor", lambda max_workers: built.append(max_workers))
    monkeypatch.setattr(geometry, "_count_cone0", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=f"between 1 and {geometry.MAX_WORKERS}"):
        montecarlo_nu("B2", 20_000, 7, workers=geometry.MAX_WORKERS + 1)
    assert built == []


def test_montecarlo_rank_one_exact_split():
    est = montecarlo_nu("A1", 20_000, 5)
    assert est.exact == Fraction(1, 2)
    assert abs(est.estimate - 0.5) < 0.02


def test_montecarlo_product_type():
    est = montecarlo_nu("A1xA1", 50_000, 11, workers=2)
    assert est.exact == Fraction(1, 4)
    assert est.within(4)


def test_montecarlo_report_fields():
    est = montecarlo_nu("G2", 10_000, 1)
    payload = est.as_dict()
    assert payload["type"] == "G2"
    assert payload["samples"] == 10_000
    assert payload["exact"] == "5/12"
    assert math.isclose(payload["stderr"], math.sqrt(payload["estimate"] * (1 - payload["estimate"]) / 10_000))


def test_stderr_shrinks_with_samples():
    small = montecarlo_nu("A2", 1_000, 9)
    large = montecarlo_nu("A2", 64_000, 9)
    assert large.stderr < small.stderr / 6


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "B3"])
def test_partition_check_passes(name):
    report = partition_check(name, 4_000, 7)
    assert report.passed
    assert sum(report.counts) == report.samples
    assert report.failure_count == 0
    assert report.mismatch_count == 0


ORACLE_TYPES = ["A1", "A2", "B2", "G2", "B3", "F4", "E8"]
# Six batches and a remainder, so each of up to three substreams spans a
# batch boundary and ends in a partial batch.
ORACLE_SAMPLES = 6 * geometry._BATCH_ROWS + 5
# Walls of width 0.05 put many samples on the boundary; with a negative
# width, samples fall in no cone or in two, so every counter is exercised.
ORACLE_TOLS = [geometry.DEFAULT_TOL, 0.05, -0.05]


@pytest.mark.parametrize("name", ORACLE_TYPES)
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("tol", ORACLE_TOLS)
def test_montecarlo_matches_whole_array_oracle(name, workers, tol):
    est = montecarlo_nu(name, ORACLE_SAMPLES, 13, workers=workers, tol=tol)
    want = geometry_oracle.montecarlo_hits(name, ORACLE_SAMPLES, 13, workers, tol)
    assert est.hits == want


@pytest.mark.parametrize("name", ORACLE_TYPES)
@pytest.mark.parametrize("tol", ORACLE_TOLS)
def test_partition_matches_whole_array_oracle(name, tol):
    got = partition_check(name, ORACLE_SAMPLES, 17, tol)
    want = geometry_oracle.partition_check(name, ORACLE_SAMPLES, 17, tol)
    if tol > 0.01:
        assert want.boundary_count > 0
    if tol < 0:
        assert want.failure_count > 0
    assert got.counts == want.counts
    assert got.boundary_count == want.boundary_count
    assert got.failure_count == want.failure_count
    assert got.mismatch_count == want.mismatch_count


# One short batch; whole batches with no tail; and enough batches that each
# of the two draw buffers is refilled while the other is read.
BUFFER_SWAP_SAMPLES = [
    1,
    geometry._BATCH_ROWS - 1,
    geometry._BATCH_ROWS,
    2 * geometry._BATCH_ROWS,
    3 * geometry._BATCH_ROWS + 1,
]


@pytest.mark.parametrize("name", ["G2", "E8"])
@pytest.mark.parametrize("samples", BUFFER_SWAP_SAMPLES)
@pytest.mark.parametrize("tol", ORACLE_TOLS)
def test_partition_buffer_swaps_match_whole_array_oracle(name, samples, tol):
    got = partition_check(name, samples, 19, tol)
    want = geometry_oracle.partition_check(name, samples, 19, tol)
    assert got.counts == want.counts
    assert got.boundary_count == want.boundary_count
    assert got.failure_count == want.failure_count
    assert got.mismatch_count == want.mismatch_count


def test_partition_reraises_a_failed_draw_and_leaves_no_thread(monkeypatch):
    # The third fill raises in the helper thread; the scan must re-raise it
    # and end its helper before it returns.
    fills = []

    class FailingGenerator:
        def standard_normal(self, out):
            fills.append(threading.get_ident())
            if len(fills) == 3:
                raise RuntimeError("draw 3 failed")
            out[...] = 0.5

    monkeypatch.setattr(geometry.np.random, "default_rng", lambda seed: FailingGenerator())
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^draw 3 failed$"):
        partition_check("G2", 5 * geometry._BATCH_ROWS, 0)
    assert threading.active_count() == before
    assert len(fills) == 3
    assert len(set(fills)) == 1
    assert threading.get_ident() not in fills


def test_partition_leaves_no_thread_after_it_returns():
    before = threading.active_count()
    partition_check("B3", 3 * geometry._BATCH_ROWS, 0)
    assert threading.active_count() == before


def _tied_columns(marks: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """Columns whose ratios b_i / n_i come from a few dyadic values, so that
    ratios tie exactly, at the maximum and below it.  Each b_i = t * n_i is
    exact, and so is b_i / n_i = t."""
    ratios = rng.choice([-1.0, -0.25, 0.0, 0.125, 0.5], size=(len(marks), count))
    return ratios * marks[:, None]


@pytest.mark.parametrize("name", ["A1", "G2", "F4", "E8"])
def test_constructive_cones_break_exact_ties_like_the_scalar_oracle(name):
    marks = np.array(extended_diagram(parse_label(name)).marks, dtype=float)
    rng = np.random.default_rng(3)
    coords = np.concatenate(
        [_tied_columns(marks, rng, 2_000), rng.standard_normal((len(marks), 500))], axis=1
    )
    ratios = coords / marks[:, None]
    top = ratios.max(axis=0)
    negative = coords.min(axis=0) < 0
    # Ties at the maximum, and with three ratios or more ties below it, occur
    # among the columns that the constructive rule places.
    if len(marks) >= 2:
        assert np.any(negative & (np.count_nonzero(ratios == top, axis=0) >= 2))
    if len(marks) >= 3:
        below = np.sort(ratios, axis=0)[:-1]
        assert np.any(negative & np.any((below[1:] == below[:-1]) & (below[1:] < top), axis=0))
    got = geometry._constructive_cones(ratios, coords.min(axis=0) >= 0)
    want = [locate_cone(tuple(column), tuple(marks)).cone for column in coords.T]
    assert got.tolist() == want


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fn", [partition_check, montecarlo_nu], ids=["partition", "montecarlo"])
def test_sampling_memory_does_not_grow_with_sample_count(fn):
    # tracemalloc counts numpy buffers.  A warm-up call fills the caches, so
    # the traced calls allocate only their batches and a few Python objects.
    fn("E8", 1_000, 0)
    small = _traced_peak(fn, "E8", 200_000, 0)
    large = _traced_peak(fn, "E8", 800_000, 0)
    assert abs(large - small) < 64 * 1024
    assert large < 8 * 1024 * 1024


def test_partition_requires_a_sample():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_samples"):
            partition_check("A2", n, 0)


@pytest.mark.parametrize("fn", [montecarlo_nu, partition_check], ids=["montecarlo", "partition"])
def test_negative_seed_is_refused_before_any_draw(monkeypatch, fn):
    def no_draws(*args, **kwargs):
        raise AssertionError("a generator or a thread was started before the seed was checked")

    monkeypatch.setattr(geometry.np.random, "default_rng", no_draws)
    monkeypatch.setattr(geometry, "ThreadPoolExecutor", no_draws)
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        fn("A2", 2_000, -1)


def test_partition_counts_track_cone_fractions():
    report = partition_check("G2", 20_000, 2)
    for count, exact in zip(report.counts, report.expected):
        assert abs(count / report.samples - float(exact)) < 0.02


def test_partition_report_dict():
    payload = partition_check("A2", 2_000, 0).as_dict()
    assert payload["type"] == "A2"
    assert payload["expected"] == ["1/3", "1/3", "1/3"]
    assert payload["pass"] is True


def test_planar_fractions():
    assert planar_cone_fraction("A1xA1") == Fraction(1, 4)
    assert planar_cone_fraction("A2") == Fraction(1, 3)
    assert planar_cone_fraction("B2") == Fraction(3, 8)
    assert planar_cone_fraction("C2") == Fraction(3, 8)
    assert planar_cone_fraction("G2") == Fraction(5, 12)


def test_planar_fraction_matches_nu_exactly():
    for name in ("A1xA1", "A2", "B2", "G2"):
        assert planar_cone_fraction(name) == nu_of(name)


def test_planar_fraction_requires_rank_two():
    with pytest.raises(ValueError):
        planar_cone_fraction("A3")
    with pytest.raises(ValueError):
        planar_cone_fraction("A1")


def test_partition_scan_matches_the_oracle_within_24_mb():
    # Coefficients of all 3000 samples in all 61 cones at once would be
    # 61 * 60 * 3000 floats, 88 MB; one cone of one batch at a time keeps
    # the traced peak near 8 MB, and the batches read the same directions
    # as the oracle's single draw.
    partition_check("A60", 10, 0)
    tracemalloc.start()
    try:
        got = partition_check("A60", 3_000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = geometry_oracle.partition_check("A60", 3_000, 5)
    assert got.counts == want.counts
    assert got.boundary_count == want.boundary_count
    assert got.failure_count == want.failure_count
    assert got.mismatch_count == want.mismatch_count
    assert peak < 24 * 1024 * 1024
