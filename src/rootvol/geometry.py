"""Euclidean realization, cone-partition checks, Monte Carlo.

Conventions: coordinate vectors are rows; the embedding factor L has the
simple roots as rows, so a coordinate row b maps to the Cartesian point
b @ L and back via the inverse.  Cone 0 is the cone over the simple roots;
cone i (1 <= i <= l) replaces the i-th simple root with the lowest root,
whose coordinates are the (all negative) marks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .diagram import (
    DecompositionLabel,
    TypeLabel,
    as_decomposition,
    cartan_of_decomposition,
    parse_label,
)
from .identity import extended_diagram, node_terms
from .invariants import nu_of

DEFAULT_TOL = 1e-9

# Rows per batch when sampling and in the partition scan.  Monte Carlo draws
# each batch into one buffer; the partition scan keeps two, so that one helper
# thread can draw the next batch while the current one is scanned.  Only the
# buffers and the arrays of one batch are alive at a time, so memory is
# bounded per batch, whatever the sample count.
# At 4096 rows an E8 batch (256 KB of draws) keeps each matrix product in L2
# and below the size at which BLAS starts threads of its own, which would
# contend with the Monte Carlo worker threads and the partition scan's helper.
_BATCH_ROWS = 4096

# Largest rank of the partition scan.  Its change of basis to every cone but
# cone 0, `to_cones`, holds rank^3 floats: 8 MB at rank 100, 216 MB at rank
# 300.
PARTITION_RANK_CEILING = 100

# Planar angle of the cone between two simple roots, as a fraction of the
# full circle, keyed by the squared cosine of the angle between the roots.
_PLANAR_FRACTIONS = {
    Fraction(0): Fraction(1, 4),
    Fraction(1, 4): Fraction(1, 3),
    Fraction(1, 2): Fraction(3, 8),
    Fraction(3, 4): Fraction(5, 12),
}


@dataclass(frozen=True, eq=False)
class Embedding:
    """Floating realization of a root system from its exact Gram matrix."""

    decomposition: DecompositionLabel
    gram: tuple[tuple[int, ...], ...]
    factor: np.ndarray
    inverse: np.ndarray

    @property
    def dimension(self) -> int:
        return self.factor.shape[0]


@lru_cache(maxsize=None)
def _embedding_cached(decomposition: DecompositionLabel) -> Embedding:
    gram = cartan_of_decomposition(decomposition).gram()
    dense = np.array([[float(x) for x in row] for row in gram])
    factor = np.linalg.cholesky(dense)
    scale = np.max(np.abs(dense))
    if np.max(np.abs(factor @ factor.T - dense)) > 1e-12 * scale:
        raise RuntimeError("factorization does not reproduce the Gram matrix")
    return Embedding(decomposition, gram, factor, np.linalg.inv(factor))


def embedding_for(spec: str | TypeLabel | DecompositionLabel) -> Embedding:
    decomposition = as_decomposition(spec)
    if decomposition.rank == 0:
        raise ValueError(f"type {decomposition} has rank 0; an embedding needs rank 1 or more")
    return _embedding_cached(decomposition)


@dataclass(frozen=True)
class VolumeEstimate:
    decomposition: DecompositionLabel
    samples: int
    seed: int
    workers: int
    hits: int
    exact: Fraction

    @property
    def estimate(self) -> float:
        return self.hits / self.samples

    @property
    def stderr(self) -> float:
        p = self.estimate
        return math.sqrt(p * (1 - p) / self.samples)

    @property
    def z_score(self) -> float:
        gap = self.estimate - float(self.exact)
        if self.stderr == 0:
            return 0.0 if gap == 0 else math.inf
        return gap / self.stderr

    def within(self, sigmas: float) -> bool:
        return abs(self.estimate - float(self.exact)) <= sigmas * self.stderr

    def as_dict(self) -> dict:
        return {
            "type": str(self.decomposition),
            "samples": self.samples,
            "seed": self.seed,
            "workers": self.workers,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "exact": str(self.exact),
            "z_score": self.z_score,
        }


def _coordinate_batches(
    embedding: Embedding,
    rng: np.random.Generator,
    count: int,
    helper: ThreadPoolExecutor | None = None,
) -> Iterator[np.ndarray]:
    """Simple-root coordinates of `count` Gaussian directions, as columns of
    (dim, batch) arrays of at most `_BATCH_ROWS` columns.  Each batch draws
    the next rows of the same row-major stream that one (count, dim) draw
    would give, so the directions do not depend on the batch size.

    Without `helper` the draws are made inline, into one buffer.  With it,
    an executor of one thread, the helper draws batch k+1 into the other of
    two buffers while the caller transforms and uses batch k; the transform
    stays in the caller's thread.  Every batch is transformed into the same
    buffer, so a batch is overwritten when the next one is taken."""
    dim = embedding.dimension
    transform = embedding.inverse.T
    size = min(count, _BATCH_ROWS) * dim
    buffers = [np.empty(size) for _ in range(1 if helper is None else 2)]
    coords = np.empty(size)
    batches = -(-count // _BATCH_ROWS)

    def draw(k: int) -> np.ndarray:
        # Batch k, as a (rows, dim) view of the start of its buffer.
        rows = min(count - k * _BATCH_ROWS, _BATCH_ROWS)
        draws = buffers[k % len(buffers)][: rows * dim].reshape(rows, dim)
        rng.standard_normal(out=draws)
        return draws

    def transformed(draws: np.ndarray) -> np.ndarray:
        out = coords[: draws.size].reshape(dim, len(draws))
        return np.matmul(transform, draws.T, out=out)

    if helper is None:
        for k in range(batches):
            yield transformed(draw(k))
        return
    pending = helper.submit(draw, 0)
    for k in range(batches):
        draws = pending.result()
        if k + 1 < batches:
            pending = helper.submit(draw, k + 1)
        yield transformed(draws)


def _count_cone0(
    embedding: Embedding, count: int, seed: int, worker: int, tol: float
) -> int:
    rng = np.random.default_rng([seed, worker])
    hits = 0
    for coords in _coordinate_batches(embedding, rng, count):
        hits += int(np.count_nonzero(coords.min(axis=0) >= -tol))
    return hits


# Most substreams one estimate may split into.  Each costs a future and a
# generator even when it draws nothing: 100,000 of them took 28 s and 161 MB.
MAX_WORKERS = 4_096

# Most samples one estimate or partition scan may draw: about 67 s of Monte
# Carlo with one worker at 15M samples/s.
MAX_SAMPLES = 10**9


def montecarlo_nu(
    spec: str | TypeLabel | DecompositionLabel,
    n_samples: int,
    seed: int,
    workers: int = 1,
    tol: float = DEFAULT_TOL,
) -> VolumeEstimate:
    """Fraction of uniform sphere directions lying in the simple-root cone.

    Directions are isotropic Gaussian points in Cartesian coordinates with
    the magnitude ignored.  Each worker consumes its own (seed, worker)
    substream, so totals depend only on (seed, workers); substream 0 runs
    in the calling thread and the others on a thread pool of at most
    os.cpu_count() threads, and each draws its batches inline.  At most
    ``MAX_WORKERS`` substreams and ``MAX_SAMPLES`` samples are allowed.
    The trivial system, of rank 0, has no directions to sample and is
    refused."""
    decomposition = as_decomposition(spec)
    if decomposition.rank == 0:
        raise ValueError(f"type {decomposition} has rank 0; Monte Carlo sampling needs rank 1 or more")
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"n_samples must be at most {MAX_SAMPLES}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be between 1 and {MAX_WORKERS}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    embedding = embedding_for(decomposition)
    base, extra = divmod(n_samples, workers)
    counts = [base + (1 if w < extra else 0) for w in range(workers)]
    with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        futures = [
            pool.submit(_count_cone0, embedding, counts[w], seed, w, tol)
            for w in range(1, workers)
        ]
        hits = _count_cone0(embedding, counts[0], seed, 0, tol) + sum(f.result() for f in futures)
    return VolumeEstimate(
        decomposition, n_samples, seed, workers, hits, nu_of(decomposition)
    )


@dataclass(frozen=True)
class PartitionReport:
    """Brute-force cone membership versus constructive location.

    `counts` follow the constructive assignment; `expected` holds the exact
    cone fractions.  Samples within tolerance of a wall are flagged as
    boundary and excluded from the agreement count, not failed."""

    label: TypeLabel
    samples: int
    seed: int
    counts: tuple[int, ...]
    expected: tuple[Fraction, ...]
    boundary_count: int
    failure_count: int
    mismatch_count: int

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(c / self.samples for c in self.counts)

    @property
    def z_scores(self) -> tuple[float, ...]:
        out = []
        for count, exact in zip(self.counts, self.expected):
            p = float(exact)
            stderr = math.sqrt(p * (1 - p) / self.samples)
            out.append((count / self.samples - p) / stderr)
        return tuple(out)

    @property
    def passed(self) -> bool:
        return (
            self.failure_count == 0
            and self.mismatch_count == 0
            and all(abs(z) <= 4 for z in self.z_scores)
        )

    def as_dict(self) -> dict:
        return {
            "type": str(self.label),
            "check": "partition",
            "samples": self.samples,
            "seed": self.seed,
            "counts": list(self.counts),
            "frequencies": list(self.frequencies),
            "expected": [str(x) for x in self.expected],
            "z_scores": list(self.z_scores),
            "boundary": self.boundary_count,
            "failures": self.failure_count,
            "mismatches": self.mismatch_count,
            "pass": self.passed,
        }


def _count_and_index(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of a boolean mask: how many entries are set and, where
    exactly one is, its row.  One float32 product gives both; its sums of
    row indices are exact, and the copy the mask is cast to is half the size
    of a float64 one."""
    rows = mask.shape[0]
    weights = np.array([np.ones(rows), np.arange(rows)], dtype=np.float32)
    return weights @ mask


def _constructive_cones(ratios: np.ndarray, nonneg: np.ndarray) -> np.ndarray:
    """Constructive cone of each column, from its ratios b_i / n_i and
    whether all its coordinates are nonnegative: cone 0 if they are, else 1
    plus the index maximizing b_i / n_i, the smallest index on ties.  This
    vectorizes the scalar oracle in tests/geometry_oracle.py.  Columns whose
    maximum is not unique, which random draws almost never give, fall back
    to `np.argmax`."""
    hits, index = _count_and_index(ratios == ratios.max(axis=0))
    tied = np.flatnonzero(hits != 1)
    index[tied] = np.argmax(ratios[:, tied], axis=0)
    cones = index.astype(np.intp) + 1
    cones[nonneg] = 0
    return cones


def partition_check(
    label: TypeLabel | str,
    n_samples: int = 10_000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> PartitionReport:
    """Scan every cone for membership of each sampled direction: exactly one
    cone may contain it in its interior, and the constructive location must
    name that cone for every non-boundary sample.

    One helper thread draws the next batch while the caller scans the
    current one; it ends before the call returns or raises.  At most
    ``MAX_SAMPLES`` samples are allowed."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"n_samples must be at most {MAX_SAMPLES}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if isinstance(label, str):
        label = parse_label(label)
    if label.rank > PARTITION_RANK_CEILING:
        raise ValueError(
            f"{label} has rank {label.rank}, above the partition scan's rank ceiling of {PARTITION_RANK_CEILING}"
        )
    marked = extended_diagram(label)
    marks = np.array(marked.marks, dtype=float)
    terms = node_terms(label)
    embedding = embedding_for(label)
    dim = embedding.dimension

    # Cone i >= 1 swaps row i of the simple basis for the mark vector, and
    # to_cones[i - 1] maps simple-root coordinates to the coefficients in its
    # basis; cone 0 keeps the simple basis and needs no map.  The cones are
    # scanned one at a time, so a batch holds the coefficients of one cone,
    # not of all rank+1.
    to_cones = []
    for i in range(dim):
        basis = np.eye(dim)
        basis[i] = marks
        to_cones.append(np.linalg.inv(basis).T)

    rows = min(n_samples, _BATCH_ROWS)
    lowest_buffer = np.empty((dim + 1) * rows)
    # Holds each cone's coefficients in turn, then the ratios b_i / n_i.
    scratch_buffer = np.empty(dim * rows)
    counts = np.zeros(dim + 1, dtype=np.int64)
    boundary_count = failure_count = mismatch_count = 0
    rng = np.random.default_rng(seed)
    with ThreadPoolExecutor(max_workers=1) as helper:
        for coords in _coordinate_batches(embedding, rng, n_samples, helper):
            width = coords.shape[1]
            lowest = lowest_buffer[: (dim + 1) * width].reshape(dim + 1, width)
            scratch = scratch_buffer[: dim * width].reshape(dim, width)
            np.min(coords, axis=0, out=lowest[0])
            for j, inv in enumerate(to_cones, 1):
                np.min(np.matmul(inv, coords, out=scratch), axis=0, out=lowest[j])

            # A clean sample lies in exactly one interior, so `scanned`, the
            # interior's index, is only read where it is well defined.
            inside_counts = np.count_nonzero(lowest >= -tol, axis=0)
            interior_counts, scanned = _count_and_index(lowest > tol)
            failures = (interior_counts >= 2) | (inside_counts == 0)
            boundary = ~failures & ((inside_counts >= 2) | (interior_counts == 0))
            clean = ~failures & ~boundary

            ratios = np.divide(coords, marks[:, None], out=scratch)
            assigned = _constructive_cones(ratios, lowest[0] >= 0)
            mismatch_count += int(np.count_nonzero(clean & (assigned != scanned)))
            boundary_count += int(np.count_nonzero(boundary))
            failure_count += int(np.count_nonzero(failures))
            counts += np.bincount(assigned, minlength=dim + 1)

    return PartitionReport(
        label=label,
        samples=n_samples,
        seed=seed,
        counts=tuple(int(c) for c in counts),
        expected=tuple(term.nu_value for term in terms),
        boundary_count=boundary_count,
        failure_count=failure_count,
        mismatch_count=mismatch_count,
    )


def planar_cone_fraction(spec: str | TypeLabel | DecompositionLabel) -> Fraction:
    """Exact fraction of the circle covered by a rank-2 simple-root cone,
    from the angle between the two simple roots."""
    decomposition = as_decomposition(spec)
    gram = cartan_of_decomposition(decomposition).gram()
    if len(gram) != 2:
        raise ValueError("planar cone fraction requires rank 2")
    if gram[0][1] > 0:
        raise ValueError("simple roots must meet at a non-acute angle")
    cos_sq = Fraction(gram[0][1] ** 2, gram[0][0] * gram[1][1])
    try:
        return _PLANAR_FRACTIONS[cos_sq]
    except KeyError:
        raise ValueError(f"unrecognized rank-2 angle, cos^2 = {cos_sq}") from None
