"""Command line inputs that must fail with a usage error, not exhaust the
machine or end in a traceback."""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rootvol import cli, geometry, identity, invariants, rootsys, weylgrp
from rootvol.cli import MAX_CAP, MAX_SELECTOR_RANK, MAX_SERIES_ORDER, MAX_SWEEP_LENGTH, main


def test_sweep_at_the_cap_is_accepted():
    selector = cli._parse_selector(f"A1..A{MAX_SWEEP_LENGTH}")
    assert len(selector) == MAX_SWEEP_LENGTH
    # The longest sweep of A_n also reaches the selector's rank budget.
    assert sum(d.rank for d in selector) == MAX_SELECTOR_RANK


@pytest.mark.parametrize("end", [MAX_SWEEP_LENGTH + 1, 100_000_000])
def test_sweep_past_the_cap_is_a_usage_error(monkeypatch, capsys, end):
    def no_labels(*args):
        raise AssertionError("a label was built before the sweep length was checked")

    monkeypatch.setattr(cli, "TypeLabel", no_labels)
    assert main(["nu", "--type", f"A1..A{end}"]) == 2
    err = capsys.readouterr().err
    assert f"{end} entries" in err
    assert f"at most {MAX_SWEEP_LENGTH}" in err


@pytest.mark.parametrize(
    "selector,total",
    [("B4001..B5000", 4_500_500), (",".join(["A5000"] * 101), 505_000)],
    ids=["B4001..B5000", "101xA5000"],
)
def test_selector_past_the_rank_budget_is_a_usage_error(monkeypatch, capsys, selector, total):
    def no_nu(*args):
        raise AssertionError("a value was computed before the selector's total rank was checked")

    monkeypatch.setattr(cli, "nu_of", no_nu)
    assert main(["nu", "--type", selector]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: type selector has total rank {total}; at most {MAX_SELECTOR_RANK} is allowed\n"


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_partition_without_samples_is_a_usage_error(capsys, samples):
    assert main(["partition", "--type", "A2", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_samples must be positive" in captured.err


def test_volume_past_the_worker_cap_is_a_usage_error(monkeypatch, capsys):
    def no_pool(*args):
        raise AssertionError("a pool was built before the worker count was checked")

    monkeypatch.setattr(geometry, "ThreadPoolExecutor", no_pool)
    workers = str(geometry.MAX_WORKERS + 1)
    assert main(["volume", "--type", "A1", "--samples", "20000", "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"between 1 and {geometry.MAX_WORKERS}" in captured.err


@pytest.mark.parametrize("command", ["volume", "partition"])
def test_samples_past_the_cap_is_a_usage_error(monkeypatch, capsys, command):
    def no_generator(*args):
        raise AssertionError("a generator was built before the sample count was checked")

    monkeypatch.setattr(geometry.np.random, "default_rng", no_generator)
    samples = str(geometry.MAX_SAMPLES + 1)
    assert main([command, "--type", "A2", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n_samples must be at most {geometry.MAX_SAMPLES}\n"


@pytest.mark.parametrize(
    "argv,seed",
    [
        (["volume", "--type", "A2", "--samples", "2000", "--seed", "-1"], -1),
        (["partition", "--type", "A2", "--samples", "100", "--seed", "-3"], -3),
    ],
    ids=["volume", "partition"],
)
def test_negative_seed_is_a_usage_error(capsys, argv, seed):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: seed must be non-negative, got {seed}\n"


class _GeneratorBuilt(Exception):
    pass


@pytest.mark.parametrize("fn", [geometry.montecarlo_nu, geometry.partition_check], ids=["volume", "partition"])
def test_samples_at_the_cap_pass_the_check(monkeypatch, fn):
    # The check passes when the call goes on to build its generator.
    def built(*args):
        raise _GeneratorBuilt

    monkeypatch.setattr(geometry.np.random, "default_rng", built)
    with pytest.raises(_GeneratorBuilt):
        fn("A2", geometry.MAX_SAMPLES, 0)


def _no_coefficients(*args):
    raise AssertionError("a coefficient was computed before the order was checked")


def test_series_past_the_order_cap_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "check_binomial_identity", _no_coefficients)
    monkeypatch.setattr(cli, "series_coefficient", _no_coefficients)
    assert main(["series", "--order", str(MAX_SERIES_ORDER + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--order {MAX_SERIES_ORDER + 1}" in captured.err
    assert f"at most {MAX_SERIES_ORDER}" in captured.err


def test_series_at_the_order_cap_is_accepted(monkeypatch, capsys):
    # Stand-ins that pass, so the cap is checked without paying for order 256.
    class Passed:
        passed = True

    checked = []
    monkeypatch.setattr(cli, "check_binomial_identity", lambda part, n: checked.append(n) or Passed)
    # Part 1 says that coefficient n is 4^n.
    monkeypatch.setattr(cli, "series_coefficient", lambda part, n: 4**n)
    assert main(["series", "--order", str(MAX_SERIES_ORDER), "--part", "1"]) == 0
    assert max(checked) == MAX_SERIES_ORDER
    assert f"n = 0..{MAX_SERIES_ORDER}" in capsys.readouterr().out


def _no_enumeration(*args):
    raise AssertionError("roots were closed or a group enumerated before the cap was checked")


@pytest.mark.parametrize("command", ["solomon", "steinberg", "companion", "expansion"])
@pytest.mark.parametrize("cap", ["1000000000", str(MAX_CAP + 1), "0", "-3"])
def test_cap_outside_its_bounds_is_a_usage_error(monkeypatch, capsys, command, cap):
    monkeypatch.setattr(weylgrp, "enumerate_group", _no_enumeration)
    monkeypatch.setattr(weylgrp, "system_of_type", _no_enumeration)
    monkeypatch.setattr(rootsys, "generate_roots", _no_enumeration)
    assert main([command, "--type", "E8", "--cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"between 1 and {MAX_CAP}" in captured.err


@pytest.mark.parametrize(
    "command,verify,message",
    [
        ("solomon", "verify_solomon", "expected q,t pair, got ''"),
        ("expansion", "verify_restricted_expansion", "not a rational number: ''"),
    ],
)
def test_empty_points_are_a_usage_error(monkeypatch, capsys, command, verify, message):
    # An empty --points is a value, not a request for the default points.
    def no_check(*args):
        raise AssertionError("an identity was checked with an empty --points")

    monkeypatch.setattr(weylgrp, verify, no_check)
    assert main([command, "--type", "A2", "--points", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cap_at_its_bound_is_accepted(capsys):
    assert main(["steinberg", "--type", "A2", "--cap", str(MAX_CAP)]) == 0
    assert "steinberg A2: 6 elements" in capsys.readouterr().out


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, where):
    target = tmp_path / "missing" / "report.txt" if where == "missing directory" else tmp_path
    assert main(["nu", "--type", "E7", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write --output {target}: ")
    assert captured.err.count("\n") == 1


def test_volume_of_the_trivial_system_is_a_usage_error(monkeypatch, capsys):
    def no_embedding(*args):
        raise AssertionError("an embedding was built for a system of rank 0")

    monkeypatch.setattr(geometry, "embedding_for", no_embedding)
    assert main(["volume", "--type", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: type - has rank 0; Monte Carlo sampling needs rank 1 or more\n"


def test_calls_in_one_process_share_no_flags(tmp_path, capsys):
    # The parser is built once per process; each call must still see only
    # its own flags.
    target = tmp_path / "report.txt"
    assert main(["nu", "--type", "A2", "--output", str(target)]) == 0
    first = capsys.readouterr().out
    assert target.read_text() == first
    target.unlink()
    assert main(["nu", "--type", "A2"]) == 0
    assert capsys.readouterr().out == first
    assert not target.exists()
    assert main(["series", "--order", "4", "--part", "2"]) == 0
    assert capsys.readouterr().out == "part 2: n = 2..4  direct PASS  series PASS\n"
    assert main(["series", "--order", "4"]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "part 1",
        "part 2",
        "part 3",
    ]


def test_identity_above_its_rank_ceiling_is_a_usage_error(capsys):
    rank = identity.RANK_CEILING + 1
    assert main(["identity", "--type", f"B{rank}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"rank {rank}, above the identity's rank ceiling of {identity.RANK_CEILING}" in captured.err


def test_identity_at_its_rank_ceiling_sums_to_one(capsys):
    assert main(["identity", "--type", f"B{identity.RANK_CEILING}"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("total = 1  gamma = {0,1}  PASS")


def test_partition_above_its_rank_ceiling_is_a_usage_error(monkeypatch, capsys):
    def no_diagram(*args):
        raise AssertionError("a diagram was built before the rank was checked")

    monkeypatch.setattr(geometry, "extended_diagram", no_diagram)
    rank = geometry.PARTITION_RANK_CEILING + 1
    assert main(["partition", "--type", f"A{rank}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"rank {rank}, above the partition scan's rank ceiling" in captured.err


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "rootvol.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_nu_at_its_rank_ceiling_prints_the_exact_value():
    assert invariants.NU_RANK_CEILING == 5000
    done = _run_cli("nu", "--type", "B5000")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    # nu(B_n) = prod (2k - 1) / 2k = binomial(2n, n) / 4^n.
    assert Fraction(done.stdout) == Fraction(math.comb(10_000, 5000), 4**5000)
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == "2015a5611aeccb4a039433294f28ddee873d4b11140830591a50d44e604b3b32"


@pytest.mark.parametrize("spec", ["A5001", "B2500xC2501"])
def test_nu_above_its_rank_ceiling_is_a_usage_error(spec):
    # A1000000 would multiply for minutes, and B10000 ends in Python's limit
    # on printing integers of more than 4300 digits.
    done = _run_cli("nu", "--type", spec)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: {spec} has rank 5001, above nu's rank ceiling of 5000\n"
