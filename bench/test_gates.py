"""The benchmark's own gates: a wrong exact value, a changed CLI byte and a
raised exception each register as a failed op.  Also the arithmetic of the
reference-speed scaling and of span self times.

Run from the root of a checkout:  python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from ops import Runner  # noqa: E402
from rootvol import cli, invariants, series, weylgrp  # noqa: E402

POINTS = [(Fraction(2), Fraction(1, 2)), (Fraction(-3, 4), Fraction(2, 7))]


def run_ops(*ops: tuple) -> Runner:
    run = Runner(traced=True)
    for name, body, *args in ops:
        run.op(name, body, *args)
    return run


def test_correct_outputs_pass():
    run = run_ops(
        ("identity G2", workloads.identity_op, "G2"),
        ("solomon A2", workloads.solomon_op, "A2", POINTS),
        ("cli nu tsv", workloads.cli_op, "nu", "tsv"),
    )
    assert run.attempted == 3
    assert run.failures == []
    assert run.counts["weylgrp.points"] == len(POINTS) + 1


def test_wrong_exact_value_is_a_failed_op(monkeypatch):
    real = weylgrp.verify_solomon

    def shifted(label, points):
        # Both sides move together, so the report still claims to pass.
        report = real(label, points)
        first = report.points[0]
        bad = replace(first, lhs=first.lhs + 1, rhs=first.rhs + 1)
        return replace(report, points=(bad, *report.points[1:]))

    monkeypatch.setattr(weylgrp, "verify_solomon", shifted)
    run = run_ops(("solomon A2", workloads.solomon_op, "A2", POINTS))
    assert [f["kind"] for f in run.failures] == ["wrong"]
    assert run.wrong == 1


def test_changed_cli_byte_is_a_failed_op(monkeypatch):
    def altered(spec):
        return Fraction(5, 13) if str(spec) == "G2" else invariants.nu_of(spec)

    monkeypatch.setattr(cli, "nu_of", altered)
    run = run_ops(("cli nu text", workloads.cli_op, "nu", "text"))
    assert [f["kind"] for f in run.failures] == ["wrong"]
    assert "digest" in run.failures[0]["detail"]


def test_raised_exception_is_a_failed_op_with_its_type(monkeypatch):
    def broken(part, n):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(series, "check_binomial_identity", broken)
    run = run_ops(("series direct", workloads.series_direct_op, 4))
    assert run.attempted == 1
    assert [(f["kind"], f["type"]) for f in run.failures] == [("error", "ZeroDivisionError")]
    assert run.wrong == 0


def test_meter_scales_each_stretch_by_the_readings_around_it():
    readings = iter([0.1, 0.2, 0.05])
    meter = reference.Meter(lambda: next(readings))
    meter.add(0.4)
    meter.add(0.7)  # one stretch of 1.1 s, read before (0.1) and after (0.2)
    meter.add(0.3)
    meter.finish()  # one stretch of 0.3 s, read before (0.2) and after (0.05)
    ref = reference.REFERENCE_S
    assert meter.raw == pytest.approx(1.4)
    assert meter.scales == pytest.approx([ref / 0.15, ref / 0.125])
    assert meter.scaled == pytest.approx(1.1 * ref / 0.15 + 0.3 * ref / 0.125)
    assert meter.speed() == pytest.approx(ref / 0.1)


def test_reference_kernel_does_its_fixed_work():
    assert reference.kernel() == reference.KERNEL_RESULT
    assert reference.kernel_seconds() > 0
    assert reference.numpy_kernel_seconds() > 0


def test_self_time_excludes_child_spans():
    run = Runner(traced=True)
    with run.span("outer"):
        with run.span("inner", tag="x"):
            pass
    outer, inner = run.spans
    times = run.self_times()
    assert times["inner_s"] == times["inner_x_s"] == inner.end - inner.start
    assert abs(times["outer_s"] + times["inner_s"] - (outer.end - outer.start)) < 1e-12


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "exact-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
