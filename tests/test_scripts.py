"""The experiment scripts run as separate processes against the package; the
benchmark pairing script runs in process with its benchmark runs replaced."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, line",
    [
        ("reproduce_tables.py", ["--max-rank", "4"], "  E8  30808063/99532800"),
        ("volume_sweep.py", ["--type", "A2", "--samples", "10000", "20000"], "exact: 1/3 = 0.333333"),
    ],
    ids=["reproduce_tables", "volume_sweep"],
)
def test_script_runs(script, args, line):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines()


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_pairs(monkeypatch, outcome):
    """The pairing script, its benchmark run replaced by `outcome(side,
    seed)`: True for a correct run, False for a wrong one, or an exception
    to raise."""
    module = _load_bench_pairs()

    def run_once(root, workload, seed, seconds):
        side = root.name
        result = outcome(side, seed)
        if isinstance(result, BaseException):
            raise result
        wall = 1.0 if side == "parent" else 0.9
        return {"correct": result, "wall_s": wall, "peak_rss_mb": 50.0, "setup_s": 0.1}

    monkeypatch.setattr(module, "run_once", run_once)
    return module


def _argv(tmp_path, pairs):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    metrics = [{"name": name, "better": "lower"} for name in ("wall_s", "peak_rss_mb", "setup_s")]
    spec = {"run_seconds": 1, "end_to_end": metrics}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    output = tmp_path / "out.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    argv += ["--workload", f"w={pairs}", "--seed", "10", "--output", str(output)]
    return argv, output


def test_bench_pairs_records_every_pair(tmp_path, monkeypatch):
    module = _bench_pairs(monkeypatch, lambda side, seed: True)
    argv, output = _argv(tmp_path, 3)
    assert module.main(argv) == 0
    record = json.loads(output.read_text())["workloads"]["w"]
    assert [run["seed"] for run in record["runs"]] == [10, 11, 12]
    assert record["summary"]["wall_s"]["change_wins"] == 3


def test_bench_pairs_stops_at_a_wrong_run(tmp_path, monkeypatch, capsys):
    module = _bench_pairs(monkeypatch, lambda side, seed: not (side == "change" and seed == 11))
    argv, output = _argv(tmp_path, 3)
    assert module.main(argv) == 1
    assert "w pair 1 seed 11: change run not correct" in capsys.readouterr().err
    runs = json.loads(output.read_text())["workloads"]["w"]["runs"]
    assert [run["change"]["correct"] for run in runs] == [True, False]


def test_bench_pairs_keeps_the_pairs_before_a_failed_run(tmp_path, monkeypatch):
    module = _bench_pairs(monkeypatch, lambda side, seed: SystemExit("exited 1") if seed == 12 else True)
    argv, output = _argv(tmp_path, 3)
    with pytest.raises(SystemExit, match="exited 1"):
        module.main(argv)
    runs = json.loads(output.read_text())["workloads"]["w"]["runs"]
    assert [run["seed"] for run in runs] == [10, 11]



@pytest.mark.parametrize("commit", ["unknown", "e3812246ca274364353141934bd76cb4fb49378d"])
def test_bench_pairs_names_a_checkout_without_git_by_its_sources(tmp_path, monkeypatch, commit):
    module = _load_bench_pairs()
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n")
    (package / "notes.txt").write_text("not a source\n")
    report = {"git_commit": commit, "repetitions": [{}]}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 0.5}}}
    stdout = f"{json.dumps(report)}\n{json.dumps(result)}\n"

    def fake_run(argv, cwd, capture_output, text):
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    first = module.run_once(tmp_path, "w", 1, 1)["commit"]
    (package / "notes.txt").write_text("changed\n")
    assert module.run_once(tmp_path, "w", 1, 1)["commit"] == first
    (package / "a.py").write_text("x = 2\n")
    second = module.run_once(tmp_path, "w", 1, 1)["commit"]
    if commit == "unknown":
        assert first.startswith("src-sha256:") and len(first) == len("src-sha256:") + 64
        assert second != first
    else:
        assert first == second == commit


@pytest.mark.parametrize("flag, recorded", [(None, False), ("", False), ("1", True)])
def test_bench_pairs_keeps_the_machine_facts_of_each_run(tmp_path, monkeypatch, flag, recorded):
    module = _load_bench_pairs()
    machine = {"nproc": 2, "python": "3.11.7", "numpy": "1.26.4", "blas": "openblas 0.3", "thread_env": {}}
    report = {"git_commit": "abc", "machine": machine, "repetitions": [{}]}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 0.5}}}
    stdout = f"{json.dumps(report)}\n{json.dumps(result)}\n"
    seen_env = []

    def fake_run(argv, cwd, capture_output, text):
        seen_env.append(os.environ.get("PYTHONDONTWRITEBYTECODE"))
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    if flag is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", flag)
    run = module.run_once(tmp_path, "w", 1, 1)
    assert run["machine"] == machine
    assert run["dont_write_bytecode"] is recorded
    assert seen_env == [flag]


PARENT_WALLS = [1.00 + 0.01 * k for k in range(10)]


@pytest.mark.parametrize(
    "change, better, wins, gap, met",
    [
        ([w - 0.1 for w in PARENT_WALLS], "lower", 10, 0.1, True),
        ([w - 0.1 for w in PARENT_WALLS[:9]] + [1.2], "lower", 9, 0.1, True),
        ([w - 0.1 for w in PARENT_WALLS[:8]] + [1.2, 1.2], "lower", 8, 0.1, False),
        ([w - 0.05 for w in PARENT_WALLS], "lower", 10, 0.05, False),
        ([w + 0.1 for w in PARENT_WALLS], "higher", 10, 0.1, True),
        ([w + 0.1 for w in PARENT_WALLS], "lower", 0, -0.1, False),
    ],
    ids=["wide-gap", "nine-of-ten", "eight-of-ten", "gap-inside-the-spread", "higher-is-better", "worse"],
)
def test_bench_pairs_states_the_claim_rule(change, better, wins, gap, met):
    # The parent's quartiles of 1.00..1.09 are 1.0175 and 1.0725, a spread of
    # 0.055: a gap of 0.1 clears it and one of 0.05 does not.
    module = _load_bench_pairs()
    runs = [{"parent": {"wall_s": p}, "change": {"wall_s": c}} for p, c in zip(PARENT_WALLS, change)]
    summary = module.summarize(runs, [{"name": "wall_s", "better": better}])["wall_s"]
    assert summary["parent_iqr"] == pytest.approx(0.055)
    assert summary["median_gap"] == pytest.approx(gap)
    assert (summary["change_wins"], summary["pairs"], summary["claim_rule_met"]) == (wins, 10, met)
