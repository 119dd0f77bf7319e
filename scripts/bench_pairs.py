#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and record every run.

Runs ``bench/run.py --trace 0`` in the checkout of the parent commit and in
the checkout of the change, one process at a time, and alternates which
side goes first from pair to pair.  Both runs of a pair use the same seed;
pair k uses seed ``--seed`` + k, and every run lasts the ``run_seconds``
that ``BENCHMARK.json`` sets.  The output file holds every run's
end-to-end metrics and failed ops, and per workload and metric the median
and quartiles of each side, the parent's spread between its quartiles, how
many pairs the change won (ties count for neither side), the median gap
(the parent's median less the change's, signed so that a positive gap
favours the change) and ``claim_rule_met``, the rule a claimed gain must
meet: the change won at least nine tenths of the pairs, and its median gap
exceeds the parent's spread between its quartiles.  A run names its
checkout by the commit that ``bench/run.py`` reports, or, in a checkout
without git metadata, by ``src-sha256:`` and a digest of its ``src/``
sources.  Each run also keeps the machine facts that ``bench/run.py``
reports (core count, Python, numpy, BLAS and its thread count, and the
thread variables of the environment; null where the report has none) and
whether ``PYTHONDONTWRITEBYTECODE`` was set, since a worker that writes no
bytecode compiles the package inside the measured run.  The output file is
rewritten after every pair, so a run that fails keeps the pairs before it;
a run that reports wrong outputs stops the script with exit status 1,
naming its workload, pair, seed and side.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload exact-sweep=10 --workload sampling=4 \\
        --seed 201 --output BENCH_8.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def workload_pairs(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition("=")
    try:
        count = int(pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NAME=PAIRS, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"{text!r}: at least one pair is needed")
    return name, count


def source_digest(root: Path) -> str:
    """sha256 over the path, length and bytes of every ``.py`` file under
    ``root/src``, in sorted order."""
    src = root / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(src).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return f"src-sha256:{digest.hexdigest()}"


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `root`; its result object and report line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py in {root} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    *_, report_line, result_line = proc.stdout.splitlines()
    report, result = json.loads(report_line), json.loads(result_line)
    commit = report["git_commit"]
    return {
        "commit": source_digest(root) if commit == "unknown" else commit,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "repetitions": len(report["repetitions"]),
        "machine": report.get("machine"),
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        **{name: metric["value"] for name, metric in result["metrics"].items()},
    }


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Median and quartiles per side, the pairs the change won, the median
    gap in the change's favour, and whether the claim rule holds."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        sign = 1 if metric["better"] == "lower" else -1
        values = {side: [r[side][name] for r in runs] for side in SIDES}
        sides = {}
        for side, xs in values.items():
            q1, median, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            sides[side] = {"median": median, "q1": q1, "q3": q3}
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        parent_iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
        gap = sign * (sides["parent"]["median"] - sides["change"]["median"])
        out[name] = {
            **sides,
            "parent_iqr": parent_iqr,
            "change_wins": wins,
            "pairs": len(runs),
            "median_gap": gap,
            "claim_rule_met": 10 * wins >= 9 * len(runs) and gap > parent_iqr,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument(
        "--workload",
        type=workload_pairs,
        action="append",
        required=True,
        help="NAME=PAIRS, e.g. exact-sweep=10; repeat for more workloads",
    )
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record: dict = {"seconds": seconds, "first_seed": args.seed, "workloads": {}}
    for workload, pairs in args.workload:
        runs = []
        for k in range(pairs):
            seed = args.seed + k
            first = k % 2  # 0: the parent runs first
            pair = {"pair": k, "seed": seed, "first": SIDES[first]}
            for side in (SIDES[first], SIDES[1 - first]):
                pair[side] = run_once(roots[side], workload, seed, seconds)
            runs.append(pair)
            record["workloads"][workload] = {
                "runs": runs,
                "summary": summarize(runs, spec["end_to_end"]),
            }
            args.output.write_text(json.dumps(record, indent=2) + "\n")
            wrong = [side for side in SIDES if not pair[side]["correct"]]
            if wrong:
                print(f"{workload} pair {k} seed {seed}: {' and '.join(wrong)} run not correct", file=sys.stderr)
                return 1
            wall = {side: pair[side]["wall_s"] for side in SIDES}
            print(f"{workload} pair {k} seed {seed}: wall_s {wall['parent']:.3f} -> {wall['change']:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
