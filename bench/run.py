"""rootvol benchmark: cold-process workloads with checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact-sweep|sampling \
        --seed N --seconds S --trace 0|1

Each repetition of the workload runs in a fresh interpreter (bench/worker.py),
one process at a time, so every cache in the package starts empty, as it does
for a CLI call.  Repetitions start while one more still fits within
``--seconds`` of the start, set-up processes included; the end-to-end metrics
are medians over them.  Times are scaled to a reference host speed, read
from a fixed kernel between ops (bench/reference.py), because the speed of a
shared host drifts more than a run can average out.  With ``--trace 1`` the
repetitions alternate untraced and traced, and the per-layer metrics come
from the traced ones.  ``bench/NOTES.md`` explains the workloads and metrics.

The second-to-last line of stdout holds the machine facts and the failed ops;
the last line is the result object.  The exit code is 0 only when a result is
printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"

# Set-up is timed in this many extra interpreters per run, besides the one
# that runs each repetition.
SETUP_SAMPLES = 5
# Every process this script starts must have ended by then.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(root: Path, args: list[str], deadline: float) -> dict:
    """Run the worker once and return its result, timed from process start."""
    started = now()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["raw_setup_s"] = result["import_done"] - started
    # Importing is interpreted code, so set-up is scaled like it.
    result["setup_s"] = result["raw_setup_s"] * REFERENCE_S / result["import_kernel_s"]
    result["process_s"] = now() - started
    return result


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median_of(reps: list[dict], key) -> float:
    return statistics.median(key(r) for r in reps)


def per_layer(name: str, untraced: list[dict], traced: list[dict]) -> float:
    """One per-layer metric: a span's self time, a count, or a ratio of them."""
    reps = untraced + traced
    counts = traced[0]["counts"]

    def rate(samples: str, span: str) -> float:
        seconds = median_of(traced, lambda r: r["self_s"].get(span, 0.0))
        return counts.get(samples, 0) / seconds if seconds else 0.0

    derived = {
        "samples_per_s": lambda: median_of(untraced, lambda r: r["counts"].get("geometry.samples", 0) / r["wall_s"]),
        "ops_failed_ratio": lambda: traced[0]["failed"] / traced[0]["attempted"],
        "geometry.mc_w1_samples_per_s": lambda: rate("geometry.mc_w1.samples", "geometry.mc_w1_s"),
        "geometry.mc_w2_samples_per_s": lambda: rate("geometry.mc_w2.samples", "geometry.mc_w2_s"),
        "geometry.partition_samples_per_s": lambda: rate("geometry.partition.samples", "geometry.partition_s"),
        "geometry.boundary_ratio": lambda: (
            counts.get("geometry.boundary", 0) / counts["geometry.partition.samples"]
            if counts.get("geometry.partition.samples")
            else 0.0
        ),
        "bench.raw_wall_s": lambda: median_of(untraced, lambda r: r["raw_wall_s"]),
        "bench.host_speed": lambda: median_of(reps, lambda r: r["host_speed"]),
        "trace.overhead_s": lambda: median_of(traced, lambda r: r["wall_s"]) - median_of(untraced, lambda r: r["wall_s"]),
        "trace.unattributed_s": lambda: median_of(traced, lambda r: r["wall_s"] - r["spanned_s"]),
    }
    if name in derived:
        return derived[name]()
    if name.endswith("_s"):
        return median_of(traced, lambda r: r["self_s"].get(name, 0.0))
    return counts.get(name, 0)


def measure(args: argparse.Namespace, root: Path, spec: dict) -> tuple[dict, dict]:
    started = now()
    deadline = started + DEADLINE_S
    spawn(root, ["--setup-only"], deadline)  # untimed: writes the bytecode cache
    setups = [spawn(root, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]

    reps: list[dict] = []
    minimum = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        flags = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced))]
        rep = spawn(root, flags, deadline)
        rep["traced"] = traced
        reps.append(rep)
        # Start another repetition only if one of median length still ends
        # within --seconds of the start, set-up processes included.
        expected = statistics.median(r["process_s"] for r in reps)
        if len(reps) >= minimum and now() + expected > started + args.seconds:
            break
        if now() + rep["process_s"] > deadline:
            if len(reps) >= minimum:
                break
            raise BenchError("one repetition does not fit before the deadline")

    setups.extend(r["setup_s"] for r in reps)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    outcome = [(r["attempted"], r["failures"], r["counts"]) for r in reps]
    correct = all(r["wrong"] == 0 for r in reps) and all(o == outcome[0] for o in outcome)

    if args.trace:
        metrics = {
            m["name"]: {"value": per_layer(m["name"], untraced, traced), "unit": m["unit"]} for m in spec["per_layer"]
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": median_of(untraced, lambda r: r["wall_s"]),
            "peak_rss_mb": median_of(untraced, lambda r: r["peak_rss_mb"]),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "git_commit": git_commit(root),
        "machine": reps[0]["facts"],
        "repetitions": [
            {k: r[k] for k in ("traced", "setup_s", "raw_setup_s", "wall_s", "raw_wall_s", "host_speed", "peak_rss_mb", "attempted", "failed")} for r in reps
        ],
        "setup_samples": setups,
        "failures": reps[0]["failures"],
    }
    return result, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "rootvol" / "cli.py").is_file():
        print(f"error: no rootvol sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        result, report = measure(args, root, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
