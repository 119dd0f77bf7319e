"""One cold run of one workload, in the interpreter this script starts.

Usage: python3 bench/worker.py --workload NAME --seed N --trace 0|1
       python3 bench/worker.py --setup-only

The first thing the script does is import ``rootvol.cli`` from the ``src``
directory beside ``bench``; every ``lru_cache`` in the package is therefore
empty when the workload starts, as it is for a user's CLI call.  The last
line of stdout is one JSON object.  ``import_done`` is read from
CLOCK_MONOTONIC, which every process on the host shares, so the parent can
subtract the moment it started this process.  ``import_kernel_s`` is a
reading of the reference kernel taken right after the import, which scales
that set-up time to the reference speed.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import rootvol.cli  # noqa: E402  (the import is what set-up time measures)

IMPORT_DONE = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402


def blas_facts() -> dict:
    """The BLAS numpy was built against and its default thread count."""
    import ctypes

    import numpy

    facts = {"numpy": numpy.__version__, "blas": "unknown", "blas_threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                facts["blas_threads"] = getter()
                return facts
    return facts


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "thread_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ
        },
    }
    facts.update(blas_facts())
    return facts


def main() -> int:
    source = os.path.realpath(rootvol.cli.__file__)
    if not source.startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: rootvol was imported from {source}, not from {SRC}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    from reference import Meter, kernel_seconds

    if args.setup_only:
        print(json.dumps({"import_done": IMPORT_DONE, "import_kernel_s": kernel_seconds()}))
        return 0

    from ops import Runner
    from workloads import KERNELS, workload_ops

    import_kernel_s = kernel_seconds()
    run = Runner(traced=bool(args.trace))
    meter = Meter(*KERNELS[args.workload])
    stretch_of_span: list[int] = []
    for name, body, *op_args in workload_ops(args.workload, args.seed):
        started = time.perf_counter()
        run.op(name, body, *op_args)
        elapsed = time.perf_counter() - started
        stretch_of_span += [len(meter.scales)] * (len(run.spans) - len(stretch_of_span))
        meter.add(elapsed)
    meter.finish()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "import_done": IMPORT_DONE,
        "import_kernel_s": import_kernel_s,
        "wall_s": meter.scaled,
        "raw_wall_s": meter.raw,
        "host_speed": meter.speed(),
        "peak_rss_mb": peak_kb / 1024,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "wrong": run.wrong,
        "failures": run.failures,
        "counts": dict(run.counts),
        "facts": machine_facts(),
    }
    if run.traced:
        # Span times are scaled like the op time around them.
        scales = [meter.scales[k] for k in stretch_of_span]
        result["self_s"] = dict(run.self_times(scales))
        result["spanned_s"] = sum((s.end - s.start) * k for s, k in zip(run.spans, scales) if s.parent is None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
