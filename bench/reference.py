"""Host speed, read from a fixed reference kernel, and op time scaled by it.

On a shared host the speed of pure-Python code drifts by a third or more in
phases of a minute or longer, and process CPU time drifts with it, so a run
of a minute cannot average it out.  The benchmark therefore times a fixed
kernel of its own between ops, at least every `SEGMENT_S` seconds of op
time, and scales each stretch of op time by the kernel's speed around it:

    scaled = stretch * REFERENCE_S / mean(kernel before, kernel after)

So `Meter.scaled` estimates the op time on a host where the kernel takes
`REFERENCE_S`, and `Meter.raw` is the op time as measured.  The kernels use
only the standard library and numpy, none of `rootvol`, so a change to the
package moves the scaled time exactly as it moves the raw time on a steady
host.  The kernel's time is never part of either.

There are two kernels: `kernel_seconds` times interpreted work like that of
the exact layers, and `numpy_kernel_seconds` numpy work like that of
`geometry`, which slows down under load far less.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Kernel seconds that scaled times are expressed in:
# about what the kernel takes on an uncontended core of the host that
# defined the benchmark (see NOTES.md).
REFERENCE_S = 0.070
# The kernel's dict grows level by level until it holds at least this many
# matrices (3097).  With a working set of this size the kernel slows down
# under load about as much as the exact layers do; a kernel with a seventh
# of it slowed down more.
KERNEL_ELEMENTS = 2000
# Op time between two kernel readings, at least.
SEGMENT_S = 1.0


def _matmul(a: tuple, b: tuple) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % 7 for col in cols) for row in a)


def kernel() -> tuple[int, Fraction]:
    """The reference work, in the mix the exact layers run: products of
    small integer matrices kept in a dict, then a Fraction determinant."""
    n = 5
    a = tuple(tuple(int(j == (i + 1) % n) for j in range(n)) for i in range(n))
    b = tuple(tuple(int(i == j) - int((i, j) == (0, 1)) for j in range(n)) for i in range(n))
    index = {a: 0}
    frontier = [a]
    while frontier and len(index) < KERNEL_ELEMENTS:
        fresh = []
        for m in frontier:
            for g in (a, b):
                p = _matmul(m, g)
                if p not in index:
                    index[p] = len(index)
                    fresh.append(p)
        frontier = fresh
    rows = [[Fraction((i * 3 + j * 5) % 7 - 3, 1 + (i + j) % 4) for j in range(6)] for i in range(6)]
    det = Fraction(1)
    for c in range(6):
        pivot = next(r for r in range(c, 6) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        det *= rows[c][c]
        for r in range(c + 1, 6):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return len(index), det


# The kernel's result never changes; a different one means the kernel did
# not do its reference work.
KERNEL_RESULT = (3097, Fraction(-242831, 10368))


def kernel_seconds() -> float:
    """One timing of the kernel.  The collector is off while it runs, so the
    objects the workload keeps alive do not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        result = kernel()
        seconds = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if result != KERNEL_RESULT:
        raise RuntimeError(f"reference kernel returned {result!r}")
    return seconds


# Samples and dimension of the numpy kernel.
NUMPY_SHAPE = (100_000, 8)
# The numpy kernel's seconds on an uncontended core of the same host.
NUMPY_REFERENCE_S = 0.020


def numpy_kernel_seconds() -> float:
    """One timing of the numpy kernel, in the mix of the geometry layer:
    Gaussian samples mapped by a fixed matrix, then a cone test per row."""
    import numpy as np

    dim = NUMPY_SHAPE[1]
    matrix = np.array([[((i * 5 + j * 3) % 7 - 3) / 3 + 2 * (i == j) for j in range(dim)] for i in range(dim)])
    started = time.perf_counter()
    coords = np.random.default_rng(12345).standard_normal(NUMPY_SHAPE) @ matrix
    hits = int(np.count_nonzero(np.all(coords >= 0, axis=1)))
    seconds = time.perf_counter() - started
    if not 0 < hits < NUMPY_SHAPE[0]:
        raise RuntimeError(f"numpy reference kernel counted {hits} hits")
    return seconds


class Meter:
    """Accumulates op time, raw and scaled to the reference speed of one
    kernel: `kernel_seconds` by default."""

    def __init__(self, read=kernel_seconds, reference: float = REFERENCE_S) -> None:
        self.read = read
        self.reference = reference
        self.raw = 0.0
        self.scaled = 0.0
        self.readings = [read()]
        # The scale of each closed stretch; an op added while len(scales)
        # was k is part of stretch k.
        self.scales: list[float] = []
        self._segment = 0.0

    def add(self, seconds: float) -> None:
        self._segment += seconds
        if self._segment >= SEGMENT_S:
            self._close()

    def finish(self) -> None:
        if self._segment:
            self._close()

    def speed(self) -> float:
        """Median host speed over the run, as the reference time over the
        kernel's time."""
        return self.reference / statistics.median(self.readings)

    def _close(self) -> None:
        before = self.readings[-1]
        self.readings.append(self.read())
        self.scales.append(self.reference / ((before + self.readings[-1]) / 2))
        self.raw += self._segment
        self.scaled += self._segment * self.scales[-1]
        self._segment = 0.0
