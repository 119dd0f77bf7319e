"""Op runner, output gate and span recorder shared by every workload.

An op is one checked unit of work: a body that calls into the library's
public functions through `Runner.call` and compares what comes back with the
benchmark's own expectations through `expect`.  The runner counts every op
attempted, and records a failed op in one of two kinds:

* ``wrong``: a call returned, but its value differs from the expectation;
* ``error``: a call raised; the exception type is recorded.

Spans are recorded only when the runner is traced.  Untraced and traced runs
execute the same calls in the same order, so the difference in wall time
between them is the cost of tracing itself.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator


class Mismatch(Exception):
    """A layer returned a value other than the one the benchmark expects."""


def expect(got, want, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


@dataclass
class Span:
    name: str
    tag: str | None
    parent: int | None
    start: float
    end: float = 0.0


class Runner:
    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.counts: Counter[str] = Counter()
        self.attempted = 0
        self.failures: list[dict] = []
        # Per-process results of once-only preludes, keyed by type name.
        self.prepared: dict[str, object] = {}

    @contextmanager
    def span(self, name: str, tag: str | None = None) -> Iterator[None]:
        if not self.traced:
            yield
            return
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, tag, parent, time.perf_counter()))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def call(self, name: str, fn: Callable, *args, tag: str | None = None, **kwargs):
        """Call one public library function inside a span named for its layer."""
        with self.span(name, tag):
            return fn(*args, **kwargs)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def op(self, name: str, body: Callable, *args) -> None:
        self.attempted += 1
        try:
            with self.span("bench.op"):
                body(self, *args)
        except Mismatch as exc:
            self.failures.append({"op": name, "kind": "wrong", "detail": str(exc)[:300]})
        except Exception as exc:  # every exception from the library is a failed op
            self.failures.append(
                {"op": name, "kind": "error", "type": type(exc).__name__, "detail": str(exc)[:300]}
            )

    @property
    def wrong(self) -> int:
        return sum(1 for f in self.failures if f["kind"] == "wrong")

    def self_times(self, scales: list[float] | None = None) -> Counter[str]:
        """Seconds per span name (and per name and tag) with child spans
        subtracted, so nested calls are not counted twice.  Each span's own
        time is multiplied by its entry in `scales`, when given."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        out: Counter[str] = Counter()
        for index, (span, inner) in enumerate(zip(self.spans, covered)):
            own = (span.end - span.start - inner) * (scales[index] if scales else 1.0)
            out[f"{span.name}_s"] += own
            if span.tag is not None:
                out[f"{span.name}_{span.tag}_s"] += own
        return out
