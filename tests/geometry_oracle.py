"""Whole-array geometry oracle for the tests.

It draws every sample of a stream at once, keeps coordinates as rows, and
tests each cone with one `np.all` over the rows.  The library streams the
same draws in small batches with coordinates as columns; the tests require
the two to agree exactly.

``locate_cone`` is the scalar form of the constructive cone assignment that
``partition_check`` vectorizes, exact on exact inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from rootvol.diagram import TypeLabel, parse_label
from rootvol.geometry import DEFAULT_TOL, Embedding, PartitionReport, embedding_for
from rootvol.identity import extended_diagram, node_terms


@dataclass(frozen=True)
class ConeLocation:
    """Cone index 0..l and the coefficients in that cone's basis.

    For cone 0 the coefficients follow the simple-root order.  For cone
    i >= 1 the first coefficient belongs to the lowest root and the rest to
    the remaining simple roots in ascending node order.
    """

    cone: int
    coefficients: tuple


def locate_cone(coords: Sequence, marks: Sequence[int]) -> ConeLocation:
    """Constructive cone location: if some coordinate is negative, pick the
    index maximizing b_i/n_i (smallest index on ties) and rewrite in that
    cone's basis.  Exact on exact inputs, float on float inputs."""
    b = list(coords)
    n = list(marks)
    if len(b) != len(n):
        raise ValueError("coordinate and mark vectors differ in length")
    if all(x >= 0 for x in b):
        return ConeLocation(0, tuple(b))
    best = 0
    best_ratio = b[0] / n[0]
    for i in range(1, len(b)):
        ratio = b[i] / n[i]
        if ratio > best_ratio:
            best = i
            best_ratio = ratio
    rewritten = [best_ratio]
    rewritten.extend(b[h] - n[h] * best_ratio for h in range(len(b)) if h != best)
    return ConeLocation(best + 1, tuple(rewritten))


def count_cone0(
    embedding: Embedding, count: int, seed: int, worker: int, tol: float = DEFAULT_TOL
) -> int:
    rng = np.random.default_rng([seed, worker])
    coords = rng.standard_normal((count, embedding.dimension)) @ embedding.inverse
    return int(np.count_nonzero(np.all(coords >= -tol, axis=1)))


def montecarlo_hits(
    spec, n_samples: int, seed: int, workers: int, tol: float = DEFAULT_TOL
) -> int:
    """Hits summed over the (seed, worker) substreams, split as the library
    splits them: the first n_samples % workers substreams take one more."""
    embedding = embedding_for(spec)
    base, extra = divmod(n_samples, workers)
    return sum(
        count_cone0(embedding, base + (1 if w < extra else 0), seed, w, tol)
        for w in range(workers)
    )


def partition_check(
    label: TypeLabel | str,
    n_samples: int = 10_000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> PartitionReport:
    if isinstance(label, str):
        label = parse_label(label)
    marked = extended_diagram(label)
    marks = np.array(marked.marks, dtype=float)
    terms = node_terms(label)
    embedding = embedding_for(label)
    dim = embedding.dimension

    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n_samples, dim)) @ embedding.inverse

    # Coefficients of each sample in every cone basis.  Cone 0 keeps the
    # simple basis; cone i swaps row i for the mark vector.
    inside = np.zeros((dim + 1, n_samples), dtype=bool)
    interior = np.zeros((dim + 1, n_samples), dtype=bool)
    inside[0] = np.all(coords >= -tol, axis=1)
    interior[0] = np.all(coords > tol, axis=1)
    for i in range(dim):
        basis = np.eye(dim)
        basis[i] = marks
        cone_coords = coords @ np.linalg.inv(basis)
        inside[i + 1] = np.all(cone_coords >= -tol, axis=1)
        interior[i + 1] = np.all(cone_coords > tol, axis=1)

    inside_counts = inside.sum(axis=0)
    interior_counts = interior.sum(axis=0)
    failures = (interior_counts >= 2) | (inside_counts == 0)
    boundary = ~failures & ((inside_counts >= 2) | (interior_counts == 0))
    clean = ~failures & ~boundary

    nonneg = np.all(coords >= 0, axis=1)
    ratios = coords / marks
    assigned = np.where(nonneg, 0, np.argmax(ratios, axis=1) + 1)

    scanned = np.argmax(interior, axis=0)
    mismatches = int(np.count_nonzero(clean & (assigned != scanned)))

    counts = np.bincount(assigned, minlength=dim + 1)
    return PartitionReport(
        label=label,
        samples=n_samples,
        seed=seed,
        counts=tuple(int(c) for c in counts),
        expected=tuple(term.nu_value for term in terms),
        boundary_count=int(np.count_nonzero(boundary)),
        failure_count=int(np.count_nonzero(failures)),
        mismatch_count=mismatches,
    )
