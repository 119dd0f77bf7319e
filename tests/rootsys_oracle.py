"""Pure-Python oracles for root closure and diagram matching, for the tests.

``reflection_closure`` closes the simple roots one tuple at a time, pairing
each root with the nonzero entries of each Cartan column.  The library
closes whole levels as integer arrays; the tests require the same roots,
order, highest root and errors from both.

``extend_by_gram`` builds an extended diagram from Fraction pairings in the
Gram matrix, where the library pairs integer Cartan entries.

``dense_permuted_equal`` compares every entry of a relabeled matrix with a
catalogue matrix, where the library compares edges only.

``is_finite_type`` tests a Cartan matrix by its bond products and the
leading minors of its pairing matrix, where the library matches diagrams.

``subsystem`` finds the roots of a node-deletion subsystem two ways: by
filtering the ambient roots that are integral over the deleted basis, and
by regenerating from the deleted Cartan matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from det_oracle import det
from rootvol.diagram import (
    CartanMatrix,
    MarkedDiagram,
    NotFiniteTypeError,
    TypeLabel,
    cartan_of_type,
    delete_node,
)
from rootvol.exact import as_int
from rootvol.rootsys import Root, RootSystem, closure_bound, generate_roots


def reflection_closure(cartan: CartanMatrix) -> RootSystem:
    n = cartan.size
    a = cartan.entries
    bound = closure_bound(cartan)
    columns = [tuple((i, a[i][j]) for i in range(n) if a[i][j]) for j in range(n)]
    seen: set[tuple[int, ...]] = set()
    frontier: list[tuple[int, ...]] = []
    for i in range(n):
        unit = tuple(1 if k == i else 0 for k in range(n))
        seen.add(unit)
        frontier.append(unit)
    while frontier:
        fresh = []
        for c in frontier:
            for j, column in enumerate(columns):
                pairing = sum(c[i] * x for i, x in column)
                if not pairing:
                    continue
                image = c[:j] + (c[j] - pairing,) + c[j + 1 :]
                if image not in seen:
                    seen.add(image)
                    fresh.append(image)
        if len(seen) > bound:
            raise NotFiniteTypeError(
                f"reflection closure exceeded {bound} vectors; "
                "input is not finite type"
            )
        frontier = fresh
    for c in seen:
        if any(x > 0 for x in c) and any(x < 0 for x in c):
            raise NotFiniteTypeError("closure produced a mixed-sign vector")
    ordered = sorted(seen, key=lambda c: (sum(c), c))
    roots = tuple(Root(c) for c in ordered)
    positive = tuple(r for r in roots if r.height > 0)
    theta = None
    if n >= 1 and len(cartan.components()) == 1:
        top = max(r.height for r in positive)
        peaks = [r for r in positive if r.height == top]
        if len(peaks) != 1:
            raise NotFiniteTypeError("highest root is not unique")
        theta = peaks[0]
    return RootSystem(
        cartan=cartan,
        roots=roots,
        positive=positive,
        gram=cartan.gram() if n else (),
        theta=theta,
        coord_set=frozenset(seen),
    )


def extend_by_gram(label: TypeLabel, rootsystem: RootSystem) -> MarkedDiagram:
    base = cartan_of_type(label)
    theta = rootsystem.theta
    g = rootsystem.gram
    n = base.size
    tc = theta.coords
    pair = [tc[j] * g[j][j] + sum(tc[i] * g[i][j] for i in base.edges[j]) for j in range(n)]
    theta_norm = sum(tc[j] * pair[j] for j in range(n))
    row0 = [2] + [as_int(Fraction(-2) * pair[j] / g[j][j]) for j in range(n)]
    col0 = [as_int(Fraction(-2) * pair[j] / theta_norm) for j in range(n)]
    entries = [tuple(row0)]
    for i in range(n):
        entries.append((col0[i],) + base.entries[i])
    marks = tuple(-c for c in tc)
    return MarkedDiagram(CartanMatrix(tuple(entries)), marks)


def dense_permuted_equal(
    entries: Sequence[Sequence[int]],
    edges: Sequence[Sequence[int]],
    order: Sequence[int],
    target: CartanMatrix,
) -> bool:
    """Takes the library comparison's arguments; reads the entries only."""
    k = len(order)
    return all(
        entries[order[p]][order[q]] == target.entries[p][q]
        for p in range(k)
        for q in range(k)
    )


def is_finite_type(cartan: CartanMatrix) -> bool:
    """Exact test: symmetrizable with positive definite pairing matrix."""
    for i in range(cartan.size):
        for j in range(i + 1, cartan.size):
            if cartan.entries[i][j] * cartan.entries[j][i] > 3:
                return False
    if cartan.symmetrizer() is None:
        return False
    g = cartan.gram()
    for k in range(1, cartan.size + 1):
        minor = det([row[:k] for row in g[:k]])
        if minor <= 0:
            return False
    return True


@dataclass(frozen=True)
class Subsystem:
    node: int
    filtered: tuple[Root, ...]
    system: RootSystem


def subsystem(rs: RootSystem, diagram: MarkedDiagram, node: int) -> Subsystem:
    if diagram.rank != rs.rank:
        raise ValueError("diagram and root system ranks differ")
    if not 0 <= node <= diagram.rank:
        raise IndexError(f"node {node} out of range 0..{diagram.rank}")
    if node == 0:
        filtered = rs.roots
    else:
        m = diagram.marks[node - 1]
        filtered = tuple(r for r in rs.roots if r.coords[node - 1] % m == 0)
    regenerated = generate_roots(delete_node(diagram, node))
    if len(filtered) != len(regenerated.roots):
        raise RuntimeError(
            f"subsystem cross-check failed at node {node}: "
            f"{len(filtered)} filtered vs {len(regenerated.roots)} regenerated"
        )
    return Subsystem(node, filtered, regenerated)
