"""Pure-Python oracles for root closure and diagram matching, for the tests.

``reflection_closure`` closes the simple roots under the simple reflections
one tuple at a time, pairing each root with the nonzero entries of each
Cartan column, and keeps the roots as tuples.  The library builds the
positive roots by height from root strings and packs them into bytes; the
tests require the same roots, order, height counts, highest root and errors
from both.

``extend_by_gram`` builds an extended diagram from Fraction pairings in the
Gram matrix, where the library pairs integer Cartan entries.

``classify_by_reference`` walks each component of a Cartan matrix into a
node order and compares every entry of the relabeled matrix with the
catalogue matrix of each candidate type, where the library names the type
from the shape of the component alone.

``is_finite_type`` tests a Cartan matrix by its bond products and the
leading minors of its pairing matrix, where the library matches diagrams.

``delete_node`` builds the Cartan matrix of an extended diagram without
one node, the dense reference of the library's ``classify_deletion``,
which reads the edge lists node by node, and of ``classify_deletions``,
which reads every deletion off one preorder of the diagram.

``subsystem`` finds the roots of a node-deletion subsystem two ways: by
filtering the ambient roots that are integral over the deleted basis, and
by regenerating from the deleted Cartan matrix.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from det_oracle import det
from rootvol.diagram import (
    CartanMatrix,
    DecompositionLabel,
    InadmissibleLabelError,
    MarkedDiagram,
    NotFiniteTypeError,
    TypeLabel,
    cartan_of_type,
)
from rootvol.rootsys import RootSystem, closure_bound, generate_roots


def as_int(value: Fraction) -> int:
    """Convert an exact rational known to be integral; raise if it is not."""
    if value.denominator != 1:
        raise ValueError(f"expected an integer, got {value}")
    return value.numerator


# The tuple oracle's closure: all roots, the positive ones, the height
# counts and the highest root, as `RootSystem` reads them.
Closure = namedtuple("Closure", "roots positive heights theta")


def reflection_closure(cartan: CartanMatrix) -> Closure:
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
    roots = tuple(sorted(seen, key=lambda c: (sum(c), c)))
    positive = tuple(r for r in roots if sum(r) > 0)
    theta = None
    if n >= 1 and len(cartan.components()) == 1:
        top = max(map(sum, positive))
        peaks = [r for r in positive if sum(r) == top]
        if len(peaks) != 1:
            raise NotFiniteTypeError("highest root is not unique")
        theta = peaks[0]
    heights = tuple(Counter(map(sum, positive)).values())
    return Closure(roots, positive, heights, theta)


def extend_by_gram(label: TypeLabel, rootsystem: RootSystem) -> MarkedDiagram:
    base = cartan_of_type(label)
    tc = rootsystem.theta
    g = rootsystem.cartan.gram()
    n = base.size
    pair = [tc[j] * g[j][j] + sum(tc[i] * g[i][j] for i in base.edges[j]) for j in range(n)]
    theta_norm = sum(tc[j] * pair[j] for j in range(n))
    row0 = [2] + [as_int(Fraction(-2) * pair[j] / g[j][j]) for j in range(n)]
    col0 = [as_int(Fraction(-2) * pair[j] / theta_norm) for j in range(n)]
    entries = [tuple(row0)]
    for i in range(n):
        entries.append((col0[i],) + base.entries[i])
    marks = tuple(-c for c in tc)
    return MarkedDiagram(CartanMatrix(tuple(entries)), marks)


def dense_permuted_equal(cartan: CartanMatrix, order: Sequence[int], target: CartanMatrix) -> bool:
    """Whether node p of target is node order[p] of cartan, entry by entry."""
    k = len(order)
    return all(
        cartan.entries[order[p]][order[q]] == target.entries[p][q]
        for p in range(k)
        for q in range(k)
    )


def _path_order(edges: Sequence[Sequence[int]], start: int, size: int) -> list[int]:
    order = [start]
    for _ in range(size - 1):
        order.append(next(v for v in edges[order[-1]] if v not in order[-2:]))
    return order


def _branch_candidate(edges: Sequence[Sequence[int]], branch: int) -> tuple[TypeLabel, list[int]] | None:
    """The D or E label that the arms of `branch` suggest, and the node
    order of its catalogue numbering."""
    arms = []
    for first in edges[branch]:
        arm = [branch, first]
        while len(edges[arm[-1]]) == 2:
            step = next(v for v in edges[arm[-1]] if v != arm[-2])
            if step == branch:
                return None
            arm.append(step)
        arms.append(arm[1:])
    arms.sort(key=len)
    (short, middle, long_) = arms
    size = len(short) + len(middle) + len(long_) + 1
    if len(short) == len(middle) == 1:
        # D_n: n-2 is the branch, n-1 and n the short arms, 1..n-3 the long one.
        return TypeLabel("D", size), [*long_[::-1], branch, short[0], middle[0]]
    if (len(short), len(middle)) == (1, 2) and len(long_) in (2, 3, 4):
        # E_n: 1 - 3 - 4 - 5 ... with 2 on the branch node 4.
        return TypeLabel("E", size), [middle[1], short[0], middle[0], branch, *long_]
    return None


def classify_by_reference(cartan: CartanMatrix) -> DecompositionLabel:
    """Classify by dense comparison with the catalogue matrices, with the
    library's error message for a component that matches none."""
    factors = []
    for comp in cartan.components():
        degrees = [len(cartan.edges[v]) for v in comp]
        label = None
        if len(comp) == 1:
            label = TypeLabel("A", 1)
        elif degrees.count(3) == 1 and max(degrees) == 3:
            found = _branch_candidate(cartan.edges, comp[degrees.index(3)])
            if found and dense_permuted_equal(cartan, found[1], cartan_of_type(found[0])):
                label = found[0]
        elif max(degrees) <= 2 and degrees.count(1) == 2:
            order = _path_order(cartan.edges, comp[degrees.index(1)], len(comp))
            # B before C, so that B2 and C2 are both named B2.
            for family in "ABCFG":
                try:
                    cand = TypeLabel(family, len(comp))
                except InadmissibleLabelError:
                    continue
                target = cartan_of_type(cand)
                if any(dense_permuted_equal(cartan, o, target) for o in (order, order[::-1])):
                    label = cand
                    break
        if label is None:
            raise NotFiniteTypeError(f"component {comp} matches no finite-type diagram")
        factors.append(label)
    return DecompositionLabel(tuple(factors))


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


def delete_node(diagram: MarkedDiagram, node: int) -> CartanMatrix:
    """Remove one node (0 removes the added node and restores the original)."""
    if not 0 <= node <= diagram.rank:
        raise IndexError(f"node {node} out of range 0..{diagram.rank}")
    rows = diagram.cartan.entries
    return CartanMatrix(
        tuple(row[:node] + row[node + 1 :] for row in rows[:node] + rows[node + 1 :])
    )


@dataclass(frozen=True)
class Subsystem:
    node: int
    filtered: tuple[tuple[int, ...], ...]
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
        filtered = tuple(r for r in rs.roots if r[node - 1] % m == 0)
    regenerated = generate_roots(delete_node(diagram, node))
    if len(filtered) != len(regenerated.roots):
        raise RuntimeError(
            f"subsystem cross-check failed at node {node}: "
            f"{len(filtered)} filtered vs {len(regenerated.roots)} regenerated"
        )
    return Subsystem(node, filtered, regenerated)
