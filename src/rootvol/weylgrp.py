"""Explicit Weyl groups as integer matrix groups, and the character identities.

Elements act on simple-root coordinate rows, v -> v @ matrix, so the matrix
rows are the images of the simple basis vectors.  Determinant expressions
det(1 - q w) are evaluated exactly over rationals from these matrices, and
the integer determinants det(w) and det(1 - w) by fraction-free elimination.

The generator list S_0 is indexed by position: position 0 is the reflection
in the highest root, positions 1..l are the simple reflections.  Subsets of
S_0 are subsets of positions; at rank 1 the two positions name the same
group element and are still counted separately.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .diagram import DecompositionLabel, TypeLabel, classify, parse_label
from .exact import det, det_int
from .invariants import degrees_of, degrees_of_type, nu, weyl_order
from .identity import node_terms
from .rootsys import (
    Root,
    RootSystem,
    highest_root,
    reflection_matrix,
    system_of_type,
)

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_CAP = 10_000

DEFAULT_SOLOMON_POINTS: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(2), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(-1, 2)),
    (Fraction(-1), Fraction(2, 3)),
    (Fraction(5, 7), Fraction(3, 2)),
    (Fraction(0), Fraction(1, 3)),
)

DEFAULT_EXPANSION_SAMPLES: tuple[Fraction, ...] = (
    Fraction(1, 2),
    Fraction(-1, 3),
    Fraction(2, 5),
)

# k values for the probe points t = 1 - 1/k approaching the limit.
EXPANSION_PROBE_STEPS: tuple[int, ...] = (1_000, 10_000)


class EnumerationCapError(RuntimeError):
    """Expected group order exceeds the configured enumeration cap."""

    def __init__(self, expected_order: int, cap: int):
        super().__init__(
            f"expected group order {expected_order} exceeds enumeration cap {cap}"
        )
        self.expected_order = expected_order
        self.cap = cap


def _identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


@dataclass(frozen=True)
class WeylElement:
    matrix: Matrix

    def __mul__(self, other: WeylElement) -> WeylElement:
        return WeylElement(_matmul(self.matrix, other.matrix))


def det_one_minus(matrix: Matrix, scalar: Fraction) -> Fraction:
    """det(1 - scalar * matrix), exact."""
    n = len(matrix)
    rows = [
        [Fraction(int(i == j)) - scalar * matrix[i][j] for j in range(n)]
        for i in range(n)
    ]
    return det(rows)


def matrix_det(matrix: Matrix) -> int:
    return det_int(matrix)


def delta_value(w: WeylElement, q: Fraction | int, t: Fraction | int) -> Fraction:
    """det(1 - qw) / det(1 - tw).  Requires |t| != 1 so the denominator
    cannot vanish (eigenvalues of w are roots of unity)."""
    q = Fraction(q)
    t = Fraction(t)
    if abs(t) == 1:
        raise ValueError("delta_value requires |t| != 1")
    return det_one_minus(w.matrix, q) / det_one_minus(w.matrix, t)


@dataclass(eq=False)
class GroupTable:
    """A fully enumerated Weyl group.

    `simple` holds the element indices of s_1..s_l in node order and
    `s_theta` the index of the reflection in the highest root; together they
    realize the generator list S_0.  For the generator s at S_0 position p,
    `right[p][i]` is the index of w_i * s and `left[p][i]` that of s * w_i,
    so every product with a generator is a lookup.
    """

    decomposition: DecompositionLabel
    elements: tuple[WeylElement, ...]
    index: dict[Matrix, int] = field(repr=False)
    simple: tuple[int, ...]
    s_theta: int
    right: tuple[array, ...] = field(repr=False)
    left: tuple[array, ...] = field(repr=False)
    _classes: ConjugacyClasses | None = field(default=None, init=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def rank(self) -> int:
        return len(self.simple)

    def generator_positions(self) -> tuple[int, ...]:
        """Element indices for S_0 positions 0..l (position 0 = s_theta)."""
        return (self.s_theta, *self.simple)


def enumerate_group(rs: RootSystem, cap: int = DEFAULT_CAP) -> GroupTable:
    """Breadth-first closure of the simple reflections; the expected order
    is checked against the cap before any multiplication happens."""
    if len(rs.cartan.components()) != 1:
        raise ValueError("group enumeration requires an irreducible system")
    decomposition = classify(rs.cartan)
    if decomposition is None:
        raise ValueError("system is not of finite type")
    expected = weyl_order(degrees_of(decomposition))
    if expected > cap:
        raise EnumerationCapError(expected, cap)

    rank = rs.rank
    generators = [
        reflection_matrix(rs, Root(tuple(int(j == i) for j in range(rank))))
        for i in range(rank)
    ]
    identity = _identity_matrix(rank)
    elements: list[Matrix] = [identity]
    index: dict[Matrix, int] = {identity: 0}
    # Element j was first reached as elements[parent[j]] * generators[via[j]].
    parent = [0]
    via = [0]
    # Each row of an element is the image of a simple root, so only |Phi|
    # distinct rows occur; kept elements share them.
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    right = [array("I") for _ in generators]
    # The list grows while it is walked, so elements are visited breadth
    # first and in index order, and right[k] fills in index order.
    for i, m in enumerate(elements):
        for k, g in enumerate(generators):
            p = _matmul(m, g)
            j = index.get(p)
            if j is None:
                p = tuple(rows.setdefault(r, r) for r in p)
                j = index[p] = len(elements)
                elements.append(p)
                parent.append(i)
                via.append(k)
            right[k].append(j)
    if len(elements) != expected:
        raise RuntimeError(
            f"closure produced {len(elements)} elements, expected {expected}"
        )
    simple = tuple(index[g] for g in generators)
    s_theta = index[reflection_matrix(rs, highest_root(rs))]

    def left_by(x: int) -> array:
        # x * w_j = (x * w_parent) * s_via, so the words give every product.
        column = array("I", [x])
        for j in range(1, len(elements)):
            column.append(right[via[j]][column[parent[j]]])
        return column

    left = [left_by(x) for x in simple]
    left_theta = left_by(s_theta)
    inverse = [0] * len(elements)
    for j in range(1, len(elements)):
        inverse[j] = left[via[j]][inverse[parent[j]]]
    # s_theta is an involution, so w * s_theta = (s_theta * w^-1)^-1.
    right_theta = array("I", (inverse[left_theta[inverse[j]]] for j in range(len(elements))))
    return GroupTable(
        decomposition=decomposition,
        elements=tuple(WeylElement(m) for m in elements),
        index=index,
        simple=simple,
        s_theta=s_theta,
        right=(right_theta, *right),
        left=(left_theta, *left),
    )


@lru_cache(maxsize=None)
def _group_table_cached(label: TypeLabel, cap: int) -> GroupTable:
    return enumerate_group(system_of_type(label), cap)


def group_table_of(label: TypeLabel | str, cap: int = DEFAULT_CAP) -> GroupTable:
    if isinstance(label, str):
        label = parse_label(label)
    return _group_table_cached(label, cap)


@dataclass(frozen=True)
class ConjugacyClasses:
    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.representatives)


def conjugacy_classes(table: GroupTable) -> ConjugacyClasses:
    """Orbits under conjugation by the simple reflections (involutions, so
    conjugation is s * w * s).  Computed once per table and kept on it."""
    if table._classes is not None:
        return table._classes
    conjugators = [(table.left[p], table.right[p]) for p in range(1, table.rank + 1)]
    class_of = [-1] * table.order
    reps: list[int] = []
    sizes: list[int] = []
    for start in range(table.order):
        if class_of[start] != -1:
            continue
        cid = len(reps)
        reps.append(start)
        class_of[start] = cid
        stack = [start]
        size = 1
        while stack:
            j = stack.pop()
            for left, right in conjugators:
                k = left[right[j]]
                if class_of[k] == -1:
                    class_of[k] = cid
                    size += 1
                    stack.append(k)
        sizes.append(size)
    table._classes = ConjugacyClasses(tuple(class_of), tuple(reps), tuple(sizes))
    return table._classes


def reflection_subgroup(table: GroupTable, generators: Iterable[int]) -> tuple[int, ...]:
    """Indices of the subgroup generated by the given members of S_0 (as
    element indices), closed breadth first through the right columns."""
    position_of = {element: p for p, element in enumerate(table.generator_positions())}
    try:
        columns = [table.right[position_of[g]] for g in set(generators)]
    except KeyError as exc:
        raise ValueError(f"element {exc.args[0]} is not a member of S_0") from None
    members = [0]
    seen = {0}
    for i in members:
        for column in columns:
            j = column[i]
            if j not in seen:
                seen.add(j)
                members.append(j)
    return tuple(sorted(members))


@dataclass(frozen=True)
class PointCheck:
    q: Fraction
    t: Fraction
    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def as_dict(self) -> dict:
        return {
            "q": str(self.q),
            "t": str(self.t),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "pass": self.passed,
        }


@dataclass(frozen=True)
class SolomonReport:
    label: TypeLabel
    group_order: int
    points: tuple[PointCheck, ...]
    specialization: PointCheck

    @property
    def passed(self) -> bool:
        return (
            all(p.passed for p in self.points)
            and self.specialization.passed
            and self.specialization.rhs == 1
        )

    def as_dict(self) -> dict:
        return {
            "type": str(self.label),
            "check": "solomon",
            "group_order": self.group_order,
            "points": [p.as_dict() for p in self.points],
            "specialization": self.specialization.as_dict(),
            "pass": self.passed,
        }


def _group_average_delta(
    table: GroupTable, classes: ConjugacyClasses, q: Fraction, t: Fraction
) -> Fraction:
    total = Fraction(0)
    for rep, size in zip(classes.representatives, classes.sizes):
        total += size * delta_value(table.elements[rep], q, t)
    return total / table.order


def verify_solomon(
    label: TypeLabel | str,
    sample_points: Sequence[tuple[Fraction | int, Fraction | int]] | None = None,
    cap: int = DEFAULT_CAP,
) -> SolomonReport:
    """Group average of det(1-qw)/det(1-tw) against the degree product
    prod (1 - q t^(d-1)) / (1 - t^d), exactly at each sample point, plus the
    (q,t) = (1,0) specialization whose value must be exactly 1."""
    if isinstance(label, str):
        label = parse_label(label)
    if sample_points is None:
        sample_points = DEFAULT_SOLOMON_POINTS
    points = [(Fraction(q), Fraction(t)) for q, t in sample_points]
    for _, t in points:
        if abs(t) == 1:
            raise ValueError(f"sample point with |t| = 1 is not allowed: t = {t}")
    table = group_table_of(label, cap)
    classes = conjugacy_classes(table)
    degrees = degrees_of_type(label)

    def rhs_at(q: Fraction, t: Fraction) -> Fraction:
        value = Fraction(1)
        for d in degrees:
            value *= Fraction(1 - q * t ** (d - 1), 1 - t**d)
        return value

    checks = tuple(
        PointCheck(q, t, _group_average_delta(table, classes, q, t), rhs_at(q, t))
        for q, t in points
    )
    q1, t0 = Fraction(1), Fraction(0)
    specialization = PointCheck(
        q1, t0, _group_average_delta(table, classes, q1, t0), rhs_at(q1, t0)
    )
    return SolomonReport(label, table.order, checks, specialization)


@dataclass(frozen=True)
class ElementFailure:
    element: int
    matrix: Matrix
    lhs: Fraction
    rhs: Fraction

    def as_dict(self) -> dict:
        return {
            "element": self.element,
            "matrix": [list(row) for row in self.matrix],
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }


@dataclass(frozen=True)
class SubsetIdentityReport:
    label: TypeLabel
    check: str
    group_order: int
    subset_count: int
    failures: tuple[ElementFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "type": str(self.label),
            "check": self.check,
            "group_order": self.group_order,
            "subset_count": self.subset_count,
            "failures": [f.as_dict() for f in self.failures],
            "pass": self.passed,
        }


def coset_character(table: GroupTable, generators: Iterable[int]) -> tuple[int, ...]:
    """Number of left cosets of W_J fixed by w, per conjugacy class of w,
    where W_J is generated by the given members of S_0 (element indices).

    This character is induced from the trivial character of W_J, so its
    value on a class C is |W| * |C ∩ W_J| / (|C| * |W_J|) (Geck and
    Pfeiffer, Characters of Finite Coxeter Groups and Iwahori-Hecke
    Algebras, 2000, ch. 2): only the class counts of W_J are needed."""
    classes = conjugacy_classes(table)
    members = reflection_subgroup(table, generators)
    values = [0] * classes.count
    for cid, hits in Counter(classes.class_of[m] for m in members).items():
        value, remainder = divmod(table.order * hits, classes.sizes[cid] * len(members))
        if remainder:
            raise RuntimeError(
                f"coset character of a subgroup of order {len(members)} "
                f"is not an integer on class {cid}"
            )
        values[cid] = value
    return tuple(values)


def _signed_character_sums(
    table: GroupTable,
    positions: Sequence[int],
    subsets: Iterable[tuple[int, ...]],
    sign_of: callable,
) -> list[int]:
    """Sum over subsets J of sign(J) * perm character of W/W_J, as a vector
    indexed by conjugacy class."""
    totals = [0] * conjugacy_classes(table).count
    for subset in subsets:
        sign = sign_of(subset)
        values = coset_character(table, (positions[p] for p in subset))
        for cid, value in enumerate(values):
            totals[cid] += sign * value
    return totals


def _one_minus(matrix: Matrix) -> Matrix:
    return tuple(
        tuple(int(i == j) - x for j, x in enumerate(row)) for i, row in enumerate(matrix)
    )


def verify_steinberg(label: TypeLabel | str, cap: int = DEFAULT_CAP) -> SubsetIdentityReport:
    """det(1 - w) = sum over proper subsets J of S_0 of
    (-1)^(l - |J|) * (number of cosets of W_J fixed by w), for every w."""
    if isinstance(label, str):
        label = parse_label(label)
    table = group_table_of(label, cap)
    classes = conjugacy_classes(table)
    rank = table.rank
    positions = table.generator_positions()
    subsets = [
        subset
        for size in range(rank + 1)
        for subset in itertools.combinations(range(rank + 1), size)
    ]
    totals = _signed_character_sums(
        table, positions, subsets, lambda s: (-1) ** (rank - len(s))
    )
    failures = []
    for i, w in enumerate(table.elements):
        lhs = det_int(_one_minus(w.matrix))
        rhs = totals[classes.class_of[i]]
        if lhs != rhs:
            failures.append(ElementFailure(i, w.matrix, Fraction(lhs), Fraction(rhs)))
    return SubsetIdentityReport(label, "steinberg", table.order, len(subsets), tuple(failures))


def verify_companion(label: TypeLabel | str, cap: int = DEFAULT_CAP) -> SubsetIdentityReport:
    """det(w) = sum over all subsets J of S of
    (-1)^|J| * (number of cosets of W_J fixed by w), for every w."""
    if isinstance(label, str):
        label = parse_label(label)
    table = group_table_of(label, cap)
    classes = conjugacy_classes(table)
    rank = table.rank
    subsets = [
        subset
        for size in range(rank + 1)
        for subset in itertools.combinations(range(rank), size)
    ]
    totals = _signed_character_sums(
        table, table.simple, subsets, lambda s: (-1) ** len(s)
    )
    failures = []
    for i, w in enumerate(table.elements):
        lhs = matrix_det(w.matrix)
        rhs = totals[classes.class_of[i]]
        if lhs != rhs:
            failures.append(ElementFailure(i, w.matrix, Fraction(lhs), Fraction(rhs)))
    return SubsetIdentityReport(label, "companion", table.order, len(subsets), tuple(failures))


@dataclass(frozen=True)
class ExpansionReport:
    """Restricted expansion of the graded pairing over the node subgroups.

    `samples` are the requested t values; `probes` evaluate both sides at
    t = 1 - 1/k for the configured k steps, where each node term must also
    approach its cone fraction monotonically."""

    label: TypeLabel
    group_order: int
    samples: tuple[PointCheck, ...]
    probes: tuple[PointCheck, ...]
    probe_gaps: tuple[tuple[Fraction, ...], ...]
    gaps_decreasing: bool

    @property
    def passed(self) -> bool:
        return (
            all(p.passed for p in self.samples)
            and all(p.passed for p in self.probes)
            and self.gaps_decreasing
        )

    def as_dict(self) -> dict:
        return {
            "type": str(self.label),
            "check": "expansion",
            "group_order": self.group_order,
            "points": [p.as_dict() for p in self.samples],
            "probes": [p.as_dict() for p in self.probes],
            "probe_gaps": [[str(g) for g in gaps] for gaps in self.probe_gaps],
            "gaps_decreasing": self.gaps_decreasing,
            "pass": self.passed,
        }


def _node_degree_lists(label: TypeLabel) -> list[tuple[int, ...]]:
    return [degrees_of(term.decomposition) for term in node_terms(label)]


def _expansion_rhs_terms(degree_lists: Sequence[tuple[int, ...]], t: Fraction) -> list[Fraction]:
    terms = []
    for degrees in degree_lists:
        value = Fraction(1)
        for d in degrees:
            value *= Fraction(1 - t ** (d - 1), 1 - t**d)
        terms.append(value)
    return terms


def verify_restricted_expansion(
    label: TypeLabel | str,
    t_samples: Sequence[Fraction | int] | None = None,
    cap: int = DEFAULT_CAP,
) -> ExpansionReport:
    """Group average of det(1-w)^2 / det(1-tw) against the sum over extended
    diagram nodes of the degree products of the deleted-node subsystems."""
    if isinstance(label, str):
        label = parse_label(label)
    if t_samples is None:
        t_samples = DEFAULT_EXPANSION_SAMPLES
    samples = [Fraction(t) for t in t_samples]
    for t in samples:
        if abs(t) == 1:
            raise ValueError(f"sample with |t| = 1 is not allowed: t = {t}")
    table = group_table_of(label, cap)
    classes = conjugacy_classes(table)
    degree_lists = _node_degree_lists(label)
    nu_values = [nu(degrees) for degrees in degree_lists]

    def lhs_at(t: Fraction) -> Fraction:
        total = Fraction(0)
        for rep, size in zip(classes.representatives, classes.sizes):
            m = table.elements[rep].matrix
            numerator = det_one_minus(m, Fraction(1)) ** 2
            total += size * numerator / det_one_minus(m, t)
        return total / table.order

    def check_at(t: Fraction) -> tuple[PointCheck, list[Fraction]]:
        terms = _expansion_rhs_terms(degree_lists, t)
        rhs = sum(terms, Fraction(0))
        return PointCheck(Fraction(1), t, lhs_at(t), rhs), terms

    sample_checks = tuple(check_at(t)[0] for t in samples)
    probe_checks: list[PointCheck] = []
    probe_gaps: list[tuple[Fraction, ...]] = []
    for k in EXPANSION_PROBE_STEPS:
        t = Fraction(k - 1, k)
        check, terms = check_at(t)
        probe_checks.append(check)
        probe_gaps.append(tuple(abs(term - v) for term, v in zip(terms, nu_values)))
    gaps_decreasing = all(
        later < earlier or later == earlier == 0
        for earlier_row, later_row in zip(probe_gaps, probe_gaps[1:])
        for earlier, later in zip(earlier_row, later_row)
    )
    return ExpansionReport(
        label,
        table.order,
        sample_checks,
        tuple(probe_checks),
        tuple(probe_gaps),
        gaps_decreasing,
    )
