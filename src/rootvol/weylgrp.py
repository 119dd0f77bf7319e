"""Explicit Weyl groups as tables of root ids, and the character identities.

Elements act on simple-root coordinate rows, v -> v @ matrix, so the matrix
rows are the images of the simple basis vectors, and a table stores each
element as the ids of the roots w(alpha_1)..w(alpha_l), with one index
column per generator for w * s and one for w^-1.  One class record per
table holds the conjugacy classes and det(1 - x w) on each as an integer
polynomial, found by Faddeev-LeVerrier on one stack of every class
representative.  Every identity reads that record: Solomon and the
expansion evaluate the polynomials exactly at rational points, and
Steinberg and the companion read det(1 - w) and det(w) from their
coefficients.

Subgroups are named by positions in the generator list S_0: position 0 is
the reflection in the highest root, positions 1..l are the simple
reflections, and position p indexes `GroupTable.right`.  At rank 1 the two
positions name the same group element and are still counted separately.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .diagram import DecompositionLabel, TypeLabel, classify, parse_label
from .invariants import (
    DEFAULT_CAP,
    EnumerationCapError,
    degree_product,
    degrees_of,
    degrees_of_type,
    fraction_sum,
    weyl_order,
)
from .identity import node_terms
from .rootsys import Roots, RootSystem, system_of_type

Matrix = tuple[tuple[int, ...], ...]

# The first point is degenerate: with q t = 1, det(1 - qw) / det(1 - tw) is
# (-q)^l det(w) for every w (w and w^-1 are conjugate in a Weyl group), so
# it checks only that det(w) averages to 0 over the group.  It is kept
# because the printed points are part of the CLI output; the other four
# weigh the whole class histogram.
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


@dataclass(eq=False)
class GroupTable:
    """A fully enumerated Weyl group.

    Row i of `root_ids` holds the ids of the roots w_i(alpha_1)..w_i(alpha_l),
    the rows of the matrix of w_i, as positions in the closure's packed
    `roots`; `element(i)` builds that matrix.  For the generator s at S_0
    position p, `right[p][i]` is the index of w_i * s, so s itself is
    `right[p][0]`; `inverse[i]` is the index of w_i^-1.  `_classes` keeps
    the class record once `conjugacy_classes` has built it.
    """

    decomposition: DecompositionLabel
    root_ids: np.ndarray = field(repr=False)
    roots: Roots = field(repr=False)
    right: tuple[array, ...] = field(repr=False)
    inverse: array = field(repr=False)
    _classes: ConjugacyClasses | None = field(default=None, init=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.root_ids)

    @property
    def rank(self) -> int:
        return len(self.right) - 1

    def element(self, i: int) -> Matrix:
        return tuple(self.roots[r] for r in self.root_ids[i].tolist())


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(u, v))


def enumerate_group(rs: RootSystem, cap: int = DEFAULT_CAP) -> GroupTable:
    """Closure of the simple reflections, one length layer at a time; the
    expected order is checked against the cap before any product.

    Right multiplication by a simple reflection changes the length by one
    (Humphreys, Reflection Groups and Coxeter Groups, 1990, 1.6-1.7), so
    the images of layer l lie in layers l - 1 and l + 1.  Each element is
    its row of root ids, and row i of w * s_k is s_k applied to row i of w,
    so one gather from the reflection table forms a layer's images under
    every s_k.  Only the identity fixes every simple root, so the row
    determines the element.  Root ids take one byte, and each row is packed
    into one int64 key, one field per id as wide as the largest id; images
    are matched by key against layer l - 1 and against each other.  A system
    with over 256 roots or keys over 63 bits is refused before any product:
    A8 needs 56 bits and E7 49, and A10, the first type refused, 70.  New
    elements keep the order of their first (parent, generator) pair, the
    order of a breadth-first walk.  Those pairs give the products s * w in
    a work array, and it gives the inverses and the column of s_theta; it
    is freed before any column is packed.
    """
    if len(rs.cartan.components()) != 1:
        raise ValueError("group enumeration requires an irreducible system")
    decomposition = classify(rs.cartan)
    expected = weyl_order(degrees_of(decomposition))
    if expected > cap:
        raise EnumerationCapError(expected, cap)
    rank = rs.rank
    roots = rs.roots
    width = (len(roots) - 1).bit_length()
    if width > 8:
        raise ValueError(f"{decomposition} has {len(roots)} roots; root ids are stored in one byte")
    if width * rank > 63:
        raise ValueError(
            f"{decomposition} needs {width * rank}-bit element keys; at most 63 fit in an int64"
        )

    position = {beta: i for i, beta in enumerate(roots)}
    # reflected[k, i] is the id of s_k(root i) = beta - <beta, a_k^v> a_k,
    # where <beta, a_k^v> = sum_j beta_j a_jk, beta dotted with column k.
    reflected = np.array(
        [
            [position[(*beta[:k], beta[k] - _dot(beta, column), *beta[k + 1 :])] for beta in roots]
            for k, column in enumerate(zip(*rs.cartan.entries))
        ],
        dtype=np.uint8,
    )
    weights = np.array([1 << width * k for k in range(rank)], dtype=np.int64)
    # s_theta(a_i) = a_i - <a_i, theta^v> theta, where <a_i, theta^v> is 1
    # if <theta, a_i^v> = sum_j theta_j a_ji > 0, 0 if not, and 2 at A1, as
    # theta is long and dominant (see `diagram.extend`).
    theta = rs.theta
    coroot = 2 if rank == 1 else 1
    theta_ids = []
    for i, column in enumerate(zip(*rs.cartan.entries)):
        coeff = coroot if _dot(theta, column) else 0
        theta_ids.append(position[tuple(int(i == j) - coeff * t for j, t in enumerate(theta))])

    # Each row of these arrays is written once: that of root_ids, parent and
    # via when its element is found, that of right when its element's layer
    # is the frontier.  right[i, k] is the index of w_i * s_k; element j was
    # first reached as w_parent[j] * s_via[j].  Layer l holds the indices
    # from starts[l + 1] up to starts[l + 2]; layer -1 is empty.  Element
    # indices take 32 bits: the largest groups whose keys fit have 10,321,920.
    root_ids = np.empty((expected, rank), dtype=np.uint8)
    right = np.empty((expected, rank), dtype=np.uintc)
    parent = np.zeros(expected, dtype=np.int64)
    via = np.zeros(expected, dtype=np.int64)
    root_ids[0] = [position[tuple(int(j == i) for j in range(rank))] for i in range(rank)]
    frontier = root_ids[:1]
    keys = np.matmul(frontier, weights)
    previous = keys[:0]
    starts = [0, 0, 1]
    while len(frontier):
        previous_start, start, count = starts[-3:]
        # images[e, :, k] is the row of w * s_k for the e-th element w of
        # the layer, and image_keys[e * rank + k] its key.
        images = reflected.T[frontier]
        image_keys = np.matmul(weights, images).ravel()
        _, first, found = np.unique(
            np.concatenate((previous, image_keys)),
            return_index=True,
            return_inverse=True,
        )
        seen = first < len(previous)
        fresh = np.flatnonzero(~seen)
        fresh = fresh[np.argsort(first[fresh])]
        slot = np.empty(len(first), dtype=np.int64)
        slot[seen] = previous_start + first[seen]
        slot[fresh] = count + np.arange(len(fresh))
        right[start:count] = slot[found[len(previous) :]].reshape(-1, rank)
        stop = count + len(fresh)
        starts.append(stop)
        if stop > expected:
            break
        origin = first[fresh] - len(previous)
        element, generator = origin // rank, origin % rank
        parent[count:stop] = start + element
        via[count:stop] = generator
        root_ids[count:stop] = images[element, :, generator]
        previous, keys = keys, image_keys[origin]
        frontier = root_ids[count:stop]
    order = starts[-1]
    if order != expected:
        raise RuntimeError(f"closure produced {order} elements, expected {expected}")
    s_theta = int(np.flatnonzero((root_ids == theta_ids).all(axis=1))[0])

    layer_slices = [slice(a, b) for a, b in zip(starts[2:], starts[3:])]
    # x * w_j = (x * w_parent) * s_via: each layer's left products come from
    # the layer before it.  The columns are s_1..s_l, then s_theta.
    left = np.empty((order, rank + 1), dtype=np.uintc)
    left[0] = (*right[0], s_theta)
    for part in layer_slices:
        left[part] = right[left[parent[part]], via[part, None]]
    # w_j^-1 = s_via * w_parent^-1, in the same layer as w_j.
    inverse = np.zeros(order, dtype=np.uintc)
    for part in layer_slices:
        inverse[part] = left[inverse[parent[part]], via[part]]
    # s_theta is an involution, so w * s_theta = (s_theta * w^-1)^-1.
    right_theta = inverse[left[inverse, rank]]
    # The work arrays are freed before anything is packed, right once it is.
    del parent, via, left

    def column(values: np.ndarray) -> array:
        packed = array("I")
        packed.frombytes(values.astype(np.uintc).data.cast("B"))
        return packed

    right_columns = (column(right_theta), *map(column, right.T))
    del right, right_theta
    return GroupTable(decomposition, root_ids, roots, right_columns, column(inverse))


@lru_cache(maxsize=None)
def _group_table_cached(label: TypeLabel) -> GroupTable:
    return enumerate_group(system_of_type(label), weyl_order(degrees_of_type(label)))


def group_table_of(label: TypeLabel | str, cap: int = DEFAULT_CAP) -> GroupTable:
    """The table of W(label), kept per label: the cap is checked against the
    expected order before the cache is read or any root is closed."""
    if isinstance(label, str):
        label = parse_label(label)
    expected = weyl_order(degrees_of_type(label))
    if expected > cap:
        raise EnumerationCapError(expected, cap)
    return _group_table_cached(label)


@dataclass(frozen=True)
class ConjugacyClasses:
    """The class id of every element; per class its least index, its size
    and the coefficients c_0..c_l of det(1 - x w) = sum c_k x^k."""

    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]
    charpolys: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.representatives)


def conjugacy_classes(table: GroupTable) -> ConjugacyClasses:
    """Orbits under conjugation by the simple reflections (involutions, so
    conjugation is s * w * s), with det(1 - x w) on each.  Computed once
    per table and kept on it.

    With flip = inverse[right_p], which takes w to s * w^-1, s * w * s is
    flip[flip[w]]: one map per simple reflection, from two columns.

    Each element's label starts as its own index and takes the least label
    among its conjugates, then the label of its label (pointer jumping),
    until nothing changes; every label is then the least index in its
    class.  Classes are numbered in the order of those least indices.  The
    representatives' rows of root ids, looked up in the packed roots as
    int8, form one stack for `one_minus_charpolys`.
    """
    if table._classes is not None:
        return table._classes
    inverse = np.frombuffer(table.inverse, dtype=np.uintc)
    flips = (inverse[np.frombuffer(column, dtype=np.uintc)] for column in table.right[1:])
    conjugators = [flip[flip] for flip in flips]
    label = np.arange(table.order)
    while True:
        previous = label.copy()
        for conjugate in conjugators:
            np.minimum(label, label[conjugate], out=label)
        label = label[label]
        if np.array_equal(label, previous):
            break
    representatives, class_of, sizes = np.unique(label, return_inverse=True, return_counts=True)
    packed = np.frombuffer(table.roots.data, dtype=np.int8).reshape(-1, table.rank)
    table._classes = ConjugacyClasses(
        tuple(class_of.tolist()),
        tuple(representatives.tolist()),
        tuple(sizes.tolist()),
        one_minus_charpolys(packed[table.root_ids[representatives]]),
    )
    return table._classes


def one_minus_charpolys(stack: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Coefficients c_0..c_n of det(1 - x M) = sum c_k x^k for every integer
    matrix M of a (count, n, n) stack, by Faddeev-LeVerrier on the whole
    stack in int64: c_0 = 1, N_1 = I, c_k = -tr(M N_k) / k and
    N_(k+1) = M N_k + c_k I, one batched product, trace and division per k.

    Every entry of M N_k is at most n max|M| max|N_k| in size, its trace n
    times that and N_(k+1) n + 1 times that; a step where the last bound
    passes 2^63 - 1 raises ValueError before its product.  The entries of
    a group element are root coordinates, at most 4 for every type within
    the CLI's cap, so the check passes there by far.  Every division is
    exact for an integer matrix; one that is not raises ValueError naming
    the step and the trace of the first such matrix."""
    matrices = np.asarray(stack, dtype=np.int64)
    count, n = matrices.shape[:2]
    largest_entry = int(np.abs(matrices).max(initial=0))
    limit = np.iinfo(np.int64).max
    diagonal = np.arange(n)
    coeffs = np.ones((n + 1, count), dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    for k in range(1, n + 1):
        largest_power = int(np.abs(power).max(initial=0))
        if n * (n + 1) * largest_entry * largest_power > limit:
            raise ValueError(
                f"Faddeev-LeVerrier step {k}: entries up to {largest_entry} and"
                f" {largest_power} could overflow int64 products"
            )
        # N_k is a polynomial in M, so N_k M = M N_k.
        power = np.matmul(power, matrices)
        trace = np.trace(power, axis1=1, axis2=2)
        coeff, remainder = np.divmod(-trace, k)
        if remainder.any():
            bad = int(trace[np.flatnonzero(remainder)[0]])
            raise ValueError(f"Faddeev-LeVerrier step {k}: trace {bad} is not divisible by {k}")
        coeffs[k] = coeff
        power[:, diagonal, diagonal] += coeff[:, None]
    return tuple(map(tuple, coeffs.T.tolist()))


def _homogeneous(coeffs: Sequence[int], a: int, b: int) -> int:
    """b^n sum c_k (a/b)^k = sum c_k a^k b^(n-k) for the coefficients
    c_0..c_n, by Horner in integers."""
    value, scale = 0, 1
    for c in reversed(coeffs):
        value = value * a + c * scale
        scale *= b
    return value


def reflection_subgroup(table: GroupTable, positions: Iterable[int]) -> tuple[int, ...]:
    """Indices of the subgroup generated by the members of S_0 at the given
    positions, closed breadth first through their right columns, in the
    order the walk reaches them."""
    positions = set(positions)
    outside = sorted(positions.difference(range(table.rank + 1)))
    if outside:
        raise ValueError(f"positions {outside} are outside S_0, whose positions are 0..{table.rank}")
    columns = [table.right[p] for p in positions]
    members = [0]
    seen = bytearray(table.order)
    seen[0] = 1
    for i in members:
        for column in columns:
            j = column[i]
            if not seen[j]:
                seen[j] = 1
                members.append(j)
    return tuple(members)


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


def _group_averages(
    label: TypeLabel | str,
    cap: int,
    points: Sequence[tuple[Fraction, Fraction]],
    numerator: Callable[[tuple[int, ...], Fraction], tuple[int, int]],
) -> tuple[TypeLabel, int, list[Fraction]]:
    """The parsed label, |W| and, at each point (q, t), the average over the
    group of N / det(1 - t w), where numerator(p, q) = (n, d) gives N = n/d
    from the coefficients p of det(1 - x w).  A point with |t| = 1 is
    refused before the group is enumerated.  With t = a/b and rank l,
    1 / det(1 - t w) is b^l / H(a, b), where H(a, b) = b^l det(1 - (a/b) w)
    is an integer.  Classes with equal polynomials are merged once, and one
    Fraction is formed per point."""
    if isinstance(label, str):
        label = parse_label(label)
    for _, t in points:
        if abs(t) == 1:
            raise ValueError(f"sample point with |t| = 1 is not allowed: t = {t}")
    classes = conjugacy_classes(group_table_of(label, cap))
    counts: Counter[tuple[int, ...]] = Counter()
    for coeffs, size in zip(classes.charpolys, classes.sizes):
        counts[coeffs] += size
    order, rank = sum(classes.sizes), len(classes.charpolys[0]) - 1
    averages = []
    for q, t in points:
        a, b = t.as_integer_ratio()
        scale = b**rank
        pairs = []
        for coeffs, count in counts.items():
            n, d = numerator(coeffs, q)
            pairs.append((count * n * scale, d * _homogeneous(coeffs, a, b)))
        averages.append(fraction_sum(pairs, order))
    return label, order, averages


def verify_solomon(
    label: TypeLabel | str,
    sample_points: Sequence[tuple[Fraction | int, Fraction | int]] | None = None,
    cap: int = DEFAULT_CAP,
) -> SolomonReport:
    """Group average of det(1-qw)/det(1-tw) against the degree product
    prod (1 - q t^(d-1)) / (1 - t^d), exactly at each sample point, plus the
    (q,t) = (1,0) specialization whose value must be exactly 1.  With
    q = r/s and rank l, det(1 - qw) is H(r, s) / s^l."""
    if sample_points is None:
        sample_points = DEFAULT_SOLOMON_POINTS
    points = [(Fraction(q), Fraction(t)) for q, t in sample_points] + [(Fraction(1), Fraction(0))]

    def det_one_minus_q(p: tuple[int, ...], q: Fraction) -> tuple[int, int]:
        return _homogeneous(p, q.numerator, q.denominator), q.denominator ** (len(p) - 1)

    label, order, averages = _group_averages(label, cap, points, det_one_minus_q)
    degrees = degrees_of_type(label)
    checks = [PointCheck(q, t, lhs, degree_product(degrees, q, t)) for (q, t), lhs in zip(points, averages)]
    return SolomonReport(label, order, tuple(checks[:-1]), checks[-1])


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


def coset_character(table: GroupTable, positions: Iterable[int]) -> tuple[int, ...]:
    """Number of left cosets of W_J fixed by w, per conjugacy class of w,
    where W_J is generated by the members of S_0 at the given positions.

    This character is induced from the trivial character of W_J, so its
    value on a class C is |W| * |C ∩ W_J| / (|C| * |W_J|) (Geck and
    Pfeiffer, Characters of Finite Coxeter Groups and Iwahori-Hecke
    Algebras, 2000, ch. 2): only the class counts of W_J are needed.  When
    J holds s_1..s_l, W_J is W, whose one coset every w fixes, and nothing
    is closed."""
    classes = conjugacy_classes(table)
    positions = set(positions)
    if positions.issuperset(range(1, table.rank + 1)) and positions.issubset(range(table.rank + 1)):
        return (1,) * classes.count
    members = reflection_subgroup(table, positions)
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


def _subset_identity(
    label: TypeLabel | str,
    cap: int,
    check: str,
    first: int,
    sign: Callable[[int, int], int],
    side: Callable[[tuple[int, ...]], int],
) -> SubsetIdentityReport:
    """Checks side(det(1 - x w)) = sum over the subsets J of the S_0
    positions first..l with |J| <= l of sign(l, |J|) * (number of cosets of
    W_J fixed by w), one conjugacy class at a time.  A failing class lists
    every member, in index order."""
    if isinstance(label, str):
        label = parse_label(label)
    table = group_table_of(label, cap)
    classes = conjugacy_classes(table)
    rank = table.rank
    subsets = [J for size in range(rank + 1) for J in itertools.combinations(range(first, rank + 1), size)]
    totals = [0] * classes.count
    for subset in subsets:
        term = sign(rank, len(subset))
        for cid, value in enumerate(coset_character(table, subset)):
            totals[cid] += term * value
    lhs = [side(coeffs) for coeffs in classes.charpolys]
    failures: tuple[ElementFailure, ...] = ()
    if lhs != totals:
        failures = tuple(
            ElementFailure(i, table.element(i), Fraction(lhs[cid]), Fraction(totals[cid]))
            for i, cid in enumerate(classes.class_of)
            if lhs[cid] != totals[cid]
        )
    return SubsetIdentityReport(label, check, table.order, len(subsets), failures)


def verify_steinberg(label: TypeLabel | str, cap: int = DEFAULT_CAP) -> SubsetIdentityReport:
    """det(1 - w) = sum over proper subsets J of S_0 of
    (-1)^(l - |J|) * (number of cosets of W_J fixed by w), for every w.
    The left side is det(1 - x w) at x = 1, the sum of its coefficients."""
    return _subset_identity(label, cap, "steinberg", 0, lambda rank, size: (-1) ** (rank - size), sum)


def verify_companion(label: TypeLabel | str, cap: int = DEFAULT_CAP) -> SubsetIdentityReport:
    """det(w) = sum over all subsets J of S of
    (-1)^|J| * (number of cosets of W_J fixed by w), for every w.
    The left side is (-1)^l times the top coefficient of det(1 - x w)."""
    return _subset_identity(
        label, cap, "companion", 1, lambda rank, size: (-1) ** size, lambda c: (-1) ** (len(c) - 1) * c[-1]
    )


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


def verify_restricted_expansion(
    label: TypeLabel | str,
    t_samples: Sequence[Fraction | int] | None = None,
    cap: int = DEFAULT_CAP,
) -> ExpansionReport:
    """Group average of det(1-w)^2 / det(1-tw) against the sum over extended
    diagram nodes of the degree products of the deleted-node subsystems.
    det(1 - w) is the sum of the coefficients of det(1 - x w)."""
    if t_samples is None:
        t_samples = DEFAULT_EXPANSION_SAMPLES
    ts = [Fraction(t) for t in t_samples] + [Fraction(k - 1, k) for k in EXPANSION_PROBE_STEPS]
    points = [(Fraction(1), t) for t in ts]
    label, order, averages = _group_averages(label, cap, points, lambda p, q: (sum(p) ** 2, 1))
    terms = node_terms(label)
    checks, values = [], []
    for t, lhs in zip(ts, averages):
        values.append([degree_product(degrees_of(term.decomposition), 1, t) for term in terms])
        checks.append(PointCheck(Fraction(1), t, lhs, sum(values[-1], Fraction(0))))
    split = len(ts) - len(EXPANSION_PROBE_STEPS)
    probe_gaps = [tuple(abs(v - term.nu_value) for v, term in zip(row, terms)) for row in values[split:]]
    gaps_decreasing = all(
        later < earlier or later == earlier == 0
        for earlier_row, later_row in zip(probe_gaps, probe_gaps[1:])
        for earlier, later in zip(earlier_row, later_row)
    )
    return ExpansionReport(
        label,
        order,
        tuple(checks[:split]),
        tuple(checks[split:]),
        tuple(probe_gaps),
        gaps_decreasing,
    )
