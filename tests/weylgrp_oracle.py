"""Breadth-first Weyl group enumeration on tuple matrices, and conjugacy
classes by a stack walk over matrix products, for the tests.

``enumerate_group`` multiplies one element by one generator at a time and
records each new product in the order it is first reached, as a tuple
matrix with its index in a dict.  Its generators are reflection matrices
built from the Gram matrix in ``Fraction`` arithmetic, and s_theta is found
from the highest root checked for dominance.  The library enumerates whole
length layers as integer arrays of root ids, with a reflection table built
from the Cartan matrix; the tests require the same elements, indices,
generator columns and inverses from both.  ``conjugacy_classes`` walks each
class from its least index, one element at a time, and finds s * w * s by
multiplying matrices; the library propagates least labels over whole
arrays of indices; each class's det(1 - x w) comes from
``one_minus_charpoly``, which runs Faddeev-LeVerrier on one matrix in
Python lists, where the library runs it on a stack of every class
representative at once in int64 arrays.  The tests require the same class
record from both.  ``group_average`` sums ``Fraction`` terms over the
library's classes, one term per class, where the library merges classes
with equal polynomials, sums integer numerators and denominators and forms
one ``Fraction``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from rootsys_oracle import as_int
from rootvol.diagram import classify
from rootvol.invariants import degrees_of, weyl_order
from rootvol.rootsys import RootSystem, system_of_type
from rootvol.weylgrp import (
    DEFAULT_CAP,
    ConjugacyClasses,
    EnumerationCapError,
    GroupTable,
    Matrix,
    conjugacy_classes as library_classes,
)


def highest_root(rs: RootSystem) -> tuple[int, ...]:
    """Unique root dominating every positive root componentwise."""
    if rs.theta is None:
        raise ValueError("highest root requires an irreducible system")
    theta = rs.theta
    for r in rs.positive:
        if any(rc > tc for rc, tc in zip(r, theta)):
            raise RuntimeError("maximal-height root fails componentwise dominance")
    return theta


def reflection_matrix(rs: RootSystem, alpha: tuple[int, ...]) -> Matrix:
    """Integer matrix of the reflection through alpha, rows as images: a
    coordinate row vector v maps to v @ M."""
    if alpha not in rs.roots:
        raise ValueError(f"{alpha} is not a root of this system")
    n = rs.rank
    g = rs.cartan.gram()
    support = [i for i in range(n) if alpha[i]]
    norm = sum(alpha[i] * alpha[j] * g[i][j] for i in support for j in support)
    rows = []
    for i in range(n):
        coeff = as_int(Fraction(2 * sum(g[i][j] * alpha[j] for j in support), norm))
        rows.append(tuple((1 if i == k else 0) - coeff * alpha[k] for k in range(n)))
    return tuple(rows)


def _identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


@dataclass(frozen=True)
class OracleTable:
    """The walk's record: elements in index order, the matrix -> index dict,
    the generator indices, and the right and inverse columns in the
    library's layout."""

    elements: tuple[Matrix, ...]
    index: dict[Matrix, int]
    simple: tuple[int, ...]
    s_theta: int
    right: tuple[array, ...]
    inverse: array


def enumerate_group(rs: RootSystem, cap: int = DEFAULT_CAP) -> OracleTable:
    if len(rs.cartan.components()) != 1:
        raise ValueError("group enumeration requires an irreducible system")
    expected = weyl_order(degrees_of(classify(rs.cartan)))
    if expected > cap:
        raise EnumerationCapError(expected, cap)

    rank = rs.rank
    generators = [
        reflection_matrix(rs, tuple(int(j == i) for j in range(rank)))
        for i in range(rank)
    ]
    identity = _identity_matrix(rank)
    elements: list[Matrix] = [identity]
    index: dict[Matrix, int] = {identity: 0}
    # Element j was first reached as elements[parent[j]] * generators[via[j]].
    parent = [0]
    via = [0]
    right = [array("I") for _ in generators]
    # The list grows while it is walked, so elements are visited breadth
    # first and in index order, and right[k] fills in index order.
    for i, m in enumerate(elements):
        for k, g in enumerate(generators):
            p = _matmul(m, g)
            j = index.get(p)
            if j is None:
                j = index[p] = len(elements)
                elements.append(p)
                parent.append(i)
                via.append(k)
            right[k].append(j)
    if len(elements) != expected:
        raise RuntimeError(f"closure produced {len(elements)} elements, expected {expected}")
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
    inverse = array("I", [0])
    for j in range(1, len(elements)):
        inverse.append(left[via[j]][inverse[parent[j]]])
    # s_theta is an involution, so w * s_theta = (s_theta * w^-1)^-1.
    right_theta = array("I", (inverse[left_theta[inverse[j]]] for j in range(len(elements))))
    return OracleTable(
        elements=tuple(elements),
        index=index,
        simple=simple,
        s_theta=s_theta,
        right=(right_theta, *right),
        inverse=inverse,
    )


def conjugacy_classes(table: GroupTable) -> ConjugacyClasses:
    """Orbits under s * w * s for the simple reflections s, numbered in the
    order of their least index, with det(1 - x w) of each least element.
    Each s is built from its simple root, and s * w * s is a product of
    matrices looked up in the element index; numpy forms each generator's
    products for all w at once, since tuple products take tens of seconds
    on E6."""
    rs = system_of_type(table.decomposition.factors[0])
    rank = table.rank
    elements = np.array([table.element(i) for i in range(table.order)], dtype=np.int64)
    index = {w.tobytes(): i for i, w in enumerate(elements)}
    conjugators = []
    for k in range(rank):
        s = np.array(reflection_matrix(rs, tuple(int(j == k) for j in range(rank))), dtype=np.int64)
        conjugators.append([index[m.tobytes()] for m in s @ elements @ s])
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
            for conjugate in conjugators:
                k = conjugate[j]
                if class_of[k] == -1:
                    class_of[k] = cid
                    size += 1
                    stack.append(k)
        sizes.append(size)
    charpolys = tuple(one_minus_charpoly(table.element(r)) for r in reps)
    return ConjugacyClasses(tuple(class_of), tuple(reps), tuple(sizes), charpolys)


def one_minus_charpoly(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Coefficients c_0..c_n of det(1 - x M) = sum c_k x^k for one matrix M,
    by Faddeev-LeVerrier in exact arithmetic: c_0 = 1, N_1 = I,
    c_k = -tr(M N_k) / k and N_(k+1) = M N_k + c_k I.  Every division is
    exact for an integer matrix; one that is not raises ValueError."""
    n = len(matrix)
    columns = tuple(zip(*matrix))
    coeffs = [1]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # N_k is a polynomial in M, so N_k M = M N_k.
        power = [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in power]
        trace = sum(power[i][i] for i in range(n))
        coeff, remainder = divmod(-trace, k)
        if remainder:
            raise ValueError(f"Faddeev-LeVerrier step {k}: trace {trace} is not divisible by {k}")
        coeffs.append(coeff)
        for i in range(n):
            power[i][i] += coeff
    return tuple(coeffs)


def polynomial_value(coeffs: Sequence[int], x: Fraction) -> Fraction:
    """sum c_k x^k in Fraction arithmetic, one power at a time."""
    return sum((c * x**k for k, c in enumerate(coeffs)), Fraction(0))


def group_average(table: GroupTable, term: Callable[[tuple[int, ...]], Fraction]) -> Fraction:
    """Average over the group of term(p), where p is the coefficient tuple of
    det(1 - x w), one term per class of the library's record."""
    classes = library_classes(table)
    total = sum((size * term(coeffs) for coeffs, size in zip(classes.charpolys, classes.sizes)), Fraction(0))
    return total / table.order
