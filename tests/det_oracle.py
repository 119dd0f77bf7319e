"""Exact determinants by elimination, for the tests.

The library reads det(w) and det(1 - w) from the characteristic polynomial
of one representative per conjugacy class; these functions compute them
for each element by elimination, so the tests can compare the two.  ``det``
also gives the leading minors of the finite-type oracle in
``rootsys_oracle``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from rootvol.weylgrp import Matrix


def det(rows: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Determinant by exact Gaussian elimination; the empty matrix gives 1."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return result


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss)
    elimination; every division is exact, so no rational ever forms."""
    m = [list(row) for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    previous = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        head = m[k][k]
        top = m[k]
        for row in m[k + 1 :]:
            lead = row[k]
            for c in range(k + 1, n):
                row[c] = (row[c] * head - lead * top[c]) // previous
        previous = head
    return sign * m[n - 1][n - 1]


def one_minus(matrix: Matrix) -> Matrix:
    return tuple(
        tuple(int(i == j) - x for j, x in enumerate(row)) for i, row in enumerate(matrix)
    )


def det_one_minus(matrix: Matrix, scalar: Fraction) -> Fraction:
    """det(1 - scalar * matrix), exact."""
    n = len(matrix)
    rows = [
        [Fraction(int(i == j)) - scalar * matrix[i][j] for j in range(n)]
        for i in range(n)
    ]
    return det(rows)


def delta_value(w: Matrix, q: Fraction | int, t: Fraction | int) -> Fraction:
    """det(1 - qw) / det(1 - tw).  Requires |t| != 1 so the denominator
    cannot vanish (eigenvalues of w are roots of unity)."""
    q = Fraction(q)
    t = Fraction(t)
    if abs(t) == 1:
        raise ValueError("delta_value requires |t| != 1")
    return det_one_minus(w, q) / det_one_minus(w, t)
