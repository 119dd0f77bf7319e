"""Exact linear algebra helpers over rationals."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


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


def as_int(value: Fraction) -> int:
    """Convert an exact rational known to be integral; raise if it is not."""
    if value.denominator != 1:
        raise ValueError(f"expected an integer, got {value}")
    return value.numerator
