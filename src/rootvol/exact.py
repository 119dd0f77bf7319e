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


def as_int(value: Fraction) -> int:
    """Convert an exact rational known to be integral; raise if it is not."""
    if value.denominator != 1:
        raise ValueError(f"expected an integer, got {value}")
    return value.numerator
