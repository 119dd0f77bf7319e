"""A sum of integer ratios as one exact Fraction."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


def fraction_sum(pairs: Iterable[tuple[int, int]], divisor: int) -> Fraction:
    """The sum of n/d over the integer pairs (n, d), divided by `divisor`, as
    one Fraction: the sum is kept as an unreduced numerator and denominator
    until then."""
    numerator, denominator = 0, 1
    for n, d in pairs:
        numerator = numerator * d + n * denominator
        denominator *= d
    return Fraction(numerator, denominator * divisor)
