"""Exact rational helpers on integers."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


def exact_quotient(numerator: int, denominator: int) -> int:
    """numerator / denominator, which must be an integer; raise if it is not."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ValueError(f"expected an integer, got {Fraction(numerator, denominator)}")
    return quotient


def fraction_sum(pairs: Iterable[tuple[int, int]], divisor: int) -> Fraction:
    """The sum of n/d over the integer pairs (n, d), divided by `divisor`, as
    one Fraction: the sum is kept as an unreduced numerator and denominator
    until then."""
    numerator, denominator = 0, 1
    for n, d in pairs:
        numerator = numerator * d + n * denominator
        denominator *= d
    return Fraction(numerator, denominator * divisor)
