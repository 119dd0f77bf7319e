"""Exact rational helpers."""

from __future__ import annotations

from fractions import Fraction


def as_int(value: Fraction) -> int:
    """Convert an exact rational known to be integral; raise if it is not."""
    if value.denominator != 1:
        raise ValueError(f"expected an integer, got {value}")
    return value.numerator
