"""Sums of integer ratios as one exact Fraction."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootvol.invariants import fraction_sum


pairs = st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(-50, 50).filter(bool)), max_size=12)


@given(pairs, st.integers(1, 10**4))
@settings(max_examples=200, deadline=None)
def test_fraction_sum_matches_the_fraction_sum(terms, divisor):
    expected = sum((Fraction(n, d) for n, d in terms), Fraction(0)) / divisor
    got = fraction_sum(terms, divisor)
    assert got == expected
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


def test_fraction_sum_of_nothing_is_zero():
    assert fraction_sum([], 3) == 0


def test_fraction_sum_refuses_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        fraction_sum([(1, 2), (3, 0)], 1)
