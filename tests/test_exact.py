"""Exact integer quotients and sums of integer ratios."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootvol.exact import exact_quotient, fraction_sum


@pytest.mark.parametrize(
    "numerator, denominator, quotient",
    [(12, 4, 3), (-12, 4, -3), (12, -4, -3), (-12, -4, 3), (0, 7, 0)],
)
def test_exact_quotient_divides_exactly(numerator, denominator, quotient):
    assert exact_quotient(numerator, denominator) == quotient


@pytest.mark.parametrize("numerator, text", [(7, "7/2"), (-7, "-7/2")])
def test_exact_quotient_refuses_a_remainder(numerator, text):
    with pytest.raises(ValueError, match=f"^expected an integer, got {text}$"):
        exact_quotient(numerator, 2)


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
