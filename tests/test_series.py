"""Exact truncated series arithmetic and the central binomial identities."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootvol.cli import MAX_SERIES_ORDER
from rootvol.series import (
    RationalSeries,
    central_binomial_series,
    check_binomial_identity,
    half_ratio_series,
    inverse,
    series_coefficient,
    series_of,
    sqrt,
)


def integrate(series: RationalSeries) -> RationalSeries:
    """Termwise antiderivative with zero constant, same truncation order."""
    out = [Fraction(0)]
    for n in range(1, series.order + 1):
        out.append(series.coeffs[n - 1] / n)
    return RationalSeries(tuple(out))


@functools.cache
def central_binomial(n: int) -> int:
    """C(2n, n)."""
    return math.comb(2 * n, n)


def fraction_sums(part: int, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of one identity, each summand a Fraction as the identities
    are written: the oracle for the integer sums of the library."""
    c = central_binomial
    if part == 1:
        lhs = Fraction(4**n)
        rhs = sum((Fraction(c(h) * c(n - h)) for h in range(n + 1)), Fraction(0))
    elif part == 2:
        lhs = Fraction(4 ** (n - 1))
        rhs = Fraction(c(n), 2) + sum(
            (Fraction(h - 1, h) * c(h - 1) * c(n - h) for h in range(2, n + 1)),
            Fraction(0),
        )
    else:
        lhs = Fraction(4 ** (n - 2))
        rhs = Fraction(n - 1, n) * c(n - 1) + sum(
            (
                Fraction((h - 1) * (n - h - 1), h * (n - h)) * c(h - 1) * c(n - 1 - h)
                for h in range(2, n - 1)
            ),
            Fraction(0),
        )
    return lhs, rhs


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def test_series_multiplication():
    order = 6
    a = series_of([1, 1], order)
    b = series_of([1, -1], order)
    assert (a * b).coeffs[:3] == (Fraction(1), Fraction(0), Fraction(-1))


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        series_of([1], 3) * series_of([1], 4)
    with pytest.raises(ValueError):
        series_of([1], 3) + series_of([1], 2)


def test_too_many_coefficients_rejected():
    with pytest.raises(ValueError):
        series_of([1, 2, 3], 1)


def test_inverse_of_geometric():
    order = 8
    s = series_of([1, -1], order)
    inv = inverse(s)
    assert all(c == 1 for c in inv.coeffs)
    assert (s * inv).coeffs == series_of([1], order).coeffs


def test_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        inverse(series_of([0, 1], 4))


def test_sqrt_squares_back():
    order = 10
    s = series_of([1, -4], order)
    r = sqrt(s)
    assert (r * r).coeffs == s.coeffs


def test_sqrt_requires_constant_one():
    with pytest.raises(ValueError):
        sqrt(series_of([4], 3))


def test_integrate_geometric():
    order = 5
    s = inverse(series_of([1, -1], order))
    result = integrate(s)
    assert result.coeffs == (0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))


def test_central_binomial_series_matches_combinatorial_oracle():
    f = central_binomial_series(20)
    for n in range(21):
        assert f[n] == math.comb(2 * n, n) == central_binomial(n)


def test_half_ratio_coefficients():
    g = half_ratio_series(12)
    assert g[0] == Fraction(1, 2)
    assert g[1] == 0
    for h in range(2, 13):
        assert g[h] == Fraction(h - 1, h) * math.comb(2 * (h - 1), h - 1)


def test_square_of_f_is_geometric_in_4t():
    order = 15
    f = central_binomial_series(order)
    assert (f * f).coeffs == tuple(Fraction(4**n) for n in range(order + 1))


def test_product_g_f_collapses():
    order = 15
    f = central_binomial_series(order)
    g = half_ratio_series(order)
    prod = g * f
    assert prod[0] == Fraction(1, 2)
    for n in range(1, order + 1):
        assert prod[n] == Fraction(4 ** (n - 1))


def test_square_of_g_closed_form():
    # 4 (1 - 4t) g^2 = 1 - 4t + 4t^2 as truncated series
    order = 12
    g = half_ratio_series(order)
    lhs = (g * g) * series_of([4, -16], order)
    assert lhs.coeffs == series_of([1, -4, 4], order).coeffs


def test_sqrt_integral_identity():
    # the antiderivative of the central binomial series is (1 - sqrt(1-4t))/2
    order = 14
    f = central_binomial_series(order)
    half_sqrt = sqrt(series_of([1, -4], order)).scale(Fraction(1, 2))
    assert half_sqrt.coeffs == (series_of([Fraction(1, 2)], order) - integrate(f)).coeffs


@pytest.mark.parametrize("part,low", [(1, 0), (2, 2), (3, 2)])
def test_identities_direct_and_series(part, low):
    shift = {1: 0, 2: -1, 3: -2}[part]
    for n in range(low, 25):
        check = check_binomial_identity(part, n)
        assert check.passed
        assert check.lhs == Fraction(4 ** (n + shift))
        assert series_coefficient(part, n) == check.lhs


@pytest.mark.parametrize("part,low", [(1, 0), (2, 2), (3, 2)])
def test_integer_sums_match_the_fraction_sums(part, low):
    for n in range(low, MAX_SERIES_ORDER + 1):
        check = check_binomial_identity(part, n)
        assert (check.lhs, check.rhs) == fraction_sums(part, n), n
        assert type(check.lhs) is type(check.rhs) is Fraction


@pytest.mark.parametrize("part,n", [(1, -1), (2, 1), (2, 0), (3, 1), (0, 5), (4, 5)])
def test_identity_range_validation(part, n):
    with pytest.raises(ValueError):
        check_binomial_identity(part, n)
    with pytest.raises(ValueError):
        series_coefficient(part, n)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(rationals, min_size=4, max_size=4),
)
def test_multiplication_distributes(xs, ys, zs):
    order = 3
    a, b, c = (RationalSeries(tuple(v)) for v in (xs, ys, zs))
    left = (a + b) * c
    right = a * c + b * c
    assert left.coeffs == right.coeffs


@settings(max_examples=50, deadline=None)
@given(st.lists(rationals, min_size=5, max_size=5))
def test_inverse_roundtrip(values):
    if values[0] == 0:
        values[0] = Fraction(1)
    s = RationalSeries(tuple(values))
    assert (s * inverse(s)).coeffs == series_of([1], 4).coeffs


@settings(max_examples=50, deadline=None)
@given(st.lists(rationals, min_size=5, max_size=5))
def test_sqrt_roundtrip(values):
    values[0] = Fraction(1)
    s = RationalSeries(tuple(values))
    r = sqrt(s)
    assert (r * r).coeffs == s.coeffs
