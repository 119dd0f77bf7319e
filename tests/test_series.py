"""The central binomial identities: direct integer sums, and generating-function
coefficients on integer lists checked against the truncated products of
exact rational series."""

from __future__ import annotations

import functools
import math
import sys
import threading
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootvol import series
from rootvol.cli import MAX_SERIES_ORDER
from rootvol.series import check_binomial_identity, series_coefficient


def twice_half_ratio(f: Sequence[int]) -> list[int]:
    """Coefficients of 2g = (1-2t) f, rebuilt from those of f: the oracle
    of the shared prefix that `series_coefficient` reads."""
    return [*f[:1], *(f[h] - 2 * f[h - 1] for h in range(1, len(f)))]


def central_binomials(n: int) -> list[int]:
    """C(2h, h) for h = 0..n, a fresh copy of the library's shared prefix,
    so callers may change it."""
    return series._prefixes(n)[0][: n + 1]


def library_twice_half(n: int) -> list[int]:
    """The library's 2g_0..2g_n."""
    return series._prefixes(n)[2][: n + 1]


def padded(values: Sequence[int], order: int) -> tuple[int, ...]:
    """The given leading coefficients, zero-padded to the truncation order."""
    return tuple(values) + (0,) * (order + 1 - len(values))


def truncated_product(a: Sequence, b: Sequence) -> tuple:
    """Product of two series truncated at the same order."""
    n = len(a) - 1
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(n + 1 - i):
                out[i + j] += x * b[j]
    return tuple(out)


def integrate(series: Sequence) -> tuple[Fraction, ...]:
    """Termwise antiderivative with zero constant, same truncation order."""
    return (Fraction(0),) + tuple(Fraction(c) / n for n, c in enumerate(series[:-1], 1))


@functools.cache
def fraction_products() -> tuple[tuple[Fraction, ...], ...]:
    """f*f, g*f and g*g to the order cap by the Fraction truncated-product
    route: f from its coefficient recurrence f_(h+1) = 2(2h+1)/(h+1) f_h, and
    g = (1-2t) f / 2.  The oracle for `series_coefficient`."""
    order = MAX_SERIES_ORDER
    f = [Fraction(1)]
    for h in range(order):
        f.append(f[-1] * Fraction(2 * (2 * h + 1), h + 1))
    g = tuple(c / 2 for c in truncated_product(padded([1, -2], order), f))
    return truncated_product(f, f), truncated_product(g, f), truncated_product(g, g)


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
    a = (1, 1, 0, 0, 0, 0, 0)
    b = (1, -1, 0, 0, 0, 0, 0)
    assert truncated_product(a, b)[:3] == (Fraction(1), Fraction(0), Fraction(-1))


def test_integrate_geometric():
    result = integrate((Fraction(1),) * 6)
    assert result == (0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))


def test_central_binomial_series_matches_combinatorial_oracle():
    f = central_binomials(MAX_SERIES_ORDER)
    assert len(f) == MAX_SERIES_ORDER + 1
    for n in range(MAX_SERIES_ORDER + 1):
        assert f[n] == math.comb(2 * n, n) == central_binomial(n)


@pytest.mark.parametrize(
    "orders",
    [range(MAX_SERIES_ORDER + 1), [MAX_SERIES_ORDER, *range(MAX_SERIES_ORDER + 1)]],
    ids=["ascending", "largest-first"],
)
def test_central_binomials_from_the_shared_prefix(monkeypatch, orders):
    # Start from empty prefixes, whatever other tests have asked for.
    empty_prefixes(monkeypatch)
    for n in orders:
        assert central_binomials(n) == [math.comb(2 * h, h) for h in range(n + 1)]


def test_central_binomials_from_threads_that_extend_the_prefix(monkeypatch):
    want = [math.comb(2 * h, h) for h in range(MAX_SERIES_ORDER + 1)]
    wrong = []

    def ask(start):
        for n in range(start, MAX_SERIES_ORDER + 1, 3):
            if central_binomials(n) != want[: n + 1]:
                wrong.append(n)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            empty_prefixes(monkeypatch)
            threads = [threading.Thread(target=ask, args=(i % 3,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert wrong == []


def test_central_binomials_returns_a_copy_of_the_prefix():
    f = central_binomials(10)
    held = tuple(map(list, series._PREFIXES))
    f[3] = 0
    f.append(-1)
    assert tuple(map(list, series._PREFIXES)) == held
    assert central_binomials(10) == [math.comb(2 * h, h) for h in range(11)]
    assert central_binomials(11)[11] == math.comb(22, 11)


def test_half_ratio_coefficients():
    g2 = library_twice_half(MAX_SERIES_ORDER)
    assert g2 == twice_half_ratio(central_binomials(MAX_SERIES_ORDER))
    assert g2[0] == 1
    assert g2[1] == 0
    for h in range(2, MAX_SERIES_ORDER + 1):
        assert Fraction(g2[h], 2) == Fraction(h - 1, h) * math.comb(2 * (h - 1), h - 1)


def test_square_of_f_is_geometric_in_4t():
    f = central_binomials(MAX_SERIES_ORDER)
    assert truncated_product(f, f) == tuple(4**n for n in range(MAX_SERIES_ORDER + 1))


def test_product_g_f_collapses():
    f = central_binomials(MAX_SERIES_ORDER)
    prod = truncated_product(library_twice_half(MAX_SERIES_ORDER), f)
    # 2 g f = 1 + 2t / (1 - 4t)
    assert prod[0] == 1
    for n in range(1, MAX_SERIES_ORDER + 1):
        assert prod[n] == 2 * 4 ** (n - 1)


def test_square_of_g_closed_form():
    # 4 (1 - 4t) g^2 = (1 - 4t) (2g)^2 = 1 - 4t + 4t^2 as truncated series
    g2 = library_twice_half(MAX_SERIES_ORDER)
    lhs = truncated_product(padded([1, -4], MAX_SERIES_ORDER), truncated_product(g2, g2))
    assert lhs == padded([1, -4, 4], MAX_SERIES_ORDER)


def test_sqrt_integral_identity():
    # the antiderivative of the central binomial series is (1 - sqrt(1-4t))/2,
    # that is, (1 - 2 F)^2 = 1 - 4t for F the antiderivative of f
    order = MAX_SERIES_ORDER
    antiderivative = integrate(central_binomials(order))
    root = tuple(int(n == 0) - 2 * c for n, c in enumerate(antiderivative))
    assert truncated_product(root, root) == padded([1, -4], order)


@pytest.mark.parametrize("part,low", [(1, 0), (2, 2), (3, 2)])
def test_series_coefficient_matches_the_product_oracle(part, low):
    oracle = fraction_products()[part - 1]
    for n in range(low, MAX_SERIES_ORDER + 1):
        got = series_coefficient(part, n)
        assert got == oracle[n], n
        assert type(got) is Fraction


PART_RANGES = ((1, 0), (2, 2), (3, 2))


@functools.cache
def oracle_values() -> dict[tuple[int, int], tuple]:
    """(part, n) -> the generating-product coefficient and both direct
    sides, by the Fraction oracles, for every n up to the order cap."""
    products = fraction_products()
    return {
        (part, n): (products[part - 1][n], fraction_sums(part, n))
        for part, low in PART_RANGES
        for n in range(low, MAX_SERIES_ORDER + 1)
    }


def wrong_values(orders) -> list[tuple[int, int]]:
    """(part, n) for each n of `orders` and each part whose series
    coefficient or direct sides differ from the Fraction oracles."""
    want = oracle_values()
    wrong = []
    for n in orders:
        for part, low in PART_RANGES:
            if n >= low:
                check = check_binomial_identity(part, n)
                if (series_coefficient(part, n), (check.lhs, check.rhs)) != want[part, n]:
                    wrong.append((part, n))
    return wrong


def empty_prefixes(monkeypatch) -> None:
    """Start every shared prefix afresh, whatever other tests have asked for."""
    monkeypatch.setattr(series, "_PREFIXES", ([1], [0], [1]))


@pytest.mark.parametrize(
    "orders",
    [range(MAX_SERIES_ORDER + 1), range(MAX_SERIES_ORDER, -1, -1)],
    ids=["ascending", "descending"],
)
def test_both_routes_from_the_shared_prefixes_match_the_oracles(monkeypatch, orders):
    oracle_values()
    empty_prefixes(monkeypatch)
    assert wrong_values(orders) == []
    assert list(map(len, series._PREFIXES)) == [MAX_SERIES_ORDER + 1] * 3


def test_both_routes_from_threads_that_extend_the_prefixes(monkeypatch):
    oracle_values()
    wrong = []

    def ask(start):
        wrong.extend(wrong_values(range(start, MAX_SERIES_ORDER + 1, 3)))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            empty_prefixes(monkeypatch)
            threads = [threading.Thread(target=ask, args=(i % 3,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert wrong == []


def test_the_shared_prefixes_are_replaced_not_changed(monkeypatch):
    empty_prefixes(monkeypatch)
    series_coefficient(3, 10)
    check_binomial_identity(3, 10)
    prefixes = series._PREFIXES
    binomials, weights, halves = prefixes
    before = (list(binomials), list(weights), list(halves))
    series_coefficient(3, 40)
    check_binomial_identity(3, 40)
    assert series._PREFIXES is not prefixes
    assert all(new is not old for new, old in zip(series._PREFIXES, prefixes))
    assert (binomials, weights, halves) == before
    assert series._PREFIXES[2][:11] == twice_half_ratio(central_binomials(10))


@pytest.mark.parametrize("part,low", [(1, 0), (2, 2), (3, 2)])
def test_identities_direct_and_series(part, low):
    shift = {1: 0, 2: -1, 3: -2}[part]
    for n in range(low, 25):
        check = check_binomial_identity(part, n)
        assert check.passed
        assert check.lhs == Fraction(4 ** (n + shift))
        assert series_coefficient(part, n) == check.lhs
        again = check_binomial_identity(part, n)
        assert again is not check and again == check and hash(again) == hash(check)
    with pytest.raises(AttributeError):
        check.lhs = check.rhs


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
    left = truncated_product(tuple(x + y for x, y in zip(xs, ys)), zs)
    right = tuple(p + q for p, q in zip(truncated_product(xs, zs), truncated_product(ys, zs)))
    assert left == right
