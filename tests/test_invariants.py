"""Degree catalogue, group orders, degree ratios, height-duality oracle."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootvol import invariants
from rootvol.diagram import DecompositionLabel, parse_decomposition, parse_label
from rootvol.invariants import (
    NU_RANK_CEILING,
    degree_product,
    degrees_of,
    degrees_of_type,
    exponents_from_heights,
    nu,
    nu_of,
    weyl_order,
)
from rootvol.rootsys import generate_roots, system_of_type
from rootvol.diagram import cartan_of_decomposition

LABELS = (
    [f"A{n}" for n in range(1, 10)]
    + [f"B{n}" for n in range(2, 10)]
    + [f"C{n}" for n in range(2, 10)]
    + [f"D{n}" for n in range(4, 10)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def test_degree_tables():
    assert degrees_of_type(parse_label("A4")) == (2, 3, 4, 5)
    assert degrees_of_type(parse_label("B3")) == (2, 4, 6)
    assert degrees_of_type(parse_label("C3")) == (2, 4, 6)
    assert degrees_of_type(parse_label("D4")) == (2, 4, 4, 6)
    assert degrees_of_type(parse_label("D5")) == (2, 4, 5, 6, 8)
    assert degrees_of_type(parse_label("G2")) == (2, 6)
    assert degrees_of_type(parse_label("F4")) == (2, 6, 8, 12)
    assert degrees_of_type(parse_label("E6")) == (2, 5, 6, 8, 9, 12)
    assert degrees_of_type(parse_label("E7")) == (2, 6, 8, 10, 12, 14, 18)
    assert degrees_of_type(parse_label("E8")) == (2, 8, 12, 14, 18, 20, 24, 30)


def test_group_orders():
    assert weyl_order(degrees_of_type(parse_label("G2"))) == 12
    assert weyl_order(degrees_of_type(parse_label("F4"))) == 1152
    assert weyl_order(degrees_of_type(parse_label("E6"))) == 51840
    assert weyl_order(degrees_of_type(parse_label("E7"))) == 2903040
    assert weyl_order(degrees_of_type(parse_label("E8"))) == 696729600
    assert weyl_order(degrees_of_type(parse_label("A4"))) == math.factorial(5)
    assert weyl_order(degrees_of_type(parse_label("B5"))) == 2**5 * math.factorial(5)
    assert weyl_order(degrees_of_type(parse_label("D6"))) == 2**5 * math.factorial(6)


def test_degree_count_equals_rank():
    for name in LABELS:
        label = parse_label(name)
        assert len(degrees_of_type(label)) == label.rank


def test_nu_of_checks_the_rank_before_any_degree(monkeypatch):
    def no_degrees(*args):
        raise AssertionError("degrees were listed before the rank was checked")

    assert nu_of(f"A{NU_RANK_CEILING}") == Fraction(1, NU_RANK_CEILING + 1)
    monkeypatch.setattr(invariants, "degrees_of", no_degrees)
    with pytest.raises(ValueError, match="A1000000 has rank 1000000, above nu's rank ceiling of 5000"):
        nu_of("A1000000")


def test_nu_closed_forms():
    assert nu_of("G2") == Fraction(5, 12)
    assert nu_of("F4") == Fraction(385, 1152)
    assert nu_of("E6") == Fraction(77, 324)
    assert nu_of("E7") == Fraction(2431, 9216)
    assert nu_of("E8") == Fraction(30808063, 99532800)
    for n in range(1, 10):
        assert nu_of(f"A{n}") == Fraction(1, n + 1)
    for n in range(2, 10):
        assert nu_of(f"B{n}") == Fraction(math.comb(2 * n, n), 4**n)
        assert nu_of(f"C{n}") == nu_of(f"B{n}")
    for n in range(4, 10):
        want = Fraction((n - 1) * math.comb(2 * (n - 1), n - 1), 4 ** (n - 1) * n)
        assert nu_of(f"D{n}") == want


def test_nu_of_trivial_system_is_one():
    assert nu(()) == 1
    assert nu_of(parse_decomposition("-")) == 1


def test_degrees_of_concatenates_sorted():
    d = parse_decomposition("G2xA3")
    assert degrees_of(d) == (2, 2, 3, 4, 6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(LABELS), min_size=0, max_size=4))
def test_nu_is_multiplicative(names):
    d = DecompositionLabel(tuple(parse_label(n) for n in names))
    product = Fraction(1)
    for n in names:
        product *= nu_of(n)
    assert nu_of(d) == product


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3))
def test_weyl_order_is_multiplicative(names):
    d = DecompositionLabel(tuple(parse_label(n) for n in names))
    product = 1
    for n in names:
        product *= weyl_order(degrees_of_type(parse_label(n)))
    assert weyl_order(degrees_of(d)) == product


@pytest.mark.parametrize(
    "name", [*LABELS, "E8xA1", "A1xC3", pytest.param("x".join(["A1"] * 84), id="84xA1")]
)
def test_exponents_from_heights_match_catalogue(name):
    decomposition = parse_decomposition(name)
    rs = generate_roots(cartan_of_decomposition(decomposition))
    assert tuple(e + 1 for e in exponents_from_heights(rs)) == degrees_of(decomposition)


def test_exponents_from_heights_reducible():
    rs = generate_roots(cartan_of_decomposition(parse_decomposition("A2xB2")))
    assert exponents_from_heights(rs) == (1, 1, 2, 3)


def test_sum_of_exponents_counts_positive_roots():
    for name in ("B4", "D5", "F4", "E6"):
        rs = system_of_type(parse_label(name))
        assert sum(exponents_from_heights(rs)) == len(rs.positive)


@given(
    st.lists(st.integers(2, 30), max_size=8),
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50).filter(lambda t: abs(t) != 1),
)
@settings(max_examples=200, deadline=None)
def test_degree_product_matches_the_factor_by_factor_product(degrees, q, t):
    expected = Fraction(1)
    for d in degrees:
        expected *= (1 - q * t ** (d - 1)) / (1 - t**d)
    assert degree_product(degrees, q, t) == expected


def test_degree_product_special_values():
    assert degree_product((), Fraction(3), Fraction(1, 2)) == 1
    # q = 1, t = 0 gives 1 for every type; q = 0 gives prod 1/(1 - t^d).
    assert degree_product(degrees_of_type(parse_label("E8")), 1, 0) == 1
    assert degree_product((2, 3), 0, Fraction(1, 2)) == Fraction(4, 3) * Fraction(8, 7)
    with pytest.raises(ZeroDivisionError):
        degree_product((2,), Fraction(1, 2), Fraction(-1))
