"""Group enumeration, characters on cosets, and the determinant identities."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylgrp_oracle
from weylgrp_oracle import _identity_matrix, _matmul, highest_root, one_minus_charpoly, reflection_matrix
from coset_oracle import left_cosets, perm_character
from det_oracle import delta_value, det, det_int, det_one_minus, one_minus
from rootvol import weylgrp
from rootvol.cli import MAX_CAP
from rootvol.diagram import CartanMatrix, parse_label
from rootvol.identity import node_terms
from rootvol.invariants import degrees_of, degrees_of_type, weyl_order
from rootvol.rootsys import Roots, system_of_type
from rootvol.weylgrp import (
    DEFAULT_CAP,
    DEFAULT_SOLOMON_POINTS,
    ConjugacyClasses,
    EnumerationCapError,
    GroupTable,
    conjugacy_classes,
    coset_character,
    enumerate_group,
    group_table_of,
    one_minus_charpolys,
    reflection_subgroup,
    verify_companion,
    verify_restricted_expansion,
    verify_solomon,
    verify_steinberg,
)


def elements_of(table):
    return [table.element(i) for i in range(table.order)]


ORDERS = {"A1": 2, "A2": 6, "B2": 8, "G2": 12, "A3": 24, "B3": 48, "C3": 48, "D4": 192, "A5": 720, "F4": 1152}


@pytest.mark.parametrize("name,order", sorted(ORDERS.items()))
def test_group_orders(name, order):
    assert group_table_of(name).order == order


def test_cap_precheck_names_expected_order():
    with pytest.raises(EnumerationCapError, match="51840"):
        group_table_of("E6", cap=10_000)


def test_elements_have_unit_determinant():
    # det(w) is (-1)^n times the top coefficient of det(1 - x w).
    table = group_table_of("B3")
    assert all(abs(coeffs[-1]) == 1 for coeffs in conjugacy_classes(table).charpolys)


def test_generators_are_involutions():
    table = group_table_of("A3")
    identity = table.element(0)
    for column in table.right:
        s = table.element(column[0])
        assert _matmul(s, s) == identity


def test_delta_value_identity_element():
    table = group_table_of("A2")
    e = table.element(0)
    q, t = Fraction(1, 3), Fraction(1, 2)
    assert delta_value(e, q, t) == ((1 - q) / (1 - t)) ** 2


def test_delta_value_rank_one_reflection():
    table = group_table_of("A1")
    s = table.element(table.right[1][0])
    assert delta_value(s, Fraction(1), Fraction(1, 2)) == Fraction(4, 3)


def test_delta_value_rejects_unit_t():
    table = group_table_of("A1")
    with pytest.raises(ValueError):
        delta_value(table.element(0), Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        delta_value(table.element(0), Fraction(1), Fraction(-1))


def test_delta_at_one_zero_is_det_one_minus_w():
    table = group_table_of("B2")
    for w in elements_of(table):
        assert delta_value(w, Fraction(1), Fraction(0)) == det_one_minus(w, Fraction(1))


def test_average_det_one_minus_is_one():
    for name in ("A1", "A3", "B3", "G2"):
        table = group_table_of(name)
        total = sum(
            (det_one_minus(w, Fraction(1)) for w in elements_of(table)), Fraction(0)
        )
        assert total == table.order


def test_conjugacy_classes_partition_the_group():
    table = group_table_of("B3")
    classes = conjugacy_classes(table)
    assert sum(classes.sizes) == table.order
    assert len(classes.representatives) == 10
    # class sizes divide the group order
    assert all(table.order % size == 0 for size in classes.sizes)


def test_class_function_property_of_characters():
    table = group_table_of("B2")
    classes = conjugacy_classes(table)
    members = reflection_subgroup(table, [1])
    cosets = left_cosets(table, members)
    values = [perm_character(cosets, w) for w in elements_of(table)]
    for i, value in enumerate(values):
        rep = classes.representatives[classes.class_of[i]]
        assert value == values[rep]


def test_perm_character_regular_action():
    table = group_table_of("A2")
    cosets = left_cosets(table, reflection_subgroup(table, []))
    assert cosets.count == table.order
    assert perm_character(cosets, table.element(0)) == table.order
    for w in elements_of(table)[1:]:
        assert perm_character(cosets, w) == 0


def test_perm_character_full_subgroup():
    table = group_table_of("B2")
    members = reflection_subgroup(table, range(1, table.rank + 1))
    cosets = left_cosets(table, members)
    assert cosets.count == 1
    assert all(perm_character(cosets, w) == 1 for w in elements_of(table))


def test_perm_character_sums_to_group_order():
    # the action on cosets is transitive, so the character sums to |W|
    table = group_table_of("G2")
    for positions in ([], [1], [0], [1, 2], [0, 2]):
        cosets = left_cosets(table, reflection_subgroup(table, positions))
        assert sum(perm_character(cosets, w) for w in elements_of(table)) == table.order


def test_rank_one_redundant_generator():
    # at rank 1 the highest-root reflection is the simple reflection
    table = group_table_of("A1")
    s = table.right[1][0]
    assert table.right[0][0] == s
    members = reflection_subgroup(table, [0])
    assert set(members) == set(reflection_subgroup(table, [1])) == {0, s}


def test_parabolic_orders_match_node_decompositions():
    # deleting node j of the extended diagram leaves the generator set
    # S_0 - {s_j}; the subgroup it generates has the deleted type's order
    for name in ("B3", "G2", "F4"):
        label = parse_label(name)
        table = group_table_of(label)
        for term in node_terms(label):
            positions = [p for p in range(table.rank + 1) if p != term.node]
            members = reflection_subgroup(table, positions)
            assert len(members) == weyl_order(degrees_of(term.decomposition))


def test_solomon_rank_one_closed_form():
    report = verify_solomon("A1")
    for p in report.points:
        half = Fraction(1, 2)
        closed = half * ((1 - p.q) / (1 - p.t) + (1 + p.q) / (1 + p.t))
        assert p.lhs == closed == (1 - p.q * p.t) / (1 - p.t**2)
    assert report.passed


def test_solomon_small_groups():
    for name in ("A2", "B2", "G2"):
        report = verify_solomon(name)
        assert report.passed
        assert report.specialization.lhs == 1
        assert report.specialization.rhs == 1


def test_solomon_rejects_unit_t_point():
    with pytest.raises(ValueError):
        verify_solomon("A2", [(Fraction(1, 2), Fraction(1))])


def test_solomon_custom_points():
    report = verify_solomon("B2", [(Fraction(3), Fraction(5, 4)), (0, Fraction(-2))])
    assert len(report.points) == 2
    assert report.passed


def test_steinberg_rank_one_values():
    table = group_table_of("A1")
    report = verify_steinberg("A1")
    assert report.passed
    assert report.subset_count == 3
    s = table.element(table.right[1][0])
    assert det_one_minus(s, Fraction(1)) == 2
    assert det_one_minus(table.element(0), Fraction(1)) == 0


def test_steinberg_subset_counts():
    assert verify_steinberg("A2").subset_count == 7
    assert verify_steinberg("B2").subset_count == 7
    assert verify_steinberg("A3").subset_count == 15


def test_companion_counts_and_values():
    report = verify_companion("B2")
    assert report.passed
    assert report.subset_count == 4
    # In A1 the reflection is -1: det(1 - x s) = 1 + x, and det(s) = -1.
    table = group_table_of("A1")
    classes = conjugacy_classes(table)
    assert classes.charpolys[classes.class_of[table.right[1][0]]] == (1, 1)


def test_subset_identities_small_types():
    for name in ("A1", "A2", "B2", "G2"):
        assert verify_steinberg(name).passed
        assert verify_companion(name).passed


def test_subset_identities_on_e6():
    # The first type past F4 whose Steinberg subsets with s_theta are checked.
    steinberg = verify_steinberg("E6", cap=60_000)
    companion = verify_companion("E6", cap=60_000)
    assert (steinberg.passed, steinberg.subset_count) == (True, 127)
    assert (companion.passed, companion.subset_count) == (True, 64)


def test_expansion_rank_one_values():
    report = verify_restricted_expansion("A1", [Fraction(1, 2)])
    assert report.passed
    check = report.samples[0]
    assert check.lhs == Fraction(4, 3)
    assert check.rhs == Fraction(4, 3)


def test_expansion_probes_decrease_toward_limit():
    report = verify_restricted_expansion("G2")
    assert report.passed
    assert report.gaps_decreasing
    first, second = report.probe_gaps
    assert all(b < a for a, b in zip(first, second))


def test_expansion_small_types():
    for name in ("A2", "B2", "A3"):
        assert verify_restricted_expansion(name).passed


def test_expansion_rejects_unit_sample():
    with pytest.raises(ValueError):
        verify_restricted_expansion("A2", [Fraction(-1)])


@pytest.mark.parametrize(
    "verify,points",
    [
        (verify_solomon, [(Fraction(1, 2), Fraction(1, 3)), (2, 1)]),
        (verify_restricted_expansion, [Fraction(1, 2), -1]),
    ],
)
def test_unit_t_is_refused_before_the_group_is_built(monkeypatch, verify, points):
    def no_table(*args):
        raise AssertionError("a group table was fetched before the points were checked")

    monkeypatch.setattr(weylgrp, "group_table_of", no_table)
    with pytest.raises(ValueError, match=r"^sample point with \|t\| = 1 is not allowed: t = -?1$"):
        verify("E8", points)


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-20, 20), rng.randint(1, 20))


GROUP_AVERAGE_CASES = [(name, DEFAULT_CAP) for name in ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "G2", "F4"]]
GROUP_AVERAGE_CASES.append(("E6", 60_000))


@pytest.mark.parametrize("name,cap", GROUP_AVERAGE_CASES)
def test_solomon_averages_match_the_fraction_oracle(name, cap):
    rng = random.Random(f"solomon {name}")
    points = [(_random_fraction(rng), _random_fraction(rng)) for _ in range(6)]
    points = [(q, t) for q, t in points if abs(t) != 1]
    table = group_table_of(name, cap)
    report = verify_solomon(name, points, cap)
    value = weylgrp_oracle.polynomial_value
    for check in (*report.points, report.specialization):
        q, t = check.q, check.t
        want = weylgrp_oracle.group_average(table, lambda p: value(p, q) / value(p, t))
        assert check.lhs == want
    assert report.passed


@pytest.mark.parametrize("name,cap", GROUP_AVERAGE_CASES)
def test_expansion_averages_match_the_fraction_oracle(name, cap):
    rng = random.Random(f"expansion {name}")
    samples = [t for t in (_random_fraction(rng) for _ in range(4)) if abs(t) != 1]
    table = group_table_of(name, cap)
    report = verify_restricted_expansion(name, samples, cap)
    value = weylgrp_oracle.polynomial_value
    for check in (*report.samples, *report.probes):
        t = check.t
        want = weylgrp_oracle.group_average(table, lambda p: value(p, Fraction(1)) ** 2 / value(p, t))
        assert check.lhs == want
    assert report.passed


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "F4"])
def test_group_averages_fail_when_one_class_count_moves(monkeypatch, name):
    # The identity counted under the det(1 - x w) of an element with
    # det(1 - w) != 0, which the expansion weights, must fail both checks.
    table = group_table_of(name)
    classes = conjugacy_classes(table)
    identity = tuple(math.comb(table.rank, k) * (-1) ** k for k in range(table.rank + 1))
    assert (classes.charpolys[0], classes.sizes[0]) == (identity, 1)
    sizes = list(classes.sizes)
    sizes[0] -= 1
    sizes[next(cid for cid, coeffs in enumerate(classes.charpolys) if sum(coeffs))] += 1
    monkeypatch.setattr(table, "_classes", dataclasses.replace(classes, sizes=tuple(sizes)))
    solomon = verify_solomon(name)
    expansion = verify_restricted_expansion(name)
    # At (q, t) = (2, 1/2) the term is (-2)^l det(w), which the move may keep.
    assert not solomon.passed and not any(p.passed for p in solomon.points[1:])
    assert not solomon.specialization.passed
    assert not expansion.passed and not any(p.passed for p in (*expansion.samples, *expansion.probes))


# W(A2) is S_3 on the plane x_1 + x_2 + x_3 = 0.  Per cycle type: the number
# of permutations of that type, and det(1 - x w) on the plane, the product of
# (1 - x^m) over the cycles of length m divided by the 1 - x of the line
# through (1, 1, 1).  The walk reaches e, then s_1 and s_2, then the two
# 3-cycles, then s_1 s_2 s_1, so the transpositions are the elements of odd
# length, indices 1, 2 and 5.
A2_CLASSES = ConjugacyClasses(
    class_of=(0, 1, 1, 2, 2, 1),
    representatives=(0, 1, 3),
    sizes=(1, 3, 2),
    charpolys=((1, -2, 1), (1, 0, -1), (1, 1, 1)),
)


def test_solomon_and_expansion_read_only_the_class_record(monkeypatch):
    assert conjugacy_classes(group_table_of("A2")) == A2_CLASSES
    calls = [
        (verify_solomon, ()),
        (verify_solomon, ([(2, Fraction(1, 2)), (0, -3)],)),
        (verify_restricted_expansion, ()),
        (verify_restricted_expansion, ([Fraction(1, 2)],)),
    ]
    enumerated = [verify("A2", *args) for verify, args in calls]
    # A table with no elements and no generator columns: its order is 0 and
    # its rank -1, so a report that read either would differ.
    real = group_table_of("A2")
    hollow = GroupTable(real.decomposition, real.root_ids[:0], real.roots, (), real.inverse[:0])
    hollow._classes = A2_CLASSES
    monkeypatch.setattr(weylgrp, "group_table_of", lambda label, cap: hollow)
    assert [verify("A2", *args) for verify, args in calls] == enumerated
    assert all(report.passed for report in enumerated)


def test_report_dict_shapes():
    solomon = verify_solomon("A2").as_dict()
    assert solomon["type"] == "A2"
    assert solomon["check"] == "solomon"
    assert solomon["pass"] is True
    assert len(solomon["points"]) == 5
    steinberg = verify_steinberg("A2").as_dict()
    assert steinberg["failures"] == []
    expansion = verify_restricted_expansion("A2").as_dict()
    assert expansion["gaps_decreasing"] is True


def test_element_membership_checked():
    table = group_table_of("A2")
    with pytest.raises(ValueError):
        perm_character(
            left_cosets(table, reflection_subgroup(table, [])),
            ((2, 0), (0, 1)),
        )


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3"])
def test_coset_character_matches_brute_force_oracle(name):
    # every subset of S_0: class counts against counting fixed cosets
    table = group_table_of(name)
    classes = conjugacy_classes(table)
    for size in range(table.rank + 2):
        for subset in itertools.combinations(range(table.rank + 1), size):
            values = coset_character(table, subset)
            cosets = left_cosets(table, reflection_subgroup(table, subset))
            for i, w in enumerate(elements_of(table)):
                assert values[classes.class_of[i]] == perm_character(cosets, w)


def test_generator_columns_match_products():
    # right[p][0] is the generator at S_0 position p: s_theta, the
    # reflection in the highest root, then s_1..s_l.
    rs = system_of_type(parse_label("B3"))
    table = group_table_of("B3")
    elements = elements_of(table)
    index = {w: i for i, w in enumerate(elements)}
    n = table.rank
    alphas = [highest_root(rs), *(tuple(int(j == i) for j in range(n)) for i in range(n))]
    for column, alpha in zip(table.right, alphas, strict=True):
        generator = reflection_matrix(rs, alpha)
        assert elements[column[0]] == generator
        for i, w in enumerate(elements):
            assert column[i] == index[_matmul(w, generator)]
    identity = _identity_matrix(n)
    for w, j in zip(elements, table.inverse, strict=True):
        assert _matmul(w, elements[j]) == identity


def test_table_holds_root_ids_right_columns_and_inverses():
    rs = system_of_type(parse_label("A3"))
    table = enumerate_group(rs)
    names = [f.name for f in dataclasses.fields(table) if f.init]
    assert names == ["decomposition", "root_ids", "roots", "right", "inverse"]
    assert isinstance(table.roots, Roots) and table.roots is rs.roots
    assert (table.rank, len(table.right), len(table.inverse)) == (3, 4, 24)


def test_conjugacy_classes_computed_once_per_table():
    table = group_table_of("G2")
    assert conjugacy_classes(table) is conjugacy_classes(table)


@pytest.mark.parametrize("position", [-1, 3])
def test_reflection_subgroup_rejects_positions_outside_s0(position):
    # A2 has S_0 positions 0, 1 and 2; -1 would index right[2] if unchecked.
    table = group_table_of("A2")
    message = rf"^positions \[{position}\] are outside S_0, whose positions are 0\.\.2$"
    with pytest.raises(ValueError, match=message):
        reflection_subgroup(table, [1, position])


BATTERY = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "G2", "F4"]


def test_exactly_one_default_solomon_point_is_degenerate():
    # At q t = 1 each term is (-q)^l det(w), so that point checks only that
    # det(w) averages to 0; a second such point would check nothing new.
    assert [q * t == 1 for q, t in DEFAULT_SOLOMON_POINTS] == [True, False, False, False, False]


@pytest.mark.parametrize("name", BATTERY)
def test_the_degenerate_solomon_point_reads_only_det_w(name):
    table = group_table_of(name)
    q, t = DEFAULT_SOLOMON_POINTS[0]
    n = table.rank
    for coeffs in conjugacy_classes(table).charpolys:
        value = weylgrp_oracle.polynomial_value
        assert value(coeffs, q) / value(coeffs, t) == (-q) ** n * (-1) ** n * coeffs[-1]
    point = verify_solomon(name).points[0]
    assert (point.q, point.t, point.lhs, point.rhs) == (q, t, 0, 0)


@pytest.mark.parametrize("name", BATTERY)
def test_class_determinants_match_every_element(name):
    # det(1 - w) = sum of the coefficients of det(1 - x w), and
    # det(w) = (-1)^n times the top one; both by elimination per element.
    table = group_table_of(name)
    classes = conjugacy_classes(table)
    polys = classes.charpolys
    n = table.rank
    for i, m in enumerate(elements_of(table)):
        coeffs = polys[classes.class_of[i]]
        assert (-1) ** n * coeffs[-1] == det(m) == det_int(m)
        assert sum(coeffs) == det(one_minus(m)) == det_int(one_minus(m))


@pytest.mark.parametrize("name,cap", [(name, DEFAULT_CAP) for name in BATTERY] + [("E6", 60_000)])
def test_conjugacy_classes_match_the_stack_walk(name, cap):
    table = group_table_of(name, cap)
    assert conjugacy_classes(table) == weylgrp_oracle.conjugacy_classes(table)


@pytest.mark.parametrize("name", [*BATTERY, "D5", "B5"])
def test_layered_enumeration_matches_breadth_first_oracle(name):
    rs = system_of_type(parse_label(name))
    table = enumerate_group(rs)
    oracle = weylgrp_oracle.enumerate_group(rs)
    elements = elements_of(table)
    assert elements == list(oracle.elements)
    assert list(oracle.index.items()) == [(w, i) for i, w in enumerate(elements)]
    assert tuple(column[0] for column in table.right) == (oracle.s_theta, *oracle.simple)
    assert table.right == oracle.right
    assert table.inverse == oracle.inverse


def test_enumeration_reads_only_cartan_integers(monkeypatch):
    def refuse(*args):
        raise AssertionError("the symmetrizer or the Gram matrix was computed")

    systems = [system_of_type(parse_label(name)) for name in BATTERY]
    want = [enumerate_group(rs) for rs in systems]
    monkeypatch.setattr(CartanMatrix, "symmetrizer", refuse)
    monkeypatch.setattr(CartanMatrix, "gram", refuse)
    for rs, table in zip(systems, want):
        got = enumerate_group(rs)
        assert got.decomposition == table.decomposition
        assert np.array_equal(got.root_ids, table.root_ids)
        assert (got.roots, got.right, got.inverse) == (table.roots, table.right, table.inverse)


def test_enumeration_cap_is_checked_before_any_product(monkeypatch):
    def no_products(*args):
        raise AssertionError("a product was formed before the cap was checked")

    rs = system_of_type(parse_label("F4"))
    monkeypatch.setattr(np, "matmul", no_products)
    with pytest.raises(EnumerationCapError):
        enumerate_group(rs, cap=1151)


def test_enumeration_refuses_keys_wider_than_an_int64_before_any_product(monkeypatch):
    # A10 has 110 roots, so a root id takes 7 bits and a row of 10 ids 70.
    def no_products(*args, **kwargs):
        raise AssertionError("an array operation ran before the key width was checked")

    rs = system_of_type(parse_label("A10"))
    monkeypatch.setattr(np, "matmul", no_products)
    monkeypatch.setattr(np, "unique", no_products)
    with pytest.raises(ValueError, match="^A10 needs 70-bit element keys; at most 63 fit in an int64$"):
        enumerate_group(rs, cap=10**8)


def test_enumeration_refuses_more_roots_than_one_byte_ids_before_any_product(monkeypatch):
    # D12 has 264 roots: its ids need 9 bits.
    def no_products(*args, **kwargs):
        raise AssertionError("an array operation ran before the root count was checked")

    rs = system_of_type(parse_label("D12"))
    monkeypatch.setattr(np, "matmul", no_products)
    monkeypatch.setattr(np, "unique", no_products)
    with pytest.raises(ValueError, match="^D12 has 264 roots; root ids are stored in one byte$"):
        enumerate_group(rs, cap=10**30)


class _KeyWidthPassed(Exception):
    pass


def test_every_type_within_the_cli_cap_has_keys_that_fit_an_int64(monkeypatch):
    # The first product comes after the key-width check, so stopping there
    # shows the check passed.  A9 sits at the limit: 90 roots, 7 bits, 63.
    def stop(*args, **kwargs):
        raise _KeyWidthPassed

    monkeypatch.setattr(np, "matmul", stop)
    labels = [f"{family}{rank}" for family, low in zip("ABCD", (1, 2, 2, 4)) for rank in range(low, 10)]
    labels += ["E6", "E7", "E8", "F4", "G2"]
    fitting = []
    for name in labels:
        label = parse_label(name)
        if weyl_order(degrees_of_type(label)) <= MAX_CAP:
            with pytest.raises(_KeyWidthPassed):
                enumerate_group(system_of_type(label), cap=MAX_CAP)
            fitting.append(name)
    assert "A8" in fitting and "E7" in fitting and "A9" not in fitting
    with pytest.raises(_KeyWidthPassed):
        enumerate_group(system_of_type(parse_label("A9")), cap=10**8)


@pytest.mark.parametrize("name", ["F4", "B4", "A5", "D4"])
def test_charpoly_matches_exact_determinants_on_every_element(name):
    # Every element in one stack, each row checked by elimination.
    points = (Fraction(1), Fraction(-2, 3), Fraction(7, 5))
    elements = elements_of(group_table_of(name))
    polys = one_minus_charpolys(np.array(elements))
    assert len(polys) == len(elements)
    for w, coeffs in zip(elements, polys):
        assert len(coeffs) == len(w) + 1
        for x in points:
            assert sum(c * x**k for k, c in enumerate(coeffs)) == det_one_minus(w, x)


@pytest.mark.parametrize("name,cap", [(name, DEFAULT_CAP) for name in BATTERY] + [("E6", 60_000)])
def test_batched_class_charpolys_match_the_per_element_oracle(name, cap):
    # Every element of the battery; on E6 each class's representative and a
    # seeded sample of 600 more, since the oracle takes about 0.1 ms each.
    table = group_table_of(name, cap)
    classes = conjugacy_classes(table)
    polys = classes.charpolys
    assert len(polys) == classes.count
    elements = range(table.order)
    if table.order > 2_000:
        elements = [*classes.representatives, *random.Random(name).sample(elements, 600)]
    for i in elements:
        assert polys[classes.class_of[i]] == one_minus_charpoly(table.element(i)), i


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n),
            min_size=1,
            max_size=4,
        )
    )
)
def test_batched_charpolys_match_the_oracle_on_integer_stacks(stack):
    assert one_minus_charpolys(np.array(stack)) == tuple(map(one_minus_charpoly, stack))


def test_batched_charpolys_refuse_entries_that_could_overflow_int64():
    # M is 2^31 everywhere: N_2 = M - tr(M) I has entries up to 2^32, and
    # 3 * 4 * 2^31 * 2^32 passes 2^63 - 1, so step 2 is refused.  The
    # exact result (1 - 3 * 2^31 x) fits, but M^2 = 3 * 2^62 would not.
    big = np.full((3, 3), 2**31, dtype=np.int64)
    stack = np.stack([np.eye(3, dtype=np.int64), big])
    message = "^Faddeev-LeVerrier step 2: entries up to 2147483648 and 4294967296 could overflow int64 products$"
    with pytest.raises(ValueError, match=message):
        one_minus_charpolys(stack)
    assert one_minus_charpoly(big.tolist()) == (1, -3 * 2**31, 0, 0)
    # M = a [[1, 1], [1, -1]] with a = 3 * 2^29: every entry of M^2 = 2a^2 I
    # fits, but its trace 4a^2 does not, so a bound of n max|M| max|N_k|
    # on the product's entries alone would let step 2 wrap.
    a = 3 * 2**29
    assert 2 * a * a <= 2**63 - 1 < 4 * a * a
    with pytest.raises(ValueError, match=f"^Faddeev-LeVerrier step 2: entries up to {a} and {a} could"):
        one_minus_charpolys(np.array([[[a, a], [a, -a]]]))
    # Just inside the bound the stack goes through: 3 * 4 * m * m <= 2^63 - 1.
    m = math.isqrt((2**63 - 1) // 12)
    assert one_minus_charpolys(np.array([[[m, 0, 0], [0, 0, 0], [0, 0, 0]]])) == ((1, -m, 0, 0),)


def test_batched_charpolys_name_the_first_non_integral_step(monkeypatch):
    # Integer matrices always divide exactly, so the check is reached by
    # shifting every trace by one: for M = [[0, 1], [1, 0]], step 1 reads
    # 1 and passes, and step 2 reads tr((M - I) M) + 1 = 3.  The identity
    # after it fails step 2 as well, with -3; the first failure is named.
    real = np.trace
    monkeypatch.setattr(np, "trace", lambda *args, **kwargs: real(*args, **kwargs) + 1)
    with pytest.raises(ValueError, match="^Faddeev-LeVerrier step 2: trace 3 is not divisible by 2$"):
        one_minus_charpolys(np.array([[[0, 1], [1, 0]], [[1, 0], [0, 1]]]))


def test_charpoly_rejects_a_non_integral_step():
    # The per-element oracle, on rational matrices.
    # tr(M) = 1/2 is not divisible by 1 in the integers.
    with pytest.raises(ValueError, match="step 1"):
        one_minus_charpoly(((Fraction(1, 2), 0), (0, 0)))
    # tr(M) = 0 passes step 1; tr(M^2) = 3 is not divisible by 2.
    with pytest.raises(ValueError, match="step 2: trace 3 is not divisible by 2"):
        one_minus_charpoly(((0, Fraction(3, 2)), (1, 0)))


@pytest.mark.parametrize("name", BATTERY)
def test_charpoly_histogram_counts_every_element(name):
    # The record's sizes weigh its polynomials: they count every element once.
    table = group_table_of(name)
    classes = conjugacy_classes(table)
    assert classes is conjugacy_classes(table)
    assert sum(classes.sizes) == table.order
    # Only the identity, class 0, has det(1 - x w) = (1 - x)^n.
    n = table.rank
    identity = tuple(math.comb(n, k) * (-1) ** k for k in range(n + 1))
    assert [cid for cid, coeffs in enumerate(classes.charpolys) if coeffs == identity] == [0]
    assert (classes.representatives[0], classes.sizes[0]) == (0, 1)


def test_e6_enumerates_with_a_raised_cap():
    table = group_table_of("E6", cap=60_000)
    assert table.order == 51_840
    assert conjugacy_classes(table).count == 25
    # One byte per root id, and 4 bytes per element in each of the l + 1
    # right columns and the inverse column.
    assert table.root_ids.nbytes == 51_840 * 6
    columns = (*table.right, table.inverse)
    assert sum(c.itemsize * len(c) for c in columns) == (table.rank + 2) * 4 * 51_840


def test_table_is_cached_by_type_not_by_cap():
    table = group_table_of("F4")
    assert group_table_of("F4", cap=60_000) is table
    assert group_table_of(parse_label("F4"), cap=table.order) is table
    with pytest.raises(EnumerationCapError, match="1152"):
        group_table_of("F4", cap=table.order - 1)


@pytest.mark.parametrize("verify", [verify_steinberg, verify_companion])
def test_a_failing_class_lists_its_members(monkeypatch, verify):
    # Shift one class's value of the regular character (the empty subset
    # J, which both identities take with a nonzero sign), so exactly that
    # class's right-hand total moves.
    table = group_table_of("B3")
    classes = conjugacy_classes(table)
    target = classes.class_of[table.right[1][0]]
    real = weylgrp.coset_character

    def shifted(table, positions):
        positions = list(positions)
        values = list(real(table, positions))
        if not positions:
            values[target] += 1
        return tuple(values)

    honest = verify("B3")
    monkeypatch.setattr(weylgrp, "coset_character", shifted)
    report = verify("B3")
    assert honest.passed and not report.passed
    members = [i for i in range(table.order) if classes.class_of[i] == target]
    assert len(members) == classes.sizes[target] > 1
    assert [f.element for f in report.failures] == members
    assert [f.matrix for f in report.failures] == [table.element(i) for i in members]
    assert len({(f.lhs, f.rhs) for f in report.failures}) == 1
    assert abs(report.failures[0].rhs - report.failures[0].lhs) == 1
    first = report.as_dict()["failures"][0]
    assert list(first) == ["element", "matrix", "lhs", "rhs"]
    assert first["element"] == members[0]
    assert first["matrix"] == [list(row) for row in table.element(members[0])]
    assert report.as_dict()["pass"] is False
