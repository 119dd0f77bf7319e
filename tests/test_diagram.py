"""Labels, Cartan matrices, classification, and extended diagrams."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootvol.diagram import (
    CartanMatrix,
    DecompositionLabel,
    InadmissibleLabelError,
    MarkedDiagram,
    NotFiniteTypeError,
    TypeLabel,
    cartan_of_decomposition,
    cartan_of_type,
    classify,
    classify_deletion,
    classify_deletions,
    extend,
    parse_decomposition,
    parse_label,
)
from rootvol.identity import extended_diagram
from rootvol.rootsys import system_of_type

import rootsys_oracle
from rootsys_oracle import delete_node

ALL_LABELS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def test_parse_label_roundtrip():
    for name in ALL_LABELS:
        assert str(parse_label(name)) == name


@pytest.mark.parametrize("bad", ["Q9", "B1", "C1", "D3", "D2", "A0", "E9", "F5", "G3", "x", "B", "3"])
def test_inadmissible_labels_rejected(bad):
    with pytest.raises(InadmissibleLabelError):
        parse_label(bad)


def test_decomposition_sorts_factors():
    d = parse_decomposition("C3xA1")
    assert str(d) == "A1xC3"
    assert d == parse_decomposition("A1xC3")
    assert d.rank == 4
    a1, c3 = TypeLabel("A", 1), TypeLabel("C", 3)
    for factors in ((c3, a1), [c3, a1], iter([c3, a1])):
        assert DecompositionLabel(factors).factors == (a1, c3)


@pytest.mark.parametrize("bad", ["x", "A1x", "xA1", "A1xxA2", "A1x xC3"])
def test_empty_product_factor_names_the_whole_label(bad):
    with pytest.raises(InadmissibleLabelError) as refused:
        parse_decomposition(bad)
    assert str(refused.value) == f"cannot parse product label {bad!r}: empty factor"


def test_trivial_decomposition():
    d = parse_decomposition("-")
    assert d.factors == ()
    assert d.rank == 0
    assert str(d) == "-"


def test_labels_sort_family_first():
    assert TypeLabel("A", 7) < TypeLabel("B", 2) < TypeLabel("B", 3) < TypeLabel("G", 2)
    names = ["G2", "B10", "A7", "B3", "A10", "E6", "B2"]
    assert [str(t) for t in sorted(map(parse_label, names))] == ["A7", "A10", "B2", "B3", "B10", "E6", "G2"]


@pytest.mark.parametrize("family,rank", [("D", 3), ("B", 1), ("A", 0), ("E", 9), ("Q", 9)])
def test_type_label_names_the_admissible_labels(family, rank):
    with pytest.raises(InadmissibleLabelError) as refused:
        TypeLabel(family, rank)
    assert str(refused.value) == (
        f"{family}{rank}: admissible are A(n>=1), B(n>=2), C(n>=2), D(n>=4), E6..E8, F4, G2"
    )


# Two builds of each record from equal fields.
_RECORDS = {
    "TypeLabel": lambda: TypeLabel("B", 3),
    "DecompositionLabel": lambda: DecompositionLabel((TypeLabel("C", 3), TypeLabel("A", 1))),
    "CartanMatrix": lambda: CartanMatrix(((2, -1), (-1, 2))),
    "MarkedDiagram": lambda: extend(TypeLabel("B", 3)),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_records_are_immutable_values(name):
    first, second = _RECORDS[name](), _RECORDS[name]()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    for field in first._fields:
        with pytest.raises(AttributeError):
            setattr(first, field, getattr(second, field))
    with pytest.raises(AttributeError):
        first.note = 1
    assert first == second
    assert copy.deepcopy(first) == first and pickle.loads(pickle.dumps(first)) == first


def test_cartan_a2_entries():
    assert cartan_of_type(parse_label("A2")).entries == ((2, -1), (-1, 2))


def test_cartan_b2_c2_are_transposes():
    b2 = cartan_of_type(parse_label("B2")).entries
    c2 = cartan_of_type(parse_label("C2")).entries
    assert b2 == tuple(zip(*c2))
    assert b2 != c2


def test_cartan_asymmetric_bonds():
    # the second node of each bond below is the one hit twice
    b3 = cartan_of_type(parse_label("B3")).entries
    assert (b3[1][2], b3[2][1]) == (-2, -1)
    c3 = cartan_of_type(parse_label("C3")).entries
    assert (c3[1][2], c3[2][1]) == (-1, -2)
    g2 = cartan_of_type(parse_label("G2")).entries
    assert (g2[0][1], g2[1][0]) == (-1, -3)
    f4 = cartan_of_type(parse_label("F4")).entries
    assert (f4[1][2], f4[2][1]) == (-2, -1)


def test_cartan_shapes():
    d4 = cartan_of_type(parse_label("D4"))
    # fork node: three neighbors
    assert d4.edges[1] == (0, 2, 3)
    e6 = cartan_of_type(parse_label("E6"))
    assert e6.edges[3] == (1, 2, 4)


# Invalid entries and the message that refuses each.
_INVALID_CARTAN = {
    ((2, -1),): "Cartan matrix must be square",
    ((1, -1), (-1, 2)): "diagonal entries must equal 2",
    ((2, 1), (1, 2)): "off-diagonal entries must be <= 0",
    ((2, -1), (0, 2)): "zero pattern must be symmetric",
    ((2, -1.0), (-1, 2)): "Cartan entries must be integers",
    ((2, 0, -1), (0, 2, -1), (-1,)): "Cartan matrix must be square",  # the last row is short
}


@pytest.mark.parametrize("entries", list(_INVALID_CARTAN))
def test_cartan_matrix_rejects_invalid(entries):
    with pytest.raises((ValueError, TypeError)) as refused:
        CartanMatrix(entries)
    assert str(refused.value) == _INVALID_CARTAN[entries]


def test_cartan_matrix_allows_bond_product_four():
    # the rank-1 extension carries a double bond in both directions; the
    # constructor accepts it, finite-type detection rejects it
    m = CartanMatrix(((2, -2), (-2, 2)))
    assert not rootsys_oracle.is_finite_type(m)


def test_components_of_block_matrix():
    d = parse_decomposition("A2xB2")
    m = cartan_of_decomposition(d)
    assert m.components() == ((0, 1), (2, 3))


def test_symmetrizer_b3():
    d = cartan_of_type(parse_label("B3")).symmetrizer()
    assert d == (Fraction(2), Fraction(2), Fraction(1))


def test_symmetrizer_g2_and_gram():
    g2 = cartan_of_type(parse_label("G2"))
    assert g2.symmetrizer() == (Fraction(1), Fraction(3))
    gram = g2.gram()
    assert gram == ((Fraction(2), Fraction(-3)), (Fraction(-3), Fraction(6)))


def test_symmetrizer_is_the_smallest_integer_vector():
    # Affine A1 pairs its nodes by -2 both ways; in the second matrix the
    # ratios 2 and 1/3 along the path give lengths proportional to 3, 6, 2.
    assert CartanMatrix(((2, -2), (-2, 2))).symmetrizer() == (1, 1)
    assert CartanMatrix(((2, -1, 0), (-2, 2, -3), (0, -1, 2))).symmetrizer() == (3, 6, 2)


def test_unsymmetrizable_matrix():
    # an odd cycle of asymmetric bonds cannot carry consistent lengths
    m = CartanMatrix(((2, -1, -2), (-2, 2, -1), (-1, -2, 2)))
    assert m.symmetrizer() is None
    assert not rootsys_oracle.is_finite_type(m)
    with pytest.raises(NotFiniteTypeError):
        m.gram()


def test_finite_type_catalogue():
    for name in ALL_LABELS:
        assert rootsys_oracle.is_finite_type(cartan_of_type(parse_label(name))), name


# Each affine diagram is one component that the classifier refuses: the
# cycle of A~n (n >= 2) and the quadruple bond of A~1; the branch node with
# a double bond of B~n and the two double bonds of C~n; the node of degree 4
# of D~4 and the two branch nodes of D~n (n >= 5); the arms (2, 2, 2),
# (1, 3, 3) and (1, 2, 5) of E~6, E~7 and E~8; the double bond in the
# middle of a path of five nodes of F~4 and the triple bond on three nodes
# of G~2.
@pytest.mark.parametrize("name", ALL_LABELS)
def test_affine_extension_is_not_finite_type(name):
    marked = extend(parse_label(name))
    message = f"component {tuple(range(marked.rank + 1))} matches no finite-type diagram"
    with pytest.raises(NotFiniteTypeError) as walked:
        classify(marked.cartan)
    with pytest.raises(NotFiniteTypeError) as dense:
        rootsys_oracle.classify_by_reference(marked.cartan)
    assert str(walked.value) == str(dense.value) == message
    assert not rootsys_oracle.is_finite_type(marked.cartan)


@pytest.mark.parametrize("name", ALL_LABELS)
def test_classify_roundtrip(name):
    label = parse_label(name)
    got = classify(cartan_of_type(label))
    if name == "C2":
        # rank-2 B and C coincide; B2 is the canonical name
        assert str(got) == "B2"
    else:
        assert got == DecompositionLabel((label,))


def test_classified_labels_are_shared_per_family_and_rank():
    # Every deletion of A5's extended diagram leaves A5, under one label.
    marked = extended_diagram(parse_label("A5"))
    labels = [classify_deletion(marked, node).factors for node in range(6)]
    assert all(factors == (TypeLabel("A", 5),) for factors in labels)
    assert len({id(factors[0]) for factors in labels}) == 1


def test_classify_products():
    d = parse_decomposition("A1xA2xG2")
    assert classify(cartan_of_decomposition(d)) == d


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_LABELS), st.randoms(use_true_random=False))
def test_classify_invariant_under_relabeling(name, rng):
    label = parse_label(name)
    cartan = cartan_of_type(label)
    order = list(range(cartan.size))
    rng.shuffle(order)
    shuffled = CartanMatrix(
        tuple(tuple(cartan.entries[order[i]][order[j]] for j in range(cartan.size)) for i in range(cartan.size))
    )
    assert classify(shuffled) == classify(cartan)


def _shuffled(cartan, order):
    n = cartan.size
    return CartanMatrix(
        tuple(tuple(cartan.entries[order[i]][order[j]] for j in range(n)) for i in range(n))
    )


# Bonds (a_ij, a_ji) of multiplicity 1 to 4 in both directions, and no bond.
_BONDS = ((-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-1, -4), (-4, -1), (-2, -2), (0, 0))


@st.composite
def cartan_like(draw):
    """A catalogue type or product with up to three bonds changed, added or
    removed (which can close cycles, add branch nodes or split components),
    then relabeled."""
    base = draw(st.sampled_from(ALL_LABELS + ["A1xB3", "D4xG2", "A2xA2xF4"]))
    a = [list(row) for row in cartan_of_decomposition(parse_decomposition(base)).entries]
    n = len(a)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i != j:
            a[i][j], a[j][i] = draw(st.sampled_from(_BONDS))
    order = draw(st.permutations(range(n)))
    return CartanMatrix(tuple(tuple(a[order[i]][order[j]] for j in range(n)) for i in range(n)))


def _each_deletion(marked):
    return tuple(classify_deletion(marked, node) for node in range(marked.rank + 1))


def _outcome(classifier, *args):
    """The classification, or the message of the NotFiniteTypeError."""
    try:
        return classifier(*args)
    except NotFiniteTypeError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(cartan_like())
def test_classify_matches_the_reference_classifier(cartan):
    want = _outcome(rootsys_oracle.classify_by_reference, cartan)
    assert _outcome(classify, cartan) == want
    marked = MarkedDiagram(cartan, (-1,) * (cartan.size - 1))
    for node in range(cartan.size):
        want = _outcome(rootsys_oracle.classify_by_reference, delete_node(marked, node))
        assert _outcome(classify_deletion, marked, node) == want
    # Every deletion at once: the same labels, or the message of the first
    # node whose deletion fails.
    assert _outcome(classify_deletions, marked) == _outcome(_each_deletion, marked)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_LABELS), st.randoms(use_true_random=False))
def test_classify_of_shuffled_node_deletions_matches_dense_comparison(name, rng):
    label = parse_label(name)
    marked = extend(label)
    matrices = []
    for node in range(marked.rank + 1):
        deleted = delete_node(marked, node)
        order = list(range(deleted.size))
        rng.shuffle(order)
        matrices.append(_shuffled(deleted, order))
    # The extended diagram relabeled as a whole, its nodes deleted on edge
    # lists and as dense matrices.
    order = list(range(marked.cartan.size))
    rng.shuffle(order)
    relabeled = MarkedDiagram(_shuffled(marked.cartan, order), marked.marks)
    nodes = range(relabeled.rank + 1)
    got = [classify(m) for m in matrices]
    got_deletions = [classify_deletion(relabeled, node) for node in nodes]
    want = [rootsys_oracle.classify_by_reference(m) for m in matrices]
    want_deletions = [rootsys_oracle.classify_by_reference(delete_node(relabeled, node)) for node in nodes]
    assert got == want
    assert got_deletions == want_deletions
    assert classify_deletions(relabeled) == tuple(got_deletions)
    assert sorted(map(str, got_deletions)) == sorted(map(str, got))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALL_LABELS), st.sampled_from(ALL_LABELS))
def test_classify_block_sums(first, second):
    d = DecompositionLabel((parse_label(first), parse_label(second)))
    want = DecompositionLabel(
        classify(cartan_of_type(parse_label(first))).factors
        + classify(cartan_of_type(parse_label(second))).factors
    )
    assert classify(cartan_of_decomposition(d)) == want


def test_extend_a2():
    marked = extend(parse_label("A2"))
    assert marked.marks == (-1, -1)
    assert marked.cartan.entries[0] == (2, -1, -1)


def test_extend_a1_double_bond():
    marked = extend(parse_label("A1"))
    assert marked.cartan.entries == ((2, -2), (-2, 2))
    assert marked.marks == (-1,)


def test_extend_g2_marks():
    marked = extend(parse_label("G2"))
    assert marked.marks == (-3, -2)


def test_extend_e8_attachment():
    marked = extend(parse_label("E8"))
    assert marked.cartan.edges[0] == (8,)
    assert min(marked.marks) == -6


def test_delete_node_restores_base():
    label = parse_label("F4")
    marked = extend(label)
    assert delete_node(marked, 0) == cartan_of_type(label)
    assert delete_node(marked, 2).size == 4
    with pytest.raises(IndexError):
        delete_node(marked, 5)


DELETION_LABELS = (
    ["G2", "F4", "E6", "E7", "E8"]
    + [f"A{n}" for n in range(1, 25)]
    + [f"B{n}" for n in range(2, 25)]
    + [f"C{n}" for n in range(2, 25)]
    + [f"D{n}" for n in range(4, 25)]
    + ["A49", "B35", "C35", "D40"]
)


# The oracle's marks are minus the closure's highest root, so this also
# checks the dominance ascent against the closure.
@pytest.mark.parametrize("name", DELETION_LABELS + ["A100", "B100", "C100", "D100"])
def test_extend_matches_the_gram_oracle(name):
    label = parse_label(name)
    rs = system_of_type(label)
    got = extend(label)
    want = rootsys_oracle.extend_by_gram(label, rs)
    assert got.cartan.entries == want.cartan.entries
    assert got.marks == want.marks


def test_extend_reads_only_cartan_integers(monkeypatch):
    def refuse(*args):
        raise AssertionError("the symmetrizer or the Gram matrix was computed")

    want = [extend(parse_label(name)) for name in DELETION_LABELS]
    monkeypatch.setattr(CartanMatrix, "symmetrizer", refuse)
    monkeypatch.setattr(CartanMatrix, "gram", refuse)
    assert [extend(parse_label(name)) for name in DELETION_LABELS] == want


# Column 0 against 2 (a_j, -theta) / (theta, theta) from the Gram matrix, up
# to the identity's rank ceiling, without a root closure.
GRAM_COLUMN_LABELS = ["E6", "E7", "E8", "F4", "G2"] + [
    f"{family}{n}"
    for family, least in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
    for n in [*range(least, 31), 50, 100, 200, 300]
]


@pytest.mark.parametrize("name", GRAM_COLUMN_LABELS)
def test_extend_column_0_matches_the_gram_pairings(name):
    label = parse_label(name)
    marked = extend(label)
    gram = cartan_of_type(label).gram()
    theta = [-m for m in marked.marks]
    dots = [sum(g * t for g, t in zip(row, theta)) for row in gram]
    norm = sum(d * t for d, t in zip(dots, theta))
    assert [row[0] for row in marked.cartan.entries[1:]] == [Fraction(-2 * d, norm) for d in dots]


@pytest.mark.parametrize("name", ["A49", "B35", "C35", "D40", "B100"])
def test_classify_deletion_at_large_rank_matches_the_reference_classifier(name):
    marked = extended_diagram(parse_label(name))
    for node in range(marked.rank + 1):
        want = rootsys_oracle.classify_by_reference(delete_node(marked, node))
        assert classify_deletion(marked, node) == want, (name, node)


def test_classify_deletion_matches_the_dense_deletion():
    for name in DELETION_LABELS:
        marked = extended_diagram(parse_label(name))
        for node in range(marked.rank + 1):
            assert classify_deletion(marked, node) == classify(delete_node(marked, node)), (name, node)


SWEEP_LABELS = (
    [f"A{n}" for n in range(1, 101)]
    + [f"B{n}" for n in range(2, 101)]
    + [f"C{n}" for n in range(2, 101)]
    + [f"D{n}" for n in range(4, 101)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def test_classify_deletions_matches_each_deletion():
    for name in SWEEP_LABELS:
        marked = extended_diagram(parse_label(name))
        assert classify_deletions(marked) == _each_deletion(marked), name


# Nodes 2, 3 and 4 form a triangle, the affine diagram of A2; node 1 joins
# node 0 to it.
_TRIANGLE_WITH_A_TAIL = MarkedDiagram(
    CartanMatrix(
        (
            (2, -1, 0, 0, 0),
            (-1, 2, -1, 0, 0),
            (0, -1, 2, -1, -1),
            (0, 0, -1, 2, -1),
            (0, 0, -1, -1, 2),
        )
    ),
    (-1, -1, -1, -1),
)


@pytest.mark.parametrize(
    "node,message",
    [
        # The triangle alone, as nodes 1, 2, 3 of the smaller matrix.
        (1, "component (1, 2, 3) matches no finite-type diagram"),
        # The triangle with a tail: a branch node on a cycle.
        (0, "component (0, 1, 2, 3) matches no finite-type diagram"),
    ],
)
def test_deletion_that_leaves_an_affine_component(node, message):
    with pytest.raises(NotFiniteTypeError) as dense:
        classify(delete_node(_TRIANGLE_WITH_A_TAIL, node))
    with pytest.raises(NotFiniteTypeError) as edges:
        classify_deletion(_TRIANGLE_WITH_A_TAIL, node)
    assert str(edges.value) == str(dense.value) == message


# A tree: node 1 joined to nodes 2 to 5, and node 0 to node 2.  Without
# node 0 it is the star of affine D4.
_STAR_WITH_A_TAIL = MarkedDiagram(
    CartanMatrix(
        (
            (2, 0, -1, 0, 0, 0),
            (0, 2, -1, -1, -1, -1),
            (-1, -1, 2, 0, 0, 0),
            (0, -1, 0, 2, 0, 0),
            (0, -1, 0, 0, 2, 0),
            (0, -1, 0, 0, 0, 2),
        )
    ),
    (-1, -1, -1, -1, -1),
)


# A tree: nodes 2 and 4 joined, node 2 to nodes 1 and 3, node 4 to nodes 5
# and 6, and node 0 to node 1.  Without node 0 it is affine D5, with two
# branch nodes.
_TWO_BRANCHES_WITH_A_TAIL = MarkedDiagram(
    CartanMatrix(
        (
            (2, -1, 0, 0, 0, 0, 0),
            (-1, 2, -1, 0, 0, 0, 0),
            (0, -1, 2, -1, -1, 0, 0),
            (0, 0, -1, 2, 0, 0, 0),
            (0, 0, -1, 0, 2, -1, -1),
            (0, 0, 0, 0, -1, 2, 0),
            (0, 0, 0, 0, -1, 0, 2),
        )
    ),
    (-1,) * 6,
)


@pytest.mark.parametrize(
    "diagram,message",
    [
        (_TRIANGLE_WITH_A_TAIL, "component (0, 1, 2, 3) matches no finite-type diagram"),
        (_STAR_WITH_A_TAIL, "component (0, 1, 2, 3, 4) matches no finite-type diagram"),
        (_TWO_BRANCHES_WITH_A_TAIL, "component (0, 1, 2, 3, 4, 5) matches no finite-type diagram"),
    ],
)
def test_all_deletions_fail_with_the_message_of_node_0(diagram, message):
    with pytest.raises(NotFiniteTypeError) as per_node:
        classify_deletion(diagram, 0)
    with pytest.raises(NotFiniteTypeError) as all_at_once:
        classify_deletions(diagram)
    assert str(all_at_once.value) == str(per_node.value) == message


def test_deletion_of_a_node_out_of_range():
    marked = extended_diagram(parse_label("F4"))
    for node in (-1, 5):
        with pytest.raises(IndexError, match=f"node {node} out of range 0..4"):
            classify_deletion(marked, node)
        with pytest.raises(IndexError, match=f"node {node} out of range 0..4"):
            delete_node(marked, node)


def test_marked_diagram_validation():
    good = cartan_of_type(parse_label("A2"))
    with pytest.raises(ValueError, match="^marks length must be rank of the base diagram$"):
        MarkedDiagram(good, (-1, -1))
    ext = extend(parse_label("A2"))
    with pytest.raises(ValueError, match="^marks must be strictly negative$"):
        MarkedDiagram(ext.cartan, (1, -1))
    assert MarkedDiagram(ext.cartan, (-1, -1)) == ext


# `cartan_of_type` and `extend` set the edges themselves; the checked
# constructor must find the same ones.
BUILT_LABELS = (
    ["E6", "E7", "E8", "F4", "G2"]
    + [f"A{n}" for n in range(1, 31)]
    + [f"B{n}" for n in range(2, 31)]
    + [f"C{n}" for n in range(2, 31)]
    + [f"D{n}" for n in range(4, 31)]
)


def test_built_matrices_match_the_checked_constructor():
    for name in BUILT_LABELS:
        label = parse_label(name)
        for built in (cartan_of_type(label), extend(label).cartan):
            checked = CartanMatrix(built.entries)
            assert built.edges == checked.edges, name
            assert built == checked, name
