"""Root generation, highest roots, reflections, subsystems."""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootvol import rootsys
from rootvol.acceptance import IDENTITY_TYPES
from rootvol.cli import main
from rootvol.diagram import (
    CartanMatrix,
    InadmissibleLabelError,
    NotFiniteTypeError,
    TypeLabel,
    cartan_of_decomposition,
    cartan_of_type,
    extend,
    parse_decomposition,
    parse_label,
)
from rootvol.identity import verify_identity
from rootvol.rootsys import (
    CLOSURE_CEILING,
    HEIGHT_CEILING,
    ClosureCeilingError,
    closure_bound,
    generate_roots,
    system_of_type,
)

import rootsys_oracle
from weylgrp_oracle import highest_root, reflection_matrix

ROOT_COUNTS = {
    "A1": 2,
    "A2": 6,
    "A3": 12,
    "B2": 8,
    "B3": 18,
    "C3": 18,
    "D4": 24,
    "G2": 12,
    "F4": 48,
    "E6": 72,
    "E7": 126,
    "E8": 240,
}


@pytest.mark.parametrize("name,count", sorted(ROOT_COUNTS.items()))
def test_root_counts(name, count):
    rs = system_of_type(parse_label(name))
    assert len(rs.roots) == count
    assert len(rs.positive) == count // 2


@pytest.mark.parametrize("name", sorted(ROOT_COUNTS))
def test_roots_have_uniform_sign_and_negations(name):
    rs = system_of_type(parse_label(name))
    roots = set(rs.roots)
    for r in rs.roots:
        assert all(c >= 0 for c in r) or all(c <= 0 for c in r)
        assert tuple(-c for c in r) in roots
    assert len(roots) == len(rs.roots)


def test_positive_roots_positive_height():
    rs = system_of_type(parse_label("B3"))
    assert all(sum(r) > 0 for r in rs.positive)


def test_highest_root_values():
    assert highest_root(system_of_type(parse_label("A3"))) == (1, 1, 1)
    assert highest_root(system_of_type(parse_label("G2"))) == (3, 2)
    assert highest_root(system_of_type(parse_label("E8"))) == (2, 3, 4, 6, 5, 4, 3, 2)


def test_highest_root_dominates_componentwise():
    for name in ("B3", "C4", "D5", "F4", "E6"):
        rs = system_of_type(parse_label(name))
        theta = highest_root(rs)
        for r in rs.roots:
            assert all(rc <= tc for rc, tc in zip(r, theta))


def test_highest_root_requires_irreducible():
    rs = generate_roots(cartan_of_decomposition(parse_decomposition("A1xA1")))
    assert rs.theta is None
    with pytest.raises(ValueError):
        highest_root(rs)


def test_generate_rejects_affine_matrix():
    with pytest.raises(NotFiniteTypeError):
        generate_roots(CartanMatrix(((2, -2), (-2, 2))))


@pytest.mark.parametrize(
    "name,count",
    [
        ("A49", 2450),
        ("B35", 2450),
        ("C35", 2450),
        ("D40", 3120),
        # rank 100 is the largest that the closure ceiling admits
        ("A100", 10100),
        ("B100", 20000),
        ("C100", 20000),
        ("D100", 19800),
    ],
)
def test_large_admissible_ranks_close(name, count):
    # a fixed bound of ten times the E8 root count once rejected these
    label = parse_label(name)
    assert len(system_of_type(label).roots) == count
    assert verify_identity(label).passed


def test_closure_bound_is_taken_per_component():
    # E8xA1 has 242 roots at rank 9, more than any irreducible type of rank
    # 9; each of 84 factors A1 counts for its own 2 roots, well below the
    # closure ceiling.
    rs = generate_roots(cartan_of_decomposition(parse_decomposition("E8xA1")))
    assert len(rs.roots) == 242
    rs = generate_roots(cartan_of_decomposition(parse_decomposition("x".join(["A1"] * 84))))
    assert len(rs.roots) == 168


def test_closure_ceiling_names_rank_and_ceiling():
    with pytest.raises(ClosureCeilingError, match="rank 101 .* ceiling of 20000"):
        generate_roots(cartan_of_type(parse_label("B101")))


def test_identity_above_the_closure_ceiling_closes_no_roots(capsys):
    # The extended diagram finds its highest root without a closure.
    assert main(["identity", "--type", "A101"]) == 0
    # Every node of the extended diagram of A_n reproduces A_n.
    gamma = ",".join(map(str, range(102)))
    assert capsys.readouterr().out.splitlines()[-1] == f"total = 1  gamma = {{{gamma}}}  PASS"


CATALOGUE = (
    "G2",
    "F4",
    "E6",
    "E7",
    "E8",
    *(f"A{n}" for n in range(1, 25)),
    *(f"B{n}" for n in range(2, 25)),
    *(f"C{n}" for n in range(2, 25)),
    *(f"D{n}" for n in range(4, 25)),
)


def _assert_same_closure(cartan):
    got = generate_roots(cartan)
    want = rootsys_oracle.reflection_closure(cartan)
    assert tuple(got.roots) == want.roots
    assert tuple(got.positive) == want.positive
    assert got.heights == want.heights
    assert got.theta == want.theta


# The catalogue and the large-rank probes, which close thousands of roots.
@pytest.mark.parametrize("name", CATALOGUE + ("A49", "B35", "C35", "D40"))
def test_closure_matches_tuple_oracle(name):
    _assert_same_closure(cartan_of_type(parse_label(name)))


@pytest.mark.parametrize("name", ["E8xA1", "x".join(["A1"] * 84)])
def test_closure_of_products_matches_tuple_oracle(name):
    _assert_same_closure(cartan_of_decomposition(parse_decomposition(name)))


# sha256 of repr(tuple(roots)) for the closures of rank 100, the largest
# that the closure ceiling admits, as the tuple oracle gives them.  The
# oracle takes 1-3 s on each of these, so its result is kept as a digest.
RANK_100_DIGESTS = {
    "A100": "97232c561718403b7d542f7002e50a04d3eae4d0112cabc9c7f3518cb9fc178f",
    "B100": "eb8cceb2f3e0619985cbe51a532c8b7270a34e514f5fde88d70e0ba700d6e5f5",
    "C100": "1a7d9498ccc38efe7a2b8fe470aad07351f8ca8a6020f1d05b27de3103b3b561",
    "D100": "4e52edc9e8542c9e194e2d27321922b91d563bb64f1802a63c827c3a21999601",
}


def _assert_one_blob(rs):
    """`rs` keeps its roots once: the positive roots are the upper half of
    `roots`, and the lower half is their negatives in reverse order."""
    assert [field.name for field in dataclasses.fields(rs)] == ["cartan", "roots", "heights", "theta"]
    half = len(rs.roots) // 2
    assert rs.positive == rs.roots[half:]
    assert len(rs.positive) == half == sum(rs.heights)
    assert all(sum(r) > 0 for r in rs.positive)
    assert tuple(rs.roots[:half]) == tuple(tuple(-x for x in r) for r in reversed(rs.positive))
    assert rs.theta == rs.positive[-1]


@pytest.mark.parametrize("name", sorted(RANK_100_DIGESTS))
def test_closure_at_rank_100_matches_the_oracle_digest(name):
    rs = system_of_type(parse_label(name))
    assert hashlib.sha256(repr(tuple(rs.roots)).encode()).hexdigest() == RANK_100_DIGESTS[name]
    _assert_one_blob(rs)


@pytest.mark.parametrize("name", [*sorted(ROOT_COUNTS), "A49", "B35", "C35", "D40"])
def test_positive_roots_are_the_upper_half_of_the_roots(name):
    _assert_one_blob(system_of_type(parse_label(name)))


def test_every_type_within_the_closure_ceiling_fits_the_byte_keys():
    # A root's height bounds its coordinates, and the highest root has the
    # greatest height and coordinates; a product's roots are its factors'.
    # So byte-sized keys hold every root of a type the ceiling admits, and
    # its negated coordinates read back as signed bytes.
    labels = [parse_label(name) for name in ("G2", "F4", "E6", "E7", "E8")]
    for family in "ABCD":
        for rank in range(1, 102):
            try:
                label = TypeLabel(family, rank)
            except InadmissibleLabelError:
                continue
            if closure_bound(cartan_of_type(label)) <= CLOSURE_CEILING:
                labels.append(label)
    assert max(label.rank for label in labels) == 100
    thetas = {label: [-m for m in extend(label).marks] for label in labels}
    heights = {label: sum(theta) for label, theta in thetas.items()}
    assert max(heights.values()) == 199
    assert {str(label) for label, h in heights.items() if h == 199} == {"B100", "C100"}
    assert max(heights.values()) < HEIGHT_CEILING
    assert max(max(theta) for theta in thetas.values()) == 6


@pytest.fixture
def empty_memo():
    rootsys._SYSTEMS.clear()


def _plain_generations(monkeypatch):
    """The Cartan matrices that `system_of_type` hands to `generate_roots`
    from now on."""
    calls = []
    plain = rootsys.generate_roots

    def spy(cartan):
        calls.append(cartan)
        return plain(cartan)

    monkeypatch.setattr(rootsys, "generate_roots", spy)
    return calls


def test_seeded_closures_match_the_plain_route(empty_memo):
    # A sweep in ascending rank seeds each classical closure from the one a
    # rank below (B2 and C2 from A1), and so are the large-rank probes; G2
    # is seeded from A1, and F4, E6, E7 and E8 have no base.
    names = [f"{family}{rank}" for family, low in (("A", 1), ("B", 2), ("C", 2)) for rank in range(low, 31)]
    names += [f"D{rank}" for rank in range(4, 31)]
    names += ["A48", "A49", "B34", "B35", "C34", "C35", "D39", "D40", "G2", "F4", "E6", "E7", "E8"]
    for name in names:
        label = parse_label(name)
        got, want = system_of_type(label), generate_roots(cartan_of_type(label))
        assert (got.roots, got.positive, got.heights, got.theta) == (
            want.roots,
            want.positive,
            want.heights,
            want.theta,
        ), name


def test_seeded_closure_builds_no_plain_closure(empty_memo, monkeypatch):
    b11, b12 = parse_label("B11"), parse_label("B12")
    system_of_type(b11)
    calls = _plain_generations(monkeypatch)
    _assert_one_blob(system_of_type(b12))
    assert cartan_of_type(b12) not in calls


def test_closure_of_a_large_rank_keeps_no_chain_below_it(empty_memo, monkeypatch):
    calls = _plain_generations(monkeypatch)
    assert len(system_of_type(parse_label("A49")).roots) == 2450
    assert [list(held) for held in rootsys._SYSTEMS.values() if held] == [[parse_label("A49")]]
    assert calls == [cartan_of_type(parse_label("A49"))]


def test_seeded_closure_refuses_as_the_plain_route(empty_memo, monkeypatch):
    # With B100 and B11 held, B101 and B12 take the seeded route; B11's
    # highest root has height 21, and B12's 23.
    b100, b101, b11, b12 = map(parse_label, ("B100", "B101", "B11", "B12"))
    system_of_type(b100)
    system_of_type(b11)
    with pytest.raises(ClosureCeilingError) as ceiling:
        generate_roots(cartan_of_type(b101))
    monkeypatch.setattr(rootsys, "HEIGHT_CEILING", 22)
    with pytest.raises(NotFiniteTypeError, match="^roots would pass height 22, beyond") as height:
        generate_roots(cartan_of_type(b12))
    calls = _plain_generations(monkeypatch)
    for label, want in ((b101, ceiling), (b12, height)):
        with pytest.raises(want.type) as got:
            system_of_type(label)
        assert str(got.value) == str(want.value)
    assert calls == []


def test_closure_refuses_roots_past_the_height_ceiling(monkeypatch):
    # E8's highest root has height 29: its closure expands the level at
    # height 29 only if roots of height 30 would still fit.
    cartan = cartan_of_type(parse_label("E8"))
    monkeypatch.setattr(rootsys, "HEIGHT_CEILING", 29)
    with pytest.raises(NotFiniteTypeError, match="^roots would pass height 29, beyond every finite type"):
        generate_roots(cartan)
    monkeypatch.setattr(rootsys, "HEIGHT_CEILING", 30)
    assert generate_roots(cartan).theta == (2, 3, 4, 6, 5, 4, 3, 2)


@pytest.mark.parametrize(
    "entries",
    [
        ((2, -2), (-2, 2)),  # affine A1
        ((2, -2, 0), (-2, 2, -1), (0, -1, 2)),  # indefinite
        # Entries far beyond any finite type: an int64 closure overflowed or
        # grew its roots by a factor of 10^9 a level on these.
        ((2, -(2**62)), (-1, 2)),
        ((2, -(10**9)), (-(10**9), 2)),
    ],
)
def test_closure_rejects_infinite_types_as_the_oracle_does(entries):
    cartan = CartanMatrix(entries)
    with pytest.raises(NotFiniteTypeError) as want:
        rootsys_oracle.reflection_closure(cartan)
    with pytest.raises(NotFiniteTypeError) as got:
        generate_roots(cartan)
    assert str(got.value) == str(want.value)


def _random_cartan(rng: random.Random) -> CartanMatrix:
    """A generalized Cartan matrix of rank 2 to 5: each pair of nodes is
    joined with probability 1/2, by two independent entries in -4..-1."""
    n = rng.randint(2, 5)
    entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                entries[i][j] = -rng.randint(1, 4)
                entries[j][i] = -rng.randint(1, 4)
    return CartanMatrix(tuple(map(tuple, entries)))


def test_closure_matches_the_oracle_on_random_cartan_matrices():
    # Finite, affine and indefinite, reducible and not, symmetrizable and
    # not: the roots, or the error message, must be the oracle's.
    rng = random.Random(1301)
    outcomes = {"finite": 0, "refused": 0}
    for _ in range(500):
        cartan = _random_cartan(rng)
        try:
            want = rootsys_oracle.reflection_closure(cartan)
        except NotFiniteTypeError as refused:
            with pytest.raises(NotFiniteTypeError) as got:
                generate_roots(cartan)
            assert str(got.value) == str(refused), cartan.entries
            outcomes["refused"] += 1
            continue
        got = generate_roots(cartan)
        assert (tuple(got.roots), tuple(got.positive), got.heights, got.theta) == (
            want.roots,
            want.positive,
            want.heights,
            want.theta,
        ), cartan.entries
        outcomes["finite"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_rank_zero_closes_to_nothing():
    rs = generate_roots(CartanMatrix(()))
    assert tuple(rs.roots) == tuple(rs.positive) == ()
    assert rs.heights == ()
    assert rs.theta is None


def _packed_and_tuples():
    """(packed, tuples) for the roots and the positive roots of each battery
    type and of rank 0, the tuples from the tuple oracle."""
    pairs = []
    for cartan in [cartan_of_type(parse_label(name)) for name in sorted(ROOT_COUNTS)] + [CartanMatrix(())]:
        got, want = generate_roots(cartan), rootsys_oracle.reflection_closure(cartan)
        pairs += [(got.roots, want.roots), (got.positive, want.positive)]
    return pairs


@pytest.mark.parametrize("packed,tuples", _packed_and_tuples())
def test_packed_roots_read_as_their_tuples(packed, tuples):
    assert len(packed) == len(tuples)
    assert tuple(packed) == tuples
    assert tuple(reversed(packed)) == tuples[::-1]
    for i in range(-len(tuples), len(tuples)):
        assert packed[i] == tuples[i]
    for i in (len(tuples), -len(tuples) - 1):
        with pytest.raises(IndexError):
            packed[i]
    for piece in (slice(None), slice(1, -1), slice(None, None, 2), slice(None, None, -3), slice(5, 2)):
        assert isinstance(packed[piece], rootsys.Roots)
        assert tuple(packed[piece]) == tuples[piece]
    assert all(r in packed for r in tuples)
    assert packed.count(tuples[0] if tuples else ()) == (1 if tuples else 0)
    outside = (7,) * packed.rank
    assert outside not in packed and outside not in tuples


def test_packed_roots_are_equal_and_hash_as_their_tuples():
    sequences = [packed for packed, _ in _packed_and_tuples()]
    sequences.append(rootsys.Roots(2, bytes(sequences[0].data)))
    for a in sequences:
        for b in sequences:
            assert (a == b) == (tuple(a) == tuple(b) and a.rank == b.rank)
            if a == b:
                assert hash(a) == hash(b)


@pytest.mark.parametrize("name", [*IDENTITY_TYPES, "A100", "B100", "C100", "D100"])
def test_heights_count_the_positive_roots_by_height(name):
    rs = system_of_type(parse_label(name))
    assert dict(enumerate(rs.heights, 1)) == Counter(map(sum, rs.positive))


def test_closure_of_b100_keeps_its_roots_packed():
    # 20,000 roots of 100 coordinates: 2 MB as one blob of bytes, where
    # coordinate tuples kept 16.4 MB.
    cartan = cartan_of_type(parse_label("B100"))
    tracemalloc.start()
    try:
        rs = generate_roots(cartan)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rs.roots) == 20_000
    assert retained <= 2_500_000


def test_reflection_matrix_rank_two_example():
    rs = system_of_type(parse_label("A2"))
    assert reflection_matrix(rs, (1, 0)) == ((-1, 0), (1, 1))
    assert reflection_matrix(rs, (0, 1)) == ((1, 1), (0, -1))


@pytest.mark.parametrize(
    "name,alpha",
    [("A2", (2, 1)), ("A2", (1, 1, 0)), ("B2", (2, 1))],
    ids=["A2-(2,1)", "A2-(1,1,0)", "B2-(2,1)"],
)
def test_reflection_matrix_rejects_a_non_root(name, alpha):
    rs = system_of_type(parse_label(name))
    with pytest.raises(ValueError, match=f"^{re.escape(str(alpha))} is not a root of this system$"):
        reflection_matrix(rs, alpha)


def test_reflection_is_involution():
    rs = system_of_type(parse_label("F4"))
    for alpha in rs.positive[:8]:
        m = reflection_matrix(rs, alpha)
        n = len(m)
        prod = tuple(
            tuple(sum(m[i][k] * m[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        assert prod == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(ROOT_COUNTS)), st.data())
def test_reflections_permute_the_root_set(name, data):
    rs = system_of_type(parse_label(name))
    alpha = data.draw(st.sampled_from(rs.roots))
    m = reflection_matrix(rs, alpha)
    roots = set(rs.roots)
    images = set()
    for r in rs.roots:
        image = tuple(sum(r[i] * m[i][j] for i in range(rs.rank)) for j in range(rs.rank))
        assert image in roots
        images.add(image)
    assert len(images) == len(rs.roots)


def test_reflection_fixes_nothing_but_wall():
    rs = system_of_type(parse_label("B2"))
    alpha = (1, 0)
    m = reflection_matrix(rs, alpha)
    image = tuple(sum(alpha[i] * m[i][j] for i in range(2)) for j in range(2))
    assert image == (-1, 0)


def test_subsystem_counts_both_routes():
    label = parse_label("F4")
    rs = system_of_type(label)
    marked = extend(label)
    # deleting the added node keeps everything
    assert len(rootsys_oracle.subsystem(rs, marked, 0).filtered) == 48
    sizes = {node: len(rootsys_oracle.subsystem(rs, marked, node).filtered) for node in range(1, 5)}
    # 20 = A1 x C3, 12 = A2 x A2, 14 = A1 x A3, 32 = B4
    assert sizes == {1: 20, 2: 12, 3: 14, 4: 32}


def test_subsystem_rejects_bad_node():
    label = parse_label("A2")
    rs = system_of_type(label)
    marked = extend(label)
    with pytest.raises(IndexError):
        rootsys_oracle.subsystem(rs, marked, 3)
