"""Node deletion terms, exact unit totals, and the printed breakdowns."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from rootvol.diagram import TypeLabel, parse_label
from rootvol.identity import (
    extended_diagram,
    gamma_set,
    node_terms,
    report_as_dict,
    report_as_text,
    verify_identity,
)
from rootvol.invariants import degrees_of, degrees_of_type, nu, weyl_order

SAMPLED_TYPES = [
    "A1",
    "A2",
    "A5",
    "A12",
    "B2",
    "B4",
    "B12",
    "C3",
    "C12",
    "D4",
    "D7",
    "D12",
    "G2",
    "F4",
    "E6",
    "E7",
    "E8",
]


@pytest.mark.parametrize("name", SAMPLED_TYPES)
def test_totals_are_exactly_one(name):
    report = verify_identity(name)
    assert report.total == 1
    assert report.passed


def test_each_type_has_one_report():
    report = verify_identity("B5")
    assert verify_identity(TypeLabel("B", 5)) is report
    assert verify_identity("B5") is report
    assert isinstance(report.terms, tuple)
    assert isinstance(report.gamma, frozenset)
    for record in (report, report.terms[1]):
        copy = type(record)(*record)
        assert copy is not record and copy == record and hash(copy) == hash(record)
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)


NODE_TERM_TYPES = [
    *(f"{family}{rank}" for family, low in zip("ABCD", (1, 2, 2, 4)) for rank in range(low, 25)),
    "E6",
    "E7",
    "E8",
    "F4",
    "G2",
    "A49",
    "B35",
    "C35",
    "D40",
]


@pytest.mark.parametrize("name", NODE_TERM_TYPES)
def test_node_term_values_match_nu_of_the_degrees(name):
    label = parse_label(name)
    order = weyl_order(degrees_of_type(label))
    for term in node_terms(label):
        value = nu(degrees_of(term.decomposition))
        assert isinstance(term.nu_value, Fraction) and isinstance(term.scaled, Fraction)
        assert term.nu_value == value
        assert term.scaled == order * value


def test_term_count_is_rank_plus_one():
    for name in ("A3", "B5", "E7"):
        label = parse_label(name)
        assert len(node_terms(label)) == label.rank + 1


def test_g2_terms():
    terms = node_terms(parse_label("G2"))
    by_node = {t.node: (str(t.decomposition), t.nu_value, t.scaled) for t in terms}
    assert by_node == {
        0: ("G2", Fraction(5, 12), Fraction(5)),
        1: ("A2", Fraction(1, 3), Fraction(4)),
        2: ("A1xA1", Fraction(1, 4), Fraction(3)),
    }


def test_f4_breakdown():
    terms = node_terms(parse_label("F4"))
    assert [int(t.scaled) for t in terms] == [385, 180, 128, 144, 315]
    assert [str(t.decomposition) for t in terms] == ["F4", "A1xC3", "A2xA2", "A1xA3", "B4"]


def test_e8_deletion_map():
    terms = node_terms(parse_label("E8"))
    got = {t.node: str(t.decomposition) for t in terms}
    assert got == {
        0: "E8",
        1: "D8",
        2: "A8",
        3: "A1xA7",
        4: "A1xA2xA5",
        5: "A4xA4",
        6: "A3xD5",
        7: "A2xE6",
        8: "A1xE7",
    }


def test_exceptional_scaled_multisets():
    e6 = Counter(int(t.scaled) for t in node_terms(parse_label("E6")))
    assert e6 == Counter({12320: 3, 4320: 3, 1920: 1})
    e7 = Counter(int(t.scaled) for t in node_terms(parse_label("E7")))
    assert e7 == Counter({765765: 2, 297675: 2, 161280: 2, 90720: 1, 362880: 1})
    e8 = sorted(int(t.scaled) for t in node_terms(parse_label("E8")))
    assert e8 == [
        19353600,
        27869184,
        38102400,
        43545600,
        55193600,
        77414400,
        91891800,
        127702575,
        215656441,
    ]


def test_b4_family_structure():
    got = Counter(str(t.decomposition) for t in node_terms(parse_label("B4")))
    assert got == Counter({"B4": 2, "A1xA1xB2": 1, "A1xA3": 1, "D4": 1})


@pytest.mark.parametrize("name", ["A5", "B4", "C3", "E8"])
def test_equal_decompositions_share_one_label_and_one_pair_of_values(name):
    terms = node_terms(parse_label(name))
    for t in terms:
        first = next(u for u in terms if u.decomposition == t.decomposition)
        assert t.decomposition is first.decomposition
        assert t.nu_value is first.nu_value and t.scaled is first.scaled


def test_c3_family_structure():
    got = Counter(str(t.decomposition) for t in node_terms(parse_label("C3")))
    assert got == Counter({"C3": 2, "A1xB2": 2})


def test_d4_family_structure():
    got = Counter(str(t.decomposition) for t in node_terms(parse_label("D4")))
    assert got == Counter({"D4": 4, "A1xA1xA1xA1": 1})


def test_a_type_deletions_reproduce_the_type():
    terms = node_terms(parse_label("A4"))
    assert all(str(t.decomposition) == "A4" for t in terms)


def test_gamma_sets():
    assert gamma_set(parse_label("G2")) == {0}
    assert gamma_set(parse_label("F4")) == {0}
    assert gamma_set(parse_label("E6")) == {0, 1, 6}
    assert gamma_set(parse_label("E7")) == {0, 7}
    assert gamma_set(parse_label("E8")) == {0}
    assert gamma_set(parse_label("A3")) == {0, 1, 2, 3}
    assert gamma_set(parse_label("D5")) == {0, 1, 4, 5}
    assert gamma_set(parse_label("B3")) == {0, 1}
    assert gamma_set(parse_label("C3")) == {0, 3}


def test_extended_diagram_marks_negative():
    for name in SAMPLED_TYPES:
        marked = extended_diagram(parse_label(name))
        assert all(m < 0 for m in marked.marks)


def test_report_dict_shape():
    report = verify_identity("F4")
    payload = report_as_dict(report)
    assert payload["type"] == "F4"
    assert payload["total"] == "1"
    assert payload["gamma"] == [0]
    assert [t["scaled"] for t in payload["terms"]] == [385, 180, 128, 144, 315]
    assert all(set(t) == {"node", "decomposition", "nu", "scaled"} for t in payload["terms"])


def test_report_text_mentions_verdict():
    text = report_as_text(verify_identity("G2"))
    assert "total = 1" in text
    assert "PASS" in text


def rendered_row_by_row(report) -> str:
    """The text report built one row at a time, every cell padded to its
    column's width and the joined row stripped on the right: the oracle
    for `report_as_text`."""
    rows = [("node", "decomposition", "nu", "scaled")]
    for t in report.terms:
        scaled = t.scaled.numerator if t.scaled.denominator == 1 else t.scaled
        rows.append((str(t.node), str(t.decomposition), str(t.nu_value), str(scaled)))
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    lines = [f"type {report.label}"]
    for r in rows:
        lines.append("  ".join(val.ljust(w) for val, w in zip(r, widths)).rstrip())
    gamma = ",".join(str(i) for i in sorted(report.gamma))
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"total = {report.total}  gamma = {{{gamma}}}  {verdict}")
    return "\n".join(lines)


# The types of the benchmark's exact sweep.
SWEEP_TYPES = [
    "G2",
    "F4",
    "E6",
    "E7",
    "E8",
    *(f"A{n}" for n in range(1, 25)),
    *(f"B{n}" for n in range(2, 25)),
    *(f"C{n}" for n in range(2, 25)),
    *(f"D{n}" for n in range(4, 25)),
]


def test_report_text_matches_the_row_by_row_rendering():
    assert len(SWEEP_TYPES) == 96
    for name in [*SWEEP_TYPES, "B100", "C300", "D300"]:
        report = verify_identity(name)
        assert report_as_text(report) == rendered_row_by_row(report), name


def test_report_text_of_a_failing_report_matches_the_row_by_row_rendering():
    report = verify_identity("G2")
    failing = report._replace(total=Fraction(13, 12), gamma=frozenset({0, 2}))
    assert report_as_text(failing) == rendered_row_by_row(failing)
    assert report_as_text(failing).endswith("total = 13/12  gamma = {0,2}  FAIL")
