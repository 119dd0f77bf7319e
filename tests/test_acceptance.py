"""Acceptance battery: every criterion runs at its stated tolerance and
budget, printing one pass/fail line each.  Run with -s to see the lines.
The battery's bytes, the shape of its failures and its budget rule are
pinned below."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from typing import NamedTuple

import pytest

from rootvol import acceptance
from rootvol.cli import main


def _report(result) -> None:
    budget = f" / budget {result.budget:.0f}s" if result.budget is not None else ""
    print(f"[criterion {result.number}] {'PASS' if result.passed else 'FAIL'} "
          f"{result.name} ({result.seconds:.2f}s{budget})")
    assert result.passed, result.details


def test_criterion_1_node_deletion_identity():
    _report(acceptance.criterion_1())


def test_criterion_2_printed_tables():
    _report(acceptance.criterion_2())


def test_criterion_3_binomial_identities():
    _report(acceptance.criterion_3())


def test_criterion_4_degree_oracle_agreement():
    _report(acceptance.criterion_4())


def test_criterion_5_solomon_factorization():
    _report(acceptance.criterion_5())


def test_criterion_6_coset_character_identities():
    _report(acceptance.criterion_6())


def test_criterion_7_restricted_expansion():
    _report(acceptance.criterion_7())


def test_criterion_8_monte_carlo_volumes():
    _report(acceptance.criterion_8())


def test_criterion_9_cone_partition():
    _report(acceptance.criterion_9())


# The battery's one real run for the tests below: `report-all --format json`.
@pytest.fixture(scope="module")
def report_all_json():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["report-all", "--format", "json"]) == 0
    return out.getvalue()


def test_report_all_json_is_the_recorded_battery(report_all_json):
    masked = re.sub(r'"seconds": [0-9.e-]+', '"seconds": 0', report_all_json)
    digest = hashlib.sha256(masked.encode()).hexdigest()
    assert digest == "ad01cd4f5bb6af6b1c10c15bc0132f2ec6e821ece53b116c353a445719426209"


def test_all_criteria_lists_the_nine_in_order(report_all_json):
    assert list(acceptance.ALL_CRITERIA) == [getattr(acceptance, f"criterion_{n}") for n in range(1, 10)]
    entries = json.loads(report_all_json)["criteria"]
    assert [(c["criterion"], c["name"], c.get("budget_seconds")) for c in entries] == [
        (1, "node deletion identity", 5.0),
        (2, "printed tables", None),
        (3, "binomial identities", 1.0),
        (4, "degree oracle agreement", None),
        (5, "solomon factorization", 60.0),
        (6, "coset character identities", 120.0),
        (7, "restricted expansion", None),
        (8, "monte carlo volumes", 60.0),
        (9, "cone partition", None),
    ]


class _Report(NamedTuple):
    type: str
    passed: bool

    def as_dict(self) -> dict:
        return {"type": self.type, "pass": self.passed}


@pytest.mark.parametrize(
    "number, verifiers, types",
    [
        (5, ["verify_solomon"], acceptance.SOLOMON_TYPES),
        (6, ["verify_steinberg", "verify_companion"], acceptance.SUBSET_IDENTITY_TYPES),
        (6, ["verify_companion", "verify_steinberg"], acceptance.SUBSET_IDENTITY_TYPES),
        (7, ["verify_restricted_expansion"], acceptance.SUBSET_IDENTITY_TYPES),
        (9, ["partition_check"], acceptance.PARTITION_TYPES),
    ],
)
def test_failing_report_is_listed_in_the_details(monkeypatch, number, verifiers, types):
    """The first verifier fails on the second type and every other check
    passes, so the criterion fails with that one report's dict."""
    failing = types[1]
    first, *others = verifiers
    monkeypatch.setattr(acceptance, first, lambda name, *args: _Report(name, name != failing))
    for other in others:
        monkeypatch.setattr(acceptance, other, lambda name, *args: _Report(name, True))
    result = getattr(acceptance, f"criterion_{number}")()
    assert not result.passed
    want = {"types_checked": len(types)}
    if number == 9:
        want |= {
            "samples": acceptance.PARTITION_SAMPLES,
            "seed": acceptance.PARTITION_SEED,
            "reports": [_Report(name, name != failing).as_dict() for name in types],
        }
    want["failures"] = [_Report(failing, False).as_dict()]
    assert result.details == want
    assert list(result.details) == list(want)


@pytest.mark.parametrize("number, budget", [(3, 1.0), (2, None)])
def test_overrunning_the_budget_fails_with_no_failures(monkeypatch, number, budget):
    clock = iter([0.0, 1.5])
    monkeypatch.setattr(acceptance, "perf_counter", lambda: next(clock))
    result = getattr(acceptance, f"criterion_{number}")()
    assert (result.budget, result.seconds, result.details) == (budget, 1.5, {"failures": []})
    assert result.passed is (budget is None)
