"""The full verification battery, shared by `report-all` and the test gate.

Each criterion body runs one self-contained check battery and returns its
failures with enough detail to diagnose them without rerunning; `_criterion`
turns it into a function that returns a CriterionResult with pass/fail and
timing against the budget where one applies, and lists it in ALL_CRITERIA.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

from .diagram import parse_label
from .geometry import montecarlo_nu, partition_check, planar_cone_fraction
from .identity import node_terms, verify_identity
from .invariants import degrees_of_type, exponents_from_heights, nu_of
from .rootsys import system_of_type
from .series import check_binomial_identity, series_coefficient
from .weylgrp import verify_companion, verify_restricted_expansion, verify_solomon, verify_steinberg

IDENTITY_TYPES: tuple[str, ...] = (
    "G2",
    "F4",
    "E6",
    "E7",
    "E8",
    *(f"A{n}" for n in range(1, 13)),
    *(f"B{n}" for n in range(2, 13)),
    *(f"C{n}" for n in range(2, 13)),
    *(f"D{n}" for n in range(4, 13)),
)

SOLOMON_TYPES: tuple[str, ...] = ("A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "G2", "F4")

SUBSET_IDENTITY_TYPES: tuple[str, ...] = ("A1", "A2", "B2", "G2", "A3", "B3", "D4", "F4")

MONTECARLO_TYPES: tuple[str, ...] = ("A1", "A2", "A1xA1", "B2", "G2", "A3", "B3", "C3")
MONTECARLO_SEEDS: tuple[int, ...] = (11, 23, 47)
MONTECARLO_SAMPLES = 1_000_000
MONTECARLO_WORKERS = 2

PARTITION_TYPES: tuple[str, ...] = (
    "A1",
    "A2",
    "A3",
    "A4",
    "B2",
    "B3",
    "B4",
    "C2",
    "C3",
    "C4",
    "D4",
    "G2",
    "F4",
)
PARTITION_SEED = 7
PARTITION_SAMPLES = 10_000

# The printed per-node scaled summands of the exceptional identities; E6 and
# E7 are printed with symmetric nodes merged, so those are checked both ways.
EXPECTED_NU = {
    "G2": Fraction(5, 12),
    "F4": Fraction(385, 1152),
    "E6": Fraction(77, 324),
    "E7": Fraction(2431, 9216),
    "E8": Fraction(30808063, 99532800),
}
EXPECTED_SCALED_NODES = {
    "G2": [5, 4, 3],
    "F4": [385, 180, 128, 144, 315],
    "E6": [12320, 12320, 12320, 1920, 4320, 4320, 4320],
    "E7": [765765, 765765, 297675, 297675, 161280, 161280, 90720, 362880],
    "E8": [
        215656441,
        91891800,
        55193600,
        38102400,
        27869184,
        19353600,
        43545600,
        127702575,
        77414400,
    ],
}
EXPECTED_SCALED_GROUPED = {
    "E6": [36960, 1920, 12960],
    "E7": [1531530, 595350, 322560, 90720, 362880],
}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    budget: float | None
    details: dict

    def as_dict(self) -> dict:
        entry = {
            "criterion": self.number,
            "name": self.name,
            "pass": self.passed,
            "seconds": round(self.seconds, 3),
        }
        if self.budget is not None:
            entry["budget_seconds"] = self.budget
        entry["details"] = self.details
        return entry


ALL_CRITERIA: list[Callable[[], CriterionResult]] = []


def _criterion(number: int, name: str, budget: float | None = None):
    """Register a criterion body as criterion `number`, in definition order.

    The body returns (failures, details).  The criterion times it and
    passes when it found no failures, within its budget where it has one;
    `failures` is the last key of its details."""

    def register(body: Callable[[], tuple[list, dict]]) -> Callable[[], CriterionResult]:
        @functools.wraps(body)
        def criterion() -> CriterionResult:
            started = perf_counter()
            failures, details = body()
            elapsed = perf_counter() - started
            passed = not failures and (budget is None or elapsed < budget)
            return CriterionResult(number, name, passed, elapsed, budget, {**details, "failures": failures})

        ALL_CRITERIA.append(criterion)
        return criterion

    return register


def _per_type(types: tuple[str, ...], *verifiers) -> tuple[list, dict]:
    """Each verifier on each type; the failing reports as dicts."""
    failures = [
        report.as_dict()
        for name in types
        for verify in verifiers
        if not (report := verify(name)).passed
    ]
    return failures, {"types_checked": len(types)}


@_criterion(1, "node deletion identity", budget=5.0)
def criterion_1():
    """Node-deletion cone fractions sum to exactly 1 for the full type list."""
    failures = [
        {"type": name, "total": str(report.total)}
        for name in IDENTITY_TYPES
        if not (report := verify_identity(name)).passed
    ]
    return failures, {"types_checked": len(IDENTITY_TYPES)}


@_criterion(2, "printed tables")
def criterion_2():
    """Exact cone fractions and the printed exceptional summand multisets."""
    failures = []

    def expect(name: str, got, want) -> None:
        if got != want:
            failures.append({"check": name, "got": str(got), "want": str(want)})

    for name, want in EXPECTED_NU.items():
        expect(f"nu {name}", nu_of(name), want)
    for n in range(1, 13):
        expect(f"nu A{n}", nu_of(f"A{n}"), Fraction(1, n + 1))
    for n in range(2, 13):
        want = Fraction(math.comb(2 * n, n), 4**n)
        expect(f"nu B{n}", nu_of(f"B{n}"), want)
        expect(f"nu C{n}", nu_of(f"C{n}"), want)
    for n in range(4, 13):
        want = Fraction(n - 1, 4 ** (n - 1) * n) * math.comb(2 * (n - 1), n - 1)
        expect(f"nu D{n}", nu_of(f"D{n}"), want)

    for name, want_nodes in EXPECTED_SCALED_NODES.items():
        terms = node_terms(parse_label(name))
        scaled = [term.scaled for term in terms]
        if any(x.denominator != 1 for x in scaled):
            failures.append({"check": f"scaled {name}", "got": "non-integer term"})
            continue
        expect(f"scaled {name}", Counter(int(x) for x in scaled), Counter(want_nodes))
    for name, want_groups in EXPECTED_SCALED_GROUPED.items():
        terms = sorted(node_terms(parse_label(name)), key=lambda t: str(t.decomposition))
        groups = [
            int(sum(term.scaled for term in block))
            for _, block in itertools.groupby(terms, key=lambda t: str(t.decomposition))
        ]
        expect(f"grouped {name}", Counter(groups), Counter(want_groups))
    return failures, {}


@_criterion(3, "binomial identities", budget=1.0)
def criterion_3():
    """Central binomial identities, direct sums and series coefficients."""
    failures = []
    target = {1: lambda n: Fraction(4**n), 2: lambda n: Fraction(4 ** (n - 1)), 3: lambda n: Fraction(4 ** (n - 2))}
    for part in (1, 2, 3):
        low = 0 if part == 1 else 2
        for n in range(low, 31):
            check = check_binomial_identity(part, n)
            if not check.passed or check.lhs != target[part](n):
                failures.append({"route": "direct", "part": part, "n": n})
            if series_coefficient(part, n) != target[part](n):
                failures.append({"route": "series", "part": part, "n": n})
    return failures, {}


@_criterion(4, "degree oracle agreement")
def criterion_4():
    """Catalogue degrees against the positive-root height distribution."""
    failures = []
    for name in IDENTITY_TYPES:
        label = parse_label(name)
        from_heights = tuple(e + 1 for e in exponents_from_heights(system_of_type(label)))
        catalogue = tuple(sorted(degrees_of_type(label)))
        if from_heights != catalogue:
            failures.append({"type": name, "catalogue": catalogue, "heights": from_heights})
    return failures, {"types_checked": len(IDENTITY_TYPES)}


@_criterion(5, "solomon factorization", budget=60.0)
def criterion_5():
    """Graded pairing factorization at rational sample points."""
    return _per_type(SOLOMON_TYPES, verify_solomon)


@_criterion(6, "coset character identities", budget=120.0)
def criterion_6():
    """Alternating coset-character identities for every group element."""
    return _per_type(SUBSET_IDENTITY_TYPES, verify_steinberg, verify_companion)


@_criterion(7, "restricted expansion")
def criterion_7():
    """Restricted expansion of the graded pairing over deleted-node degrees."""
    return _per_type(SUBSET_IDENTITY_TYPES, verify_restricted_expansion)


@_criterion(8, "monte carlo volumes", budget=60.0)
def criterion_8():
    """Monte Carlo cone volumes within 4 sigma, plus exact planar angles."""
    failures = []
    runs = []
    for name in MONTECARLO_TYPES:
        agreeing = 0
        for seed in MONTECARLO_SEEDS:
            estimate = montecarlo_nu(
                name, MONTECARLO_SAMPLES, seed, workers=MONTECARLO_WORKERS
            )
            runs.append(estimate.as_dict())
            if estimate.within(4):
                agreeing += 1
        if agreeing < 2:
            failures.append({"type": name, "agreeing_seeds": agreeing})
    for name in ("A1xA1", "A2", "B2", "G2", "C2"):
        if planar_cone_fraction(name) != nu_of(name):
            failures.append({"type": name, "check": "planar angle"})
    return failures, {
        "types_checked": len(MONTECARLO_TYPES),
        "seeds": list(MONTECARLO_SEEDS),
        "samples": MONTECARLO_SAMPLES,
        "workers": MONTECARLO_WORKERS,
        "runs": runs,
    }


@_criterion(9, "cone partition")
def criterion_9():
    """Cone partition scan: unique membership, agreement, frequencies."""
    reports = [partition_check(name, PARTITION_SAMPLES, PARTITION_SEED) for name in PARTITION_TYPES]
    return [r.as_dict() for r in reports if not r.passed], {
        "types_checked": len(PARTITION_TYPES),
        "samples": PARTITION_SAMPLES,
        "seed": PARTITION_SEED,
        "reports": [r.as_dict() for r in reports],
    }


def run_all() -> list[CriterionResult]:
    return [criterion() for criterion in ALL_CRITERIA]
