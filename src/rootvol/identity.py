"""Node deletion decompositions of extended diagrams and the exact sum check.

For an irreducible system, deleting node i of the extended diagram leaves a
rank-preserving subsystem; the degree ratios of the resulting decompositions
sum to exactly 1 over all nodes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .diagram import (
    DecompositionLabel,
    MarkedDiagram,
    TypeLabel,
    classify_deletions,
    extend,
    parse_label,
)
from .invariants import degrees_of_type, fraction_sum, weyl_order


class NodeTerm(NamedTuple):
    node: int
    decomposition: DecompositionLabel
    nu_value: Fraction
    scaled: Fraction


class IdentityReport(NamedTuple):
    label: TypeLabel
    terms: tuple[NodeTerm, ...]
    total: Fraction
    gamma: frozenset[int]

    @property
    def passed(self) -> bool:
        return self.total == 1


# Largest rank whose node-deletion identity is computed.  The extended
# diagram is a dense (rank+1)^2 matrix, the node terms cost about rank^2
# steps, and both stay cached, so a sweep holds every diagram it builds.
RANK_CEILING = 300


@lru_cache(maxsize=None)
def extended_diagram(label: TypeLabel) -> MarkedDiagram:
    if label.rank > RANK_CEILING:
        raise ValueError(
            f"{label} has rank {label.rank}, above the identity's rank ceiling of {RANK_CEILING}"
        )
    return extend(label)


@lru_cache(maxsize=None)
def _degree_products(label: TypeLabel) -> tuple[int, int]:
    """prod (d - 1) and prod d over the degrees of one irreducible type."""
    degrees = degrees_of_type(label)
    return math.prod(d - 1 for d in degrees), weyl_order(degrees)


@lru_cache(maxsize=None)
def node_terms(label: TypeLabel) -> tuple[NodeTerm, ...]:
    """One term per node of the extended diagram, with |W|-scaled values,
    each one Fraction of the factors' integer degree products.  Nodes with
    equal decompositions share one label and one pair of values."""
    order = weyl_order(degrees_of_type(label))
    shared: dict[DecompositionLabel, tuple[DecompositionLabel, Fraction, Fraction]] = {}
    terms = []
    for i, decomposition in enumerate(classify_deletions(extended_diagram(label))):
        values = shared.get(decomposition)
        if values is None:
            top = bottom = 1
            for factor in decomposition.factors:
                upper, lower = _degree_products(factor)
                top *= upper
                bottom *= lower
            values = shared[decomposition] = (
                decomposition,
                Fraction(top, bottom),
                Fraction(order * top, bottom),
            )
        terms.append(NodeTerm(i, *values))
    return tuple(terms)


def gamma_set(label: TypeLabel) -> frozenset[int]:
    """Nodes whose deletion reproduces the original type; always contains 0,
    whose deletion leaves the base diagram."""
    terms = node_terms(label)
    return frozenset(t.node for t in terms if t.decomposition == terms[0].decomposition)


def verify_identity(label: TypeLabel | str) -> IdentityReport:
    if isinstance(label, str):
        label = parse_label(label)
    return _identity_report(label)


@lru_cache(maxsize=None)
def _identity_report(label: TypeLabel) -> IdentityReport:
    terms = node_terms(label)
    # The sum of nu is that of the scaled values |W| nu, over |W|.
    order = weyl_order(degrees_of_type(label))
    total = fraction_sum(((t.scaled.numerator, t.scaled.denominator) for t in terms), order)
    return IdentityReport(label, terms, total, gamma_set(label))


def _scaled_json(value: Fraction) -> int | str:
    return value.numerator if value.denominator == 1 else str(value)


def report_as_dict(report: IdentityReport) -> dict:
    return {
        "type": str(report.label),
        "terms": [
            {
                "node": t.node,
                "decomposition": str(t.decomposition),
                "nu": str(t.nu_value),
                "scaled": _scaled_json(t.scaled),
            }
            for t in report.terms
        ],
        "total": str(report.total),
        "gamma": sorted(report.gamma),
    }


def report_as_text(report: IdentityReport) -> str:
    """The report as a table, each column left-justified to its widest
    cell and two spaces apart, the last column unpadded."""
    header = ("node", "decomposition", "nu", "scaled")
    cells = [(str(t.node), str(t.decomposition), str(t.nu_value), str(t.scaled)) for t in report.terms]
    padded = list(zip(header, *cells))[:3]
    row = "{:<%d}  {:<%d}  {:<%d}  {}" % tuple(max(map(len, column)) for column in padded)
    gamma = ",".join(str(i) for i in sorted(report.gamma))
    verdict = "PASS" if report.passed else "FAIL"
    return "\n".join(
        [
            f"type {report.label}",
            *(row.format(*r) for r in (header, *cells)),
            f"total = {report.total}  gamma = {{{gamma}}}  {verdict}",
        ]
    )
