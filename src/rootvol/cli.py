"""Command line interface: every verification and estimator behind one tool.

Exit codes: 0 all requested checks pass, 1 a verification failed, 2 usage
error, 3 enumeration cap exceeded.  Output is byte-stable for fixed flags:
JSON keys keep insertion order and rationals are printed reduced, as "p/q"
or a bare integer.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import acceptance
from .diagram import (
    DecompositionLabel,
    InadmissibleLabelError,
    NotFiniteTypeError,
    TypeLabel,
    parse_decomposition,
    parse_label,
)
from .geometry import montecarlo_nu, partition_check
from .identity import report_as_dict, report_as_text, verify_identity
from .invariants import nu_of
from .series import check_binomial_identity, series_coefficient
from .weylgrp import (
    DEFAULT_CAP,
    EnumerationCapError,
    verify_companion,
    verify_restricted_expansion,
    verify_solomon,
    verify_steinberg,
)


# Most labels one family sweep may expand to, checked from its endpoints
# before any label is built.  Commands that close a root system stop at rank
# 100 anyway.
MAX_SWEEP_LENGTH = 1_000

# Largest `series --order`.  Both routes cost about seven times as much per
# doubling of the order: about 2 s at 256 and 15 s at 512 on a 2-vCPU VM.
MAX_SERIES_ORDER = 256

# Largest `--cap` for the Weyl group commands: it admits E7 (2,903,040
# elements) and refuses E8 (696,729,600), whose enumeration would exhaust
# the machine.
MAX_CAP = 3_000_000


class UsageError(Exception):
    pass


@dataclass
class Outcome:
    """A command's verdict and its three renderings.  Each rendering is built
    only when its format is asked for."""

    ok: bool
    payload: Callable[[], dict]
    text: Callable[[], str]
    tsv_header: list[str]
    tsv_rows: Callable[[], list[list[str]]]


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {text!r}") from None


def _parse_selector(text: str) -> list[DecompositionLabel]:
    """Type selector: comma list of labels, products like A1xC3, and
    family sweeps like B2..B12."""
    out: list[DecompositionLabel] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise UsageError("empty entry in type selector")
        try:
            if ".." in piece:
                start_text, _, end_text = piece.partition("..")
                start = parse_label(start_text)
                end = parse_label(end_text)
                if start.family != end.family:
                    raise UsageError(f"sweep endpoints differ in family: {piece}")
                if start.rank > end.rank:
                    raise UsageError(f"sweep endpoints out of order: {piece}")
                ranks = range(start.rank, end.rank + 1)
                if len(ranks) > MAX_SWEEP_LENGTH:
                    raise UsageError(
                        f"sweep {piece} has {len(ranks)} entries; at most"
                        f" {MAX_SWEEP_LENGTH} are allowed"
                    )
                for rank in ranks:
                    out.append(DecompositionLabel((TypeLabel(start.family, rank),)))
            else:
                out.append(parse_decomposition(piece))
        except InadmissibleLabelError as exc:
            raise UsageError(str(exc)) from None
    if not out:
        raise UsageError("empty type selector")
    return out


def _single_labels(selectors: Sequence[DecompositionLabel]) -> list[TypeLabel]:
    labels = []
    for d in selectors:
        if len(d.factors) != 1:
            raise UsageError(f"this command needs irreducible types, got {d}")
        labels.append(d.factors[0])
    return labels


def _cap(text: str) -> int:
    """`--cap`, checked while the arguments are parsed, before any root is
    closed."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= cap <= MAX_CAP:
        raise argparse.ArgumentTypeError(f"{cap} is not between 1 and {MAX_CAP}")
    return cap


def _parse_points(text: str) -> list[tuple[Fraction, Fraction]]:
    points = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise UsageError(f"expected q,t pair, got {chunk!r}")
        points.append((_fraction(parts[0]), _fraction(parts[1])))
    return points


def _parse_t_list(text: str) -> list[Fraction]:
    return [_fraction(chunk) for chunk in text.split(",")]


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _cmd_nu(args: argparse.Namespace) -> Outcome:
    rows = [{"type": str(d), "nu": str(nu_of(d))} for d in _parse_selector(args.type)]

    def text() -> str:
        if len(rows) == 1:
            return rows[0]["nu"]
        return "\n".join(f"{r['type']} {r['nu']}" for r in rows)

    return Outcome(
        ok=True,
        payload=lambda: {"command": "nu", "reports": rows, "pass": True},
        text=text,
        tsv_header=["type", "nu"],
        tsv_rows=lambda: [[r["type"], r["nu"]] for r in rows],
    )


def _cmd_identity(args: argparse.Namespace) -> Outcome:
    labels = _single_labels(_parse_selector(args.type))
    reports = [verify_identity(label) for label in labels]
    ok = all(r.passed for r in reports)

    def tsv_rows() -> list[list[str]]:
        rows = []
        for r in reports:
            for t in r.terms:
                scaled = t.scaled
                scaled_text = str(scaled.numerator if scaled.denominator == 1 else scaled)
                rows.append([str(r.label), str(t.node), str(t.decomposition), str(t.nu_value), scaled_text])
        return rows

    return Outcome(
        ok=ok,
        payload=lambda: {"command": "identity", "reports": [report_as_dict(r) for r in reports], "pass": ok},
        text=lambda: "\n\n".join(report_as_text(r) for r in reports),
        tsv_header=["type", "node", "decomposition", "nu", "scaled"],
        tsv_rows=tsv_rows,
    )


def _cmd_series(args: argparse.Namespace) -> Outcome:
    order = args.order
    if order > MAX_SERIES_ORDER:
        raise UsageError(f"--order {order} is too large; at most {MAX_SERIES_ORDER} is allowed")
    parts = [args.part] if args.part else [1, 2, 3]
    reports = []
    for part in parts:
        low = 0 if part == 1 else 2
        if order < low:
            raise UsageError(f"part {part} needs order >= {low}")
        direct_ok = all(check_binomial_identity(part, n).passed for n in range(low, order + 1))
        target = {1: 0, 2: -1, 3: -2}[part]
        series_ok = all(
            series_coefficient(part, n) == Fraction(4 ** (n + target))
            for n in range(low, order + 1)
        )
        reports.append(
            {
                "part": part,
                "n_min": low,
                "n_max": order,
                "direct_pass": direct_ok,
                "series_pass": series_ok,
                "pass": direct_ok and series_ok,
            }
        )
    ok = all(r["pass"] for r in reports)
    return Outcome(
        ok=ok,
        payload=lambda: {"command": "series", "reports": reports, "pass": ok},
        text=lambda: "\n".join(
            f"part {r['part']}: n = {r['n_min']}..{r['n_max']}"
            f"  direct {'PASS' if r['direct_pass'] else 'FAIL'}"
            f"  series {'PASS' if r['series_pass'] else 'FAIL'}"
            for r in reports
        ),
        tsv_header=["part", "n_min", "n_max", "direct_pass", "series_pass", "pass"],
        tsv_rows=lambda: [
            [str(r["part"]), str(r["n_min"]), str(r["n_max"]), _bool(r["direct_pass"]), _bool(r["series_pass"]), _bool(r["pass"])]
            for r in reports
        ],
    )


def _cmd_solomon(args: argparse.Namespace) -> Outcome:
    labels = _single_labels(_parse_selector(args.type))
    points = _parse_points(args.points) if args.points else None
    reports = [verify_solomon(label, points, args.cap) for label in labels]
    ok = all(r.passed for r in reports)

    def text() -> str:
        lines = []
        for r in reports:
            lines.append(f"solomon {r.label}: group order {r.group_order}")
            for p in (*r.points, r.specialization):
                lines.append(
                    f"  q={p.q} t={p.t}  lhs={p.lhs}  rhs={p.rhs}  {'ok' if p.passed else 'MISMATCH'}"
                )
            lines.append(f"  {'PASS' if r.passed else 'FAIL'}")
        return "\n".join(lines)

    return Outcome(
        ok=ok,
        payload=lambda: {"command": "solomon", "reports": [r.as_dict() for r in reports], "pass": ok},
        text=text,
        tsv_header=["type", "q", "t", "lhs", "rhs", "pass"],
        tsv_rows=lambda: [
            [str(r.label), str(p.q), str(p.t), str(p.lhs), str(p.rhs), _bool(p.passed)]
            for r in reports
            for p in (*r.points, r.specialization)
        ],
    )


def _cmd_subset_identity(args: argparse.Namespace, verify: Callable, name: str) -> Outcome:
    labels = _single_labels(_parse_selector(args.type))
    reports = [verify(label, args.cap) for label in labels]
    ok = all(r.passed for r in reports)
    return Outcome(
        ok=ok,
        payload=lambda: {"command": name, "reports": [r.as_dict() for r in reports], "pass": ok},
        text=lambda: "\n".join(
            f"{name} {r.label}: {r.group_order} elements, {r.subset_count} subsets,"
            f" {len(r.failures)} failing  {'PASS' if r.passed else 'FAIL'}"
            for r in reports
        ),
        tsv_header=["type", "group_order", "subsets", "failing_elements", "pass"],
        tsv_rows=lambda: [
            [str(r.label), str(r.group_order), str(r.subset_count), str(len(r.failures)), _bool(r.passed)]
            for r in reports
        ],
    )


def _cmd_expansion(args: argparse.Namespace) -> Outcome:
    labels = _single_labels(_parse_selector(args.type))
    t_samples = _parse_t_list(args.points) if args.points else None
    reports = [verify_restricted_expansion(label, t_samples, args.cap) for label in labels]
    ok = all(r.passed for r in reports)

    def text() -> str:
        lines = []
        for r in reports:
            lines.append(f"expansion {r.label}: group order {r.group_order}")
            for kind, checks in (("sample", r.samples), ("probe", r.probes)):
                for p in checks:
                    lines.append(
                        f"  {kind} t={p.t}  lhs={p.lhs}  rhs={p.rhs}  {'ok' if p.passed else 'MISMATCH'}"
                    )
            lines.append(
                f"  node terms approach their limits monotonically:"
                f" {'yes' if r.gaps_decreasing else 'NO'}"
            )
            lines.append(f"  {'PASS' if r.passed else 'FAIL'}")
        return "\n".join(lines)

    return Outcome(
        ok=ok,
        payload=lambda: {"command": "expansion", "reports": [r.as_dict() for r in reports], "pass": ok},
        text=text,
        tsv_header=["type", "kind", "t", "lhs", "rhs", "pass"],
        tsv_rows=lambda: [
            [str(r.label), kind, str(p.t), str(p.lhs), str(p.rhs), _bool(p.passed)]
            for r in reports
            for kind, checks in (("sample", r.samples), ("probe", r.probes))
            for p in checks
        ],
    )


def _cmd_volume(args: argparse.Namespace) -> Outcome:
    selectors = _parse_selector(args.type)
    estimates = [
        montecarlo_nu(d, args.samples, args.seed, workers=args.workers) for d in selectors
    ]
    ok = all(e.within(4) for e in estimates)
    return Outcome(
        ok=ok,
        payload=lambda: {
            "command": "volume",
            "reports": [{**e.as_dict(), "pass": e.within(4)} for e in estimates],
            "pass": ok,
        },
        text=lambda: "\n".join(
            f"{e.decomposition} estimate={e.estimate:.6f} exact={e.exact}"
            f" ({float(e.exact):.6f}) stderr={e.stderr:.6f} z={e.z_score:+.2f}"
            f" {'PASS' if e.within(4) else 'FAIL'}"
            for e in estimates
        ),
        tsv_header=["type", "samples", "seed", "workers", "estimate", "stderr", "exact", "z_score", "pass"],
        tsv_rows=lambda: [
            [
                str(e.decomposition),
                str(e.samples),
                str(e.seed),
                str(e.workers),
                f"{e.estimate:.6f}",
                f"{e.stderr:.6f}",
                str(e.exact),
                f"{e.z_score:+.3f}",
                _bool(e.within(4)),
            ]
            for e in estimates
        ],
    )


def _cmd_partition(args: argparse.Namespace) -> Outcome:
    labels = _single_labels(_parse_selector(args.type))
    reports = [partition_check(label, args.samples, args.seed) for label in labels]
    ok = all(r.passed for r in reports)

    def text() -> str:
        lines = []
        for r in reports:
            z_text = ",".join(f"{z:+.2f}" for z in r.z_scores)
            lines.append(
                f"{r.label} samples={r.samples} counts={list(r.counts)} z=[{z_text}]"
                f" boundary={r.boundary_count} failures={r.failure_count}"
                f" mismatches={r.mismatch_count} {'PASS' if r.passed else 'FAIL'}"
            )
        return "\n".join(lines)

    return Outcome(
        ok=ok,
        payload=lambda: {"command": "partition", "reports": [r.as_dict() for r in reports], "pass": ok},
        text=text,
        tsv_header=["type", "samples", "seed", "counts", "boundary", "failures", "mismatches", "pass"],
        tsv_rows=lambda: [
            [
                str(r.label),
                str(r.samples),
                str(r.seed),
                " ".join(str(c) for c in r.counts),
                str(r.boundary_count),
                str(r.failure_count),
                str(r.mismatch_count),
                _bool(r.passed),
            ]
            for r in reports
        ],
    )


def _cmd_report_all(args: argparse.Namespace) -> Outcome:
    results = acceptance.run_all()
    ok = all(r.passed for r in results)

    def text() -> str:
        lines = [
            f"[criterion {r.number}] {'PASS' if r.passed else 'FAIL'} {r.name} ({r.seconds:.2f}s)"
            for r in results
        ]
        lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
        return "\n".join(lines)

    return Outcome(
        ok=ok,
        payload=lambda: {"command": "report-all", "criteria": [r.as_dict() for r in results], "pass": ok},
        text=text,
        tsv_header=["criterion", "name", "pass", "seconds"],
        tsv_rows=lambda: [
            [str(r.number), r.name, _bool(r.passed), f"{r.seconds:.3f}"] for r in results
        ],
    )


def _add_type_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--type",
        required=True,
        help="type selector: label (B3), product (A1xC3), sweep (B2..B12), comma list",
    )


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json", "tsv"), default="text")
    parser.add_argument("--output", help="also write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootvol",
        description="Root system cone fractions: exact identities, Weyl group checks, Monte Carlo volumes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nu", help="exact cone fraction of a type or product")
    _add_type_flag(p)
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_nu)

    p = sub.add_parser("identity", help="node deletion decomposition and exact sum")
    _add_type_flag(p)
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_identity)

    p = sub.add_parser("series", help="central binomial identities, both routes")
    p.add_argument("--order", type=int, default=30, help="largest n checked")
    p.add_argument("--part", type=int, choices=(1, 2, 3), help="restrict to one part")
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("solomon", help="graded pairing factorization at sample points")
    _add_type_flag(p)
    p.add_argument("--points", help="sample points, e.g. '2,1/2;1/3,-1/2'")
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_solomon)

    p = sub.add_parser("steinberg", help="alternating character identity over proper subsets")
    _add_type_flag(p)
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    _add_common_flags(p)
    p.set_defaults(handler=lambda a: _cmd_subset_identity(a, verify_steinberg, "steinberg"))

    p = sub.add_parser("companion", help="determinant identity over standard subsets")
    _add_type_flag(p)
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    _add_common_flags(p)
    p.set_defaults(handler=lambda a: _cmd_subset_identity(a, verify_companion, "companion"))

    p = sub.add_parser("expansion", help="restricted expansion over deleted-node degrees")
    _add_type_flag(p)
    p.add_argument("--points", help="t samples, e.g. '1/2,-1/3,2/5'")
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_expansion)

    p = sub.add_parser("volume", help="Monte Carlo cone volume fraction")
    _add_type_flag(p)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_volume)

    p = sub.add_parser("partition", help="cone partition scan against constructive location")
    _add_type_flag(p)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("report-all", help="run the full acceptance battery")
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_report_all)

    return parser


def _render(outcome: Outcome, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(outcome.payload(), indent=2)
    if fmt == "tsv":
        lines = ["\t".join(outcome.tsv_header)]
        lines.extend("\t".join(row) for row in outcome.tsv_rows())
        return "\n".join(lines)
    return outcome.text()


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        outcome = args.handler(args)
        rendered = _render(outcome, args.format)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InadmissibleLabelError, NotFiniteTypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(rendered)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    return 0 if outcome.ok else 1


if __name__ == "__main__":
    sys.exit(main())
