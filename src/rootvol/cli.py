"""Command line interface: every verification and estimator behind one tool.

Exit codes: 0 all requested checks pass, 1 a verification failed, 2 usage
error, 3 enumeration cap exceeded.  Output is byte-stable for fixed flags:
JSON keys keep insertion order and rationals are printed reduced, as "p/q"
or a bare integer.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from operator import attrgetter, methodcaller
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Sequence

from .diagram import (
    DecompositionLabel,
    InadmissibleLabelError,
    TypeLabel,
    parse_decomposition,
    parse_label,
)
from .identity import IdentityReport, report_as_dict, report_as_text, verify_identity
from .invariants import DEFAULT_CAP, EnumerationCapError, nu_of
from .series import check_binomial_identity, series_coefficient

# `geometry`, `weylgrp` and `acceptance` import numpy, so the handlers that
# use them import them when they run: `nu`, `series` and `identity` load
# neither numpy nor the root closure.
if TYPE_CHECKING:
    from .weylgrp import ExpansionReport, PointCheck, SolomonReport


# Most labels one family sweep may expand to, checked from its endpoints
# before any label is built.  Commands that close a root system stop at rank
# 100 anyway.
MAX_SWEEP_LENGTH = 1_000

# Largest total rank of the labels in one type selector: 500,500 is that of
# A1..A1000, the longest sweep.  The cost of `nu` grows with the rank of each
# label, so without a total a selector of many high-rank entries, such as
# B4001..B5000, ran for 21 s.  A total of 495,050 (B4901..B5000) takes about
# 1.7 s in a fresh process.
MAX_SELECTOR_RANK = 500_500

# Largest `series --order`.  Both routes sum integer products, and each costs
# about four times as much per doubling of the order: at 256 the direct
# sums for every n take about 0.014 s and the generating-function
# coefficients about 0.013 s in a fresh process on a 2-vCPU VM, and
# `series --order 256` about 0.11 s.
MAX_SERIES_ORDER = 256

# Largest `--cap` for the Weyl group commands: it admits E7 (2,903,040
# elements) and refuses E8 (696,729,600), whose enumeration would exhaust
# the machine.
MAX_CAP = 3_000_000


class UsageError(ValueError):
    pass


class Outcome(NamedTuple):
    """A command's reports and how to render one report in each format:
    `entry` gives its JSON object, `text` its text block and `tsv_rows` its
    rows of TSV cells; `passed` gives its verdict.  `key` names the JSON
    report list, `separator` joins the text blocks, and `overall_line` ends
    the text with the overall verdict.  `_render` builds only the format
    asked for."""

    reports: Sequence[Any]
    text: Callable[[Any], str]
    tsv_header: tuple[str, ...]
    tsv_rows: Callable[[Any], Iterable[Sequence[Any]]]
    entry: Callable[[Any], dict] = methodcaller("as_dict")
    passed: Callable[[Any], bool] = attrgetter("passed")
    key: str = "reports"
    separator: str = "\n"
    overall_line: bool = False

    @property
    def ok(self) -> bool:
        return all(self.passed(r) for r in self.reports)


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _mark(ok: bool) -> str:
    return "ok" if ok else "MISMATCH"


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json(value: Any) -> str:
    """`json.dumps(value, indent=2)`, byte for byte.  With an indent CPython
    encodes in pure Python, so dicts, lists and tuples are written here;
    strings go through json's C quoting, and numbers, bools and None are
    written as json writes them.  `json` is imported only when a report is
    written as JSON."""
    from json.encoder import INFINITY, encode_basestring_ascii as quote

    def scalar(value: Any) -> str:
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            if value != value:
                return "NaN"
            if value == INFINITY:
                return "Infinity"
            if value == -INFINITY:
                return "-Infinity"
            return float.__repr__(value)
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    def write(value: Any, pad: str) -> str:
        if isinstance(value, str):
            return quote(value)
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner = pad + "  "
            items = [
                f"{quote(key if isinstance(key, str) else scalar(key))}: {write(item, inner)}"
                for key, item in value.items()
            ]
            return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            inner = pad + "  "
            return f"[{inner}{(',' + inner).join([write(item, inner) for item in value])}{pad}]"
        return scalar(value)

    return write(value, "\n")


def _render(command: str, outcome: Outcome, fmt: str) -> str:
    reports = outcome.reports
    if fmt == "json":
        return _json({"command": command, outcome.key: [outcome.entry(r) for r in reports], "pass": outcome.ok})
    if fmt == "tsv":
        rows = [outcome.tsv_header, *(row for r in reports for row in outcome.tsv_rows(r))]
        return "\n".join("\t".join(map(_cell, row)) for row in rows)
    text = outcome.separator.join(outcome.text(r) for r in reports)
    if outcome.overall_line:
        text += f"\noverall: {_verdict(outcome.ok)}"
    return text


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
    total = sum(d.rank for d in out)
    if total > MAX_SELECTOR_RANK:
        raise UsageError(f"type selector has total rank {total}; at most {MAX_SELECTOR_RANK} is allowed")
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


def _cmd_nu(args: argparse.Namespace) -> Outcome:
    rows = [{"type": str(d), "nu": str(nu_of(d))} for d in _parse_selector(args.type)]
    return Outcome(
        rows,
        text=lambda r: r["nu"] if len(rows) == 1 else f"{r['type']} {r['nu']}",
        tsv_header=("type", "nu"),
        tsv_rows=lambda r: [(r["type"], r["nu"])],
        entry=dict,
        passed=lambda r: True,
    )


def _identity_rows(report: IdentityReport) -> list[tuple[Any, ...]]:
    label = str(report.label)
    return [(label, t.node, t.decomposition, t.nu_value, t.scaled) for t in report.terms]


def _cmd_identity(args: argparse.Namespace) -> Outcome:
    labels = _single_labels(_parse_selector(args.type))
    return Outcome(
        [verify_identity(label) for label in labels],
        text=report_as_text,
        tsv_header=("type", "node", "decomposition", "nu", "scaled"),
        tsv_rows=_identity_rows,
        entry=report_as_dict,
        separator="\n\n",
    )


def _cmd_series(args: argparse.Namespace) -> Outcome:
    order = args.order
    if order > MAX_SERIES_ORDER:
        raise UsageError(f"--order {order} is too large; at most {MAX_SERIES_ORDER} is allowed")
    reports = []
    for part in [args.part] if args.part else [1, 2, 3]:
        low = 0 if part == 1 else 2
        if order < low:
            raise UsageError(f"part {part} needs order >= {low}")
        direct_ok = all(check_binomial_identity(part, n).passed for n in range(low, order + 1))
        series_ok = all(
            series_coefficient(part, n) == 4 ** (n + 1 - part)
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
    return Outcome(
        reports,
        text=lambda r: (
            f"part {r['part']}: n = {r['n_min']}..{r['n_max']}"
            f"  direct {_verdict(r['direct_pass'])}  series {_verdict(r['series_pass'])}"
        ),
        tsv_header=("part", "n_min", "n_max", "direct_pass", "series_pass", "pass"),
        tsv_rows=lambda r: [tuple(r.values())],
        entry=dict,
        passed=lambda r: r["pass"],
    )


def _solomon_text(r: SolomonReport) -> str:
    lines = [f"solomon {r.label}: group order {r.group_order}"]
    for p in (*r.points, r.specialization):
        lines.append(f"  q={p.q} t={p.t}  lhs={p.lhs}  rhs={p.rhs}  {_mark(p.passed)}")
    lines.append(f"  {_verdict(r.passed)}")
    return "\n".join(lines)


def _cmd_solomon(args: argparse.Namespace) -> Outcome:
    from . import weylgrp

    labels = _single_labels(_parse_selector(args.type))
    points = _parse_points(args.points) if args.points is not None else None
    return Outcome(
        [weylgrp.verify_solomon(label, points, args.cap) for label in labels],
        text=_solomon_text,
        tsv_header=("type", "q", "t", "lhs", "rhs", "pass"),
        tsv_rows=lambda r: [
            (r.label, p.q, p.t, p.lhs, p.rhs, p.passed) for p in (*r.points, r.specialization)
        ],
    )


def _cmd_subset_identity(args: argparse.Namespace) -> Outcome:
    from . import weylgrp

    verify = {"steinberg": weylgrp.verify_steinberg, "companion": weylgrp.verify_companion}[args.command]
    labels = _single_labels(_parse_selector(args.type))
    return Outcome(
        [verify(label, args.cap) for label in labels],
        text=lambda r: (
            f"{args.command} {r.label}: {r.group_order} elements, {r.subset_count} subsets,"
            f" {len(r.failures)} failing  {_verdict(r.passed)}"
        ),
        tsv_header=("type", "group_order", "subsets", "failing_elements", "pass"),
        tsv_rows=lambda r: [(r.label, r.group_order, r.subset_count, len(r.failures), r.passed)],
    )


def _expansion_checks(r: ExpansionReport) -> list[tuple[str, PointCheck]]:
    return [("sample", p) for p in r.samples] + [("probe", p) for p in r.probes]


def _expansion_text(r: ExpansionReport) -> str:
    lines = [f"expansion {r.label}: group order {r.group_order}"]
    for kind, p in _expansion_checks(r):
        lines.append(f"  {kind} t={p.t}  lhs={p.lhs}  rhs={p.rhs}  {_mark(p.passed)}")
    monotone = "yes" if r.gaps_decreasing else "NO"
    lines.append(f"  node terms approach their limits monotonically: {monotone}")
    lines.append(f"  {_verdict(r.passed)}")
    return "\n".join(lines)


def _cmd_expansion(args: argparse.Namespace) -> Outcome:
    from . import weylgrp

    labels = _single_labels(_parse_selector(args.type))
    t_samples = [_fraction(t) for t in args.points.split(",")] if args.points is not None else None
    return Outcome(
        [weylgrp.verify_restricted_expansion(label, t_samples, args.cap) for label in labels],
        text=_expansion_text,
        tsv_header=("type", "kind", "t", "lhs", "rhs", "pass"),
        tsv_rows=lambda r: [
            (r.label, kind, p.t, p.lhs, p.rhs, p.passed) for kind, p in _expansion_checks(r)
        ],
    )


def _cmd_volume(args: argparse.Namespace) -> Outcome:
    from . import geometry

    selectors = _parse_selector(args.type)
    return Outcome(
        [geometry.montecarlo_nu(d, args.samples, args.seed, workers=args.workers) for d in selectors],
        text=lambda e: (
            f"{e.decomposition} estimate={e.estimate:.6f} exact={e.exact}"
            f" ({float(e.exact):.6f}) stderr={e.stderr:.6f} z={e.z_score:+.2f}"
            f" {_verdict(e.within(4))}"
        ),
        tsv_header=("type", "samples", "seed", "workers", "estimate", "stderr", "exact", "z_score", "pass"),
        tsv_rows=lambda e: [
            (
                e.decomposition,
                e.samples,
                e.seed,
                e.workers,
                f"{e.estimate:.6f}",
                f"{e.stderr:.6f}",
                e.exact,
                f"{e.z_score:+.3f}",
                e.within(4),
            )
        ],
        entry=lambda e: {**e.as_dict(), "pass": e.within(4)},
        passed=lambda e: e.within(4),
    )


def _cmd_partition(args: argparse.Namespace) -> Outcome:
    from . import geometry

    labels = _single_labels(_parse_selector(args.type))
    return Outcome(
        [geometry.partition_check(label, args.samples, args.seed) for label in labels],
        text=lambda r: (
            f"{r.label} samples={r.samples} counts={list(r.counts)}"
            f" z=[{','.join(f'{z:+.2f}' for z in r.z_scores)}]"
            f" boundary={r.boundary_count} failures={r.failure_count}"
            f" mismatches={r.mismatch_count} {_verdict(r.passed)}"
        ),
        tsv_header=("type", "samples", "seed", "counts", "boundary", "failures", "mismatches", "pass"),
        tsv_rows=lambda r: [
            (
                r.label,
                r.samples,
                r.seed,
                " ".join(map(str, r.counts)),
                r.boundary_count,
                r.failure_count,
                r.mismatch_count,
                r.passed,
            )
        ],
    )


def _cmd_report_all(args: argparse.Namespace) -> Outcome:
    from . import acceptance

    return Outcome(
        acceptance.run_all(),
        text=lambda r: f"[criterion {r.number}] {_verdict(r.passed)} {r.name} ({r.seconds:.2f}s)",
        tsv_header=("criterion", "name", "pass", "seconds"),
        tsv_rows=lambda r: [(r.number, r.name, r.passed, f"{r.seconds:.3f}")],
        key="criteria",
        overall_line=True,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootvol",
        description="Root system cone fractions: exact identities, Weyl group checks, Monte Carlo volumes.",
    )
    type_flag = (
        "--type",
        {
            "required": True,
            "help": "type selector: label (B3), product (A1xC3), sweep (B2..B12), comma list",
        },
    )
    cap = ("--cap", {"type": _cap, "default": DEFAULT_CAP})
    seed = ("--seed", {"type": int, "default": 0})
    common = [
        ("--format", {"choices": ("text", "json", "tsv"), "default": "text"}),
        ("--output", {"help": "also write the report to this file"}),
    ]
    # Subcommand -> (help, handler, flags before --format and --output).
    commands = {
        "nu": ("exact cone fraction of a type or product", _cmd_nu, [type_flag]),
        "identity": ("node deletion decomposition and exact sum", _cmd_identity, [type_flag]),
        "series": (
            "central binomial identities, both routes",
            _cmd_series,
            [
                ("--order", {"type": int, "default": 30, "help": "largest n checked"}),
                ("--part", {"type": int, "choices": (1, 2, 3), "help": "restrict to one part"}),
            ],
        ),
        "solomon": (
            "graded pairing factorization at sample points",
            _cmd_solomon,
            [type_flag, ("--points", {"help": "sample points, e.g. '2,1/2;1/3,-1/2'"}), cap],
        ),
        "steinberg": (
            "alternating character identity over proper subsets",
            _cmd_subset_identity,
            [type_flag, cap],
        ),
        "companion": (
            "determinant identity over standard subsets",
            _cmd_subset_identity,
            [type_flag, cap],
        ),
        "expansion": (
            "restricted expansion over deleted-node degrees",
            _cmd_expansion,
            [type_flag, ("--points", {"help": "t samples, e.g. '1/2,-1/3,2/5'"}), cap],
        ),
        "volume": (
            "Monte Carlo cone volume fraction",
            _cmd_volume,
            [
                type_flag,
                ("--samples", {"type": int, "default": 1_000_000}),
                seed,
                ("--workers", {"type": int, "default": 1}),
            ],
        ),
        "partition": (
            "cone partition scan against constructive location",
            _cmd_partition,
            [type_flag, ("--samples", {"type": int, "default": 10_000}), seed],
        ),
        "report-all": ("run the full acceptance battery", _cmd_report_all, []),
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, flags) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in (*flags, *common):
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


# One parser per process: building it costs more than most commands.  Parsing
# leaves it as it was, and each call gets a fresh namespace; the handlers
# look up module globals only when they run.
_parser = cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        outcome = args.handler(args)
        rendered = _render(args.command, outcome, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
        except OSError as exc:
            print(f"error: cannot write --output {args.output}: {exc.strerror}", file=sys.stderr)
            return 2
    print(rendered)
    return 0 if outcome.ok else 1


if __name__ == "__main__":
    sys.exit(main())
