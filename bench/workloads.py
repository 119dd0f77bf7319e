"""The two workloads: pinned inputs, seed-derived inputs, and their checks.

The inputs copy the lists of the package's acceptance battery but are pinned
here rather than imported from it, so widening the battery changes the
battery and leaves the benchmark as it is.  Every expected value below is
computed by the benchmark itself from closed forms or pinned tables, never
by the layer under test.

Calls are made in dependency order (closure, extended diagram, node terms,
group table, classes, then the identity that uses them), so each cached
stage pays its own cost in its own span.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
from collections import Counter
from fractions import Fraction

from rootvol import cli, diagram, geometry, identity, invariants, rootsys, series, weylgrp

import reference
from ops import Mismatch, Runner, expect

# --- pinned inputs -----------------------------------------------------------

IDENTITY_TYPES: tuple[str, ...] = (
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

# Admissible labels of large rank.  At the time the benchmark was defined
# their root closure stops with a false "not finite type" error, so each
# counts as a failed op until that is fixed.
PROBE_TYPES: tuple[str, ...] = ("A49", "B35", "C35", "D40")

SOLOMON_TYPES: tuple[str, ...] = ("A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "G2", "F4")
SOLOMON_POINTS_PER_TYPE = 5

SUBSET_TYPES: tuple[str, ...] = ("A1", "A2", "B2", "G2", "A3", "B3", "D4", "F4")
EXPANSION_POINTS_PER_TYPE = 3

SERIES_ORDER = 60

CLI_SELECTOR = "G2,F4,E6,E7,E8,A1..A24,B2..B24,C2..C24,D4..D24"
CLI_FORMATS: tuple[str, ...] = ("text", "json", "tsv")

# sha256 of the stdout of `rootvol <command> ... --format <fmt>`, recorded at
# the commit that defined the benchmark.  Byte-stable output is the CLI
# contract, so any change to these bytes is a wrong output.
CLI_DIGESTS: dict[tuple[str, str], str] = {
    ("identity", "text"): "21063e4ee080cd18af4e77fb41c9661f37f4f613111ed3002e068a0f4f61b5d4",
    ("identity", "json"): "a80b3694f527404f4979890f198411ed83337f1fb4faf625dc02bcf1e142ef52",
    ("identity", "tsv"): "234641f850c72dbc2b50e9e4c110aed19fb28d63b44618fd58cb9576b7f926cc",
    ("nu", "text"): "e0461eb1fd1c5632770d77c15a8dd43e582d1181ccfce38d80ffea47ed07367d",
    ("nu", "json"): "bd63c05c52af6ea47fd859ab1c6e3875a7d16884d8bd64995d9366d3dfdec39d",
    ("nu", "tsv"): "9cc6f3a5ed8081abfd67d726dc8d10f4f4ac7bb0775c7fd398fc19ddc40a92ef",
    ("series", "text"): "e0c7011a66e2e0533ee7ea9e25c7bf93c8f1a4ca64e1b01995035db996455110",
    ("series", "json"): "dfd1d025b0362189eb25d9844bdc1e5eeefb6d4de637e7e69a98b7ca7842dac0",
    ("series", "tsv"): "2433e616479b880a9f28b30a9a738b9996e306afa57135f5c25a63656c83d47c",
}

MC_SPECS: tuple[str, ...] = ("B3", "F4", "E8", "A1xC3")
MC_SAMPLES = 2_000_000
MC_PARALLEL_WORKERS = 2
PARTITIONS: tuple[tuple[str, int], ...] = (("F4", 1_000_000), ("E8", 500_000))

# Statistical checks use a bound that a correct program exceeds with
# probability below 1e-8 per check, so a failure means a defect, not bad luck.
Z_BOUND = 6.0

# --- closed forms and tables the benchmark owns ------------------------------

EXCEPTIONAL_DEGREES = {
    "G2": (2, 6),
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}
EXCEPTIONAL_NU = {
    "G2": Fraction(5, 12),
    "F4": Fraction(385, 1152),
    "E6": Fraction(77, 324),
    "E7": Fraction(2431, 9216),
    "E8": Fraction(30808063, 99532800),
}
EXCEPTIONAL_ROOTS = {"G2": 12, "F4": 48, "E6": 72, "E7": 126, "E8": 240}
# The printed per-node |W|-scaled summands of the exceptional identities.
EXCEPTIONAL_SCALED = {
    "G2": (5, 4, 3),
    "F4": (385, 180, 128, 144, 315),
    "E6": (12320, 12320, 12320, 1920, 4320, 4320, 4320),
    "E7": (765765, 765765, 297675, 297675, 161280, 161280, 90720, 362880),
    "E8": (215656441, 91891800, 55193600, 38102400, 27869184, 19353600, 43545600, 127702575, 77414400),
}
# Group order and number of conjugacy classes of each enumerated group.
GROUPS = {
    "A1": (2, 2),
    "A2": (6, 3),
    "A3": (24, 5),
    "A4": (120, 7),
    "A5": (720, 11),
    "B2": (8, 5),
    "B3": (48, 10),
    "B4": (384, 20),
    "D4": (192, 13),
    "G2": (12, 6),
    "F4": (1152, 25),
}


def degrees(label: diagram.TypeLabel) -> tuple[int, ...]:
    fam, n = label.family, label.rank
    if fam == "A":
        return tuple(range(2, n + 2))
    if fam in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    if fam == "D":
        return tuple(sorted([*range(2, 2 * n - 1, 2), n]))
    return EXCEPTIONAL_DEGREES[str(label)]


def closed_nu(label: diagram.TypeLabel) -> Fraction:
    fam, n = label.family, label.rank
    if fam == "A":
        return Fraction(1, n + 1)
    if fam in "BC":
        return Fraction(math.comb(2 * n, n), 4**n)
    if fam == "D":
        return Fraction(n - 1, 4 ** (n - 1) * n) * math.comb(2 * (n - 1), n - 1)
    return EXCEPTIONAL_NU[str(label)]


def root_count(label: diagram.TypeLabel) -> int:
    fam, n = label.family, label.rank
    if fam == "A":
        return n * (n + 1)
    if fam in "BC":
        return 2 * n * n
    if fam == "D":
        return 2 * n * (n - 1)
    return EXCEPTIONAL_ROOTS[str(label)]


def degree_product(degree_list, q: Fraction, t: Fraction) -> Fraction:
    value = Fraction(1)
    for d in degree_list:
        value *= (1 - q * t ** (d - 1)) / (1 - t**d)
    return value


def _rational(rng: random.Random, allow_unit: bool) -> Fraction:
    while True:
        value = Fraction(rng.choice((-1, 1)) * rng.randint(0, 9), rng.randint(1, 9))
        if allow_unit or abs(value) != 1:
            return value


# --- prelude steps shared by several ops --------------------------------------


def closure(run: Runner, label: diagram.TypeLabel) -> rootsys.RootSystem:
    try:
        rs = run.call("rootsys.closure", rootsys.system_of_type, label)
    except Exception:
        run.count("rootsys.failed")
        raise
    key = f"closure {label}"
    if key not in run.prepared:
        expect(len(rs.roots), root_count(label), f"root count of {label}")
        run.count("rootsys.roots", len(rs.roots))
        run.prepared[key] = rs
    return rs


def node_terms(run: Runner, label: diagram.TypeLabel):
    closure(run, label)
    run.call("diagram.extend", identity.extended_diagram, label)
    terms = run.call("identity.node_terms", identity.node_terms, label)
    key = f"terms {label}"
    if key not in run.prepared:
        expect(len(terms), label.rank + 1, f"node count of {label}")
        expect(terms[0].nu_value, closed_nu(label), f"nu of {label}")
        expect(sum(t.nu_value for t in terms), 1, f"node-deletion sum of {label}")
        run.count("identity.terms", len(terms))
        run.prepared[key] = terms
    return terms


def group(run: Runner, label: diagram.TypeLabel):
    key = f"group {label}"
    if key in run.prepared:
        return run.prepared[key]
    closure(run, label)
    table = run.call("weylgrp.enumerate", weylgrp.group_table_of, label)
    classes = run.call("weylgrp.classes", weylgrp.conjugacy_classes, table)
    order, class_count = GROUPS[str(label)]
    expect(table.order, order, f"order of W({label})")
    expect(classes.count, class_count, f"class count of W({label})")
    expect(sum(classes.sizes), order, f"class sizes of W({label})")
    run.count("weylgrp.elements", table.order)
    run.count("weylgrp.classes", classes.count)
    run.prepared[key] = (table, classes)
    return table, classes


# --- op bodies ----------------------------------------------------------------


def identity_op(run: Runner, name: str) -> None:
    label = diagram.parse_label(name)
    rs = closure(run, label)
    terms = node_terms(run, label)
    report = run.call("identity.verify", identity.verify_identity, label)
    exponents = run.call("invariants.degree_oracle", invariants.exponents_from_heights, rs)
    catalogue = run.call("invariants.degree_oracle", invariants.degrees_of_type, label)
    expect((report.passed, report.total), (True, 1), f"identity total of {name}")
    if name in EXCEPTIONAL_SCALED:
        got = Counter(t.scaled for t in terms)
        expect(got, Counter(EXCEPTIONAL_SCALED[name]), f"scaled summands of {name}")
    want = degrees(label)
    expect(tuple(e + 1 for e in exponents), want, f"degrees of {name} from heights")
    expect(tuple(sorted(catalogue)), want, f"catalogue degrees of {name}")


def subset_op(run: Runner, check: str, name: str) -> None:
    label = diagram.parse_label(name)
    group(run, label)
    verify = weylgrp.verify_steinberg if check == "steinberg" else weylgrp.verify_companion
    report = run.call(f"weylgrp.{check}", verify, label, tag=name)
    run.count("weylgrp.subsets", report.subset_count)
    positions = label.rank + 1 if check == "steinberg" else label.rank
    subsets = 2**positions - (1 if check == "steinberg" else 0)
    got = (report.passed, len(report.failures), report.group_order, report.subset_count)
    expect(got, (True, 0, GROUPS[name][0], subsets), f"{check} {name}")


def solomon_op(run: Runner, name: str, points: list[tuple[Fraction, Fraction]]) -> None:
    label = diagram.parse_label(name)
    group(run, label)
    report = run.call("weylgrp.solomon", weylgrp.verify_solomon, label, points)
    run.count("weylgrp.points", len(report.points) + 1)
    expect(report.passed, True, f"solomon {name} verdict")
    expect(len(report.points), len(points), f"solomon {name} point count")
    for check, (q, t) in zip(report.points, points):
        want = degree_product(degrees(label), q, t)
        got = (check.q, check.t, check.lhs, check.rhs)
        expect(got, (q, t, want, want), f"solomon {name} at q={q} t={t}")
    spec = report.specialization
    expect((spec.lhs, spec.rhs), (1, 1), f"solomon {name} at q=1 t=0")


def expansion_op(run: Runner, name: str, samples: list[Fraction]) -> None:
    label = diagram.parse_label(name)
    group(run, label)
    terms = node_terms(run, label)
    report = run.call("weylgrp.expansion", weylgrp.verify_restricted_expansion, label, samples)
    run.count("weylgrp.points", len(report.samples) + len(report.probes))
    expect(report.passed, True, f"expansion {name} verdict")
    expect(len(report.samples), len(samples), f"expansion {name} sample count")
    node_degrees = [sorted(d for f in t.decomposition.factors for d in degrees(f)) for t in terms]
    for check, t in zip(report.samples, samples):
        want = sum(degree_product(ds, Fraction(1), t) for ds in node_degrees)
        expect((check.t, check.lhs, check.rhs), (t, want, want), f"expansion {name} at t={t}")


def series_direct_op(run: Runner, order: int) -> None:
    for part in (1, 2, 3):
        for n in range(0 if part == 1 else 2, order + 1):
            check = run.call("series.direct", series.check_binomial_identity, part, n)
            want = 4 ** (n - part + 1)
            expect((check.passed, check.lhs), (True, want), f"direct part {part} n={n}")


def series_power_op(run: Runner, order: int) -> None:
    for part in (1, 2, 3):
        for n in range(0 if part == 1 else 2, order + 1):
            got = run.call("series.power", series.series_coefficient, part, n)
            expect(got, 4 ** (n - part + 1), f"series part {part} n={n}")


def cli_argv(command: str, fmt: str) -> list[str]:
    if command == "series":
        return ["series", "--order", str(SERIES_ORDER), "--format", fmt]
    return [command, "--type", CLI_SELECTOR, "--format", fmt]


def render(argv: list[str]) -> tuple[int, bytes]:
    """Run the CLI in process and capture its stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue().encode("utf-8")


def cli_op(run: Runner, command: str, fmt: str) -> None:
    code, out = run.call("cli.render", render, cli_argv(command, fmt))
    run.count("cli.bytes", len(out))
    expect(code, 0, f"exit code of rootvol {command} --format {fmt}")
    digest = hashlib.sha256(out).hexdigest()
    expect(digest, CLI_DIGESTS[(command, fmt)], f"output digest of rootvol {command} --format {fmt}")


def embedding(run: Runner, spec: str) -> None:
    key = f"embedding {spec}"
    if key in run.prepared:
        return
    emb = run.call("geometry.embedding", geometry.embedding_for, spec)
    rank = sum(diagram.parse_label(p).rank for p in spec.split("x"))
    expect(emb.dimension, rank, f"embedding dimension of {spec}")
    run.prepared[key] = emb


def montecarlo_op(run: Runner, spec: str, workers: int, span: str, seed: int) -> None:
    embedding(run, spec)
    estimate = run.call(span, geometry.montecarlo_nu, spec, MC_SAMPLES, seed, workers=workers)
    run.count("geometry.samples", MC_SAMPLES)
    run.count(f"{span}.samples", MC_SAMPLES)
    want = math.prod(closed_nu(diagram.parse_label(p)) for p in spec.split("x"))
    got = (estimate.samples, estimate.workers, estimate.exact)
    expect(got, (MC_SAMPLES, workers, want), f"montecarlo {spec}")
    if not abs(estimate.z_score) <= Z_BOUND:
        raise Mismatch(f"montecarlo {spec} seed {seed}: z = {estimate.z_score:+.2f}")


def partition_op(run: Runner, name: str, samples: int, seed: int) -> None:
    label = diagram.parse_label(name)
    node_terms(run, label)
    embedding(run, name)
    report = run.call("geometry.partition", geometry.partition_check, label, samples, seed)
    run.count("geometry.samples", samples)
    run.count("geometry.partition.samples", samples)
    run.count("geometry.boundary", report.boundary_count)
    got = (report.failure_count, report.mismatch_count, sum(report.counts), len(report.counts))
    expect(got, (0, 0, samples, label.rank + 1), f"partition {name}")
    expect((report.expected[0], sum(report.expected)), (closed_nu(label), 1), f"partition {name} fractions")
    worst = max(abs(z) for z in report.z_scores)
    if not worst <= Z_BOUND:
        raise Mismatch(f"partition {name} seed {seed}: max |z| = {worst:.2f}")


# --- workloads ----------------------------------------------------------------


def coset_ops(rng: random.Random) -> list[tuple]:
    ops = [(f"{check} {name}", subset_op, check, name) for name in SUBSET_TYPES for check in ("steinberg", "companion")]
    rng.shuffle(ops)
    return ops


def sweep_ops(rng: random.Random) -> list[tuple]:
    ops: list[tuple] = [(f"identity {name}", identity_op, name) for name in (*IDENTITY_TYPES, *PROBE_TYPES)]
    for name in SOLOMON_TYPES:
        points = [(_rational(rng, True), _rational(rng, False)) for _ in range(SOLOMON_POINTS_PER_TYPE)]
        ops.append((f"solomon {name}", solomon_op, name, points))
    for name in SUBSET_TYPES:
        samples = [_rational(rng, False) for _ in range(EXPANSION_POINTS_PER_TYPE)]
        ops.append((f"expansion {name}", expansion_op, name, samples))
    ops.append(("series direct", series_direct_op, SERIES_ORDER))
    ops.append(("series power", series_power_op, SERIES_ORDER))
    for command in ("identity", "nu", "series"):
        for fmt in CLI_FORMATS:
            ops.append((f"cli {command} {fmt}", cli_op, command, fmt))
    return ops


def parallel_workers() -> int:
    """The parallel Monte Carlo setting, capped at the machine's core count."""
    return min(MC_PARALLEL_WORKERS, os.cpu_count() or 1)


def sampling(rng: random.Random) -> list[tuple]:
    ops: list[tuple] = []
    for spec in MC_SPECS:
        for workers, span in ((1, "geometry.mc_w1"), (parallel_workers(), "geometry.mc_w2")):
            seed = rng.randrange(2**31)
            ops.append((f"montecarlo {spec} workers={workers}", montecarlo_op, spec, workers, span, seed))
    for name, samples in PARTITIONS:
        ops.append((f"partition {name}", partition_op, name, samples, rng.randrange(2**31)))
    return ops


def exact_sweep(rng: random.Random) -> list[tuple]:
    """The sweep of the exact layers, then the coset sums in shuffled order."""
    return [*sweep_ops(rng), *coset_ops(rng)]


WORKLOADS = {"exact-sweep": exact_sweep, "sampling": sampling}

# The reference kernel, and its reference time, whose speed scales each
# workload's times (see reference.py): the kind of work the workload spends
# its time in.
KERNELS = {
    "exact-sweep": (reference.kernel_seconds, reference.REFERENCE_S),
    "sampling": (reference.numpy_kernel_seconds, reference.NUMPY_REFERENCE_S),
}


def workload_ops(workload: str, seed: int) -> list[tuple]:
    """The ops of one workload, as (name, body, *args), from its seed."""
    return WORKLOADS[workload](random.Random(seed))
