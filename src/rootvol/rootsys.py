"""Root systems generated from Cartan matrices one height at a time.

Roots are integer coordinate vectors over the simple basis, and the roots of
a system are numbered by their position in `RootSystem.roots`: the Weyl
group tables store each element as the ids of the roots it sends the simple
roots to.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

from .diagram import (
    CartanMatrix,
    NotFiniteTypeError,
    TypeLabel,
    cartan_of_type,
)

# Closures larger than this are refused before they start, seeded or not:
# B100 and C100, with 20,000 roots, are the largest that fit.  Each root
# built costs a few Python operations per nonzero pairing, and each kept
# root one byte per coordinate: B100 closes in 0.025 s (0.008 s from a held
# B99) on a 2-vCPU VM and keeps 2 MB; A1000 has half a million positive roots.
CLOSURE_CEILING = 20_000

# Largest height of a root that the closure builds: a coordinate is at most
# the height, and each coordinate of a key is one byte.  Every finite type
# within the closure ceiling stays far below it: the highest roots of B100
# and C100, at height 199, are the highest.
HEIGHT_CEILING = 255

# Byte x to the byte of -x, in two's complement.
_NEGATE = bytes(-x & 0xFF for x in range(256))


class ClosureCeilingError(ValueError):
    """A finite root system of this rank may exceed the closure ceiling."""


# Root counts of G2, F4, E7 and E8: the ranks at which an exceptional type
# has more roots than B_k and C_k, which have 2k^2.
_EXCEPTIONAL_ROOTS = {2: 12, 4: 48, 7: 126, 8: 240}


def closure_bound(cartan: CartanMatrix) -> int:
    """Largest root count of a finite root system with this diagram's
    components: for each component of rank k, the most roots of any
    irreducible type of rank k."""
    return sum(
        max(2 * len(c) ** 2, _EXCEPTIONAL_ROOTS.get(len(c), 0))
        for c in cartan.components()
    )


@dataclass(frozen=True)
class Roots(Sequence):
    """Roots packed as rows of `rank` signed bytes, one per coordinate, and
    read back as coordinate tuples; equal when their ranks and bytes are."""

    rank: int
    data: bytes

    def __len__(self) -> int:
        return len(self.data) // (self.rank or 1)

    def __getitem__(self, index):
        n = self.rank
        if isinstance(index, slice):
            return Roots(n, b"".join(self.data[i * n : i * n + n] for i in range(len(self))[index]))
        return struct.unpack_from(f"{n}b", self.data, range(len(self))[index] * n)

    def __iter__(self):
        return struct.iter_unpack(f"{self.rank}b", self.data) if self.data else iter(())


@dataclass(frozen=True)
class RootSystem:
    """Roots over the simple basis, packed, negative half first; the number
    of positive roots at each height 1, 2, ...; and the highest root of an
    irreducible system as a coordinate tuple."""

    cartan: CartanMatrix
    roots: Roots
    heights: tuple[int, ...]
    theta: tuple[int, ...] | None

    @property
    def rank(self) -> int:
        return self.cartan.size

    @property
    def positive(self) -> Roots:
        """The positive roots: the upper half of `roots`."""
        return Roots(self.rank, self.roots.data[len(self.roots.data) // 2 :])


def generate_roots(cartan: CartanMatrix) -> RootSystem:
    """Build the positive roots one height at a time from root strings.

    For a positive root beta other than a_i, beta + a_i is a root iff
    p_i(beta) > <beta, a_i^v>, where p_i(beta) is the length of the a_i-string
    below beta (Humphreys, Introduction to Lie Algebras, 9.4).  Each parent
    records p_i(beta + a_i) = p_i(beta) + 1, and the pairings of beta + a_i
    are those of beta plus row i of the Cartan matrix.  Every height is
    complete before the next one is expanded, so each level is sorted once
    and the levels concatenate in (height, coordinates) order; the negative
    roots are the positive ones reversed and negated, and the level sizes
    are the height counts.

    Every non-simple beta is checked for <beta, a_k^v> <= p_k(beta) at every
    k.  Then each a_k-string found is closed under s_k, so a generation that
    ends has found a finite set of vectors closed under the simple
    reflections, which certifies finite type.  The root strings of a
    Kac-Moody algebra are unbroken (Kac, Infinite Dimensional Lie Algebras,
    3.6), so a Cartan matrix of infinite type passes the check and is
    rejected once twice the positive roots found exceed
    ``closure_bound(cartan)``, or once its roots would pass
    ``HEIGHT_CEILING``.  Ranks whose bound exceeds ``CLOSURE_CEILING`` are
    rejected before the generation starts.  This closes any matrix from its
    simple roots; `system_of_type` may seed it with a system it holds.
    """
    return _close(cartan)


def _close(cartan: CartanMatrix, base: RootSystem | None = None) -> RootSystem:
    """The closure of `generate_roots`, seeded by `base` if given: the system
    of `cartan` without node 1, which is joined to node 2 alone.  Its roots
    are those of first coordinate 0 and passed every check on nodes 2..n (on
    node 1 they pair to <= 0 = p_1), so only the others are built, from a_1
    up, and the result is certified as a plain one is.  Each new root but a_1
    is reached from another a level below (those of first coordinate 1 span
    an irreducible module of lowest weight a_1 for the base's Lie algebra),
    so a base root beta touching node 2 only sets p_1(beta + a_1) = 1."""
    n = cartan.size
    bound = closure_bound(cartan)
    if bound > CLOSURE_CEILING:
        raise ClosureCeilingError(
            f"rank {n} admits up to {bound} roots, above the closure "
            f"ceiling of {CLOSURE_CEILING}"
        )
    a = cartan.entries
    # Row i of the Cartan matrix as (node, entry) pairs: the pairings that
    # adding a_i changes.
    rows = [((i, 2), *((j, a[i][j]) for j in cartan.edges[i])) for i in range(n)]
    # A root is keyed by its coordinates packed into one integer, one byte
    # each, the first coordinate highest, so that integer order is
    # coordinate order and the key's big-endian bytes are the coordinates.
    # A coordinate is at most the height, and no level past HEIGHT_CEILING
    # is built, so no field carries into the next.
    units = [1 << 8 * (n - 1 - k) for k in range(n)]
    # The base's positive rows, read in place, their heights and first
    # coordinates, and all its rows widened by a leading zero byte,
    # negative half first.
    m = n - 1
    old, old_heights, firsts, wide = b"", (), b"", b""
    if base is not None:
        data = base.roots.data
        half = len(data) // 2
        old, old_heights, firsts = memoryview(data)[half:], base.heights, data[half::m]
        unpacked = struct.iter_unpack(f"{m}s", data)
        wide = memoryview(b"\0" + b"\0".join(map(itemgetter(0), unpacked)))
    # A level maps each key to the nonzero pairings and the nonzero string
    # lengths p_k of its root, as dicts from node to value.
    level = {units[i]: (dict(rows[i]), {}) for i in range(n if base is None else 1)}
    levels = []
    count = len(level) + len(firsts)
    start = 0
    while level:
        # The roots of this level have height len(levels) + 1, and those it
        # finds one more.
        if len(levels) + 2 > HEIGHT_CEILING:
            raise NotFiniteTypeError(
                f"roots would pass height {HEIGHT_CEILING}, beyond every finite "
                "type within the closure ceiling; input is not finite type"
            )
        # A simple root pairs to 2 with itself and has no string below it:
        # the one case that the string check skips.
        simple = not levels
        fresh = {}
        for key, (pairing, below) in level.items():
            steps = []
            for k, c in pairing.items():
                p = below.pop(k, 0)
                if c < p:
                    steps.append((k, p))
                elif c > p and not simple:
                    raise NotFiniteTypeError(
                        f"{tuple(key.to_bytes(n, 'big'))} pairs to {c} with simple "
                        f"root {k}, beyond its string of {p} below; input is not "
                        "finite type"
                    )
            steps.extend(below.items())
            for k, p in steps:
                up = key + units[k]
                found = fresh.get(up)
                if found is not None:
                    found[1][k] = p + 1
                    continue
                count += 1
                if 2 * count > bound:
                    raise NotFiniteTypeError(
                        f"reflection closure exceeded {bound} vectors; "
                        "input is not finite type"
                    )
                sums = pairing.copy()
                for j, x in rows[k]:
                    x += sums.get(j, 0)
                    if x:
                        sums[j] = x
                    else:
                        del sums[j]
                fresh[up] = (sums, {k: p + 1})
        # The base roots of this height that touch node 2 come last in it,
        # and a base root's key is its key in the base.
        if len(levels) < len(old_heights):
            end = start + old_heights[len(levels)]
            for r in range(start + firsts.count(0, start, end), end):
                fresh[int.from_bytes(old[r * m : r * m + m], "big") + units[0]][1][0] = 1
            start = end
        levels.append(sorted(level))
        level = fresh
    irreducible = n >= 1 and len(cartan.components()) == 1
    if irreducible and len(levels[-1]) > 1:
        raise NotFiniteTypeError("highest root is not unique")
    # The system is of finite type now, so each coordinate is at most 6, the
    # largest mark of a highest root (E8), and every byte reads back signed.
    # Each height of either half joins its widened base rows and its new
    # ones; this height's base rows in `wide` start at `hi` and end at `lo`.
    heights, pos, neg = [], [], []
    lo = hi = len(firsts)
    for h, keys in enumerate(levels):
        k = old_heights[h] if h < len(old_heights) else 0
        packed = [key.to_bytes(n, "big") for key in keys]
        pos += [wide[hi * n : (hi + k) * n], *packed]
        packed.reverse()
        neg += [wide[(lo - k) * n : lo * n], b"".join(packed).translate(_NEGATE)]
        heights.append(k + len(keys))
        hi, lo = hi + k, lo - k
    del levels
    neg.reverse()
    roots = Roots(n, b"".join(neg + pos))
    theta = roots[-1] if irreducible else None
    return RootSystem(cartan=cartan, roots=roots, heights=tuple(heights), theta=theta)


# Every system that `system_of_type` has closed, by rank and label.
_SYSTEMS: dict[int, dict[TypeLabel, RootSystem]] = {}


def system_of_type(label: TypeLabel) -> RootSystem:
    """The root system of an irreducible type, closed once per process.  It
    is seeded (see `_close`) by a held system whose Cartan entries are the
    type's without node 1, as a sweep up the ranks holds for A_n, B_n, C_n,
    D_n (n >= 5) and G2, and is otherwise `generate_roots`: no chain of
    smaller ranks is closed or kept."""
    held = _SYSTEMS.setdefault(label.rank, {})
    rs = held.get(label)
    if rs is None:
        cartan = cartan_of_type(label)
        base = None
        if cartan.edges[0] == (1,):
            # Row by row, last first where the families differ: no trimmed copy.
            for smaller in _SYSTEMS.get(label.rank - 1, {}).values():
                pairs = zip(reversed(smaller.cartan.entries), reversed(cartan.entries))
                if all(row == wider[1:] for row, wider in pairs):
                    base = smaller
                    break
        rs = held[label] = generate_roots(cartan) if base is None else _close(cartan, base)
    return rs
