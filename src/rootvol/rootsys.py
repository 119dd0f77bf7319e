"""Root systems generated from Cartan matrices by reflection closure.

Roots are integer coordinate vectors over the simple basis.  Reflection
matrices follow the row convention: row i holds the image of basis vector i,
so a coordinate row vector v maps to v @ M.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .diagram import (
    CartanMatrix,
    NotFiniteTypeError,
    TypeLabel,
    cartan_of_type,
)
from .exact import as_int

# Closures larger than this are refused before they start: B100 and C100,
# with 20,000 roots, are the largest that fit.  Only the positive half is
# closed, but each positive root's pairings cost a few operations per simple
# root and each of its images copies a row, so a closure still costs about
# |roots| * rank operations in numpy, and A1000 would need a million roots.
CLOSURE_CEILING = 20_000

# Bound on |entry| * (rank * largest Cartan entry + 1) before a product.
_INT64_HEADROOM = 2**63 - 1


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
class RootSystem:
    """Roots as coordinate tuples over the simple basis: all of them, the
    positive half, and the highest root of an irreducible system."""

    cartan: CartanMatrix
    roots: tuple[tuple[int, ...], ...]
    positive: tuple[tuple[int, ...], ...]
    theta: tuple[int, ...] | None

    @property
    def rank(self) -> int:
        return self.cartan.size


def generate_roots(cartan: CartanMatrix) -> RootSystem:
    """Close the simple roots under the simple reflections.

    The closure of a finite-type matrix is the full root set.  Inputs that
    are not finite type make the orbit grow without bound and are rejected
    once twice its positive part exceeds ``closure_bound(cartan)``; ranks
    whose bound exceeds ``CLOSURE_CEILING`` are rejected before the closure
    starts.

    The closure runs level by level on int64 rows over the positive roots
    only: one gather over the nonzero entries of each Cartan column gives the
    pairings of a whole frontier with every simple root, each nonzero pairing
    gives one image, and images are deduplicated by their bytes.  A simple
    reflection sends a positive root to a positive root or to -a_j, so
    seeding the seen set with both signs of the simple roots keeps every
    frontier positive.  Each half of the roots is then sorted by height and
    coordinates.
    """
    n = cartan.size
    bound = closure_bound(cartan)
    if bound > CLOSURE_CEILING:
        raise ClosureCeilingError(
            f"rank {n} admits up to {bound} roots, above the closure "
            f"ceiling of {CLOSURE_CEILING}"
        )
    largest = max(map(abs, itertools.chain.from_iterable(cartan.entries)), default=0)
    # A frontier entry above this could overflow int64 in the next product.
    # Finite-type roots have entries of at most 6.
    limit = _INT64_HEADROOM // (n * largest + 1)
    if limit < 6:
        raise NotFiniteTypeError(f"Cartan entry {largest} is too large for a finite type")
    a = np.array(cartan.entries, dtype=np.int64).reshape(n, n)
    # Row j of `support` lists the nonzero rows of Cartan column j, padded
    # with row 0 at weight 0, so the pairing with simple root j is a sum
    # over at most a few columns of the frontier, not over all n.
    nonzero = [np.flatnonzero(column) for column in a.T]
    width = max(map(len, nonzero), default=0)
    support = np.zeros((n, width), dtype=np.intp)
    weight = np.zeros((n, width), dtype=np.int64)
    for j, rows in enumerate(nonzero):
        support[j, : len(rows)] = rows
        weight[j, : len(rows)] = a[rows, j]
    frontier = np.eye(n, dtype=np.int64)
    as_bytes = np.dtype((np.void, 8 * n))
    seen = set(frontier.view(as_bytes).ravel().tolist())
    # `* -1` reuses the multiply loop of the pairings; unary minus would
    # page in numpy's negative loop for the closure alone.
    seen.update((frontier * -1).view(as_bytes).ravel().tolist())
    levels = [frontier]
    count = n
    while len(frontier):
        if int(np.abs(frontier).max()) > limit:
            raise NotFiniteTypeError(
                f"reflection closure produced an entry above {limit}; "
                "input is not finite type"
            )
        pairing = (frontier[:, support] * weight).sum(axis=2)
        rows, cols = np.nonzero(pairing)
        images = frontier[rows]
        images[np.arange(len(rows)), cols] -= pairing[rows, cols]
        fresh = set(images.view(as_bytes).ravel().tolist()) - seen
        seen |= fresh
        count += len(fresh)
        if 2 * count > bound:
            raise NotFiniteTypeError(
                f"reflection closure exceeded {bound} vectors; "
                "input is not finite type"
            )
        frontier = np.frombuffer(b"".join(fresh), dtype=np.int64).reshape(-1, n)
        levels.append(frontier)
    del seen
    if any(((c > 0).any(axis=1) & (c < 0).any(axis=1)).any() for c in levels):
        raise NotFiniteTypeError("closure produced a mixed-sign vector")
    # One level at a time, so that only one level's lists are alive at once.
    # Tuples made from `tolist` rows are allocated at their final size;
    # negating the sorted positive tuples item by item fragmented the heap
    # and raised the peak RSS of the benchmark's exact sweep by 0.3 MB.
    lower, upper = [], []
    for level in levels:
        upper.extend(map(tuple, level.tolist()))
        lower.extend(map(tuple, (level * -1).tolist()))
    del levels
    # By height, then coordinates: a sort by coordinates, then a stable sort
    # by height, both in C.  A sort in numpy would page in numpy's sorting
    # code, about 0.2 MB of peak RSS, in runs that sort nothing else in numpy.
    for half in (lower, upper):
        half.sort()
        half.sort(key=sum)
    positive = tuple(upper)
    roots = tuple(lower) + positive
    theta = None
    if n >= 1 and len(cartan.components()) == 1:
        if len(positive) > 1 and sum(positive[-2]) == sum(positive[-1]):
            raise NotFiniteTypeError("highest root is not unique")
        theta = positive[-1]
    return RootSystem(cartan=cartan, roots=roots, positive=positive, theta=theta)


@lru_cache(maxsize=None)
def system_of_type(label: TypeLabel) -> RootSystem:
    return generate_roots(cartan_of_type(label))


def highest_root(rs: RootSystem) -> tuple[int, ...]:
    """Unique root dominating every positive root componentwise."""
    if rs.theta is None:
        raise ValueError("highest root requires an irreducible system")
    theta = rs.theta
    for r in rs.positive:
        if any(rc > tc for rc, tc in zip(r, theta)):
            raise RuntimeError("maximal-height root fails componentwise dominance")
    return theta


def reflection_matrix(rs: RootSystem, alpha: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Integer matrix of the reflection through alpha, rows as images."""
    if alpha not in rs.roots:
        raise ValueError(f"{alpha} is not a root of this system")
    n = rs.rank
    g = rs.cartan.gram()
    support = [i for i in range(n) if alpha[i]]
    norm = sum(alpha[i] * alpha[j] * g[i][j] for i in support for j in support)
    rows = []
    for i in range(n):
        coeff = as_int(Fraction(2 * sum(g[i][j] * alpha[j] for j in support), norm))
        rows.append(tuple((1 if i == k else 0) - coeff * alpha[k] for k in range(n)))
    return tuple(rows)
