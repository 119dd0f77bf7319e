"""Invariant degrees, exponents, Weyl group orders, the degree ratio, and
exact sums of integer ratios."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .diagram import DecompositionLabel, TypeLabel, as_decomposition

if TYPE_CHECKING:
    from .rootsys import RootSystem

# Default bound on the order of a Weyl group that is enumerated explicitly.
DEFAULT_CAP = 10_000

# Largest total rank that `nu_of` takes.  The numerator and denominator of nu
# grow by about log10(2 rank) digits per degree: B, C and D values pass
# Python's 4300-digit limit on integer printing between ranks 7100 and 7200,
# and A1000000 multiplies for more than 20 s.
NU_RANK_CEILING = 5000


class EnumerationCapError(RuntimeError):
    """Expected group order exceeds the configured enumeration cap."""

    def __init__(self, expected_order: int, cap: int):
        super().__init__(
            f"expected group order {expected_order} exceeds enumeration cap {cap}"
        )
        self.expected_order = expected_order
        self.cap = cap

_EXCEPTIONAL_DEGREES = {
    ("G", 2): (2, 6),
    ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}


def degrees_of_type(label: TypeLabel) -> tuple[int, ...]:
    """Invariant degrees of one irreducible type, ascending."""
    fam, n = label.family, label.rank
    if fam == "A":
        return tuple(range(2, n + 2))
    if fam in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if fam == "D":
        return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    return _EXCEPTIONAL_DEGREES[(fam, n)]


def degrees_of(decomposition: DecompositionLabel) -> tuple[int, ...]:
    """Concatenated factor degrees, ascending; empty for the trivial system."""
    out: list[int] = []
    for f in decomposition.factors:
        out.extend(degrees_of_type(f))
    return tuple(sorted(out))


def nu(degrees: Sequence[int]) -> Fraction:
    """Product of (d - 1)/d over the degrees; 1 for the trivial system."""
    return Fraction(math.prod(d - 1 for d in degrees), math.prod(degrees))


def degree_product(degrees: Sequence[int], q: Fraction, t: Fraction) -> Fraction:
    """prod (1 - q t^(d-1)) / (1 - t^d) over the degrees, exactly; 1 for the
    trivial system.  With q = r/s and t = a/b each factor is
    (s b^(d-1) - r a^(d-1)) b / ((b^d - a^d) s), so one Fraction is formed.
    Raises ZeroDivisionError where t^d = 1."""
    r, s = q.as_integer_ratio()
    a, b = t.as_integer_ratio()
    numerator = denominator = 1
    for d in degrees:
        numerator *= (s * b ** (d - 1) - r * a ** (d - 1)) * b
        denominator *= (b**d - a**d) * s
    return Fraction(numerator, denominator)


def weyl_order(degrees: Sequence[int]) -> int:
    """Product of the degrees."""
    return math.prod(degrees)


def fraction_sum(pairs: Iterable[tuple[int, int]], divisor: int) -> Fraction:
    """The sum of n/d over the integer pairs (n, d), divided by `divisor`, as
    one Fraction: the sum is kept as an unreduced numerator and denominator
    until then."""
    numerator, denominator = 0, 1
    for n, d in pairs:
        numerator = numerator * d + n * denominator
        denominator *= d
    return Fraction(numerator, denominator * divisor)


def nu_of(spec: DecompositionLabel | TypeLabel | str) -> Fraction:
    """Degree ratio of a decomposition, a single type, or a parsed label, up
    to a total rank of ``NU_RANK_CEILING``."""
    decomposition = as_decomposition(spec)
    if decomposition.rank > NU_RANK_CEILING:
        raise ValueError(
            f"{decomposition} has rank {decomposition.rank}, above nu's rank ceiling of {NU_RANK_CEILING}"
        )
    return nu(degrees_of(decomposition))


def exponents_from_heights(rs: RootSystem) -> tuple[int, ...]:
    """Exponents computed from the height distribution of positive roots.

    The number of positive roots of height k equals the number of exponents
    that are >= k.  Both sides add up over the components of a product, so
    for any system the exponent multiset is the conjugate partition of the
    height counts `rs.heights`, whose first entry, the number of simple
    roots, is the rank.  This route never consults the degree catalogue.
    """
    exponents = [sum(c >= j for c in rs.heights) for j in range(1, rs.rank + 1)]
    return tuple(sorted(exponents))
