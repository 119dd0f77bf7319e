"""Central binomial identities, checked by direct sums and by the
coefficients of generating-function products.

The three identities checked here, for central binomial coefficients
``C(2h, h)``:

  part 1, n >= 0:
      4^n = sum_{h=0}^{n} C(2h,h) C(2(n-h),n-h)
  part 2, n >= 2:
      4^(n-1) = C(2n,n)/2
               + sum_{h=2}^{n} ((h-1)/h) C(2(h-1),h-1) C(2(n-h),n-h)
  part 3, n >= 2:
      4^(n-2) = ((n-1)/n) C(2(n-1),n-1)
               + sum_{h=2}^{n-2} ((h-1)(n-h-1)/(h(n-h)))
                                 C(2(h-1),h-1) C(2(n-1-h),n-1-h)

Each also follows from a product of generating functions: with
f = (1-4t)^(-1/2) and g = (1-2t) / (2 sqrt(1-4t)),

  f*f = 1/(1-4t),  g*f = 1/2 + t/(1-4t),  g*g = (1-4t+4t^2) / (4(1-4t)),

whose t^n coefficients are 4^n, 4^(n-1) and 4^(n-2) respectively.  Both
routes work on integers: f_h = C(2h, h), and 2g = (1-2t) f has the integer
coefficients 2g_0 = 1 and 2g_h = f_h - 2 f_(h-1).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple


class BinomialCheck(NamedTuple):
    part: int
    n: int
    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def _validate_part_range(part: int, n: int) -> None:
    if part not in (1, 2, 3):
        raise ValueError("part must be 1, 2 or 3")
    if part == 1 and n < 0:
        raise ValueError("part 1 requires n >= 0")
    if part in (2, 3) and n < 2:
        raise ValueError(f"part {part} requires n >= 2")


# Shared prefixes, each indexed from 0: C(2h, h); the weights
# w_k = (k/(k+1)) C(2k, k) = k Catalan(k), an integer since k+1 divides
# C(2k, k); and the coefficients 2g_h of 2g = (1-2t) f.  A longer prefix
# replaces one whole, never in place, so a caller in another thread reads a
# complete list.
_CENTRAL_BINOMIALS = [1]
_WEIGHTS = [0]
_TWICE_HALF = [1]


def _known_binomials(n: int) -> list[int]:
    """The shared prefix of C(2h, h), through h = n at least, by
    C(2h+2, h+1) = C(2h, h) (4h+2) / (h+1), which is exact in integers."""
    global _CENTRAL_BINOMIALS
    known = _CENTRAL_BINOMIALS
    if len(known) <= n:
        known = known.copy()
        for h in range(len(known) - 1, n):
            known.append(known[h] * (4 * h + 2) // (h + 1))
        _CENTRAL_BINOMIALS = known
    return known


def _known_weights(n: int) -> list[int]:
    """The shared prefix of w_k, through k = n at least."""
    global _WEIGHTS
    known = _WEIGHTS
    if len(known) <= n:
        c = _known_binomials(n)
        known = known + [k * c[k] // (k + 1) for k in range(len(known), n + 1)]
        _WEIGHTS = known
    return known


def _known_twice_half(n: int) -> list[int]:
    """The shared prefix of 2g_h, through h = n at least: 2g_0 = 1 and
    2g_h = f_h - 2 f_(h-1)."""
    global _TWICE_HALF
    known = _TWICE_HALF
    if len(known) <= n:
        f = _known_binomials(n)
        known = known + [f[h] - 2 * f[h - 1] for h in range(len(known), n + 1)]
        _TWICE_HALF = known
    return known


def central_binomials(n: int) -> list[int]:
    """C(2h, h) for h = 0..n, a fresh copy of the shared prefix, so callers
    may change it."""
    return _known_binomials(n)[: max(n, 0) + 1]


def check_binomial_identity(part: int, n: int) -> BinomialCheck:
    """Evaluate one identity by direct summation of both sides.

    Every summand is an integer: ((h-1)/h) C(2(h-1), h-1) is the weight
    w_(h-1), and C(2n, n)/2 = C(2n-1, n).  So both sides are summed in
    integers, each sum one convolution over the shared prefixes (w_0 = 0
    adds the terms h = 1 and h = n - 1 as zeros), and become Fractions
    once, at the end."""
    _validate_part_range(part, n)
    c = _known_binomials(n)
    if part == 1:
        lhs = 4**n
        rhs = sum(map(mul, c, c[n::-1]))
    elif part == 2:
        lhs = 4 ** (n - 1)
        rhs = c[n] // 2 + sum(map(mul, _known_weights(n), c[n - 1 :: -1]))
    else:
        w = _known_weights(n)
        lhs = 4 ** (n - 2)
        rhs = w[n - 1] + sum(map(mul, w, w[n - 2 :: -1]))
    return BinomialCheck(part, n, Fraction(lhs), Fraction(rhs))


def series_coefficient(part: int, n: int) -> Fraction:
    """The t^n coefficient of the part's generating product (f*f, g*f or g*g).

    Equals 4^n, 4^(n-1), 4^(n-2) respectively on the parts' valid ranges.
    Each product is one integer convolution over the shared prefixes of f
    and 2g, divided by 1, 2 or 4 at the end.
    """
    _validate_part_range(part, n)
    f = _known_binomials(n)
    g2 = _known_twice_half(n)
    a, b = ((f, f), (g2, f), (g2, g2))[part - 1]
    return Fraction(sum(map(mul, a, b[n::-1])), 1 << (part - 1))
