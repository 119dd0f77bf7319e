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


# The shared prefixes, each indexed from 0: f_h = C(2h, h); the weights
# w_k = (k/(k+1)) C(2k, k) = k Catalan(k), an integer since k+1 divides
# C(2k, k); and the coefficients 2g_h of 2g = (1-2t) f.  A longer prefix
# replaces the tuple whole, never a list in place, so a caller in another
# thread reads three complete lists.
_PREFIXES = ([1], [0], [1])


def _prefixes(n: int) -> tuple[list[int], list[int], list[int]]:
    """The shared (f, w, 2g), through index n at least: f by
    C(2h+2, h+1) = C(2h, h) (4h+2) / (h+1), which is exact in integers,
    2g_0 = 1 and 2g_h = f_h - 2 f_(h-1)."""
    global _PREFIXES
    known = _PREFIXES
    f, w, g2 = known
    if len(f) <= n:
        f = f.copy()
        for h in range(len(f) - 1, n):
            f.append(f[h] * (4 * h + 2) // (h + 1))
        grown = range(len(w), n + 1)
        w = w + [k * f[k] // (k + 1) for k in grown]
        g2 = g2 + [f[h] - 2 * f[h - 1] for h in grown]
        known = _PREFIXES = (f, w, g2)
    return known


def check_binomial_identity(part: int, n: int) -> BinomialCheck:
    """Evaluate one identity by direct summation of both sides.

    Every summand is an integer: ((h-1)/h) C(2(h-1), h-1) is the weight
    w_(h-1), and C(2n, n)/2 = C(2n-1, n).  So both sides are summed in
    integers, each sum one convolution over the shared prefixes (w_0 = 0
    adds the terms h = 1 and h = n - 1 as zeros), and become Fractions
    once, at the end."""
    _validate_part_range(part, n)
    c, w, _ = _prefixes(n)
    if part == 1:
        lhs = 4**n
        rhs = sum(map(mul, c, c[n::-1]))
    elif part == 2:
        lhs = 4 ** (n - 1)
        rhs = c[n] // 2 + sum(map(mul, w, c[n - 1 :: -1]))
    else:
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
    f, _, g2 = _prefixes(n)
    a, b = ((f, f), (g2, f), (g2, g2))[part - 1]
    return Fraction(sum(map(mul, a, b[n::-1])), 1 << (part - 1))
