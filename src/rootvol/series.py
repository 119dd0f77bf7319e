"""Truncated power series over exact rationals, and central binomial identities.

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

whose t^n coefficients are 4^n, 4^(n-1) and 4^(n-2) respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

Rational = Fraction | int


@dataclass(frozen=True)
class RationalSeries:
    """Power series truncated at a fixed order, coefficients exact rationals.

    Binary operations require equal truncation orders; nothing is extended
    or shortened silently.
    """

    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def _check(self, other: RationalSeries) -> None:
        if self.order != other.order:
            raise ValueError(f"truncation orders differ: {self.order} vs {other.order}")

    def __add__(self, other: RationalSeries) -> RationalSeries:
        self._check(other)
        return RationalSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: RationalSeries) -> RationalSeries:
        self._check(other)
        return RationalSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> RationalSeries:
        return RationalSeries(tuple(-a for a in self.coeffs))

    def __mul__(self, other: RationalSeries) -> RationalSeries:
        self._check(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return RationalSeries(tuple(out))

    def scale(self, factor: Rational) -> RationalSeries:
        f = Fraction(factor)
        return RationalSeries(tuple(f * a for a in self.coeffs))


def series_of(values: Sequence[Rational], order: int) -> RationalSeries:
    """Series with the given leading coefficients, zero-padded to the order."""
    if len(values) > order + 1:
        raise ValueError("more coefficients than the truncation order allows")
    coeffs = [Fraction(v) for v in values]
    coeffs.extend(Fraction(0) for _ in range(order + 1 - len(values)))
    return RationalSeries(tuple(coeffs))


def inverse(series: RationalSeries) -> RationalSeries:
    """Multiplicative inverse; requires a nonzero constant term."""
    f = series.coeffs
    if f[0] == 0:
        raise ValueError("series with zero constant term has no inverse")
    out = [1 / f[0]]
    for n in range(1, series.order + 1):
        acc = sum((f[i] * out[n - i] for i in range(1, n + 1)), Fraction(0))
        out.append(-acc / f[0])
    return RationalSeries(tuple(out))


def sqrt(series: RationalSeries) -> RationalSeries:
    """Square root of a series with constant term 1."""
    f = series.coeffs
    if f[0] != 1:
        raise ValueError("sqrt requires constant term 1")
    out = [Fraction(1)]
    for n in range(1, series.order + 1):
        acc = sum((out[i] * out[n - i] for i in range(1, n)), Fraction(0))
        out.append((f[n] - acc) / 2)
    return RationalSeries(tuple(out))


def central_binomial_series(order: int) -> RationalSeries:
    """Series of (1-4t)^(-1/2), built by the coefficient recurrence
    a_{h+1} = 2(2h+1)/(h+1) a_h starting from a_0 = 1."""
    out = [Fraction(1)]
    for h in range(order):
        out.append(out[-1] * Fraction(2 * (2 * h + 1), h + 1))
    return RationalSeries(tuple(out))


def half_ratio_series(order: int) -> RationalSeries:
    """Series of (1-2t) / (2 sqrt(1-4t)); its t^h coefficient for h >= 2 is
    ((h-1)/h) C(2(h-1), h-1), with constant term 1/2 and no linear term."""
    f = central_binomial_series(order)
    return (series_of([1, -2], order) * f).scale(Fraction(1, 2))


@dataclass(frozen=True)
class BinomialCheck:
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


def check_binomial_identity(part: int, n: int) -> BinomialCheck:
    """Evaluate one identity by direct summation of both sides.

    Every summand is an integer: ((h-1)/h) C(2(h-1), h-1) is h-1 times a
    Catalan number, and C(2n, n)/2 = C(2n-1, n).  So both sides are summed
    in integers and become Fractions once, at the end."""
    _validate_part_range(part, n)
    # c[h] = C(2h, h), by C(2h+2, h+1) = C(2h, h) (4h+2) / (h+1), which is
    # exact in integers.
    c = list(accumulate(range(n), lambda a, h: a * (4 * h + 2) // (h + 1), initial=1))
    # w[k] = (k/(k+1)) C(2k, k) = k Catalan(k); k+1 divides C(2k, k).
    w = [k * c[k] // (k + 1) for k in range(n)]
    if part == 1:
        lhs = 4**n
        rhs = sum(c[h] * c[n - h] for h in range(n + 1))
    elif part == 2:
        lhs = 4 ** (n - 1)
        rhs = c[n] // 2 + sum(w[h - 1] * c[n - h] for h in range(2, n + 1))
    else:
        lhs = 4 ** (n - 2)
        rhs = w[n - 1] + sum(w[h - 1] * w[n - h - 1] for h in range(2, n - 1))
    return BinomialCheck(part, n, Fraction(lhs), Fraction(rhs))


_MIN_PRODUCT_ORDER = 64


@lru_cache(maxsize=None)
def _products(order: int) -> tuple[RationalSeries, RationalSeries, RationalSeries]:
    f = central_binomial_series(order)
    g = half_ratio_series(order)
    return f * f, g * f, g * g


def series_coefficient(part: int, n: int) -> Fraction:
    """The t^n coefficient of the part's generating product (f*f, g*f or g*g).

    Equals 4^n, 4^(n-1), 4^(n-2) respectively on the parts' valid ranges.
    """
    _validate_part_range(part, n)
    # Truncated products are prefix-stable, so one product at an order
    # rounded up to a power of two serves every smaller n.
    return _products(max(_MIN_PRODUCT_ORDER, 1 << (n - 1).bit_length()))[part - 1][n]
