"""Continued fractions of exact rationals and the partial-quotient criterion.

Expansions are canonical: the final quotient is at least 2 (integers have an
empty quotient list), which makes the supremum of partial quotients
well-defined.  ``sandwich_check`` relates that supremum to the minimum of
q * ||q y|| over q below the denominator, the finite-rational analogue of
the classical two-sided estimate 1/(sup+2) <= inf q||q y|| <= 1/sup.

``cf_expand`` and ``orbit_max_quotient`` share one integer Euclid,
``_quotients``, whose numerator and denominator need not be coprime: a
factor common to both scales every remainder and leaves every quotient as
it is.  ``orbit_max_quotient`` thus steps the numerator of the fractional
part, num -> num * base % den, and builds no ``Fraction`` and takes no gcd
per orbit point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat

__all__ = [
    "ContinuedFraction",
    "cf_expand",
    "OrbitMaxResult",
    "orbit_max_quotient",
    "SandwichResult",
    "sandwich_check",
]


@dataclass(frozen=True)
class ContinuedFraction:
    """[a0; a1, a2, ...] with positive quotients, final quotient >= 2."""

    a0: int
    quotients: tuple[int, ...]

    def value(self) -> Fraction:
        acc = Fraction(0)
        for a in reversed(self.quotients):
            acc = 1 / (a + acc)
        return self.a0 + acc


def _quotients(num: int, den: int) -> list[int]:
    """The partial quotients a_1, a_2, ... of num/den for 0 <= num < den,
    by Euclid; the same for num/den in any terms, not only the lowest."""
    quotients = []
    while num:
        a, r = divmod(den, num)
        quotients.append(a)
        den, num = num, r
    return quotients


def cf_expand(x: Fraction) -> ContinuedFraction:
    """Euclidean-algorithm expansion; reconstructing it returns x exactly."""
    x = Fraction(x)
    a0, num = divmod(x.numerator, x.denominator)
    return ContinuedFraction(a0, tuple(_quotients(num, x.denominator)))


@dataclass(frozen=True)
class OrbitMaxResult:
    """The maximum with its (k, i), and every (k, i, a_i) scanned, in order."""

    max_quotient: int | None
    k: int | None
    i: int | None
    rows: tuple[tuple[int, int, int], ...] = ()


def orbit_max_quotient(x: Fraction, base: int, max_k: int) -> OrbitMaxResult:
    """Largest partial quotient a_i (i >= 1) among the expansions of
    base**k * x for 0 <= k <= max_k, with its leftmost attainment.

    Orbit points that are integers contribute no quotients and are skipped;
    an integer x therefore yields no maximum at all.

    For x = n/d in lowest terms, the fractional part of base**k * x is
    num_k/d with num_k = n * base**k mod d, one multiplication and one
    remainder after num_(k-1).  num_k/d need not be in lowest terms, but
    Euclid's quotients do not depend on the terms, so every row is that of
    ``cf_expand(base**k * x)``.
    """
    if max_k < 0:
        raise ValueError("max_k must be non-negative")
    x = Fraction(x)
    den = x.denominator
    num = x.numerator % den
    rows: list[tuple[int, int, int]] = []
    best_k = best_i = best = None
    for k in range(max_k + 1):
        quotients = _quotients(num, den)
        rows.extend(zip(repeat(k), count(1), quotients))
        top = max(quotients, default=None)
        # a strict rise keeps the earliest k, and index the leftmost i
        if top is not None and (best is None or top > best):
            best_k, best_i, best = k, quotients.index(top) + 1, top
        num = num * base % den
    return OrbitMaxResult(best, best_k, best_i, tuple(rows))


@dataclass(frozen=True)
class SandwichResult:
    sup_quotient: int
    min_quality: Fraction
    lower: Fraction
    upper: Fraction
    holds: bool


def sandwich_check(y: Fraction) -> SandwichResult:
    """Two-sided estimate check for a reduced rational y = a/b in (0, 1).

    min_quality scans 1 <= q < b (q = b is excluded since it annihilates y,
    the finite stand-in for tail behaviour).  holds is
    1/(sup+2) <= min_quality <= 1/sup.
    """
    y = Fraction(y)
    a, b = y.numerator, y.denominator
    if not 0 < a < b:
        raise ValueError("y must lie strictly between 0 and 1")
    sup = max(cf_expand(y).quotients)
    # q * ||q a/b|| == q * min(qa mod b, b - qa mod b) / b, all in integers
    best_num = min(q * min(q * a % b, b - q * a % b) for q in range(1, b))
    min_quality = Fraction(best_num, b)
    lower = Fraction(1, sup + 2)
    upper = Fraction(1, sup)
    return SandwichResult(sup, min_quality, lower, upper, lower <= min_quality <= upper)
