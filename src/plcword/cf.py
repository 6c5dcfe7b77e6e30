"""Continued fractions of exact rationals and the partial-quotient criterion.

Expansions are canonical: the final quotient is at least 2 (integers have an
empty quotient list), which makes the supremum of partial quotients
well-defined.  ``sandwich_check`` relates that supremum to the minimum of
q * ||q y|| over q below the denominator, the finite-rational analogue of
the classical two-sided estimate 1/(sup+2) <= inf q||q y|| <= 1/sup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def cf_expand(x: Fraction) -> ContinuedFraction:
    """Euclidean-algorithm expansion; reconstructing it returns x exactly."""
    x = Fraction(x)
    a0 = x.numerator // x.denominator
    num = x.numerator - a0 * x.denominator
    den = x.denominator
    quotients = []
    p, q = den, num
    while q:
        a, r = divmod(p, q)
        quotients.append(a)
        p, q = q, r
    return ContinuedFraction(a0, tuple(quotients))


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
    """
    if max_k < 0:
        raise ValueError("max_k must be non-negative")
    x = Fraction(x)
    rows = tuple(
        (k, i, a)
        for k in range(max_k + 1)
        for i, a in enumerate(cf_expand(x * base**k).quotients, start=1)
    )
    # max keeps the first of equal keys, which is the leftmost attainment
    k, i, a = max(rows, key=lambda row: row[2], default=(None, None, None))
    return OrbitMaxResult(a, k, i, rows)


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
