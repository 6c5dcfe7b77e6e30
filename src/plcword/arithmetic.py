"""Exact rational arithmetic attached to digit words in a fixed base.

All values are ``fractions.Fraction`` (always reduced, positive
denominator); nothing here touches floating point.  Rationals serialise as
"num/den" strings in JSON outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .words import _require_base, _require_digits, complement

__all__ = [
    "word_value",
    "int_to_word",
    "prefix_value",
    "periodic_value",
    "GcdBound",
    "gcd_bound",
    "dist_nearest_int",
    "quality",
    "ComplementDivisibility",
    "complement_divisibility_check",
    "format_rational",
    "parse_rational",
]


def word_value(word: str, base: int) -> int:
    """Integer whose base-n representation (leading zeros allowed) is the word."""
    if not word:
        raise ValueError("word must be non-empty")
    _require_digits(word, base)
    return int(word, base)


def int_to_word(value: int, base: int) -> str:
    """Base-n representation without leading zeros ("0" for zero)."""
    _require_base(base)
    if value < 0:
        raise ValueError("value must be non-negative")
    if value == 0:
        return "0"
    digits = []
    while value:
        value, d = divmod(value, base)
        digits.append(str(d))
    return "".join(reversed(digits))


def prefix_value(word: str, base: int) -> Fraction:
    """Value of the terminating expansion 0.word; every infinite extension
    lies in [prefix_value, prefix_value + base**-len(word)]."""
    _require_digits(word, base)
    if not word:
        return Fraction(0)
    return Fraction(int(word, base), base ** len(word))


def periodic_value(word: str, base: int) -> Fraction:
    """Value of the purely periodic expansion 0.word word word ...

    Equals word_value / (base**len - 1); the reduced denominator divides
    base**len - 1.
    """
    return Fraction(word_value(word, base), base ** len(word) - 1)


@dataclass(frozen=True)
class GcdBound:
    """Denominator data of a period word: base**m - 1 = d * q_max and
    base**(ell-1) <= q_max <= base**ell (ell = 1 when q_max = 1)."""

    m: int
    d: int
    q_max: int
    ell: int


def gcd_bound(word: str, base: int) -> GcdBound:
    """Gcd denominator bound of a period word, with the smallest valid ell."""
    value = word_value(word, base)
    m = len(word)
    full = base**m - 1
    d = math.gcd(full, value)
    q_max = full // d
    ell = 1
    power = base
    while power < q_max:
        power *= base
        ell += 1
    return GcdBound(m, d, q_max, ell)


def dist_nearest_int(x: Fraction) -> Fraction:
    """Distance to the nearest integer, in [0, 1/2]."""
    x = Fraction(x)
    frac = x - (x.numerator // x.denominator)
    return min(frac, 1 - frac)


def quality(q: int, k: int, base: int, x: Fraction) -> Fraction:
    """The functional q * ||q * base**k * x||, exactly."""
    if q < 1:
        raise ValueError("q must be at least 1")
    if k < 0:
        raise ValueError("k must be non-negative")
    _require_base(base)
    return q * dist_nearest_int(Fraction(x) * q * base**k)


@dataclass(frozen=True)
class ComplementDivisibility:
    value: int
    divisor: int
    quotient: int


def complement_divisibility_check(word: str, base: int) -> ComplementDivisibility:
    """Value of v v~ together with its guaranteed divisor base**len(v) - 1.

    Divisibility is an identity of base-n arithmetic; failure would be an
    implementation bug, not a data error.
    """
    value = word_value(word + complement(word, base), base)
    divisor = base ** len(word) - 1
    if value % divisor:
        raise AssertionError(
            f"value {value} of the doubled word not divisible by {divisor}"
        )
    return ComplementDivisibility(value, divisor, value // divisor)


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or a bare integer) into an exact rational.

    Malformed text and a zero denominator both raise ValueError.
    """
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None
