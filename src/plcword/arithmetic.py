"""Exact rational arithmetic attached to digit words in a fixed base.

All values are ``fractions.Fraction`` (always reduced, positive
denominator); nothing here touches floating point.  Rationals serialise as
"num/den" strings in JSON outputs.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from .words import _require_base, _require_digits, complement

__all__ = [
    "word_value",
    "prefix_value",
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
    return _digits_value(word, base)


# the int-to-str digit limit, read at each call; 0 (no limit) before Python 3.10.7
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _digits_value(word: str, base: int) -> int:
    """``int(word, base)`` of a non-empty word of checked digits, any length.

    ``int`` refuses more digits than ``sys.get_int_max_str_digits()`` (4,300
    by default; 0 is no limit) in a base that is not a power of two, so a
    longer word in such a base is split in halves, each converted alike: its
    value is high * base**len(low) + low.  A power-of-two base and an
    interpreter without the limit never split.
    """
    limit = _max_str_digits()
    if not limit or len(word) <= limit or not base & (base - 1):
        return int(word, base)
    half = len(word) // 2
    high, low = word[:half], word[half:]
    return _digits_value(high, base) * base ** len(low) + _digits_value(low, base)


def prefix_value(word: str, base: int) -> Fraction:
    """Value of the terminating expansion 0.word; every infinite extension
    lies in [prefix_value, prefix_value + base**-len(word)]."""
    _require_digits(word, base)
    if not word:
        return Fraction(0)
    return Fraction(_digits_value(word, base), base ** len(word))


class GcdBound(NamedTuple):
    """Denominator data of a period word: base**m - 1 = d * q_max and
    base**(ell-1) <= q_max <= base**ell (ell = 1 when q_max = 1)."""

    m: int
    d: int
    q_max: int
    ell: int


def gcd_bound(word: str, base: int) -> GcdBound:
    """Gcd denominator bound of a period word, with the smallest valid ell."""
    return _gcd_bound(word_value(word, base), len(word), base)


def _gcd_bound(value: int, m: int, base: int) -> GcdBound:
    """``gcd_bound`` of the period word of m letters whose value is given."""
    full = base**m - 1
    d = math.gcd(full, value)
    q_max = full // d
    return GcdBound(m, d, q_max, _least_ell(q_max, base))


def _least_ell(x: int, base: int) -> int:
    """The least ell >= 1 with base**ell >= x, for x >= 1.

    With bits = (x - 1).bit_length(), 2**k >= x exactly when k >= bits,
    which answers a base 2**t at once.  For another base, base**ell >= x >
    2**(bits - 1) and log2(base) < B / 64, with B = (base**64).bit_length(),
    give ell > 64 * (bits - 1) / B; exact products step up from that floor,
    at most about 64 * bits / B**2 + 2 of them.
    """
    bits = (x - 1).bit_length()
    t = base.bit_length() - 1
    if base == 1 << t:
        return -(-bits // t) or 1
    ell = max(1, 64 * (bits - 1) // (base**64).bit_length())
    power = base**ell
    while power < x:
        power *= base
        ell += 1
    return ell


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
    """"num/den" in lowest terms.  ``Decimal`` prints ints of any length,
    where ``str`` refuses more than ``sys.get_int_max_str_digits()``."""
    x = Fraction(x)
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


# what Fraction(str) reads in Python 3.11; \d is any Unicode decimal digit
_RATIONAL = re.compile(
    r"\s*[-+]?(?=\.?\d)(\d+(_\d+)*)?(/\d+(_\d+)*|(\.(\d+(_\d+)*)?)?(e(?P<exp>[-+]?\d+(_\d+)*))?)\s*",
    re.I,
)
# The largest exponent magnitude read: 10**100000 takes about 8 ms, and
# each tenfold step costs more than tenfold time.
_MAX_EXPONENT = 100_000


def parse_rational(text: str) -> Fraction:
    """Parse "num/den", an integer or a decimal such as "-1.5e3" exactly.

    Reads what ``Fraction(str)`` reads, through ``Decimal``, whose parts may
    pass the int-to-str digit limit, except exponents past ``_MAX_EXPONENT``
    in size.  Those, bad text and a zero denominator raise ValueError.
    """
    match = _RATIONAL.fullmatch(text)
    if not match:
        raise ValueError(f"invalid rational {text!r}")
    if match["exp"] and abs(int(match["exp"])) > _MAX_EXPONENT:
        raise ValueError(f"rational {text!r} has an exponent past {_MAX_EXPONENT}")
    num, _, den = text.partition("/")
    denominator = int(Decimal(den or 1))
    if not denominator:
        raise ValueError(f"rational {text!r} has a zero denominator")
    return Fraction(Decimal(num)) / denominator
