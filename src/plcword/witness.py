"""Certificates forcing small values of the functional q * ||q p^k x||.

A repetition window v^r v[:f] starting after k digits of the base-p
expansion of x pins x' = {p^k x} to within p**-(r*m + f) of the rational
r/q whose expansion repeats v forever, where m = |v| and q is the reduced
denominator (p**m - 1) / gcd(p**m - 1, value(v)).  Since q * (r/q) is an
integer,

    q * ||q p^k x|| <= q**2 * |x' - r/q| < q**2 * p**-(r*m + f),

and the right-hand side is below p**-s for an exponent s read off the
window alone:

* kind "square3" (needs r >= 2): q <= p**m - 1 gives s = m*(r-2) + f,
  the length of the window beyond two whole copies;
* kind "gcd" (any r >= 1): q <= p**ell, with ell the power bound of
  ``gcd_bound``, gives s = m*(r-1) + f - 2*ell.

s may be zero or negative, in which case the certificate is valid but
vacuous (its bound is >= 1) and is flagged rather than dropped.

Verification trusts no number in a certificate: ``from_json`` works q, s
and the bound out again from p, kind and the window.  Re-reading the window
from a prefix is then enough, because the inequality holds for every real
number whose expansion extends that prefix.  ``brute_force_min`` is the
independent cross-check: an exact interval minimisation of the functional
over small q and k that knows nothing about periods or gcds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .arithmetic import format_rational, gcd_bound, word_value
from .repetitions import (
    ComplementOccurrence,
    RepetitionOccurrence,
    _period_runs,
    _run_complement_squares,
    _run_squares,
)
from .words import WordStream, complement

__all__ = [
    "PlcCertificate",
    "PrefixTooShortError",
    "VerificationResult",
    "BruteForceResult",
    "certificate_from_occurrence",
    "verify_certificate",
    "brute_force_min",
    "scan_and_certify",
    "complement_to_gcd_occurrence",
]

KIND_SQUARE3 = "square3"
KIND_GCD = "gcd"


class PrefixTooShortError(ValueError):
    """The digit prefix does not cover the certificate window."""

    def __init__(self, required: int, available: int):
        super().__init__(f"need {required} letters, prefix has {available}")
        self.required = required
        self.available = available


@dataclass(frozen=True)
class PlcCertificate:
    """A verified-window approximation certificate (p, kind, k, q, bound).

    The window is occurrence.pattern() read at position k; whenever a digit
    word begins with k arbitrary digits followed by that window, every real
    x extending it satisfies q * ||q p^k x|| < bound = p**-s.  q and s are
    functions of p, kind and the window, worked out only by ``_certificate``.
    """

    p: int
    kind: str
    occurrence: RepetitionOccurrence
    q: int
    s: int

    @property
    def k(self) -> int:
        return self.occurrence.position

    @property
    def bound(self) -> Fraction:
        return Fraction(self.p) ** -self.s

    @property
    def vacuous(self) -> bool:
        return self.s <= 0

    @property
    def window_len(self) -> int:
        return self.occurrence.window_len

    def to_json(self) -> dict:
        occ = self.occurrence
        return {
            "p": self.p,
            "kind": self.kind,
            "k": self.k,
            "q": self.q,
            "period": occ.period_word,
            "repeats": occ.whole_repeats,
            "frac_len": occ.frac_len,
            "s": self.s,
            "bound": format_rational(self.bound),
            "vacuous": self.vacuous,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PlcCertificate":
        """Rebuild a ``to_json`` certificate from its window; trust no number.

        p, kind and the window are read (checked for the shape slicing
        needs), the certificate is worked out again, and every key of its
        ``to_json`` must be present with the same value and type.  Anything
        else raises ValueError naming the field.
        """
        if not isinstance(data, dict):
            raise ValueError("a certificate must be a JSON object")

        def field(key):
            if key not in data:
                raise ValueError(f"certificate is missing field {key!r}")
            return data[key]

        p, k, repeats, frac_len = map(field, ("p", "k", "repeats", "frac_len"))
        if not all(type(v) is int for v in (p, k, repeats, frac_len)):
            raise ValueError("certificate p, k, repeats and frac_len must be integers")
        if k < 0:
            raise ValueError(f"certificate k must be non-negative, got {k}")
        period = field("period")
        if not isinstance(period, str):
            raise ValueError("certificate period must be a digit string")
        if not 0 <= frac_len < len(period):
            raise ValueError(f"frac_len must lie in [0, {len(period)}), got {frac_len}")
        occ = RepetitionOccurrence(k, period, repeats, frac_len)
        cert = _certificate(p, field("kind"), occ)
        # p**s has more than s/4 digits, so a shorter claim cannot match;
        # checked before p is raised to an s that a forged repeats can make huge
        if cert.s > 4 * len(str(field("bound"))):
            raise ValueError(f"certificate field 'bound' is shorter than {p}**-{cert.s}")
        for key, value in cert.to_json().items():
            claim = field(key)
            if type(claim) is not type(value) or claim != value:
                raise ValueError(
                    f"certificate field {key!r} is {claim!r}, its window gives {value!r}"
                )
        return cert


def _certificate(p: int, kind: str, occ: RepetitionOccurrence) -> PlcCertificate:
    """The certificate of a window: q and s from its period, copies and tail.

    See the module docstring for the two score rules.  An all-zero period
    gives gcd = p**m - 1 and q = 1, the certificate of an exactly rational
    tail.
    """
    if kind not in (KIND_SQUARE3, KIND_GCD):
        raise ValueError(f"unknown certificate kind {kind!r}")
    least = 2 if kind == KIND_SQUARE3 else 1
    if occ.whole_repeats < least:
        raise ValueError(f"{kind} certificates need repeats >= {least}")
    bound = gcd_bound(occ.period_word, p)
    m, r, f = occ.period, occ.whole_repeats, occ.frac_len
    s = m * (r - 2) + f if kind == KIND_SQUARE3 else m * (r - 1) + f - 2 * bound.ell
    return PlcCertificate(p, kind, occ, bound.q_max, s)


def certificate_from_occurrence(
    word: str, occ: RepetitionOccurrence, base: int, kind: str
) -> PlcCertificate:
    """Build a certificate from a genuine occurrence (re-verified in word)."""
    if not occ.matches(word):
        raise ValueError("occurrence does not match the word")
    return _certificate(base, kind, occ)


@dataclass(frozen=True)
class VerificationResult:
    combinatorial_ok: bool
    window_checked: int
    guaranteed_bound: Fraction | None


def verify_certificate(
    prefix: str, cert: PlcCertificate, base: int
) -> VerificationResult:
    """Check the certificate window digit-for-digit against a prefix.

    Needs k + window letters.  No numeric error analysis is involved: when
    the window matches, the bound holds for every continuation of the
    prefix, so digits after the window can never change the outcome.
    """
    if base != cert.p:
        raise ValueError(f"certificate is for base {cert.p}, got {base}")
    window = cert.window_len
    required = cert.k + window
    if len(prefix) < required:
        raise PrefixTooShortError(required, len(prefix))
    ok = prefix[cert.k : required] == cert.occurrence.pattern()
    return VerificationResult(ok, window, cert.bound if ok else None)


@dataclass(frozen=True)
class BruteForceResult:
    q: int
    k: int
    value_lo: Fraction
    value_hi: Fraction


def _dist_interval(a: int, b: int, den: int) -> tuple[Fraction, Fraction]:
    """Exact range of ||y|| for y in [a/den, b/den], a <= b."""
    if b - a >= den:
        return Fraction(0), Fraction(1, 2)
    ra = a % den
    rb = b % den
    if ra == 0 or rb == 0 or a // den != b // den:
        lo = Fraction(0)
    else:
        lo = Fraction(min(ra, den - rb), den)
    # a half-integer in the interval means some odd multiple of den in [2a, 2b]
    c = -((-2 * a) // den)
    f = (2 * b) // den
    if f >= c and (c % 2 == 1 or f > c):
        hi = Fraction(1, 2)
    else:
        hi = Fraction(max(min(ra, den - ra), min(rb, den - rb)), den)
    return lo, hi


def brute_force_min(
    prefix: str, base: int, max_q: int, max_k: int
) -> BruteForceResult:
    """Exact interval minimisation of q * ||q p^k x|| over small q and k.

    x is only known to lie in [prefix_value, prefix_value + p**-len], so
    each candidate gets a closed enclosure; the reported pair minimises the
    upper bound, ties broken by smaller k then smaller q.
    """
    if max_q < 1:
        raise ValueError("max_q must be at least 1")
    if max_k < 0:
        raise ValueError("max_k must be non-negative")
    length = len(prefix)
    value = word_value(prefix, base) if prefix else 0
    best: tuple[Fraction, int, int] | None = None
    best_lo = Fraction(0)
    for k in range(max_k + 1):
        if k >= length:
            shifted, den = 0, 1
        else:
            den = base ** (length - k)
            shifted = value % den
        for q in range(1, max_q + 1):
            a = q * shifted
            lo, hi = _dist_interval(a, a + q, den)
            q_lo, q_hi = q * lo, q * hi
            key = (q_hi, k, q)
            if best is None or key < best:
                best = key
                best_lo = q_lo
    assert best is not None
    return BruteForceResult(q=best[2], k=best[1], value_lo=best_lo, value_hi=best[0])


def complement_to_gcd_occurrence(
    occ: ComplementOccurrence, base: int
) -> RepetitionOccurrence:
    """Recast v v~ v[:f] as one copy of the period u = v v~ plus u[:f].

    Valid because f <= |v|, so v[:f] is also a prefix of u; the complement
    structure then pays off through gcd(p**(2m) - 1, value(u)), which the
    divisibility identity makes at least p**m - 1.
    """
    u = occ.period_word + complement(occ.period_word, base)
    return RepetitionOccurrence(occ.position, u, 1, occ.frac_len)


def _ell_floor(period: str, base: int) -> int:
    """A lower bound on ``gcd_bound(period, base).ell`` without a gcd.

    The reduced denominator q of 0.(period) has ord_q(base) = c, the least
    rotation taking the period to itself, and c < q unless q = c = 1; so
    base**ell >= q > c or ell >= 1 = c.  The bound is rotation-invariant.
    """
    c = (period + period).find(period, 1)
    ell = 1
    while base**ell <= c:
        ell += 1
    return ell


def scan_and_certify(
    stream: WordStream, base: int, depth: int, target_s: int
) -> list[PlcCertificate]:
    """Scan a prefix for repetitions and return certificates with s >= target_s.

    Builds gcd-kind certificates from every fractional square and every
    complement square, square3-kind certificates where two whole copies are
    present, and sorts by decreasing score (then position, period, kind).

    Works run by run (see ``repetitions``).  Along a run s = window_len - c
    with c fixed (2m for square3, m + 2 ell for gcd, since the period words
    are rotations of each other and share one ``gcd_bound``), so the first
    certificate of a run predicts the rest and the kept windows are a
    prefix of the run.  A run whose longest window misses target_s even
    with ell = 1, or with ell at its gcd-free floor ``_ell_floor``, is
    skipped without a gcd.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    prefix = stream.prefix(depth)
    image = complement(prefix, base)  # validates the digits, once
    seen: dict[tuple, PlcCertificate] = {}

    def certify_run(occs: Iterator[RepetitionOccurrence], kind: str) -> None:
        last = None
        for occ in occs:
            if last is not None and last.s - last.window_len + occ.window_len < target_s:
                return
            key = (kind, occ.position, occ.period_word, occ.whole_repeats, occ.frac_len)
            last = seen.get(key) or certificate_from_occurrence(prefix, occ, base, kind)
            if last.s < target_s:
                return
            seen[key] = last

    def may_reach(slack: int, a: int, period_len: int) -> bool:
        # the run's best gcd score is at most slack - 2 ell
        return slack - 2 >= target_s and (
            slack - 2 * _ell_floor(prefix[a : a + period_len], base) >= target_s
        )

    for m, a, b in _period_runs(prefix, prefix):
        # the window at pos = a has m + b - a letters
        if may_reach(b - a, a, m):
            certify_run(_run_squares(prefix, m, a, b, 1), KIND_GCD)
        if b - a - m >= target_s:
            certify_run(_run_squares(prefix, m, a, b, 2), KIND_SQUARE3)

    for m, a, b in _period_runs(prefix, image):
        if may_reach(min(m, b - a - m), a, 2 * m):
            occs = _run_complement_squares(prefix, m, a, b)
            certify_run((complement_to_gcd_occurrence(o, base) for o in occs), KIND_GCD)

    return sorted(
        seen.values(),
        key=lambda c: (-c.s, c.k, c.occurrence.period, c.kind),
    )
