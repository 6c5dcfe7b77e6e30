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

A certificate is one flat record, (p, kind, k, q, period, repeats,
frac_len, s), whose fields are the first keys of its JSON object, and
``_certificate`` is the one place that works q and s out.  The scan builds
each certificate straight from a run that one comparison has checked;
``certificate_from_occurrence`` checks a single window instead.

Verification trusts no number in a certificate: ``from_json`` works q, s
and the bound out again from p, kind and the window.  A certificate list
shares one dict that holds a gcd bound per distinct p and period word and,
beside it, each checked window, so the list works q, s and the bound out
once per distinct window (p, kind, period, repeats, frac_len).  Re-reading
the window from a prefix is then enough, because the inequality holds for
every real number whose expansion extends that prefix.
``brute_force_min`` is the independent cross-check: an exact interval
minimisation of the functional over small q and k that knows nothing about
periods or gcds.  It searches with integers; ``enclosure`` is the exact
range at one pair.  A uint64 fixed-point prefilter encloses every
candidate's upper end between two integers, in numpy blocks of q, and only
the q whose lower end does not exceed the least upper end reach the exact
test; the winning pair and its ties always do, so the result is exact and
usually one q per k is tested.

numpy is imported inside the functions that use it, the prefilter and the
scan's run cut, so ``PlcCertificate.from_json``, ``verify_certificate``
and ``enclosure`` never load it.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .arithmetic import GcdBound, _digits_value, _gcd_bound, gcd_bound, word_value
from .repetitions import RepetitionOccurrence, _period_runs
from .words import _require_base, complement

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PlcCertificate",
    "BruteForceResult",
    "certificate_from_occurrence",
    "verify_certificate",
    "brute_force_min",
    "enclosure",
    "scan_and_certify",
]

KIND_SQUARE3 = "square3"
KIND_GCD = "gcd"


class PlcCertificate(NamedTuple):
    """A verified-window approximation certificate: the window
    period * repeats + period[:frac_len] read at position k.

    Whenever a digit word begins with k arbitrary digits followed by that
    window, every real x extending it satisfies q * ||q p^k x|| < bound =
    p**-s.  q and s are functions of p, kind and the window, worked out only
    by ``_certificate``.  The fields are the first keys of ``to_json``, in
    order.
    """

    p: int
    kind: str
    k: int
    q: int
    period: str
    repeats: int
    frac_len: int
    s: int

    @property
    def bound(self) -> Fraction:
        return Fraction(self.p) ** -self.s

    @property
    def vacuous(self) -> bool:
        return self.s <= 0

    @property
    def window_len(self) -> int:
        return self.repeats * len(self.period) + self.frac_len

    def to_json(self) -> dict:
        return dict(zip(_CERT_KEYS, self._row(_bound_text(self.p, self.s))))

    def _row(self, bound_text: str) -> tuple:
        """The values of ``to_json``, in the order of ``_CERT_KEYS``, with the
        text of p**-s given."""
        return (*self, bound_text, self.s <= 0)

    @classmethod
    def from_json(cls, data: dict, bounds: dict | None = None) -> "PlcCertificate":
        """Rebuild a ``to_json`` certificate from its window; trust no number.

        p, kind and the window are read (checked for the shape slicing
        needs), the certificate is worked out again, and every key of its
        ``to_json`` must be present with the same value and type.  Anything
        else raises ValueError naming the field.

        ``bounds``, a dict kept over one certificate list, maps (p, period)
        to the ``gcd_bound`` of that word and a dict of its checked windows,
        so the list takes one gcd per distinct period word.  An entry is
        stored only once ``gcd_bound`` has returned, that is once it has
        checked the base and the digits.  The window dict maps (kind,
        repeats, frac_len) to q, s and the bound text of a certificate that
        passed every check: q and s depend on nothing else, so the list
        works out each distinct window once, and a later certificate of it
        is compared with that record at its own k.
        """
        if not isinstance(data, dict):
            raise ValueError("a certificate must be a JSON object")
        if bounds is None:
            bounds = {}
        # the fields are read and checked in a fixed order, which fixes the
        # error a malformed certificate raises; only data[key] raises KeyError
        try:
            p, k, repeats, frac_len = data["p"], data["k"], data["repeats"], data["frac_len"]
            if not type(p) is type(k) is type(repeats) is type(frac_len) is int:
                raise ValueError("certificate p, k, repeats and frac_len must be integers")
            if k < 0:
                raise ValueError(f"certificate k must be non-negative, got {k}")
            period = data["period"]
            if not isinstance(period, str):
                raise ValueError("certificate period must be a digit string")
            if not 0 <= frac_len < len(period):
                raise ValueError(f"frac_len must lie in [0, {len(period)}), got {frac_len}")
            kind = data["kind"]
            _require_rule(kind, repeats)  # before the gcd
            entry = bounds.get((p, period))
            if entry is None:
                entry = bounds[p, period] = gcd_bound(period, p), {}
            bound, windows = entry
            window = kind, repeats, frac_len
            known = windows.get(window)
            if known is None:
                cert = _certificate(p, kind, k, period, repeats, frac_len, bound)
                q, s, text = cert.q, cert.s, None
            else:
                q, s, text = known
                cert = cls(p, kind, k, q, period, repeats, frac_len, s)
            # p**s has more than s/4 digits, so a shorter claim cannot match;
            # checked before p is raised to an s that a forged repeats can make huge
            if s > 4 * len(str(data["bound"])):
                raise ValueError(f"certificate field 'bound' is shorter than {p}**-{s}")
            text = text or _bound_text(p, s)
            rebuilt, claims = cert._row(text), tuple(data.values())
            same_types = tuple(map(type, claims)) == tuple(map(type, rebuilt))
            if tuple(data) != _CERT_KEYS or claims != rebuilt or not same_types:
                # name the field; data may also hold extra keys, or its own key order
                for key, value in zip(_CERT_KEYS, rebuilt):
                    claim = data[key]
                    if type(claim) is not type(value) or claim != value:
                        raise ValueError(
                            f"certificate field {key!r} is {claim!r}, its window gives {value!r}"
                        )
        except KeyError as missing:
            raise ValueError(f"certificate is missing field {missing.args[0]!r}") from None
        windows[window] = q, s, text
        return cert


# the keys of a certificate's JSON object, in order
_CERT_KEYS = (*PlcCertificate._fields, "bound", "vacuous")


def _bound_text(p: int, s: int) -> str:
    """``format_rational(Fraction(p) ** -s)`` without the ``Fraction``:
    p**-s is already in lowest terms."""
    if s >= 0:
        return "1/" + str(Decimal(p**s))
    return str(Decimal(p**-s)) + "/1"


def _require_rule(kind: str, repeats: int) -> None:
    """Raise unless kind is a score rule and the window has the copies it needs."""
    if kind not in (KIND_SQUARE3, KIND_GCD):
        raise ValueError(f"unknown certificate kind {kind!r}")
    least = 2 if kind == KIND_SQUARE3 else 1
    if repeats < least:
        raise ValueError(f"{kind} certificates need repeats >= {least}")


def _certificate(
    p: int, kind: str, k: int, period: str, r: int, f: int, bound: GcdBound | None = None
) -> PlcCertificate:
    """The certificate of the window period * r + period[:f] at k: q and s
    from its period, copies and tail.

    See the module docstring for the two score rules.  An all-zero period
    gives gcd = p**m - 1 and q = 1, the certificate of an exactly rational
    tail.  ``bound``, when given, must be the ``gcd_bound`` of a rotation of
    the period: gcd(p**m - 1, value(v)) is the same for every rotation of v.
    A kind read from outside the program is checked by ``_require_rule``
    first; the scan passes only its own two kinds, with the copies each needs.
    """
    if bound is None:
        bound = gcd_bound(period, p)
    _, _, q, ell = bound
    m = len(period)
    s = m * (r - 2) + f if kind == KIND_SQUARE3 else m * (r - 1) + f - 2 * ell
    return PlcCertificate(p, kind, k, q, period, r, f, s)


def certificate_from_occurrence(
    word: str, occ: RepetitionOccurrence, base: int, kind: str
) -> PlcCertificate:
    """Build a certificate from a genuine occurrence (re-verified in word)."""
    if not occ.matches(word):
        raise ValueError("occurrence does not match the word")
    _require_rule(kind, occ.whole_repeats)
    return _certificate(base, kind, *occ)


def verify_certificate(prefix: str, cert: PlcCertificate, base: int) -> bool:
    """Whether the certificate window matches the prefix digit for digit.

    Needs k + window letters.  No numeric error analysis is involved: when
    the window matches, the bound holds for every continuation of the
    prefix, so digits after the window can never change the outcome.
    """
    p, _, k, _, period, repeats, frac_len, _ = cert
    if base != p:
        raise ValueError(f"certificate is for base {p}, got {base}")
    required = k + repeats * len(period) + frac_len
    if len(prefix) < required:
        raise ValueError(f"need {required} letters, prefix has {len(prefix)}")
    return prefix[k:required] == period * repeats + period[:frac_len]


class BruteForceResult(NamedTuple):
    q: int
    k: int
    value_lo: Fraction
    value_hi: Fraction


def _dist_interval(a: int, b: int, den: int) -> tuple[int, int]:
    """Exact range of ||y|| for y in [a/den, b/den], a <= b, as the two
    integer numerators over 2 den."""
    ra, rb = a % den, b % den
    # an integer in [a, b] / den gives lo = 0, and a half-integer hi = 1/2
    lo = 0 if a // den != b // den else 2 * min(ra, den - rb)
    if (den - 2 * ra) % (2 * den) <= 2 * (b - a):  # an odd multiple of den in [2a, 2b]
        return lo, den
    return lo, 2 * max(min(ra, den - ra), min(rb, den - rb))


def enclosure(prefix: str, base: int, q: int, k: int) -> tuple[Fraction, Fraction]:
    """Exact range (lo, hi) of q * ||q p^k x|| over every x extending prefix.

    Such x fill [v, v + 1] / p**len with v the prefix's value, so q p^k x
    fills [q v, q v + q] / p**(len-k) and only v mod p**(len-k) matters;
    once k >= len that interval has length >= 1 and the range is [0, q/2].
    """
    _require_base(base)
    if q < 1:
        raise ValueError("q must be at least 1")
    if k < 0:
        raise ValueError("k must be non-negative")
    value = word_value(prefix, base) if prefix else 0
    den = base ** max(len(prefix) - k, 0)
    a = q * (value % den)
    lo, hi = _dist_interval(a, a + q, den)
    return Fraction(q * lo, 2 * den), Fraction(q * hi, 2 * den)


# q per numpy block in ``_fixed_point_bounds``, so the prefilter's memory stays flat.
_Q_BLOCK = 4096


def _fixed_point_bounds(
    shifted: int, den: int, max_q: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Blocks (q, lo, hi) of uint64 arrays over q = 1 .. max_q < 2**63 with
    lo <= q F U_q <= hi, where F = 2**(63 - max_q.bit_length()), U_q is the
    largest ||y|| for y in [r, r + q] / den and r = q shifted mod den.

    With alpha = floor(F shifted / den), U = q alpha mod F lies within q
    below F * (q shifted / den mod 1), so d = min(U, F - U) is within q of
    F ||r / den||.  U_q is at least ||r / den|| and at least half the
    interval's length (capped at 1/2), and at most ||r / den|| + q / den
    (capped at 1/2).  Every product stays below 2**63, as q F < 2**63.
    """
    import numpy as np

    bits = 63 - max_q.bit_length()
    one = 1 << bits
    alpha = np.uint64((shifted << bits) // den)
    mask, full = np.uint64(one - 1), np.uint64(one)
    # F/2 rounded down for lo and up for hi: F is 1 once max_q >= 2**62
    half, cap = np.uint64(one // 2), np.uint64((one + 1) // 2)
    # F / den, clamped before the product: any step past F/2 is capped anyway
    step = np.uint64(min(one // den + 1, (one + 1) // 2))
    width = np.uint64(one // (2 * den))
    for start in range(1, max_q + 1, _Q_BLOCK):
        q = np.arange(start, min(start + _Q_BLOCK, max_q + 1), dtype=np.uint64)
        u = (q * alpha) & mask  # wraps mod 2**64, a multiple of F
        d = np.minimum(u, full - u)
        lo = q * np.maximum(np.maximum(d, q) - q, np.minimum(q * width, half))
        hi = q * np.minimum(cap, d + q + q * step)
        yield q, lo, hi


def _candidate_qs(shifted: int, den: int, max_q: int) -> Iterator[int]:
    """Increasing q in [1, max_q] whose lower bound is at most every upper
    bound so far: the first q with the least q U_q and every q tying it."""
    import numpy as np

    bound = 1 << 63  # above every hi
    for q, lo, hi in _fixed_point_bounds(shifted, den, max_q):
        bound = min(bound, int(hi.min()))
        yield from q[lo <= np.uint64(bound)].tolist()


def brute_force_min(
    prefix: str, base: int, max_q: int, max_k: int
) -> BruteForceResult:
    """Exact interval minimisation of q * ||q p^k x|| over small q and k.

    Reports the pair whose ``enclosure`` has the least upper end, ties
    broken by smaller k then smaller q.  With den = p**(len-k), that end
    is q H / (2 den) for the integer H that ``_dist_interval`` gives on
    [q v, q v + q], so only the winning pair becomes a ``Fraction``.

    For each k, a fixed-point prefilter (``_candidate_qs``) first encloses
    every q's upper end between integer bounds, a block of q at a time in
    numpy, and keeps only the q whose lower bound is at most the least
    upper bound so far.  The first minimiser and every q tying it always
    pass, so the exact test, run on the kept q in increasing order, picks
    the same pair as a test of every q; usually one q per k is kept.
    """
    _require_base(base)
    if max_q < 1:
        raise ValueError("max_q must be at least 1")
    if max_q >= 1 << 63:
        raise ValueError("max_q must be below 2**63")
    if max_k < 0:
        raise ValueError("max_k must be non-negative")
    length = len(prefix)
    value = word_value(prefix, base) if prefix else 0
    best_top, best_den, best_q, best_k = 1, 0, 0, 0  # q H / den = +infinity
    # every k >= len gives the same enclosures, and ties keep the smaller k
    for k in range(min(max_k, length) + 1):
        den = base ** (length - k)
        shifted = value % den
        top, arg = max_q * den + 1, 0
        for q in _candidate_qs(shifted, den, max_q):
            qh = q * _dist_interval(q * shifted, q * shifted + q, den)[1]
            if qh < top:
                top, arg = qh, q
        if top * best_den < best_top * den:
            best_top, best_den, best_q, best_k = top, den, arg, k
    lo, hi = enclosure(prefix, base, best_q, best_k)
    return BruteForceResult(q=best_q, k=best_k, value_lo=lo, value_hi=hi)


def _ell_floors(n: int, base: int) -> np.ndarray:
    """``_least_ell(m + 1, base)`` for 0 <= m < n, as an int64 array.

    Entry m, F(m), is a gcd-free lower bound on ``gcd_bound(v, base).ell``
    for a primitive period v of m letters: the reduced denominator q of
    0.(v) has ord_q(base) = m, and m < q unless q = m = 1, so base**ell >= q
    > m or ell >= 1 = m.  It is one more than the number of powers base**1,
    base**2, ... at most m.
    """
    import numpy as np

    powers = [base]
    while powers[-1] < n:
        powers.append(powers[-1] * base)
    return np.searchsorted(np.array(powers, dtype=np.int64), np.arange(n), side="right") + 1


def _plain_runs(prefix: str, base: int, target_s: int) -> Iterator[tuple[int, int, int]]:
    """The runs (m, a, b) of period m > 1 in prefix that may keep a window
    at target_s: those with a square3 window (b - a >= m + max(target_s,
    0)) and those whose longest gcd window, of score b - a - 2 ell, reaches
    target_s with ell at the gcd-free floor of its period word.

    The kernel cut keeps the runs that pass with F(m) (``_ell_floors``),
    the floor of a primitive period of m letters.  A run whose period word
    is a proper power u**j has the lower floor F(c), c = |u|, so the cut may
    drop it.  Its stretch prefix[a:b + m] has period c, so it is also the
    stretch of the run (c, a, b + m - c), its root run; and from any run
    (c, a, b) with b - a > c, every multiple m of c below its stretch's
    length has the maximal run (m, a, b + c - m) (a letter extending it
    would extend the run of period c as well).  The kernel yields shifts in
    increasing order, so the first run with b - a > c to span a stretch is
    its root, and the multiples the cut dropped are listed from it, once
    each, when they pass with F(c).  Such a power has b - a >= target_s + 2,
    so its root has at least c + max(target_s, 0) positions and passes the
    cut.  The root's word is primitive: the stretch has more than 2c
    letters, so by Fine and Wilf (1965) its least period d divides c; the
    run of period d spans the same stretch, passes the cut whenever the run
    of period c does, and comes first.  A period of one letter has no
    window, since every window of it is whole copies, so its runs are only
    roots.  A run whose period word is v v~ and that holds a v v~ v window
    (score h - 2 ell, h = |v|) is yielded, since its longest gcd window
    scores b - a - 2 ell > h - 2 ell.
    """
    import numpy as np

    # reach[m]: the least b - a whose longest gcd window reaches target_s at F(m)
    reach = target_s + 2 * _ell_floors(len(prefix), base)
    cuts = np.minimum(np.arange(len(prefix)) + max(target_s, 0), reach)
    listed = set()
    for c, a, b in _period_runs(prefix, prefix, lambda m: cuts[m]):
        if c > 1:
            yield c, a, b
        end = b + c
        if b - a > c and (a, end) not in listed:
            listed.add((a, end))
            for m in range(2 * c, end - a, c):
                if reach[c] <= end - m - a < cuts[m]:
                    yield m, a, end - m


def scan_and_certify(prefix: str, base: int, target_s: int) -> list[PlcCertificate]:
    """Scan a digit prefix for repetitions; return certificates with s >= target_s.

    Every window lies inside the prefix, so each certificate holds for every
    x whose base-p expansion extends it; an empty prefix gives none.  Builds
    gcd-kind certificates from every fractional square and every complement
    square, square3-kind certificates where two whole copies are present,
    and sorts by decreasing score (then position, period, kind).

    Works run by run (see ``repetitions``).  The period words along a run
    are rotations of each other and share one ``gcd_bound``, and each
    window's score falls with its position, so the kept windows of a run
    are one range of positions worked out from the run's end.  Which runs
    can keep a window is decided once, in ``_plain_runs``, and each run it
    yields takes one gcd and one comparison of its stretch with itself
    shifted by the period, which covers every window it yields, so no
    window is read again.  A run that fails it is a fault of the kernel,
    raised as AssertionError.

    Complement squares need no pass of their own.  A complement run
    (h, a, b + h), with prefix[j + h] the complement of prefix[j] for
    a <= j < b + h and b > a, is the plain run (2h, a, b) whose period word
    v v~ has prefix[a + h:a + 2h] equal to the complement of v =
    prefix[a:a + h]: applying the relation twice gives period 2h, and a
    letter extending either run would extend the other.  Its complement
    window at pos has the tail f = min(h, b - pos); for pos >= b - h that is
    the plain gcd window at pos, and only v v~ v at pos < b - h, of 3h
    letters and score h - 2 ell, is new.  The run's longest gcd window
    scores b - a - 2 ell, more than that, so ``_plain_runs`` yields every
    run that holds one.  So each certificate comes from one run, position
    and kind, and the sort key is unique to it.
    """
    n = len(prefix)
    image = complement(prefix, base)  # validates the digits, once
    # every score lies in (-2n, n): a window has at most n letters and ell
    # at most as many as its period; so the clamp keeps the same
    # certificates, and it keeps the cuts of the kernel within int64
    target_s = min(max(target_s, -2 * n), n)
    # (sort key, certificate) pairs; each key is unique to its certificate
    certs: list[tuple[tuple[int, int, int, str], PlcCertificate]] = []
    # the window at pos has m + b - pos letters, so s = b - pos - 2 ell for
    # gcd and b - pos - m for square3; windows of whole copies are skipped
    for m, a, b in _plain_runs(prefix, base, target_s):
        # every window below lies in prefix[a:b + m], so this checks them all
        if prefix[a + m : b + m] != prefix[a:b]:
            raise AssertionError(f"no run of period {m} spans prefix[{a}:{b + m}]")
        bound = _gcd_bound(_digits_value(prefix[a : a + m], base), m, base)
        plain = range(a, b - max(target_s + 2 * bound.ell, 1) + 1)
        square3 = range(a, b - m - max(target_s, 0) + 1)
        for kind, kept in ((KIND_GCD, plain), (KIND_SQUARE3, square3)):
            for pos in kept:
                r, f = divmod(m + b - pos, m)
                if f:
                    cert = _certificate(base, kind, pos, prefix[pos : pos + m], r, f, bound)
                    certs.append(((-cert.s, pos, m, kind), cert))
        h = m // 2
        # a period word v v~: the windows v v~ v before the run's last h positions
        if not m % 2 and h - 2 * bound.ell >= target_s and prefix[a + h : a + m] == image[a : a + h]:
            for pos in range(a, b - h):
                cert = _certificate(base, KIND_GCD, pos, prefix[pos : pos + m], 1, h, bound)
                certs.append(((-cert.s, pos, m, KIND_GCD), cert))

    certs.sort(key=itemgetter(0))
    return [cert for _, cert in certs]
