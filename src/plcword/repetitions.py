"""Repetition structures in finite words.

Detects overlaps u X u X u (u a letter), fractional squares v^r v[:f], the
complement variant v v~ v[:f] over a digit alphabet, and longest
overlap-free subwords.

Fractional and complement squares are read off one kernel,
``_period_runs``: for each shift m it yields the maximal runs [a, b) of
positions j with word[j + m] == image[j].  With image = word these are the
runs of period m, and a position pos in such a run starts a window of
period m and length t = m + b - pos.  With image the digitwise complement
of word, a position pos with pos + m < b starts v v~ v[:f] with
v = word[pos:pos+m] and f = min(m, b - pos - m).  ``_run_squares`` and
``_run_complement_squares`` turn one run into its occurrences, in
position order; the finders flatten them, and the certificate scan in
``witness`` reads each run only as far as its scores reach the target.
The finders cost O(n^2) letter comparisons plus the letters they output.

Along a run the windows of consecutive positions are rotations of each
other, and gcd(p**m - 1, value(v)) is invariant under rotation of v
(rotating multiplies the value by a power of p modulo p**m - 1), so one
gcd serves a whole run.

``first_overlap`` (behind ``is_overlap_free``) finds the leftmost overlap
of the smallest period without a scan per period.  An overlap of period m
is a run of at least m + 1 positions with word[i] == word[i + m], so it
contains a sample s, a multiple of m + 1; the run through s is the common
extension of word[s:] and word[s+m:] forward plus that of word[:s] and
word[:s+m] backward.  Both are read for all samples of a block of periods
at once by binary lifting on a ladder of factor ids (level k names every
factor of length 2**k), the longest-common-extension view of Main and
Lorentz (1984) and Kolpakov and Kucherov (1999).  There are about n ln 2
samples per doubling block of periods, so an overlap-free word costs
O(n log^2 n); short periods keep a direct pass each, and the search stops
at the first block with an overlap.  It must stay result-identical to the
per-period scan kept as an oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .words import complement

__all__ = [
    "RepetitionOccurrence",
    "OverlapOccurrence",
    "ComplementOccurrence",
    "SubwordSpan",
    "find_overlaps",
    "first_overlap",
    "is_overlap_free",
    "find_fractional_squares",
    "find_complement_squares",
    "longest_overlap_free_subword",
]


@dataclass(frozen=True)
class RepetitionOccurrence:
    """A located v^r v[:f] with r whole copies and a proper fractional tail.

    Stored normalised: 0 <= frac_len < |period_word|, extra whole copies go
    into whole_repeats.  The exponent is whole_repeats + frac_len/|v|.
    """

    position: int
    period_word: str
    whole_repeats: int
    frac_len: int

    @property
    def period(self) -> int:
        return len(self.period_word)

    @property
    def window_len(self) -> int:
        return self.whole_repeats * len(self.period_word) + self.frac_len

    def pattern(self) -> str:
        return self.period_word * self.whole_repeats + self.period_word[: self.frac_len]

    def matches(self, word: str) -> bool:
        end = self.position + self.window_len
        return end <= len(word) and word[self.position : end] == self.pattern()

    def to_json(self) -> dict:
        return {
            "pos": self.position,
            "period": self.period_word,
            "repeats": self.whole_repeats,
            "frac_len": self.frac_len,
        }


@dataclass(frozen=True)
class OverlapOccurrence:
    """A located u X u X u with u a single letter."""

    position: int
    u: str
    x: str

    def pattern(self) -> str:
        return self.u + self.x + self.u + self.x + self.u

    def matches(self, word: str) -> bool:
        end = self.position + 2 * len(self.x) + 3
        return end <= len(word) and word[self.position : end] == self.pattern()

    def to_json(self) -> dict:
        return {"pos": self.position, "u": self.u, "x": self.x}


@dataclass(frozen=True)
class ComplementOccurrence:
    """A located v v~ v[:f] where v~ is the digitwise complement of v.

    Unlike a plain repetition the fractional part may reach the full period
    (f <= |v|); the window is v followed by its complement followed by the
    first f letters of v.
    """

    position: int
    period_word: str
    frac_len: int

    def pattern(self, base: int) -> str:
        v = self.period_word
        return v + complement(v, base) + v[: self.frac_len]

    def to_json(self) -> dict:
        return {
            "pos": self.position,
            "period": self.period_word,
            "repeats": 1,
            "frac_len": self.frac_len,
            "complement": True,
        }


class SubwordSpan(NamedTuple):
    position: int
    length: int


def find_overlaps(word: str, limit: int | None = None) -> list[OverlapOccurrence]:
    """All overlaps, in left-to-right then shortest-X order, up to ``limit``.

    Empty result iff the word is overlap-free.  A limit must be positive.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    n = len(word)
    found: list[OverlapOccurrence] = []
    for pos in range(n):
        max_xlen = (n - pos - 3) // 2
        for xlen in range(max_xlen + 1):
            u = word[pos]
            if word[pos + xlen + 1] != u or word[pos + 2 * xlen + 2] != u:
                continue
            if word[pos + 1 : pos + xlen + 1] == word[pos + xlen + 2 : pos + 2 * xlen + 2]:
                found.append(OverlapOccurrence(pos, u, word[pos + 1 : pos + xlen + 1]))
                if limit is not None and len(found) >= limit:
                    return found
    return found


# Periods below this are scanned one pass each: for short periods that is
# cheaper than a block of sampled extensions (measured at n = 2^13 to 2^15).
_DIRECT_PERIODS = 32


def first_overlap(word: str) -> OverlapOccurrence | None:
    """One overlap occurrence, or None when the word is overlap-free.

    Returns the leftmost occurrence of the smallest period.  An overlap with
    period m is a run of m+1 consecutive positions i with word[i] ==
    word[i+m].  Periods below ``_DIRECT_PERIODS`` are scanned one at a
    time; longer ones go in doubling blocks [lo, 2 lo) through
    ``_block_overlap``, and the search stops at the first block with an
    overlap.  O(n log^2 n) for an overlap-free word.
    """
    n = len(word)
    if n < 3:
        return None
    top = (n - 1) // 2
    letters = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
    for m in range(1, min(top, _DIRECT_PERIODS - 1) + 1):
        i = _first_long_run(letters, m)
        if i >= 0:
            return OverlapOccurrence(i, word[i], word[i + 1 : i + m])
    ladder = _ClassLadder(letters)
    lo = _DIRECT_PERIODS
    while lo <= top:
        hi = min(2 * lo, top + 1)
        hit = _block_overlap(ladder, n, lo, hi)
        if hit is not None:
            i, m = hit
            return OverlapOccurrence(i, word[i], word[i + 1 : i + m])
        lo = hi
    return None


def _first_long_run(letters: np.ndarray, m: int) -> int:
    """Start of the first run of at least m+1 positions i with
    letters[i] == letters[i+m], or -1."""
    n = len(letters)
    eq = letters[: n - m] == letters[m:]
    padded = np.empty(len(eq) + 2, dtype=bool)
    padded[0] = padded[-1] = False
    padded[1:-1] = eq
    delta = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(delta == 1)
    ends = np.flatnonzero(delta == -1)
    hits = np.flatnonzero(ends - starts >= m + 1)
    return int(starts[hits[0]]) if hits.size else -1


class _ClassLadder:
    """Level k holds an id per factor word[i:i+2**k]; two ids of one level
    are equal exactly when the factors are.  Levels are built on first use,
    each by ``np.unique`` on the packed id pairs of the level below."""

    def __init__(self, letters: np.ndarray):
        self._levels = [letters]
        self._dtype = np.min_scalar_type(len(letters))

    def level(self, k: int) -> np.ndarray:
        levels = self._levels
        while len(levels) <= k:
            half = 1 << (len(levels) - 1)
            prev = levels[-1]
            base = int(prev.max()) + 1
            keys = prev[:-half].astype(np.min_scalar_type(base * base)) * base + prev[half:]
            levels.append(np.unique(keys, return_inverse=True)[1].astype(self._dtype))
        return levels[k]

    def common(
        self, x: np.ndarray, y: np.ndarray, limit: np.ndarray, backward: bool
    ) -> np.ndarray:
        """Per pair, min(limit, the longest common prefix of word[x:] and
        word[y:]), or with ``backward`` of the common suffix of word[:x] and
        word[:y]; by binary lifting, one level per step.  The limit must
        keep every compared factor inside the word."""
        length = np.zeros_like(limit)
        for k in range(int(limit.max()).bit_length() - 1, -1, -1):
            ids = self.level(k)
            step = 1 << k
            fits = limit - length >= step
            if backward:
                i, j = x - length - step, y - length - step
            else:
                i, j = x + length, y + length
            i *= fits
            j *= fits
            fits &= ids[i] == ids[j]
            length[fits] += step
        return length


def _block_overlap(
    ladder: _ClassLadder, n: int, lo: int, hi: int
) -> tuple[int, int] | None:
    """(position, period) of the leftmost overlap of the smallest period in
    [lo, hi), or None.

    A run of m+1 positions contains a sample s, a multiple of m+1.  For every
    period and sample, R = lcp(word[s:], word[s+m:]) and L = lcs(word[:s],
    word[:s+m]), both capped at m+1, measure the run of period m through s
    (or ending at s-1); L + R >= m+1 is an overlap at s - L.  The sample in
    the leftmost run has L <= m, so the least s - L is exact despite the caps.
    """
    ladder.level(hi.bit_length() - 1)  # before the pair arrays: lower peak memory
    spans = np.arange(lo + 1, hi + 1, dtype=np.int32)  # m + 1
    counts = n // spans
    span = np.repeat(spans, counts)
    first = np.cumsum(counts, dtype=np.int32) - counts
    s = (np.arange(len(span), dtype=np.int32) - np.repeat(first, counts)) * span
    t = s + span - 1
    right = ladder.common(s, t, np.minimum(span, n - t), backward=False)
    left = ladder.common(s, t, np.minimum(span, s), backward=True)
    hits = np.flatnonzero(left + right >= span)
    if not hits.size:
        return None
    hits = hits[span[hits] == span[hits[0]]]
    return int((s[hits] - left[hits]).min()), int(span[hits[0]]) - 1


def is_overlap_free(word: str) -> bool:
    """True iff the word contains no subword u X u X u."""
    return first_overlap(word) is None


def _period_runs(word: str, image: str) -> Iterator[tuple[int, int, int]]:
    """Maximal runs (m, a, b) with word[j + m] == image[j] for a <= j < b.

    Shifts m run from 1 to len(word) - 1 and, within one shift, runs come
    in increasing order of a.  ``image`` has the length of ``word``.
    """
    n = len(word)
    for m in range(1, n):
        start = -1
        for j in range(n - m):
            if word[j + m] == image[j]:
                if start < 0:
                    start = j
            elif start >= 0:
                yield m, start, j
                start = -1
        if start >= 0:
            yield m, start, n - m


def _run_squares(
    word: str, m: int, a: int, b: int, min_repeats: int
) -> Iterator[RepetitionOccurrence]:
    """The occurrences of period m along the run [a, b), by position.

    The window at pos has t = m + b - pos letters, at least min_repeats
    whole copies; windows of whole copies only (t % m == 0) are skipped.
    """
    for pos in range(a, min(b - 1, b - (min_repeats - 1) * m) + 1):
        repeats, frac = divmod(m + b - pos, m)
        if frac:
            yield RepetitionOccurrence(pos, word[pos : pos + m], repeats, frac)


def _run_complement_squares(
    word: str, m: int, a: int, b: int
) -> Iterator[ComplementOccurrence]:
    """The occurrences v v~ v[:f] along the complement run [a, b), by position.

    f = min(m, b - pos - m) is at least 1 and never rises along the run.
    """
    for pos in range(a, b - m):
        yield ComplementOccurrence(pos, word[pos : pos + m], min(m, b - pos - m))


def find_fractional_squares(
    word: str, min_frac: int, squares: int
) -> list[RepetitionOccurrence]:
    """Fractional square occurrences, ordered by position then period.

    With squares=3 only occurrences with at least two whole copies are
    reported; with squares=2 one copy suffices.  For each (position, period)
    the extension is maximal, and the fractional length after normalisation
    must reach ``min_frac``.
    """
    if min_frac < 1:
        raise ValueError("min_frac must be at least 1")
    if squares not in (2, 3):
        raise ValueError("squares must be 2 or 3")
    min_repeats = 2 if squares == 3 else 1
    by_position: list[list[RepetitionOccurrence]] = [[] for _ in word]
    for m, a, b in _period_runs(word, word):
        for occ in _run_squares(word, m, a, b, min_repeats):
            if occ.frac_len >= min_frac:
                by_position[occ.position].append(occ)
    return [occ for occs in by_position for occ in occs]


def find_complement_squares(
    word: str, base: int, min_frac: int
) -> list[ComplementOccurrence]:
    """Occurrences of v v~ v[:f] with f >= min_frac, by position then period."""
    if min_frac < 1:
        raise ValueError("min_frac must be at least 1")
    image = complement(word, base)
    by_position: list[list[ComplementOccurrence]] = [[] for _ in word]
    for m, a, b in _period_runs(word, image):
        for occ in _run_complement_squares(word, m, a, b):
            if occ.frac_len < min_frac:
                break
            by_position[occ.position].append(occ)
    return [occ for occs in by_position for occ in occs]


def longest_overlap_free_subword(word: str) -> SubwordSpan:
    """The leftmost longest contiguous overlap-free subword.

    Sliding window: overlap-freeness is closed under taking subwords, so the
    right end moves once per letter and the left end only ever advances past
    the start of an overlap that would end at the new letter.
    """
    n = len(word)
    if n == 0:
        return SubwordSpan(0, 0)
    best_pos, best_len = 0, 1
    left = 0
    for right in range(n):
        cut = -1
        for m in range(1, (right - left) // 2 + 1):
            start = right - 2 * m
            if start < left:
                break
            if all(word[j] == word[j + m] for j in range(start, right - m + 1)):
                cut = max(cut, start)
        if cut >= 0:
            left = cut + 1
        if right - left + 1 > best_len:
            best_pos, best_len = left, right - left + 1
    return SubwordSpan(best_pos, best_len)
