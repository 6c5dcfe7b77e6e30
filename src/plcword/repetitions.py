"""Repetition structures in finite words.

Detects overlaps u X u X u (u a letter), fractional squares v^r v[:f] and the
complement variant v v~ v[:f] over a digit alphabet.

Every finder, and the certificate scan in ``witness``, reads one kernel,
``_period_runs``: for each shift m it yields the maximal runs [a, b) of
positions j with word[j + m] == image[j].  With image = word these are the
runs of period m, and a position pos in such a run starts a window of
period m and length t = m + b - pos; when pos < b - m that window holds
the overlap of period m at pos, which ends at pos + 2m.  With image the
digitwise complement of word, a position pos with pos + m < b starts
v v~ v[:f] with v = word[pos:pos+m] and f = min(m, b - pos - m).  So a
run's occurrences are a range of positions with window lengths read off
b: the finders bucket them by position, and the certificate scan keeps
the range of each run whose scores reach the target.  The finders cost
O(n^2) letter comparisons plus the letters they output.

The kernel is numpy: it compares a block of shifts at once, finds the run
ends with ``np.diff`` and drops the runs shorter than a cut b - a >=
min_len(m) before any of them reaches Python.  Each caller passes the
weakest length every run it uses must have: m + 1 for overlaps (an
overlap of period m needs m + 1 positions), (r - 1) m + f for r whole
copies and an f-letter tail, m + f for complement squares, and in the
certificate scan the least length whose best window can still reach the
target score (with the gcd floor of a primitive period; the scan reads
only plain runs, and ``witness._plain_runs`` lists the runs of
proper-power periods from their root runs).  So a rejected run costs a
few array operations, not a Python iteration.  numpy is imported inside
the functions that use it, ``_period_runs`` and ``first_overlap``, so
importing this module does not load it; the first call does.

Along a run the windows of consecutive positions are rotations of each
other, and gcd(p**m - 1, value(v)) is invariant under rotation of v
(rotating multiplies the value by a power of p modulo p**m - 1), so one
gcd serves a whole run.

``first_overlap`` (behind ``is_overlap_free``) finds the leftmost overlap
of the smallest period with one direct pass per period, from 1 up.  Each
pass, ``_first_long_run``, compares the whole word with its shift, one byte
per position, and one ``bytes.find`` of m + 1 true bytes stops at the first
run long enough.  The passes stay outside ``_period_runs`` because they
stop at the first period that has an overlap, where a kernel block compares
every shift it holds.  An overlap-free word costs O(n^2).  The callers keep
long overlap-free words away from it: ``classify`` scans only after its
Thue-Morse comparison, and ``decompose`` passes only its core of fewer than
8 letters.  Letters are read as code points, as in ``_period_runs``, so any
alphabet works.
"""

from __future__ import annotations

import sys
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .words import complement

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RepetitionOccurrence",
    "OverlapOccurrence",
    "ComplementOccurrence",
    "find_overlaps",
    "first_overlap",
    "is_overlap_free",
    "find_fractional_squares",
    "find_complement_squares",
]


class RepetitionOccurrence(NamedTuple):
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
        _, v, r, f = self
        return r * len(v) + f

    def pattern(self) -> str:
        _, v, r, f = self
        return v * r + v[:f]

    def matches(self, word: str) -> bool:
        pos, v, r, f = self
        end = pos + r * len(v) + f
        return end <= len(word) and word[pos:end] == self.pattern()


# the keys of an overlap's JSON object, in field order
_OVERLAP_KEYS = ("pos", "u", "x")


class OverlapOccurrence(NamedTuple):
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
        return dict(zip(_OVERLAP_KEYS, self))


class ComplementOccurrence(NamedTuple):
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


def _first_by_position(
    word: str, image: str, min_len: Callable, positions: Callable, build: Callable,
    limit: int | None,
) -> list:
    """build(pos, m, b) for every pos in positions(m, a, b) of every run
    ``_period_runs(word, image, min_len)`` yields, by position and then in
    run order: the first ``limit`` of them (all for None).  The runs are
    bucketed by position first and only those first ``limit`` become
    occurrences, so a limited search holds one reference per occurrence,
    not its text."""
    by_position: list[list[tuple[int, int, int]]] = [[] for _ in word]
    for run in _period_runs(word, image, min_len):
        for pos in positions(*run):
            by_position[pos].append(run)
    occs = (build(pos, m, b) for pos, runs in enumerate(by_position) for m, _, b in runs)
    # islice takes no stop past sys.maxsize, and no word has that many occurrences
    return list(islice(occs, limit if limit is None else min(limit, sys.maxsize)))


def find_overlaps(word: str, limit: int | None = None) -> list[OverlapOccurrence]:
    """All overlaps (the first ``limit``), in left-to-right then shortest-X order.

    Empty result iff the word is overlap-free.
    """

    def build(pos: int, m: int, b: int) -> OverlapOccurrence:
        return OverlapOccurrence(pos, word[pos], word[pos + 1 : pos + m])

    return _first_by_position(
        word, word, lambda m: m + 1, lambda m, a, b: range(a, b - m), build, limit
    )


def first_overlap(word: str) -> OverlapOccurrence | None:
    """One overlap occurrence, or None when the word is overlap-free.

    Returns the leftmost occurrence of the smallest period: one direct pass
    per period m = 1, 2, ..., stopping at the first period with an overlap,
    which is a run of m+1 consecutive positions i with word[i] == word[i+m].
    O(n^2) for an overlap-free word.
    """
    import numpy as np

    letters = np.frombuffer(word.encode("utf-32-le"), dtype=np.uint32)
    for m in range(1, (len(word) - 1) // 2 + 1):
        i = _first_long_run(letters, m)
        if i >= 0:
            return OverlapOccurrence(i, word[i], word[i + 1 : i + m])
    return None


def _first_long_run(letters: np.ndarray, m: int) -> int:
    """Start of the first run of at least m+1 positions i with
    letters[i] == letters[i+m], or -1: one byte per comparison, one find."""
    n = len(letters)
    return (letters[: n - m] == letters[m:]).tobytes().find(b"\x01" * (m + 1))


def is_overlap_free(word: str) -> bool:
    """True iff the word contains no subword u X u X u."""
    return first_overlap(word) is None


# Cells (shift, position) compared per block of shifts in ``_period_runs``:
# every benchmark word fits one block, and draining the runs of a 4,096-letter
# Thue-Morse word with no cut peaks near 2 MB (tracemalloc).
_BLOCK_CELLS = 1 << 16
# Padding for ``_period_runs``: it and _NO_LETTER + 1 lie above every code point.
_NO_LETTER = 0xFFFFFFFE


def _period_runs(
    word: str, image: str, min_len: Callable[[np.ndarray], np.ndarray | int]
) -> Iterator[tuple[int, int, int]]:
    """Maximal runs (m, a, b) with word[j + m] == image[j] for a <= j < b
    and b - a >= min_len(m).

    ``min_len`` maps an array of shifts to the least run length kept (an
    array, or one int for all shifts).  Shifts m run from 1 to len(word) - 1
    and, within one shift, runs come in increasing order of a.  ``image``
    has the length of ``word``.

    A block of shifts is one boolean array, row m holding at column c
    whether word[m + c - 1] == image[c - 1].  It compares a strided view of
    the word against the image, padded with two letters no word has, so
    columns 0 and n + 1 and the cells past the word's end are False; the
    runs start and end where a row changes value.
    """
    import numpy as np

    n = len(word)
    target = np.full(n + 2, _NO_LETTER, dtype=np.uint32)
    target[1:-1] = np.frombuffer(image.encode("utf-32-le"), dtype=np.uint32)
    padded = np.full(2 * n + 2, _NO_LETTER + 1, dtype=np.uint32)
    padded[1 : n + 1] = np.frombuffer(word.encode("utf-32-le"), dtype=np.uint32)
    # row m is padded[m : m + n + 2]
    rows = np.lib.stride_tricks.sliding_window_view(padded, n + 2)
    step = max(1, _BLOCK_CELLS // (n + 2))
    for lo in range(1, n, step):
        ends = np.flatnonzero(np.diff(rows[lo : lo + step] == target, axis=1))
        shift, a = np.divmod(ends[0::2], n + 1)
        b = ends[1::2] - shift * (n + 1)
        shift += lo
        keep = b - a >= min_len(shift)
        yield from zip(shift[keep].tolist(), a[keep].tolist(), b[keep].tolist())


def find_fractional_squares(
    word: str, min_frac: int, squares: int, limit: int | None = None
) -> list[RepetitionOccurrence]:
    """Fractional square occurrences (the first ``limit``), by position then period.

    With squares=3 only occurrences with at least two whole copies are
    reported; with squares=2 one copy suffices.  For each (position, period)
    the extension is maximal, and the fractional length after normalisation
    must reach ``min_frac``.
    """
    if min_frac < 1:
        raise ValueError("min_frac must be at least 1")
    if squares not in (2, 3):
        raise ValueError("squares must be 2 or 3")
    # no tail reaches n letters: the clamp keeps the kernel's cut within int64
    min_frac = min(min_frac, len(word))
    whole = squares - 2  # whole copies past the first that a window needs

    def positions(m: int, a: int, b: int) -> list[int]:
        # the window at pos has m + b - pos letters, (b - pos) % m of them in its tail
        return [pos for pos in range(a, b - max(1, whole * m) + 1) if (b - pos) % m >= min_frac]

    def build(pos: int, m: int, b: int) -> RepetitionOccurrence:
        return RepetitionOccurrence(pos, word[pos : pos + m], *divmod(m + b - pos, m))

    # the whole copies and min_frac more letters fit from a on
    return _first_by_position(
        word, word, lambda m: whole * m + min_frac, positions, build, limit
    )


def find_complement_squares(
    word: str, base: int, min_frac: int, limit: int | None = None
) -> list[ComplementOccurrence]:
    """Occurrences of v v~ v[:f] with f >= min_frac (the first ``limit``),
    by position then period."""
    if min_frac < 1:
        raise ValueError("min_frac must be at least 1")
    min_frac = min(min_frac, len(word))  # as in ``find_fractional_squares``

    def positions(m: int, a: int, b: int) -> range:
        # f = min(m, b - pos - m) reaches min_frac up to pos = b - m - min_frac
        return range(a, b - m - min_frac + 1 if m >= min_frac else a)

    def build(pos: int, m: int, b: int) -> ComplementOccurrence:
        return ComplementOccurrence(pos, word[pos : pos + m], min(m, b - pos - m))

    return _first_by_position(
        word, complement(word, base), lambda m: m + min_frac, positions, build, limit
    )
