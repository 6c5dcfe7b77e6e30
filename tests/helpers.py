"""Independent oracles and enumeration helpers shared by the test modules.

Everything here recomputes expectations from first principles (literal
pattern matching, exhaustive enumeration) and deliberately avoids the code
paths under test.
"""

from __future__ import annotations

import random
from itertools import product

import numpy as np
from hypothesis import strategies as st

from plcword import (
    MU,
    ComplementOccurrence,
    Morphism,
    OverlapOccurrence,
    RepetitionOccurrence,
    certificate_from_occurrence,
    complement,
    complement_to_gcd_occurrence,
)


def is_overlap_pattern(sub: str) -> bool:
    """Literal test: is this exact string of the form u X u X u?"""
    length = len(sub)
    if length < 3 or length % 2 == 0:
        return False
    x_len = (length - 3) // 2
    u = sub[0]
    return (
        sub[x_len + 1] == u
        and sub[2 * x_len + 2] == u
        and sub[1 : x_len + 1] == sub[x_len + 2 : 2 * x_len + 2]
    )


def naive_find_overlaps(word: str) -> list[tuple[int, str, str]]:
    """All-substrings oracle, in (position, pattern length) order."""
    found = []
    n = len(word)
    for i in range(n):
        for length in range(3, n - i + 1, 2):
            if is_overlap_pattern(word[i : i + length]):
                x_len = (length - 3) // 2
                found.append((i, word[i], word[i + 1 : i + 1 + x_len]))
    return found


def naive_first_overlap(word: str) -> OverlapOccurrence | None:
    """Literal oracle for ``first_overlap``: smallest period m, then
    leftmost position, over every window of length 2m + 1."""
    n = len(word)
    for m in range(1, (n - 1) // 2 + 1):
        for i in range(n - 2 * m):
            if is_overlap_pattern(word[i : i + 2 * m + 1]):
                return OverlapOccurrence(i, word[i], word[i + 1 : i + m])
    return None


def per_period_first_overlap(word: str) -> OverlapOccurrence | None:
    """Long-word oracle for ``first_overlap``: one vectorised pass per
    period m, stopping at the first run of m + 1 positions with
    word[i] == word[i + m].  O(n^2)."""
    n = len(word)
    if n < 3:
        return None
    arr = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
    for m in range(1, (n - 1) // 2 + 1):
        eq = arr[: n - m] == arr[m:]
        padded = np.empty(len(eq) + 2, dtype=bool)
        padded[0] = padded[-1] = False
        padded[1:-1] = eq
        delta = np.diff(padded.astype(np.int8))
        starts = np.flatnonzero(delta == 1)
        ends = np.flatnonzero(delta == -1)
        hits = np.flatnonzero(ends - starts >= m + 1)
        if hits.size:
            i = int(starts[hits[0]])
            return OverlapOccurrence(i, word[i], word[i + 1 : i + m])
    return None


def naive_is_overlap_free(word: str) -> bool:
    n = len(word)
    return not any(
        is_overlap_pattern(word[i : i + length])
        for i in range(n)
        for length in range(3, n - i + 1, 2)
    )


def literal_fractional_squares(
    word: str, min_frac: int, squares: int
) -> list[tuple[int, str, int, int]]:
    """Quadruple oracle: literal period-copy comparison, maximal window."""
    n = len(word)
    min_repeats = 2 if squares == 3 else 1
    out = []
    for pos in range(n):
        for m in range(1, n - pos + 1):
            v = word[pos : pos + m]
            best = 0
            for total in range(m, n - pos + 1):
                repeats, frac = divmod(total, m)
                if word[pos : pos + total] == v * repeats + v[:frac]:
                    best = total
                else:
                    break
            repeats, frac = divmod(best, m)
            if repeats >= min_repeats and frac >= min_frac:
                out.append((pos, v, repeats, frac))
    return out


def naive_fractional_squares(
    word: str, min_frac: int, squares: int
) -> list[RepetitionOccurrence]:
    """Per-(position, period) scan: extend each period greedily from pos."""
    min_repeats = 2 if squares == 3 else 1
    n = len(word)
    found = []
    for pos in range(n):
        for m in range(1, (n - pos) // min_repeats + 1):
            t = m
            while pos + t < n and word[pos + t] == word[pos + t - m]:
                t += 1
            repeats, frac = divmod(t, m)
            if repeats >= min_repeats and frac >= min_frac:
                found.append(RepetitionOccurrence(pos, word[pos : pos + m], repeats, frac))
    return found


def naive_complement_squares(
    word: str, base: int, min_frac: int
) -> list[ComplementOccurrence]:
    """Per-(position, period) scan comparing each v~ through ``complement``."""
    n = len(word)
    found = []
    for pos in range(n):
        for m in range(1, (n - pos) // 2 + 1):
            v = word[pos : pos + m]
            if word[pos + m : pos + 2 * m] != complement(v, base):
                continue
            f = 0
            while f < m and pos + 2 * m + f < n and word[pos + 2 * m + f] == v[f]:
                f += 1
            if f >= min_frac:
                found.append(ComplementOccurrence(pos, v, f))
    return found


def naive_scan_and_certify(prefix: str, base: int, target_s: int) -> list:
    """Certificate for every occurrence of both naive scans, one gcd each,
    filtered by score and sorted as ``scan_and_certify`` sorts."""
    seen = {}

    def add(occ, kind):
        cert = certificate_from_occurrence(prefix, occ, base, kind)
        key = (kind, occ.position, occ.period_word, occ.whole_repeats, occ.frac_len)
        if cert.s >= target_s and key not in seen:
            seen[key] = cert

    for occ in naive_fractional_squares(prefix, 1, 2):
        add(occ, "gcd")
        if occ.whole_repeats >= 2:
            add(occ, "square3")
    for comp in naive_complement_squares(prefix, base, 1):
        add(complement_to_gcd_occurrence(comp, base), "gcd")
    return sorted(seen.values(), key=lambda c: (-c.s, c.k, c.occurrence.period, c.kind))


def naive_longest_overlap_free(word: str) -> tuple[int, int]:
    """Exhaustive window scan for the leftmost longest overlap-free subword."""
    n = len(word)
    for length in range(n, 0, -1):
        for pos in range(n - length + 1):
            if naive_is_overlap_free(word[pos : pos + length]):
                return pos, length
    return 0, 0


def overlap_free_census(max_len: int) -> dict[int, list[str]]:
    """All overlap-free binary words, by length, via suffix backtracking."""
    by_len: dict[int, list[str]] = {0: [""]}
    frontier = [""]
    for length in range(1, max_len + 1):
        grown = []
        for word in frontier:
            for ch in "01":
                cand = word + ch
                if _suffix_overlap_free(cand):
                    grown.append(cand)
        by_len[length] = grown
        frontier = grown
    return by_len


def _suffix_overlap_free(word: str) -> bool:
    """No overlap ending at the last letter (the prefix is known clean)."""
    n = len(word)
    for m in range(1, (n - 1) // 2 + 1):
        start = n - (2 * m + 1)
        if start < 0:
            break
        if all(word[j] == word[j + m] for j in range(start, n - m)):
            return False
    return True


def extend_overlap_free(word: str, target_len: int, rng: random.Random) -> str | None:
    """Random overlap-free extension via depth-first backtracking."""
    if len(word) >= target_len:
        return word[:target_len]
    letters = ["0", "1"]
    rng.shuffle(letters)
    for ch in letters:
        cand = word + ch
        if _suffix_overlap_free(cand):
            deeper = extend_overlap_free(cand, target_len, rng)
            if deeper is not None:
                return deeper
    return None


def binary_words_upto(max_len: int) -> list[str]:
    out = [""]
    for length in range(1, max_len + 1):
        out.extend("".join(bits) for bits in product("01", repeat=length))
    return out


def prolongable_binary_morphisms(max_image_len: int = 3):
    """All (morphism, start) pairs over {0,1} with image lengths <= 3 where
    the start image begins with the start letter and has length >= 2."""
    images = binary_words_upto(max_image_len)
    pairs = []
    for start in "01":
        other = "1" if start == "0" else "0"
        starts = [w for w in images if len(w) >= 2 and w[0] == start]
        for img_start in starts:
            for img_other in images:
                pairs.append(
                    (Morphism({start: img_start, other: img_other}), start)
                )
    return pairs


def per_block_fixed_point(m: Morphism, start: str, n: int) -> str:
    """First n letters of the fixed point as a x phi(x) phi^2(x) ..., where
    the start image is a x, appending one block per step."""
    block = m.images[start][1:]
    word = start + block
    while len(word) < n:
        block = m.apply(block)
        word += block
    return word[:n]


def random_morphism(rng: random.Random, max_letters: int = 3, max_image_len: int = 3):
    letters = "012"[: rng.randint(1, max_letters)]
    images = {
        a: "".join(rng.choice(letters) for _ in range(rng.randint(0, max_image_len)))
        for a in letters
    }
    return Morphism(images)


def iterated_lengths(m: Morphism, letter: str, steps: int) -> list[int]:
    """|phi^n(letter)| for n = 0..steps, via exact letter-count vectors."""
    counts = dict.fromkeys(m.alphabet, 0)
    counts[letter] = 1
    lengths = [1]
    for _ in range(steps):
        grown = dict.fromkeys(m.alphabet, 0)
        for a, c in counts.items():
            if c:
                for b in m.images[a]:
                    grown[b] += c
        counts = grown
        lengths.append(sum(counts.values()))
    return lengths


def random_digit_word(rng: random.Random, length: int, base: int) -> str:
    return "".join(str(rng.randrange(base)) for _ in range(length))


@st.composite
def digit_words(draw, max_len: int = 40):
    """(word, base) over bases 2, 3, 5 and 10: uniform random digits, or a
    random period of length 1-6 repeated and cut to the drawn length."""
    base = draw(st.sampled_from((2, 3, 5, 10)))
    digit = st.integers(0, base - 1).map(str)
    length = draw(st.integers(0, max_len))
    if draw(st.booleans()):
        word = "".join(draw(st.lists(digit, min_size=length, max_size=length)))
    else:
        period = "".join(draw(st.lists(digit, min_size=1, max_size=6)))
        word = (period * length)[:length]
    return word, base


@st.composite
def mu_grown_words(draw, max_len: int = 4096):
    """A factor of mu^k(seed) for a random binary seed of 1-8 letters (the
    seed "0" gives Thue-Morse) and the largest k with at most ``max_len``
    letters, of log-uniform length, with 0-2 letters flipped.  An overlap
    of period m in the seed becomes one of period m * 2**k, so these words
    reach long periods before their first overlap."""
    seed = draw(st.one_of(st.just("0"), st.text(alphabet="01", min_size=1, max_size=8)))
    grown = MU.iterate(seed, (max_len // len(seed)).bit_length() - 1)
    top = len(grown) >> draw(st.integers(0, 8))
    length = draw(st.integers(top // 2, top))
    start = draw(st.integers(0, len(grown) - length))
    letters = list(grown[start : start + length])
    if letters:
        for i in draw(st.lists(st.integers(0, length - 1), max_size=2)):
            letters[i] = "1" if letters[i] == "0" else "0"
    return "".join(letters)
