"""Independent oracles and enumeration helpers shared by the test modules.

Everything here recomputes expectations from first principles (literal
pattern matching, exhaustive enumeration) and deliberately avoids the code
paths under test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import numpy as np
from hypothesis import strategies as st

from plcword import (
    MU,
    BruteForceResult,
    ComplementOccurrence,
    IdentityCheck,
    Morphism,
    OrbitMaxResult,
    OverlapOccurrence,
    RepetitionOccurrence,
    certificate_from_occurrence,
    cf_expand,
    complement,
    enclosure,
    prefix_value,
    tm_constant,
    tm_digit_word,
    word_value,
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


def naive_period_runs(word: str, image: str):
    """Every maximal run (m, a, b) with word[j + m] == image[j] for
    a <= j < b, by shift then by a, from a letter-by-letter double loop;
    ``repetitions._period_runs``' oracle before its length cut."""
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


def naive_least_ell(x: int, base: int) -> int:
    """The least ell >= 1 with base**ell >= x, one power at a time;
    ``arithmetic._least_ell``'s oracle."""
    ell = 1
    power = base
    while power < x:
        power *= base
        ell += 1
    return ell


def root_length(word: str) -> int:
    """Length of the primitive root of a non-empty word: the least c with
    word == word[:c] * (len(word) // c)."""
    n = len(word)
    return next(c for c in range(1, n + 1) if n % c == 0 and word[:c] * (n // c) == word)


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
    arr = np.frombuffer(word.encode("utf-32-le"), dtype=np.uint32)
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
    return sorted(seen.values(), key=lambda c: (-c.s, c.k, len(c.period), c.kind))


def _naive_dist_interval(a: int, b: int, den: int) -> tuple[Fraction, Fraction]:
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


def naive_brute_force_min(
    prefix: str, base: int, max_q: int, max_k: int
) -> BruteForceResult:
    """Oracle for ``brute_force_min``: one ``Fraction`` enclosure per
    candidate (q, k), minimised over the key (upper end, k, q)."""
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
            lo, hi = _naive_dist_interval(a, a + q, den)
            q_lo, q_hi = q * lo, q * hi
            key = (q_hi, k, q)
            if best is None or key < best:
                best = key
                best_lo = q_lo
    assert best is not None
    return BruteForceResult(q=best[2], k=best[1], value_lo=best_lo, value_hi=best[0])


def integer_brute_force_min(
    prefix: str, base: int, max_q: int, max_k: int
) -> BruteForceResult:
    """Oracle for ``brute_force_min``'s candidate list: the same integer
    test, run on every (q, k) instead of on the convergent denominators."""
    if max_q < 1:
        raise ValueError("max_q must be at least 1")
    if max_k < 0:
        raise ValueError("max_k must be non-negative")
    length = len(prefix)
    value = word_value(prefix, base) if prefix else 0
    best_top, best_den, best_q, best_k = 1, 0, 0, 0  # q H / den = +infinity
    # every k >= len gives the same enclosures, and ties keep the smaller k
    for k in range(min(max_k, length) + 1):
        den = base ** (length - k)
        shifted, twice = value % den, 2 * den
        top, arg, r = max_q * den + 1, 0, 0
        for q in range(1, max_q + 1):
            r = (r + shifted) % den
            if (den - 2 * r) % twice <= 2 * q:
                qh = q * den
            else:  # conditionals, not min and max calls: this is the hot loop
                rb = (r + q) % den
                ra = r if 2 * r < den else den - r
                rb = rb if 2 * rb < den else den - rb
                qh = 2 * q * (ra if ra > rb else rb)
            if qh < top:
                top, arg = qh, q
        if top * best_den < best_top * den:
            best_top, best_den, best_q, best_k = top, den, arg, k
    lo, hi = enclosure(prefix, base, best_q, best_k)
    return BruteForceResult(q=best_q, k=best_k, value_lo=lo, value_hi=hi)


def naive_orbit_max_quotient(x: Fraction, base: int, max_k: int) -> OrbitMaxResult:
    """Oracle for ``orbit_max_quotient``: the quotients of each orbit point
    by ``cf_expand``, then one lambda-keyed ``max`` over every (k, i, a),
    which keeps the first (leftmost) of equal keys."""
    quotients = tuple(cf_expand(x * base**k).quotients for k in range(max_k + 1))
    rows = [(k, i, a) for k, qs in enumerate(quotients) for i, a in enumerate(qs, start=1)]
    k, i, a = max(rows, key=lambda row: row[2], default=(None, None, None))
    return OrbitMaxResult(a, k, i, quotients)


def naive_tm_identity_suite(base: int, length: int) -> list[IdentityCheck]:
    """Oracle for ``tm_identity_suite``: every identity between the
    ``Fraction`` constants themselves."""
    checks: list[IdentityCheck] = []
    unit = tm_constant(0, 1, base, length)
    for r in range(base):
        ok = r * unit == tm_constant(0, r, base, length)
        checks.append(IdentityCheck("scaling", {"r": r}, ok))

    top = base - 1
    word_down = tm_digit_word(0, top, length)
    word_up = tm_digit_word(top, 0, length)
    digit_ok = complement(word_down, base) == word_up
    value_ok = (
        1 - tm_constant(0, top, base, length) - Fraction(1, base**length)
        == tm_constant(top, 0, base, length)
    )
    checks.append(IdentityCheck("complement", {}, digit_ok and value_ok))

    for k in range(base):
        for ell in range(base - k):
            run = prefix_value(str(ell) * length, base)
            ok = (
                tm_constant(0, k, base, length) + run
                == tm_constant(ell, ell + k, base, length)
            ) and (
                tm_constant(k, 0, base, length) + run
                == tm_constant(k + ell, ell, base, length)
            )
            checks.append(IdentityCheck("shift", {"k": k, "l": ell}, ok))
    return checks


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
    letters = "0123"[: rng.randint(1, max_letters)]
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


def naive_complement(word: str, base: int) -> str:
    """Letterwise b -> base-1-b, one ``int`` per letter; ``complement``'s oracle."""
    return "".join(str(base - 1 - int(ch)) for ch in word)


def naive_mu_preimage(word: str) -> str | None:
    """The y with mu(y) = word, read pair by pair; ``tm._mu_preimage``'s
    oracle."""
    if len(word) % 2:
        return None
    letters = []
    for i in range(0, len(word), 2):
        letter = {"01": "0", "10": "1"}.get(word[i : i + 2])
        if letter is None:
            return None
        letters.append(letter)
    return "".join(letters)


def random_digit_word(rng: random.Random, length: int, base: int) -> str:
    return "".join(str(rng.randrange(base)) for _ in range(length))


@st.composite
def digit_words(draw, max_len: int = 40, bases=(2, 3, 5, 10)):
    """(word, base) over ``bases``: uniform random digits, or a random
    period of length 1-6 repeated and cut to the drawn length."""
    base = draw(st.sampled_from(bases))
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


_OVERLAP_FREE_SEEDS = [w for words in overlap_free_census(10).values() for w in words if w]


@st.composite
def edited_overlap_free_factors(draw, max_len: int = 2048):
    """A factor of mu^k(seed) for an overlap-free seed of 1-10 letters (so
    an overlap-free word), taken as it is or with one edit: a letter
    flipped, a letter prepended or appended, or the first half of one
    factor joined to the second half of another."""
    seed = draw(st.sampled_from(_OVERLAP_FREE_SEEDS))
    grown = MU.iterate(seed, draw(st.integers(0, (max_len // len(seed)).bit_length() - 1)))

    def factor() -> str:
        length = draw(st.integers(1, len(grown)))
        start = draw(st.integers(0, len(grown) - length))
        return grown[start : start + length]

    word = factor()
    edit = draw(st.sampled_from(["none", "flip", "prepend", "append", "splice"]))
    if edit == "flip":
        i = draw(st.integers(0, len(word) - 1))
        word = word[:i] + ("1" if word[i] == "0" else "0") + word[i + 1 :]
    elif edit == "prepend":
        word = draw(st.sampled_from("01")) + word
    elif edit == "append":
        word += draw(st.sampled_from("01"))
    elif edit == "splice":
        other = factor()
        word = word[: len(word) // 2] + other[len(other) // 2 :]
    return word


@st.composite
def near_mu_images(draw, max_len: int = 40):
    """mu(y) for a random binary y, with 0-2 letters flipped and, half the
    time, its last letter cut to give an odd length."""
    y = draw(st.text(alphabet="01", max_size=max_len // 2))
    letters = list(MU.apply(y))
    if letters:
        for i in draw(st.lists(st.integers(0, len(letters) - 1), max_size=2)):
            letters[i] = "1" if letters[i] == "0" else "0"
        if draw(st.booleans()):
            letters.pop()
    return "".join(letters)
