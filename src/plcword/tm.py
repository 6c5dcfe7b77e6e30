"""Thue-Morse machinery: overlap-free decomposition and coded constants.

Every overlap-free binary word x factors as u mu(y) v with |u|, |v| <= 2,
where mu is the Thue-Morse morphism 0 -> 01, 1 -> 10, and y is again
overlap-free (Restivo and Salemi, "Overlap-free words on two symbols",
1985).  Iterating the factorisation to depth d exhibits mu^d(a) for
a single letter a inside x, i.e. a prefix of the Thue-Morse word M (a = 0)
or of its complement (a = 1) of length 2**d >= (|x| + 4) / 8.

The same chain decides whether x is overlap-free, in O(|x|) letters, as in
Kfoury's linear-time test (1988).  The rule is exact: x = u mu(y) v is
overlap-free iff y is and no overlap of x starts inside u or ends inside
v.  An overlap that does neither lies inside mu(y), and mu(y) is
overlap-free iff y is.  A word with no factorisation has an overlap, and
the short final core (fewer than 8 letters) is checked at each of its
starts by ``_overlap_starts_in``, the test the levels' ends use.
The ends are checked innermost first, so the middle mu(y) of each word
checked is already known to be overlap-free.  For a start i and a block
of periods [lo, 2 lo), an overlap of period m repeats x[i:i+lo+1] at i + m,
so one ``str.find`` in that window and one slice compare per hit settle
the block.  Two occurrences of an L-letter factor of an overlap-free word
lie at least L apart, so each window holds O(1) hits, and a level of L
letters costs O(L).

``tm_constant`` evaluates truncations of the real numbers whose base-n
digits are a two-letter coding of M, and ``tm_identity_suite`` checks the
digitwise affine identities between those constants.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .arithmetic import prefix_value, word_value
from .words import FixedPointStream, Morphism, _require_base, complement

__all__ = [
    "MU",
    "thue_morse_prefix",
    "Decomposition",
    "decompose",
    "OverlapFreePair",
    "mu_preserves_overlap_free",
    "DecompositionChain",
    "extract_tm_prefix",
    "tm_digit_word",
    "tm_constant",
    "IdentityCheck",
    "tm_identity_suite",
]

MU = Morphism({"0": "01", "1": "10"})

_TM_STREAMS = {"0": FixedPointStream(MU, "0"), "1": FixedPointStream(MU, "1")}


def thue_morse_prefix(n: int, start: str = "0") -> str:
    """First n letters of the Thue-Morse word (start '0') or its complement."""
    return _TM_STREAMS[start].prefix(n)


@dataclass(frozen=True)
class Decomposition:
    """x = u + mu(y) + v with |u|, |v| <= 2."""

    u: str
    y: str
    v: str

    def reassemble(self) -> str:
        return self.u + MU.apply(self.y) + self.v


def _mu_preimage(word: str) -> str | None:
    """The y with mu(y) = word, or None: mu(y) interleaves y with its
    complement, so an odd-length word has one letter too many to match."""
    y = word[::2]
    return y if word[1::2] == complement(y, 2) else None


def decompose(x: str) -> Decomposition:
    """Factor an overlap-free binary word as u mu(y) v, maximising |y|.

    Ties are broken by the smallest |u|.  Words containing an overlap are
    rejected: the factorisation is only guaranteed without overlaps.
    """
    chain = _require_overlap_free(x)
    return chain[0] if chain else _factorise(x)


def _require_overlap_free(x: str) -> list[Decomposition]:
    """The ``_overlap_free_chain`` of a non-empty binary word with no
    overlap; a ValueError for any other word."""
    if not x:
        raise ValueError("word must be non-empty")
    if set(x) - {"0", "1"}:
        raise ValueError("word must be over the alphabet {0, 1}")
    chain = _overlap_free_chain(x)
    if chain is None:
        raise ValueError("word contains an overlap")
    return chain


def _factorise(x: str) -> Decomposition | None:
    """x = u mu(y) v with |u|, |v| <= 2, maximising |y| and then minimising
    |u|, for a binary word x; None if there is none, which happens only
    when x has an overlap."""
    n = len(x)
    for total in range(n % 2, min(n, 4) + 1, 2):
        for ulen in range(total + 1):
            vlen = total - ulen
            if ulen > 2 or vlen > 2:
                continue
            y = _mu_preimage(x[ulen : n - vlen])
            if y is not None:
                return Decomposition(x[:ulen], y, x[n - vlen :])
    return None


def _overlap_free_chain(x: str) -> list[Decomposition] | None:
    """The steps of the iterated factorisation of a binary word x, or None
    if x has an overlap.  Each step factors the core y of the step before
    (x for the first).

    The chain runs to depth max(0, floor(log2(K+4)) - 2) for K = |x|,
    stopping early only when the core would empty, which can happen only
    once the core has at most 4 letters; either way the last core has
    fewer than 8.  Then x is overlap-free iff that core is and, innermost
    first, no overlap of a level's word starts in its u or ends in its v.
    """
    depth = max(0, (len(x) + 4).bit_length() - 3)
    chain: list[Decomposition] = []
    core = x
    while len(chain) < depth:
        step = _factorise(core)
        if step is None:
            return None
        if not step.y:
            break
        chain.append(step)
        core = step.y
    if _overlap_starts_in(core, len(core)):
        return None
    words = [x, *(step.y for step in chain[:-1])]
    for word, step in zip(reversed(words), reversed(chain)):
        if _overlap_starts_in(word, len(step.u)) or _overlap_starts_in(word[::-1], len(step.v)):
            return None
    return chain


def _overlap_starts_in(word: str, starts: int) -> bool:
    """Whether an overlap of the word starts at one of its first ``starts``
    positions.  An overlap of period m in [lo, 2 lo) at i repeats
    word[i:i+lo+1] at i + m; each such occurrence is confirmed by one
    compare of word[i:i+m+1] with word[i+m:i+2m+1]."""
    n = len(word)
    for i in range(starts):
        top = (n - i - 1) // 2  # the longest period that fits from i
        lo = 1
        while lo <= top:
            # a repeat at i + m for m < min(2 lo, top + 1) ends by here
            end = i + min(2 * lo, top + 1) + lo
            head = word[i : i + lo + 1]
            at = word.find(head, i + lo, end)
            while at >= 0:
                if word[i : at + 1] == word[at : 2 * at - i + 1]:
                    return True
                at = word.find(head, at + 1, end)
            lo *= 2
    return False


@dataclass(frozen=True)
class OverlapFreePair:
    y_free: bool
    mu_y_free: bool


def mu_preserves_overlap_free(y: str) -> OverlapFreePair:
    """Overlap-freeness of y and of mu(y); the two flags always agree."""
    image = MU.apply(y)  # a letter outside {0, 1} is a MorphismError here
    return OverlapFreePair(
        _overlap_free_chain(y) is not None, _overlap_free_chain(image) is not None
    )


@dataclass(frozen=True)
class DecompositionChain:
    """Iterated factorisation x = u1 mu(u2) ... mu^d(core) ... mu(v2) v1.

    ``letter`` is the leftmost letter of the deepest core; mu^depth(letter)
    is the length-2**depth prefix of M ('0') or of its complement ('1') and
    occurs in x at ``offset``.
    """

    levels: tuple[tuple[str, str], ...]
    core: str
    depth: int
    tm_prefix_len: int
    offset: int
    letter: str
    target: str

    def reassemble(self) -> str:
        word = self.core
        for u, v in reversed(self.levels):
            word = u + MU.apply(word) + v
        return word


def extract_tm_prefix(x: str) -> DecompositionChain:
    """Locate a long Thue-Morse (or complement) prefix inside an
    overlap-free word.

    Its levels are the (u, v) of the chain that decides overlap-freeness:
    to depth max(0, floor(log2(K+4)) - 2) for K = |x|, stopping early only
    when the core would empty; either way 2**depth >= (K + 4) / 8.
    Rejects, at every length, the words ``decompose`` rejects.
    """
    chain = _require_overlap_free(x)
    levels = tuple((step.u, step.v) for step in chain)
    core = chain[-1].y if chain else x
    depth = len(levels)
    length = 2**depth
    assert 8 * length >= len(x) + 4, "factorisation depth fell short"
    offset = sum(len(u) << i for i, (u, _) in enumerate(levels))
    letter = core[0]
    target = "M" if letter == "0" else "M~"
    prefix = thue_morse_prefix(length, start=letter)
    assert x[offset : offset + length] == prefix, "extracted window mismatch"
    return DecompositionChain(
        levels=levels,
        core=core,
        depth=depth,
        tm_prefix_len=length,
        offset=offset,
        letter=letter,
        target=target,
    )


def tm_digit_word(a: int, b: int, length: int) -> str:
    """Digits of the coding of the Thue-Morse word sending 0 -> a, 1 -> b."""
    if not 0 <= a <= 9 or not 0 <= b <= 9:
        raise ValueError("coded digits must be single decimal digits")
    return thue_morse_prefix(length).translate(str.maketrans("01", f"{a}{b}"))


def tm_constant(a: int, b: int, base: int, length: int) -> Fraction:
    """Truncated value of the coded Thue-Morse constant in the given base."""
    _require_base(base)
    if length < 1:
        raise ValueError("length must be at least 1")
    if a >= base or b >= base:
        raise ValueError(f"coded digits must be below the base {base}")
    return prefix_value(tm_digit_word(a, b, length), base)


@dataclass(frozen=True)
class IdentityCheck:
    identity: str
    params: dict
    ok: bool


def tm_identity_suite(base: int, length: int) -> list[IdentityCheck]:
    """Exact truncation-level checks of the coded-constant identities.

    No digitwise carries occur in any of them: r*s(i) and k*s(i) + l stay
    below the base under the stated ranges, and the complement identity is
    the digit map b -> base-1-b.

    * scaling: r * TM(0,1) = TM(0,r) for 0 <= r < base;
    * complement: the digit word of TM(0,base-1) complemented is the digit
      word of TM(base-1,0), and 1 - X - base**-L equals the complement value;
    * shift: TM(0,k) + 0.lll... = TM(l,l+k) and TM(k,0) + 0.lll... =
      TM(k+l,l) for l <= base-1-k.

    Every constant is a numerator over base**L, so the checks compare the
    ``word_value`` of digit words, which checks each digit against the base;
    each (a, b) word is valued once per call.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    value = functools.cache(lambda a, b: word_value(tm_digit_word(a, b, length), base))
    checks: list[IdentityCheck] = []
    for r in range(base):
        ok = r * value(0, 1) == value(0, r)
        checks.append(IdentityCheck("scaling", {"r": r}, ok))

    top = base - 1
    word_down, word_up = tm_digit_word(0, top, length), tm_digit_word(top, 0, length)
    digit_ok = complement(word_down, base) == word_up
    value_ok = base**length - 1 - value(0, top) == value(top, 0)
    checks.append(IdentityCheck("complement", {}, digit_ok and value_ok))

    runs = [word_value(str(ell) * length, base) for ell in range(base)]
    for k in range(base):
        for ell in range(base - k):
            ok = (value(0, k) + runs[ell] == value(ell, ell + k)) and (
                value(k, 0) + runs[ell] == value(k + ell, ell)
            )
            checks.append(IdentityCheck("shift", {"k": k, "l": ell}, ok))
    return checks
