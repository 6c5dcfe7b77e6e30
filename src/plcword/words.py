"""Alphabets, morphisms, and infinite words with random-access prefixes.

Letters are single printable characters (``str.isprintable``, ASCII or
not) and finite words are plain Python strings (the empty word is ``""``).
Digit alphabets use the characters ``'0'..'9'``, so base-p digit words
require ``2 <= p <= 10``.
"""

from __future__ import annotations

import threading

__all__ = [
    "MorphismError",
    "Morphism",
    "parse_morphism",
    "mortal_letters",
    "is_prolongable",
    "fixed_point_prefix",
    "complement",
    "WordStream",
    "FixedPointStream",
]


_DIGITS = "0123456789"


class MorphismError(ValueError):
    """Malformed morphism text, or a morphism unsuitable for an operation."""


def _require_base(base: int) -> None:
    if not 2 <= base <= 10:
        raise ValueError(f"base must be between 2 and 10, got {base}")


def _require_digits(word: str, base: int) -> None:
    _require_base(base)
    rest = word.lstrip(_DIGITS[:base])
    if rest:
        raise ValueError(f"letter {rest[0]!r} is not a base-{base} digit")


class Morphism:
    """A total map letter -> finite word, with every image over the alphabet.

    The alphabet is the set of rule heads; every letter used in an image must
    have a rule of its own.  Empty images are allowed.  A coding is the
    special case where every image has length one.
    """

    __slots__ = ("images", "alphabet")

    def __init__(self, images: dict[str, str]):
        if not images:
            raise MorphismError("a morphism needs at least one rule")
        for head in images:
            if len(head) != 1 or not head.isprintable():
                raise MorphismError(
                    f"rule head {head!r} must be a single printable character"
                )
        alphabet = frozenset(images)
        for head, image in images.items():
            for ch in image:
                if ch not in alphabet:
                    raise MorphismError(
                        f"image of {head!r} uses undeclared letter {ch!r}"
                    )
        self.images = dict(images)
        self.alphabet = alphabet

    def image(self, letter: str) -> str:
        """The image of one letter; a letter without a rule is a MorphismError."""
        try:
            return self.images[letter]
        except KeyError:
            raise MorphismError(
                f"letter {letter!r} is not in the morphism's alphabet"
            ) from None

    def apply(self, word: str) -> str:
        """Image of a finite word (concatenation of letter images)."""
        images = self.images
        try:
            return "".join(images[ch] for ch in word)
        except KeyError as exc:
            raise MorphismError(f"letter {exc.args[0]!r} not in alphabet") from None

    def iterate(self, word: str, n: int) -> str:
        """n-fold application of the morphism to a word."""
        for _ in range(n):
            word = self.apply(word)
        return word

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Morphism) and self.images == other.images

    def __hash__(self):
        return hash(tuple(sorted(self.images.items())))

    def __repr__(self) -> str:
        rules = ";".join(f"{a}->{self.images[a]}" for a in sorted(self.images))
        return f"Morphism({rules!r})"


def parse_morphism(text: str) -> Morphism:
    """Parse rule text ``<letter>-><word>`` separated by ';' or newlines.

    Spaces and tabs are ignored; an empty right-hand side denotes the empty
    word.  Raises MorphismError for syntax errors, duplicate rule heads, or
    image letters without a rule.
    """
    cleaned = text.replace(" ", "").replace("\t", "").replace("\r", "")
    segments = [seg for chunk in cleaned.split("\n") for seg in chunk.split(";")]
    rules: dict[str, str] = {}
    for seg in segments:
        if not seg:
            continue
        head, arrow, image = seg.partition("->")
        if arrow != "->":
            raise MorphismError(f"rule {seg!r} is missing '->'")
        if head in rules:
            raise MorphismError(f"duplicate rule for {head!r}")
        rules[head] = image
    return Morphism(rules)


def mortal_letters(m: Morphism) -> frozenset[str]:
    """Letters erased by some iterate of the morphism.

    Computed as the least fixed point of "the image is a product of mortal
    letters"; stabilises within |alphabet| iterations.
    """
    mortal: frozenset[str] = frozenset()
    while True:
        grown = frozenset(
            a for a, img in m.images.items() if all(ch in mortal for ch in img)
        )
        if grown == mortal:
            return mortal
        mortal = grown


def is_prolongable(m: Morphism, letter: str) -> bool:
    """True iff the image of ``letter`` starts with it and the remainder is
    not a (possibly empty) product of mortal letters."""
    image = m.image(letter)
    if not image or image[0] != letter:
        return False
    mortal = mortal_letters(m)
    return any(ch not in mortal for ch in image[1:])


def _reachable(images: dict[str, str], sources: str) -> set[str]:
    """Letters reachable from the source letters in zero or more steps."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        for b in images[stack.pop()]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return seen


def _reduced_images(m: Morphism) -> dict[str, str]:
    """Images with mortal letters erased, for non-mortal letters only."""
    mortal = mortal_letters(m)
    return {
        a: "".join(ch for ch in img if ch not in mortal)
        for a, img in m.images.items()
        if a not in mortal
    }


def _grows_unboundedly(m: Morphism, word: str) -> bool:
    """True iff the lengths |phi^n(word)| tend to infinity.

    After erasing mortal letters every surviving letter keeps at least one
    successor, so it reaches a cycle in the reduced letter graph.  If every
    reachable cycle letter has a reduced image of length one, counts along
    cycles are conserved and lengths stay bounded; a reachable cycle letter
    with reduced image length >= 2 spawns an extra never-vanishing letter on
    each traversal, forcing the lengths to infinity.
    """
    reduced = _reduced_images(m)
    # c is on a cycle iff it is reachable from its own image
    return any(
        len(reduced[c]) >= 2 and c in _reachable(reduced, reduced[c])
        for c in _reachable(reduced, "".join([a for a in word if a in reduced]))
    )


def complement(word: str, base: int) -> str:
    """Letterwise digit map b -> base-1-b; an involution on digit words."""
    _require_digits(word, base)
    digits = _DIGITS[:base]
    return word.translate(str.maketrans(digits, digits[::-1]))


# FixedPointStream keeps its letter-power table while the table holds at
# most this many times the letters of its block, plus a slack that keeps
# small early tables
_TABLE_FACTOR = 4
_TABLE_SLACK = 64


class WordStream:
    """An infinite word exposing consistent prefixes of any finite length.

    Subclasses produce letters through ``_grow``; the longest generated
    prefix is cached, and extension is serialised by a lock so concurrent
    readers always observe consistent prefixes.
    """

    def __init__(self):
        self._cache = ""
        self._lock = threading.Lock()

    def prefix(self, n: int) -> str:
        if n < 0:
            raise ValueError("prefix length must be non-negative")
        cache = self._cache
        if n <= len(cache):
            return cache[:n]
        with self._lock:
            chunks = [self._cache]
            size = len(self._cache)
            while size < n:
                chunk = self._grow()
                assert chunk, "stream must grow by at least one letter"
                chunks.append(chunk)
                size += len(chunk)
            self._cache = "".join(chunks)
            return self._cache[:n]

    def _grow(self) -> str:
        raise NotImplementedError


class FixedPointStream(WordStream):
    """The fixed point of a morphism prolongable on its start letter.

    Writing the start image as ``a + x``, the word is the telescoping
    product ``a x phi(x) phi^2(x) ...``; each block is appended lazily.
    While the block grows, the stream keeps the letter-power table
    ``phi^n(b)`` for the letters b reachable from x: step n + 1 builds each
    ``phi^(n+1)(b)`` as the join of ``phi^n`` over the letters of
    ``phi(b)``, and the block ``phi^(n+1)(x)`` as the join over the letters
    of x, so every step copies long strings instead of mapping letters.
    A reachable letter can grow much faster than the block (with
    1 -> 12, ..., 8 -> 89 and 9 -> 9^9, ``phi^n(9)`` outgrows ``phi^n(1)``
    by a factor near 9^8), so the table is kept only while it pays: once
    the next table would hold more than ``_TABLE_FACTOR`` times the letters
    of the next block plus ``_TABLE_SLACK``, it is dropped, and later
    blocks map the current one with ``Morphism.apply``.  A block of
    bounded length gains nothing from the table and is mapped the same way
    from the start; once phi fixes it, every later block equals it, so the
    block is doubled instead: a one-letter block then costs O(log n) steps.
    """

    def __init__(self, morphism: Morphism, start: str):
        if not is_prolongable(morphism, start):
            raise MorphismError(f"morphism is not prolongable on {start!r}")
        super().__init__()
        self.morphism = morphism
        self.start = start
        self._x = self._block = morphism.images[start][1:]
        self._cache = start + self._block
        self._powers: dict[str, str] | None = None
        if _grows_unboundedly(morphism, self._x):
            self._powers = {b: b for b in _reachable(morphism.images, self._x)}
        self._fixed = False

    def _grow(self) -> str:
        if self._powers is not None:
            block = self._power_step()
            if block is not None:
                self._block = block
                return block
        if not self._fixed:
            block = self.morphism.apply(self._block)
            self._fixed = block == self._block
            self._block = block
            if not self._fixed:
                return block
        self._block += self._block
        return self._block

    def _power_step(self) -> str | None:
        """The next block from the table, or None, dropping the table, when
        the next table would not pay."""
        powers = self._powers
        images = self.morphism.images
        sizes = {b: sum([len(powers[c]) for c in images[b]]) for b in powers}
        size = sum([sizes[b] for b in self._x])
        if sum(sizes.values()) > _TABLE_FACTOR * size + _TABLE_SLACK:
            self._powers = None
            return None
        self._powers = powers = {b: "".join([powers[c] for c in images[b]]) for b in powers}
        return "".join([powers[b] for b in self._x])


def fixed_point_prefix(m: Morphism, start: str, n: int) -> str:
    """First n letters of the fixed point of m at a prolongable letter."""
    return FixedPointStream(m, start).prefix(n)
