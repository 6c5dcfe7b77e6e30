"""Alphabets, morphisms, and infinite words with random-access prefixes.

Letters are single printable ASCII characters and finite words are plain
Python strings (the empty word is ``""``).  Digit alphabets use the
characters ``'0'..'9'``, so base-p digit words require ``2 <= p <= 10``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = [
    "MorphismError",
    "Morphism",
    "MorphismProperties",
    "parse_morphism",
    "mortal_letters",
    "is_prolongable",
    "fixed_point_prefix",
    "morphism_properties",
    "complement",
    "WordStream",
    "FixedPointStream",
    "PeriodicStream",
    "LiteralStream",
    "CodedStream",
    "ShiftedStream",
]


class MorphismError(ValueError):
    """Malformed morphism text, or a morphism unsuitable for an operation."""


def _require_base(base: int) -> None:
    if not 2 <= base <= 10:
        raise ValueError(f"base must be between 2 and 10, got {base}")


def _require_digits(word: str, base: int) -> None:
    _require_base(base)
    for ch in word:
        if not ("0" <= ch <= "9") or int(ch) >= base:
            raise ValueError(f"letter {ch!r} is not a base-{base} digit")


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

    @property
    def is_coding(self) -> bool:
        return all(len(img) == 1 for img in self.images.values())

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
        if len(head) != 1:
            raise MorphismError(f"rule head {head!r} must be a single letter")
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


@dataclass(frozen=True)
class MorphismProperties:
    k_uniform: int | None
    expanding: bool
    primitive: bool


def morphism_properties(m: Morphism) -> MorphismProperties:
    """Uniformity, expansion, and primitivity of a morphism.

    Primitivity is decided with boolean incidence reachability: some power
    n <= |alphabet|**2 must make every letter's image contain every letter.
    """
    lengths = {len(img) for img in m.images.values()}
    k_uniform = lengths.pop() if len(lengths) == 1 else None
    expanding = all(len(img) >= 2 for img in m.images.values())

    letters = sorted(m.alphabet)
    full = frozenset(letters)
    direct = {a: frozenset(m.images[a]) for a in letters}
    current = direct
    primitive = False
    for _ in range(len(letters) ** 2):
        if all(current[a] == full for a in letters):
            primitive = True
            break
        current = {
            a: frozenset().union(*(direct[b] for b in current[a]))
            if current[a]
            else frozenset()
            for a in letters
        }
    return MorphismProperties(k_uniform, expanding, primitive)


def complement(word: str, base: int) -> str:
    """Letterwise digit map b -> base-1-b; an involution on digit words."""
    _require_digits(word, base)
    return "".join(str(base - 1 - int(ch)) for ch in word)


class WordStream:
    """An infinite word exposing consistent prefixes of any finite length.

    Subclasses produce letters through ``_grow``; the longest generated
    prefix is cached, and extension is serialised by a lock so concurrent
    readers always observe consistent prefixes.
    """

    def __init__(self, alphabet):
        self.alphabet = frozenset(alphabet)
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

    def letter(self, i: int) -> str:
        return self.prefix(i + 1)[i]

    def shift(self, k: int) -> "ShiftedStream":
        return ShiftedStream(self, k)

    def coded(self, coding: Morphism) -> "CodedStream":
        return CodedStream(self, coding)


class FixedPointStream(WordStream):
    """The fixed point of a morphism prolongable on its start letter.

    Writing the start image as ``a + x``, the word is the telescoping
    product ``a x phi(x) phi^2(x) ...``; each block is appended lazily.
    Once phi fixes a block, every later block equals it, so the block is
    doubled instead: a one-letter block then costs O(log n) applications.
    """

    def __init__(self, morphism: Morphism, start: str):
        if not is_prolongable(morphism, start):
            raise MorphismError(f"morphism is not prolongable on {start!r}")
        super().__init__(morphism.alphabet)
        self.morphism = morphism
        self.start = start
        self._block = morphism.images[start][1:]
        self._cache = start + self._block

    def _grow(self) -> str:
        block = self.morphism.apply(self._block)
        if block == self._block:
            block += block
        self._block = block
        return block


class PeriodicStream(WordStream):
    """The periodic word w w w ... for a non-empty finite word w."""

    def __init__(self, period: str):
        if not period:
            raise ValueError("period must be non-empty")
        super().__init__(set(period))
        self.period = period

    def _grow(self) -> str:
        return self.period


class LiteralStream(WordStream):
    """A finite word viewed as a stream; prefixes beyond its length fail."""

    def __init__(self, word: str):
        super().__init__(set(word))
        self.word = word

    def prefix(self, n: int) -> str:
        if n > len(self.word):
            raise ValueError(f"word has only {len(self.word)} letters, asked for {n}")
        return self.word[:n]


class CodedStream(WordStream):
    """Letter-to-letter image of a base stream; preserves positions."""

    def __init__(self, base_stream: WordStream, coding: Morphism):
        if not coding.is_coding:
            raise MorphismError("coding must map letters to single letters")
        super().__init__(coding.apply("".join(sorted(coding.alphabet))))
        self.base_stream = base_stream
        self.coding = coding

    def prefix(self, n: int) -> str:
        return self.coding.apply(self.base_stream.prefix(n))


class ShiftedStream(WordStream):
    """The base stream with its first k letters dropped."""

    def __init__(self, base_stream: WordStream, k: int):
        if k < 0:
            raise ValueError("shift must be non-negative")
        super().__init__(base_stream.alphabet)
        self.base_stream = base_stream
        self.k = k

    def prefix(self, n: int) -> str:
        return self.base_stream.prefix(n + self.k)[self.k :]


def fixed_point_prefix(m: Morphism, start: str, n: int) -> str:
    """First n letters of the fixed point of m at a prolongable letter."""
    return FixedPointStream(m, start).prefix(n)
