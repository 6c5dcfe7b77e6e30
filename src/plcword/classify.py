"""Classification of binary pure morphic words and growth predicates.

``classify_binary`` decides, for a binary morphism phi with phi(z) = z + u
prolongable on the start letter z, which of three structural properties its
fixed point w satisfies:

* P1 - w is the Thue-Morse word or its complement (depth-bounded claim:
  the generated prefix matches and carries no overlap);
* P2 - some non-trivial block v has every power v^n occurring in w;
* P3 - w contains an overlap a X a X a on a letter a whose iterated images
  grow without bound.

The detectors follow the exhaustive case analysis on the image of the other
letter o: empty image, a pure power of o, or an image containing z (which
forces primitivity).  P1/UNRESOLVED are depth-bounded outcomes; everything
returned as P2 or P3 is confirmed against a generated prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from .repetitions import OverlapOccurrence, first_overlap
from .tm import thue_morse_prefix
from .words import (
    FixedPointStream,
    Morphism,
    PeriodicStream,
    WordStream,
    mortal_letters,
)

__all__ = [
    "grows_unboundedly",
    "growth_classes",
    "Classification",
    "classify_binary",
    "restrict_to_subalphabet",
    "RecurrenceResult",
    "empirical_recurrence",
    "word_distance",
]

_SEARCH_CAP = 1 << 20
# P2 is reported once the witness cubed is found in the word
_CONFIRM_POWER = 3


def _reduced_images(m: Morphism) -> dict[str, str]:
    """Images with mortal letters erased, for non-mortal letters only."""
    mortal = mortal_letters(m)
    return {
        a: "".join(ch for ch in img if ch not in mortal)
        for a, img in m.images.items()
        if a not in mortal
    }


def grows_unboundedly(m: Morphism, letter: str) -> bool:
    """True iff the lengths |phi^n(letter)| tend to infinity.

    After erasing mortal letters every surviving letter keeps at least one
    successor, so it reaches a cycle in the reduced letter graph.  If every
    reachable cycle letter has a reduced image of length one, counts along
    cycles are conserved and lengths stay bounded; a reachable cycle letter
    with reduced image length >= 2 spawns an extra never-vanishing letter on
    each traversal, forcing the lengths to infinity.
    """
    reduced = _reduced_images(m)
    if letter not in reduced:
        return False
    # c is on a cycle iff it is reachable from its own image
    return any(
        len(reduced[c]) >= 2 and c in _reachable(reduced, reduced[c])
        for c in _reachable(reduced, letter)
    )


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


def growth_classes(m: Morphism) -> dict[str, str]:
    """Partition of the alphabet into mortal, bounded, and growing letters."""
    mortal = mortal_letters(m)
    out = {}
    for a in sorted(m.alphabet):
        if a in mortal:
            out[a] = "mortal"
        elif grows_unboundedly(m, a):
            out[a] = "growing"
        else:
            out[a] = "bounded"
    return out


@dataclass(frozen=True)
class Classification:
    """Outcome tag plus the evidence backing it."""

    tag: str
    matched: str | None = None
    depth_checked: int | None = None
    witness: str | None = None
    case_label: str | None = None
    confirmed_power: int | None = None
    overlap: OverlapOccurrence | None = None
    growing_letter: str | None = None

    def to_json(self) -> dict:
        """The fields that are set, in declaration order."""
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                data[f.name] = value.to_json() if f.name == "overlap" else value
        return data


def _find_in_stream(stream: WordStream, target: str, depth: int) -> int:
    """Index of the first occurrence of target, extending the prefix as
    needed (the callers only search for patterns certain to occur)."""
    size = max(depth, 4 * len(target) + 64)
    while size <= _SEARCH_CAP:
        idx = stream.prefix(size).find(target)
        if idx >= 0:
            return idx
        size *= 2
    raise AssertionError(f"pattern {target!r} not found within {_SEARCH_CAP} letters")


def classify_binary(m: Morphism, start: str, depth: int = 4096) -> Classification:
    """Decide P1/P2/P3 for the fixed point of a binary morphism at ``start``.

    The morphism must satisfy phi(start) = start + u with u non-empty.  When
    the other letter is erased and u carries no second copy of start, the
    iteration stalls on a finite word; the classified object is then the
    periodic word (phi(start)) repeated, which is what the erased-image case
    yields in general anyway.

    P2 returns only after the witness power v**3 is found in a
    generated prefix; P3 only with a located overlap whose letter passes
    ``grows_unboundedly``.  P1 and UNRESOLVED are claims about the first
    ``depth`` letters.
    """
    if m.alphabet != frozenset({"0", "1"}):
        raise ValueError("classification needs the alphabet {0, 1}")
    z = start
    o = "1" if z == "0" else "0"
    image = m.image(z)
    if len(image) < 2 or image[0] != z:
        raise ValueError(f"morphism is not prolongable on {z!r}")
    u = image[1:]
    v = m.images[o]

    def confirmed_p2(stream: WordStream, witness: str, label: str) -> Classification:
        _find_in_stream(stream, witness * _CONFIRM_POWER, depth)
        return Classification(
            tag="P2",
            witness=witness,
            case_label=label,
            confirmed_power=_CONFIRM_POWER,
        )

    # u made of the start letter alone: the fixed point is z z z ...
    if set(u) == {z}:
        return confirmed_p2(FixedPointStream(m, z), z, "u=0^n")

    # Case I: the other letter is erased, so w = (phi(z)) repeated.
    if v == "":
        return confirmed_p2(PeriodicStream(image), image, "CaseI")

    if set(v) == {o}:
        stream = FixedPointStream(m, z)
        if len(v) >= 2 or z not in u:
            # powers of o pump through phi^k(o) = o**(n**k); or u = o^k and
            # phi(o) = o, so the word is z followed by o forever
            return confirmed_p2(stream, o, "CaseII-1^n")
        if u.endswith(o):
            # u = u' z o^k: each application stretches the trailing o-run
            return confirmed_p2(stream, o, "CaseII-tail")
        # u ends in z and contains o: phi^2(z) already carries the overlap
        # z o^k z o^k z, with k the o-run just before the final z of u.
        body = u[:-1]
        run = len(body) - len(body.rstrip(o))
        pattern = z + o * run + z + o * run + z
        pos = _find_in_stream(stream, pattern, depth)
        occ = OverlapOccurrence(pos, z, o * run)
        assert grows_unboundedly(m, z)
        return Classification(tag="P3", overlap=occ, growing_letter=z)

    # Case III: the other letter's image contains z, making phi primitive,
    # so both letters grow; search the generated prefix for an overlap.
    stream = FixedPointStream(m, z)
    prefix = stream.prefix(depth)
    occ = first_overlap(prefix)
    if occ is not None:
        letter = occ.u
        if grows_unboundedly(m, letter):
            return Classification(tag="P3", overlap=occ, growing_letter=letter)
    else:
        for name, head in (("M", "0"), ("M~", "1")):
            if prefix == thue_morse_prefix(depth, start=head):
                return Classification(tag="P1", matched=name, depth_checked=depth)
    return Classification(tag="UNRESOLVED", depth_checked=depth)


def restrict_to_subalphabet(m: Morphism, letters) -> Morphism | None:
    """The restriction of the morphism to a sub-alphabet it preserves,
    or None when some image escapes the sub-alphabet."""
    sub = frozenset(letters)
    if not sub <= m.alphabet:
        raise ValueError("letters must form a sub-alphabet")
    if not sub:
        return None
    restricted = {a: m.images[a] for a in sub}
    for image in restricted.values():
        if any(ch not in sub for ch in image):
            return None
    return Morphism(restricted)


@dataclass(frozen=True)
class RecurrenceResult:
    window: int


def empirical_recurrence(prefix: str, n: int) -> RecurrenceResult:
    """Smallest N such that every length-N window of the prefix contains
    every length-n subword occurring in the prefix.

    Computed from the occurrence gaps of each subword.  A finite prefix is
    itself a window, so N <= len(prefix).
    """
    if n < 1 or n > len(prefix):
        raise ValueError("need 1 <= n <= len(prefix)")
    length = len(prefix)
    positions: dict[str, list[int]] = {}
    for i in range(length - n + 1):
        positions.setdefault(prefix[i : i + n], []).append(i)
    needed = n
    for occs in positions.values():
        needed = max(needed, n + occs[0], length - occs[-1])
        for prev, nxt in zip(occs, occs[1:]):
            needed = max(needed, n - 1 + nxt - prev)
    return RecurrenceResult(needed)


def word_distance(x: str, y: str) -> Fraction:
    """2**-(length of the longest common prefix); 0 for identical words."""
    if x == y:
        return Fraction(0)
    shared = 0
    for a, b in zip(x, y):
        if a != b:
            break
        shared += 1
    return Fraction(1, 2**shared)
