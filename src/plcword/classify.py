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

from dataclasses import dataclass
from typing import Callable

from .repetitions import OverlapOccurrence, first_overlap
from .tm import thue_morse_prefix
from .words import FixedPointStream, Morphism, _grows_unboundedly

__all__ = [
    "grows_unboundedly",
    "Classification",
    "classify_binary",
]

_SEARCH_CAP = 1 << 20
# P2 is reported once the witness cubed is found in the word
_CONFIRM_POWER = 3


def grows_unboundedly(m: Morphism, letter: str) -> bool:
    """True iff the lengths |phi^n(letter)| tend to infinity: some cycle
    letter reachable from it, with mortal letters erased, has an image of
    two or more letters."""
    return _grows_unboundedly(m, letter)


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
        data = {name: value for name, value in vars(self).items() if value is not None}
        if self.overlap is not None:
            data["overlap"] = self.overlap.to_json()
        return data


def _find_in_stream(prefix: Callable[[int], str], target: str) -> int:
    """Index of the first occurrence of target in a word, given by the
    function from n to its first n letters.

    Reads 4 * len(target) + 64 letters first and doubles the prefix until
    it reaches ``_SEARCH_CAP``, which is always the last prefix read; the
    first occurrence does not depend on where the search starts.  The
    callers only search for patterns certain to occur.
    """
    size = 4 * len(target) + 64
    while True:
        idx = prefix(min(size, _SEARCH_CAP)).find(target)
        if idx >= 0:
            return idx
        if size >= _SEARCH_CAP:
            raise AssertionError(f"pattern {target!r} not found within {_SEARCH_CAP} letters")
        size *= 2


def classify_binary(m: Morphism, start: str, depth: int = 4096) -> Classification:
    """Decide P1/P2/P3 for the fixed point of a binary morphism at ``start``.

    The morphism must satisfy phi(start) = start + u with u non-empty.  When
    the other letter is erased and u carries no second copy of start, the
    iteration stalls on a finite word; the classified object is then the
    periodic word (phi(start)) repeated, which is what the erased-image case
    yields in general anyway.

    P2 returns only after the witness power v**3 is found in a generated
    prefix, and Case II's P3 only after its overlap is; these searches read
    as far as the pattern needs, whatever ``depth`` is.  ``depth`` (at
    least 1) bounds only the Case III overlap scan: P3 there needs an
    overlap in the first ``depth`` letters whose letter passes
    ``grows_unboundedly``, and P1 and UNRESOLVED are claims about them.

    Case III compares the prefix with the Thue-Morse prefix of the same
    start letter before it scans for overlaps.  The Thue-Morse word is
    overlap-free (Thue, 1912), so a match would pass the scan anyway: P1
    needs no scan, and the result is the one the scan-first order gives.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if m.alphabet != frozenset({"0", "1"}):
        raise ValueError("classification needs the alphabet {0, 1}")
    z = start
    o = "1" if z == "0" else "0"
    image = m.image(z)
    if len(image) < 2 or image[0] != z:
        raise ValueError(f"morphism is not prolongable on {z!r}")
    u = image[1:]
    v = m.images[o]

    def confirmed_p2(prefix: Callable[[int], str], witness: str, label: str) -> Classification:
        _find_in_stream(prefix, witness * _CONFIRM_POWER)
        return Classification(
            tag="P2",
            witness=witness,
            case_label=label,
            confirmed_power=_CONFIRM_POWER,
        )

    # u made of the start letter alone: the fixed point is z z z ...
    if set(u) == {z}:
        return confirmed_p2(FixedPointStream(m, z).prefix, z, "u=0^n")

    # Case I: the other letter is erased, so w = (phi(z)) repeated.
    if v == "":
        return confirmed_p2(lambda n: (image * (n // len(image) + 1))[:n], image, "CaseI")

    if set(v) == {o}:
        fixed_point = FixedPointStream(m, z).prefix
        if len(v) >= 2 or z not in u:
            # powers of o pump through phi^k(o) = o**(n**k); or u = o^k and
            # phi(o) = o, so the word is z followed by o forever
            return confirmed_p2(fixed_point, o, "CaseII-1^n")
        if u.endswith(o):
            # u = u' z o^k: each application stretches the trailing o-run
            return confirmed_p2(fixed_point, o, "CaseII-tail")
        # u ends in z and contains o: phi^2(z) already carries the overlap
        # z o^k z o^k z, with k the o-run just before the final z of u.
        body = u[:-1]
        run = len(body) - len(body.rstrip(o))
        pattern = z + o * run + z + o * run + z
        pos = _find_in_stream(fixed_point, pattern)
        occ = OverlapOccurrence(pos, z, o * run)
        assert grows_unboundedly(m, z)
        return Classification(tag="P3", overlap=occ, growing_letter=z)

    # Case III: the other letter's image contains z, making phi primitive,
    # so both letters grow; search the generated prefix for an overlap.
    # the first 64 letters decide most pairs, so the Thue-Morse streams
    # only grow to ``depth`` for prefixes that may match
    prefix = FixedPointStream(m, z).prefix(depth)
    head = thue_morse_prefix(min(depth, 64), start=z)
    if prefix.startswith(head) and prefix == thue_morse_prefix(depth, start=z):
        matched = "M" if z == "0" else "M~"
        return Classification(tag="P1", matched=matched, depth_checked=depth)
    occ = first_overlap(prefix)
    if occ is not None and grows_unboundedly(m, occ.u):
        return Classification(tag="P3", overlap=occ, growing_letter=occ.u)
    return Classification(tag="UNRESOLVED", depth_checked=depth)
