"""Time ``classify_binary`` on the binary census and fixed-point stream growth.

For a depth N, prints the seconds that ``classify_binary(m, z, N)`` takes
over the census of the perfbench ``structure`` workload (``binary_census``
in ``perfbench/workloads.py``: all 180 pairs (phi, z) over {0, 1} with
images of length at most 3 and phi(z) = z + u, u non-empty): in all, then
per outcome with the number of pairs (the P1 line is the Thue-Morse pairs).  Then it prints
the seconds a fresh ``FixedPointStream(...).prefix(N)`` takes for the
Thue-Morse word (0 -> 01, 1 -> 10) and the Fibonacci word (0 -> 01, 1 -> 0),
the seconds ``first_overlap(thue_morse_prefix(N))`` takes (the word is
overlap-free, so the search makes a direct pass for every period: the
quadratic worst case, which no command reaches), and the seconds
``extract_tm_prefix`` takes on the same word: the factorisation chain that
``decompose`` builds, which also decides that the word is overlap-free.

Run from the repository root:
``PYTHONPATH=src:perfbench python tools/time_classify.py --depth 4096``.
"""

from __future__ import annotations

import argparse
import time
from collections import defaultdict

# plcword imports numpy at a kernel's first call; loading it here keeps
# that import out of the first timing
import numpy  # noqa: F401

from plcword import (
    FixedPointStream, Morphism, classify_binary, extract_tm_prefix, first_overlap,
    parse_morphism, thue_morse_prefix,
)
from workloads import binary_census

STREAMS = {"thue-morse": "0->01;1->10", "fibonacci": "0->01;1->0"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--depth", type=int, required=True, help="classify depth and stream length")
    n = parser.parse_args().depth
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for images, z in binary_census():
        m = Morphism(images)
        start = time.perf_counter()
        tag = classify_binary(m, z, n).tag
        seconds[tag] += time.perf_counter() - start
        counts[tag] += 1
    print(f"census     depth={n:<8} {sum(seconds.values()):8.4f} s  {sum(counts.values()):>4} pairs")
    for tag in sorted(seconds):
        print(f"  {tag:<10} {seconds[tag]:8.4f} s  {counts[tag]:>4} pairs")
    for name, rules in STREAMS.items():
        stream = FixedPointStream(parse_morphism(rules), "0")
        start = time.perf_counter()
        stream.prefix(n)
        print(f"{name:<10} n={n:<10} {time.perf_counter() - start:8.5f} s  stream prefix")
    word = thue_morse_prefix(n)
    for search in (first_overlap, extract_tm_prefix):
        start = time.perf_counter()
        search(word)
        print(f"thue-morse n={n:<10} {time.perf_counter() - start:8.5f} s  {search.__name__}")


if __name__ == "__main__":
    main()
