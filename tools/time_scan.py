"""Time ``scan_and_certify`` on the words of the ROADMAP's baseline table.

For a length n, prints one line per word: the seconds one
``scan_and_certify(word, 2, 1)`` call takes, the number of certificates
it returns, the seconds to encode them as ``cert`` prints its result
(the CLI's certificate rows and JSON writer), the seconds to
check them again as ``verify`` checks a list (``PlcCertificate.from_json``
with one shared dict that keeps each period word's gcd bound and each
checked window's q, s and bound text, then ``verify_certificate``, on the
certificates read back from that JSON text), and the sha256 of that text,
which shows whether a change to the scan keeps its bytes.  Exits with
status 1 if any certificate fails to verify.
The words are the first n letters of the Fibonacci word (0 -> 01,
1 -> 0), of the Thue-Morse word, and of a seeded random binary word
(``random.Random(1)`` drawing ``choice("01")`` max(n, 2**14) times, so its
first 2**14 letters do not depend on n).

Run from the repository root: ``PYTHONPATH=src python tools/time_scan.py --n 1024``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import time

# plcword imports numpy at a kernel's first call; loading it here keeps
# that import out of the first timing
import numpy  # noqa: F401

from plcword import (
    PlcCertificate,
    fixed_point_prefix,
    parse_morphism,
    scan_and_certify,
    thue_morse_prefix,
    verify_certificate,
)
from plcword.cli import _certificate_rows, _dumps

TARGET_S = 1


def words(n: int) -> dict[str, str]:
    rng = random.Random(1)
    drawn = {
        "fibonacci": fixed_point_prefix(parse_morphism("0->01;1->0"), "0", n),
        "thue-morse": thue_morse_prefix(n),
        "random": "".join(rng.choice("01") for _ in range(max(n, 2**14)))[:n],
    }
    for name, word in drawn.items():
        if len(word) != n:
            raise SystemExit(f"{name} word has {len(word)} letters, not {n}")
    return drawn


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True, help="word length")
    n = parser.parse_args().n
    rejected = 0
    for name, word in words(n).items():
        start = time.perf_counter()
        certs = scan_and_certify(word, 2, TARGET_S)
        scanned = time.perf_counter()
        text = _dumps({"certificates": _certificate_rows(certs)})
        encoded = time.perf_counter()
        read_back = json.loads(text)["certificates"]
        parsed = time.perf_counter()
        bounds = {}
        ok = sum(
            verify_certificate(word, PlcCertificate.from_json(data, bounds), 2)
            for data in read_back
        )
        verified = time.perf_counter()
        rejected += len(certs) - ok
        print(
            f"{name:<10} n={n:<6} {scanned - start:8.3f} s  {len(certs):>7,} certificates"
            f"  {encoded - scanned:7.3f} s to encode  {verified - parsed:7.3f} s to verify"
            f"  sha256 {hashlib.sha256(text.encode()).hexdigest()}"
        )
    if rejected:
        raise SystemExit(f"{rejected} certificates did not verify")


if __name__ == "__main__":
    main()
