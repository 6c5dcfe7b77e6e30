"""Seeded inputs and job lists for the three benchmark workloads.

``WORKLOADS[workload](seed, workdir)`` writes the input files of one
workload under ``workdir`` and returns its jobs: one ``plcword`` CLI invocation each,
with the check that its output must pass.  The same seed always gives the
same files and the same argument lists.  Input sizes are fixed per
workload and the seed only moves offsets and random content, so runs on
different seeds do comparable work.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks

FIBONACCI = {"0": "01", "1": "0"}
PERIOD_DOUBLING = {"0": "01", "1": "00"}


@dataclass(frozen=True)
class Job:
    """One CLI call: ``main(argv)`` writes JSON to ``out``, and ``check``
    turns the parsed document into work units or raises CheckFailed."""

    kind: str
    argv: tuple[str, ...]
    out: str
    check: Callable[[dict], int]


class _Writer:
    def __init__(self, workdir: str):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)

    def text(self, name: str, content: str) -> str:
        path = self.dir / name
        path.write_text(content + "\n", encoding="ascii")
        return str(path)

    def out(self, name: str) -> str:
        return str(self.dir / f"{name}.json")


def _job(writer: _Writer, kind: str, name: str, args: list, check) -> Job:
    # The CLI records its arguments in the document, so paths are relative
    # and fixed per seed to keep outputs byte-identical between runs.
    out = writer.out(name)
    return Job(kind, ("--out", out, kind, *map(str, args)), out, check)


def factor(word: str, rng: random.Random, n: int) -> str:
    offset = rng.randrange(len(word) - n + 1)
    return word[offset : offset + n]


def random_overlap_free(rng: random.Random, n: int) -> str:
    """A random binary overlap-free word, by depth-first search with random
    letter order; each step rejects an overlap ending at the new letter."""
    word: list[str] = []
    options: list[list[str]] = []
    while len(word) < n:
        if len(options) == len(word):
            options.append(rng.sample("01", 2))
        if not options[-1]:
            options.pop()
            word.pop()
            continue
        word.append(options[-1].pop())
        j = len(word) - 1
        for m in range(1, j // 2 + 1):
            if all(word[i] == word[i + m] for i in range(j - 2 * m, j - m + 1)):
                word.pop()
                break
    return "".join(word)


def certify_word_jobs(writer: _Writer, name: str, word: str, p: int) -> list[Job]:
    """detect (both kinds), cert, then verify of the emitted certificates."""
    digits = writer.text(f"{name}.txt", word)
    common = ["--digits", digits, "--p", p]
    jobs = [
        _job(writer, "detect", f"{name}-{kind}", [*common, "--kind", kind],
             lambda doc, kind=kind: checks.check_detect(doc, word, p, kind))
        for kind in ("square", "complement")
    ]
    # verify reads the certificate list, which is the "result" of the cert
    # document; the file is written when the cert output is checked.
    certs = writer.dir / f"{name}-certs.json"

    def check_cert(doc):
        certs.write_text(json.dumps(doc["result"]), encoding="ascii")
        return checks.check_cert(doc, word, p, 1)

    def check_verify(doc):
        return checks.check_verify(doc, json.loads(certs.read_text(encoding="ascii")))

    cert = _job(writer, "cert", f"{name}-cert", [*common, "--target-s", 1], check_cert)
    verify = _job(writer, "verify", f"{name}-verify", [*common, "--cert", certs], check_verify)
    return [*jobs, cert, verify]


def certify(seed: int, workdir: str) -> list[Job]:
    """Thue-Morse, Fibonacci and period-doubling factors at seeded offsets
    and seeded random words in bases 2 and 3.  Fibonacci at n = 240 is the
    JSON-heavy word (about 1,100 certificates kept); Thue-Morse keeps none.
    The words are short enough for a pass to take a few seconds, so a run
    has about ten passes."""
    rng = random.Random(f"certify:{seed}")
    writer = _Writer(workdir)
    corpus = [
        ("tm", factor(checks.tm_word(4096), rng, 160), 2),
        ("fib", factor(checks.fixed_point(FIBONACCI, "0", 4096), rng, 240), 2),
        ("pd", factor(checks.fixed_point(PERIOD_DOUBLING, "0", 4096), rng, 160), 2),
        ("rand2", "".join(rng.choices("01", k=160)), 2),
        ("rand3", "".join(rng.choices("012", k=160)), 3),
    ]
    return [job for name, word, p in corpus for job in certify_word_jobs(writer, name, word, p)]


def oracle(seed: int, workdir: str) -> list[Job]:
    """Brute force on Thue-Morse factors and random base-3 words, half with
    large Q and K = 0 and half with moderate Q and K = 15, then cf, orbit
    and tm jobs with fixed sizes and seeded values, each large enough that
    its own work, not CLI start-up, is most of its time."""
    rng = random.Random(f"oracle:{seed}")
    writer = _Writer(workdir)
    jobs = []
    words = [("tm", factor(checks.tm_word(4096), rng, 256), 2),
             ("rand3", "".join(rng.choices("012", k=160)), 3)]
    for (max_q, max_k), (name, word, p) in itertools.product(((1 << 15, 0), (1 << 11, 15)), words):
        digits = writer.text(f"{name}-{max_k}.txt", word)
        jobs.append(_job(writer, "bruteforce", f"bf-{name}-{max_k}",
                         ["--digits", digits, "--p", p, "--Q", max_q, "--K", max_k],
                         lambda doc, w=word, p=p, q=max_q, k=max_k:
                         checks.check_bruteforce(doc, w, p, q, k)))
    for i in range(8):
        x = Fraction(rng.getrandbits(2048), rng.getrandbits(2048) | 1)
        jobs.append(_job(writer, "cf", f"cf-{i}", ["--x", checks.rational_text(x)],
                         lambda doc, x=x: checks.check_cf(doc, x)))
    for i, p in enumerate((2, 3, 2, 3)):
        x = Fraction(rng.getrandbits(256), rng.getrandbits(256) | 1)
        jobs.append(_job(writer, "orbit", f"orbit-{i}",
                         ["--x", checks.rational_text(x), "--p", p, "--K", 48],
                         lambda doc, x=x, p=p: checks.check_orbit(doc, x, p, 48)))
    for n in (3, 5, 7, 10):
        a, b = rng.sample(range(n), 2)
        length = rng.randrange(1024, 1153)
        jobs.append(_job(writer, "tm", f"tm-{n}",
                         ["--a", a, "--b", b, "--n", n, "--L", length],
                         lambda doc, a=a, b=b, n=n, L=length: checks.check_tm(doc, a, b, n, L)))
    return jobs


def binary_census() -> list[tuple[dict[str, str], str]]:
    """All 180 (morphism, start) pairs over {0, 1} with images of length
    at most 3 and phi(start) = start + u, u non-empty."""
    images = ["".join(w) for n in range(4) for w in itertools.product("01", repeat=n)]
    pairs = []
    for z in "01":
        for a, b in itertools.product(images, repeat=2):
            morphism = {"0": a, "1": b}
            if len(morphism[z]) >= 2 and morphism[z][0] == z:
                pairs.append((morphism, z))
    return pairs


def structure(seed: int, workdir: str) -> list[Job]:
    """The classify census at depth 2^15 and decompose on overlap-free words
    of length 2^13 to 2^14, in a seeded order."""
    rng = random.Random(f"structure:{seed}")
    writer = _Writer(workdir)
    depth = 1 << 15
    jobs = []
    for i, (images, start) in enumerate(binary_census()):
        rules = ";".join(f"{a}->{images[a]}" for a in "01")
        path = writer.text(f"m{i}.mrf", rules)
        jobs.append(_job(writer, "classify", f"classify-{i}",
                         ["--morphism", path, "--start", start, "--depth", depth],
                         lambda doc, im=images, z=start: checks.check_classify(doc, im, z, depth)))
    tm = checks.tm_word(1 << 16)
    # mu preserves overlap-freeness, so factors of mu^9(y) are overlap-free
    grown = random_overlap_free(rng, 48)
    for _ in range(9):
        grown = checks.apply_images(checks.MU_IMAGES, grown)
    for name, source, n in (("tm-short", tm, (1 << 13) + rng.randrange(256)),
                            ("tm-long", tm, (1 << 14) - rng.randrange(256)),
                            ("of-short", grown, (1 << 13) + rng.randrange(256)),
                            ("of-long", grown, (1 << 14) - rng.randrange(256))):
        word = factor(source, rng, n)
        path = writer.text(f"{name}.txt", word)
        jobs.append(_job(writer, "decompose", name, ["--digits", path],
                         lambda doc, w=word: checks.check_decompose(doc, w)))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"certify": certify, "oracle": oracle, "structure": structure}
