"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every comparison is exact (integers and Fractions); the
random corpora use fixed seeds.
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import plcword as pw
from plcword import cli
from helpers import (
    binary_words_upto,
    extend_overlap_free,
    iterated_lengths,
    naive_is_overlap_free,
    overlap_free_census,
    prolongable_binary_morphisms,
    random_digit_word,
    random_morphism,
)

TM16 = "0110100110010110"


def _report(number: int, description: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: PASS {description} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def _planted_corpus(count: int = 100, length: int = 200, seed: int = 2024):
    """Random binary words with a planted v v v^delta each."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        m = rng.randint(2, 8)
        frac = rng.randint(1, 6)
        window = 2 * m + frac
        pos = rng.randint(0, length - window)
        word = list(random_digit_word(rng, length, 2))
        v = random_digit_word(rng, m, 2)
        word[pos : pos + window] = (v * ((window + m - 1) // m))[:window]
        tail = random_digit_word(rng, 60, 2)
        corpus.append(("".join(word), pos, v, frac, tail))
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return _planted_corpus()


def test_criterion_01_thue_morse_generation(tmp_path, capsys):
    started = time.perf_counter()
    path = tmp_path / "tm.mrf"
    path.write_text("0->01;1->10")
    code = cli.main(["gen", "--morphism", str(path), "--start", "0", "--length", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["result"]["word"] == TM16
    with capsys.disabled():
        _report(1, "Thue-Morse generation via the CLI", started, 1.0)


def test_criterion_02_certificate_soundness(corpus):
    started = time.perf_counter()
    for word, pos, v, frac, tail in corpus:
        m = len(v)
        # every detected square3 occurrence certifies and verifies
        for occ in pw.find_fractional_squares(word, 1, 3):
            cert = pw.certificate_from_occurrence(word, occ, 2, "square3")
            assert pw.verify_certificate(word, cert, 2)
        # the planted window, at its maximal extension
        t = m
        while pos + t < len(word) and word[pos + t] == word[pos + t - m]:
            t += 1
        repeats, f = divmod(t, m)
        assert repeats * m + f >= 2 * m + frac
        cert = pw.certificate_from_occurrence(
            word, pw.RepetitionOccurrence(pos, v, repeats, f), 2, "square3"
        )
        assert cert.s >= frac
        assert pw.verify_certificate(word, cert, 2)
        # independent oracle: exact interval minimisation on an extension
        res = pw.brute_force_min(word + tail, 2, 2**m, pos)
        assert res.value_hi < Fraction(1, 2**frac)
    _report(2, "planted square certificates, exact brute-force bound", started, 60.0)


def test_criterion_03_gcd_scores_and_divisibility(corpus):
    started = time.perf_counter()
    coprime_seen = 0
    for word, _, _, _, _ in corpus:
        for occ in pw.find_fractional_squares(word, 1, 2):
            if occ.period > 12:
                continue
            bound = pw.gcd_bound(occ.period_word, 2)
            if bound.d != 1:
                continue
            cert = pw.certificate_from_occurrence(word, occ, 2, "gcd")
            m = occ.period
            assert bound.ell == m
            assert cert.s == m * (occ.whole_repeats - 1) + occ.frac_len - 2 * m
            coprime_seen += 1
    assert coprime_seen > 100
    rng = random.Random(404)
    for _ in range(200):
        base = rng.choice((2, 3, 5))
        word = random_digit_word(rng, rng.randint(1, 12), base)
        res = pw.complement_divisibility_check(word, base)
        assert res.value == res.divisor * res.quotient
    _report(3, "coprime gcd scores and complement divisibility", started, 10.0)


def test_criterion_04_census_decomposition_and_squaring():
    started = time.perf_counter()
    census = overlap_free_census(20)
    # counts cross-checked against the naive filter over all binary words
    assert len(census[0]) == 1
    for n in range(1, 17):
        naive_count = sum(
            naive_is_overlap_free(format(i, f"0{n}b")) for i in range(2**n)
        )
        assert len(census[n]) == naive_count, n
    # every census word factors through the Thue-Morse morphism and rebuilds
    for n in range(1, 21):
        for word in census[n]:
            d = pw.decompose(word)
            assert len(d.u) <= 2 and len(d.v) <= 2
            assert d.reassemble() == word
    # overlap-freeness is preserved both ways by the morphism, exhaustively
    for word in binary_words_upto(14):
        pair = pw.mu_preserves_overlap_free(word)
        assert pair.y_free == pair.mu_y_free, word
    _report(4, "overlap-free census, factorisation, both-way preservation", started, 120.0)


def test_criterion_05_tm_prefix_extraction_bound():
    started = time.perf_counter()
    census = overlap_free_census(20)
    words = [w for n in range(1, 21) for w in census[n]]
    rng = random.Random(505)
    for base_word in rng.sample(census[20], 60):
        target = rng.randint(21, 64)
        extended = extend_overlap_free(base_word, target, rng)
        if extended is not None:
            words.append(extended)
    for word in words:
        chain = pw.extract_tm_prefix(word)
        assert chain.reassemble() == word
        assert 8 * chain.tm_prefix_len >= len(word) + 4
        got = word[chain.offset : chain.offset + chain.tm_prefix_len]
        head = "0" if chain.target == "M" else "1"
        assert got == pw.thue_morse_prefix(chain.tm_prefix_len, head)
    _report(5, f"Thue-Morse prefix bound on {len(words)} overlap-free words", started, 60.0)


def test_criterion_06_coded_constant_identities():
    started = time.perf_counter()
    for base in (2, 3, 5, 7, 10):
        checks = pw.tm_identity_suite(base, 64)
        assert checks and all(c.ok for c in checks), base
    _report(6, "coded-constant identity suite at 64 digits", started, 5.0)


def test_criterion_07_sandwich_on_random_rationals():
    started = time.perf_counter()
    rng = random.Random(707)
    from math import gcd

    done = 0
    while done < 500:
        den = rng.randint(3, 5000)
        num = rng.randint(1, den - 1)
        if gcd(num, den) != 1:
            continue
        assert pw.sandwich_check(Fraction(num, den)).holds
        done += 1
    _report(7, "two-sided quotient estimate on 500 reduced rationals", started, 30.0)


def test_criterion_08_classifier_census():
    started = time.perf_counter()
    tags = {}
    for morphism, start in prolongable_binary_morphisms(3):
        result = pw.classify_binary(morphism, start, depth=4096)
        assert result.tag != "UNRESOLVED", (morphism, start)
        tags[(repr(morphism), start)] = result
    mu_result = tags[(repr(pw.MU), "0")]
    assert mu_result.tag == "P1" and mu_result.matched == "M"
    case2 = pw.classify_binary(pw.parse_morphism("0->010;1->1"), "0", depth=4096)
    assert case2.tag == "P3" and case2.overlap.pattern() == "01010"
    case1 = pw.classify_binary(pw.parse_morphism("0->01;1->"), "0", depth=4096)
    assert case1.tag == "P2" and case1.case_label == "CaseI"
    outcomes = Counter((r.tag, r.case_label) for r in tags.values())
    assert outcomes == {
        ("P1", None): 2,
        ("P2", "CaseI"): 8,
        ("P2", "CaseII-1^n"): 20,
        ("P2", "CaseII-tail"): 2,
        ("P2", "u=0^n"): 60,
        ("P3", None): 88,
    }
    _report(8, f"classifier census of {len(tags)} morphisms at depth 4096", started, 60.0)


def test_criterion_09_thue_morse_improving_minima():
    started = time.perf_counter()
    prefix = pw.thue_morse_prefix(256)
    coarse = pw.brute_force_min(prefix, 2, 2**6, 0)
    fine = pw.brute_force_min(prefix, 2, 2**16, 0)
    assert fine.value_hi < coarse.value_hi
    _report(9, "strictly better approximation at larger q range", started, 120.0)


def test_criterion_10_growth_predicate_agreement():
    started = time.perf_counter()
    rng = random.Random(1010)
    for _ in range(200):
        m = random_morphism(rng, max_letters=3, max_image_len=3)
        for letter in sorted(m.alphabet):
            lengths = iterated_lengths(m, letter, 12)
            if pw.grows_unboundedly(m, letter):
                assert lengths[12] > lengths[6], (m, letter)
            else:
                assert lengths[12] == lengths[6], (m, letter)
    _report(10, "growth predicate vs 12-step iteration on 200 morphisms", started, 10.0)
