import random
from decimal import Decimal
from fractions import Fraction
from itertools import takewhile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plcword as pw
from helpers import (
    _naive_dist_interval,
    digit_words,
    integer_brute_force_min,
    naive_brute_force_min,
    naive_least_ell,
    naive_period_runs,
    naive_scan_and_certify,
    random_digit_word,
    root_length,
)
from plcword import witness
from plcword.witness import (
    _bound_text,
    _convergents,
    _ell_floors,
    _plain_runs,
)

FIBONACCI_240 = pw.fixed_point_prefix(pw.parse_morphism("0->01;1->0"), "0", 240)
PERIOD_DOUBLING_160 = pw.fixed_point_prefix(pw.parse_morphism("0->01;1->00"), "0", 160)


def plant_repetition(rng, length, base=2):
    """Random word with a planted v v v^delta; returns (word, occurrence data)."""
    m = rng.randint(2, 8)
    frac = rng.randint(1, 6)
    window = 2 * m + frac
    word = list(random_digit_word(rng, length, base))
    pos = rng.randint(0, length - window)
    v = random_digit_word(rng, m, base)
    pattern = (v * ((window + m - 1) // m))[:window]
    word[pos : pos + window] = pattern
    return "".join(word), pos, v, frac


class TestCertificateFromOccurrence:
    def test_square3_example(self):
        occ = pw.RepetitionOccurrence(0, "01", 2, 1)
        cert = pw.certificate_from_occurrence("0101010", occ, 2, "square3")
        assert (cert.k, cert.q, cert.s) == (0, 3, 1)
        assert cert.bound == Fraction(1, 2)
        assert not cert.vacuous

    def test_gcd_example_is_vacuous(self):
        occ = pw.RepetitionOccurrence(0, "1210", 1, 1)
        cert = pw.certificate_from_occurrence("12101", occ, 3, "gcd")
        assert (cert.k, cert.q, cert.s) == (0, 5, -3)
        assert cert.vacuous
        assert cert.bound == 27

    def test_trivial_square_is_vacuous(self):
        occ = pw.RepetitionOccurrence(0, "1", 2, 0)
        cert = pw.certificate_from_occurrence("11", occ, 2, "square3")
        assert (cert.q, cert.s, cert.bound) == (1, 0, Fraction(1))
        assert cert.vacuous

    def test_all_zero_period_gets_q_one(self):
        occ = pw.RepetitionOccurrence(0, "00", 2, 1)
        cert = pw.certificate_from_occurrence("00000", occ, 2, "gcd")
        assert cert.q == 1

    def test_longer_repeats_raise_the_score(self):
        occ = pw.RepetitionOccurrence(0, "01", 3, 1)
        cert = pw.certificate_from_occurrence("0101010", occ, 2, "square3")
        assert cert.s == 3
        assert cert.bound == Fraction(1, 8)

    def test_occurrence_mismatch_rejected(self):
        occ = pw.RepetitionOccurrence(0, "01", 2, 1)
        with pytest.raises(ValueError):
            pw.certificate_from_occurrence("0111010", occ, 2, "square3")

    def test_square3_needs_two_copies(self):
        occ = pw.RepetitionOccurrence(0, "01", 1, 1)
        with pytest.raises(ValueError):
            pw.certificate_from_occurrence("010", occ, 2, "square3")

    @pytest.mark.parametrize(
        "word, kind, repeats, error",
        [
            # the window is read before the kind
            ("0111010", "cube", 2, "occurrence does not match the word"),
            ("0101010", "cube", 2, "unknown certificate kind 'cube'"),
            ("01", "gcd", 0, "gcd certificates need repeats >= 1"),
        ],
        ids=["mismatch-first", "unknown-kind", "gcd-copies"],
    )
    def test_errors_in_order(self, word, kind, repeats, error):
        occ = pw.RepetitionOccurrence(0, "01", repeats, 1 if repeats else 0)
        with pytest.raises(ValueError, match=f"^{error}$"):
            pw.certificate_from_occurrence(word, occ, 2, kind)


class TestVerifyCertificate:
    def cert(self):
        occ = pw.RepetitionOccurrence(0, "01", 2, 1)
        return pw.certificate_from_occurrence("0101010", occ, 2, "square3")

    def test_matching_prefix(self):
        assert pw.verify_certificate("0101010", self.cert(), 2) is True

    def test_break_inside_window(self):
        assert pw.verify_certificate("0100010", self.cert(), 2) is False

    def test_prefix_too_short_reports_requirement(self):
        with pytest.raises(ValueError, match="^need 5 letters, prefix has 3$"):
            pw.verify_certificate("010", self.cert(), 2)

    def test_digits_after_window_are_irrelevant(self):
        cert = self.cert()
        base_res = pw.verify_certificate("01010", cert, 2)
        for tail in ("00", "11", "01", "10"):
            res = pw.verify_certificate("01010" + tail, cert, 2)
            assert res == base_res

    def test_wrong_base_rejected(self):
        with pytest.raises(ValueError):
            pw.verify_certificate("0101010", self.cert(), 3)

    def test_bound_is_built_only_when_read(self, monkeypatch):
        word = "0010" * 40
        certs = pw.scan_and_certify(word, 2, 1)
        def no_bound(cert):
            raise AssertionError("verify built the bound")
        monkeypatch.setattr(pw.PlcCertificate, "bound", property(no_bound))
        results = [pw.verify_certificate(word, cert, 2) for cert in certs]
        assert certs and all(results)


class TestBruteForceMin:
    def test_near_one_third(self):
        prefix = "01" * 10
        res = pw.brute_force_min(prefix, 2, 3, 0)
        assert res.q == 3 and res.k == 0
        assert res.value_hi <= Fraction(3, 2**19)

    def test_single_candidate_near_half(self):
        for length in (1, 5, 12):
            prefix = "1" + "0" * (length - 1)
            res = pw.brute_force_min(prefix, 2, 1, 0)
            assert res.q == 1 and res.k == 0
            assert res.value_lo <= Fraction(1, 2) <= res.value_hi + Fraction(1, 2**length)
            assert res.value_hi == Fraction(1, 2)

    def test_enclosure_is_sound(self):
        rng = random.Random(31)
        for _ in range(40):
            base = rng.choice((2, 3))
            prefix = random_digit_word(rng, rng.randint(4, 20), base)
            max_q, max_k = rng.randint(1, 8), rng.randint(0, 3)
            res = pw.brute_force_min(prefix, base, max_q, max_k)
            # for any continuation, the reported pair's value stays inside
            # its enclosure and the true minimum never exceeds the bound
            for tail in ("", "1", "0" * 5, str(base - 1) * 5):
                x = pw.prefix_value(prefix + tail, base)
                at_star = pw.quality(res.q, res.k, base, x)
                assert res.value_lo <= at_star <= res.value_hi
                best = min(
                    pw.quality(q, k, base, x)
                    for q in range(1, max_q + 1)
                    for k in range(max_k + 1)
                )
                assert best <= res.value_hi

    def test_tie_breaking_prefers_small_k_then_q(self):
        res = pw.brute_force_min("00000000", 2, 4, 2)
        assert (res.q, res.k) == (1, 0)


class TestBruteForceMatchesNaive:
    @given(
        digit_words(bases=range(2, 11)).flatmap(
            lambda wb: st.tuples(
                st.just(wb), st.integers(1, 80), st.integers(0, len(wb[0]) + 5)
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_same_result(self, case):
        (word, base), max_q, max_k = case
        got = pw.brute_force_min(word, base, max_q, max_k)
        assert got == naive_brute_force_min(word, base, max_q, max_k)

    @pytest.mark.parametrize(
        "prefix, base, max_q, max_k",
        [
            ("", 2, 5, 0),  # empty prefix: every candidate spans [0, q/2]
            ("", 7, 3, 4),
            ("0110", 2, 6, 9),  # K past the prefix length
            ("21", 3, 30, 4),
            ("101", 2, 8, 0),  # Q >= p**(len-k) at k = 0 already
            ("4031", 5, 700, 2),  # Q >= p**(len-k) from k = 0 on
            ("0000000", 2, 20, 3),  # all-zero prefixes
            ("000", 10, 40, 1),
            ("1111111", 2, 20, 3),  # all-(p-1) prefixes
            ("22222", 3, 50, 2),
            ("99999", 10, 80, 6),
            ("00000000", 2, 4, 2),  # the tie of test_tie_breaking_prefers_small_k_then_q
        ],
    )
    def test_edge_cases(self, prefix, base, max_q, max_k):
        got = pw.brute_force_min(prefix, base, max_q, max_k)
        assert got == naive_brute_force_min(prefix, base, max_q, max_k)

    @pytest.mark.parametrize("max_q, max_k", [(0, 1), (-3, 0), (1, -1)])
    def test_out_of_range_search_is_rejected(self, max_q, max_k):
        with pytest.raises(ValueError):
            pw.brute_force_min("0101", 2, max_q, max_k)

    @pytest.mark.parametrize("prefix", ["", "0"])
    @pytest.mark.parametrize("base", [0, 1, 11])
    def test_bad_base_is_rejected_for_any_prefix(self, prefix, base):
        with pytest.raises(ValueError, match="base"):
            pw.brute_force_min(prefix, base, 3, 0)
        with pytest.raises(ValueError, match="base"):
            pw.enclosure(prefix, base, 1, 0)


# 0 <= r < den = p**n, p in 2..10, n <= 12, as the exact search meets them
SHIFTED_FRACTIONS = st.integers(2, 10).flatmap(
    lambda base: st.integers(0, 12).flatmap(
        lambda n: st.tuples(st.integers(0, base**n - 1), st.just(base**n))
    )
)


class TestConvergents:
    @given(SHIFTED_FRACTIONS, st.integers(1, 5000))
    @example((0, 1), 5000)
    @example((0, 2**12), 1)
    @example((3**11, 3**12), 5000)
    @settings(max_examples=150, deadline=None)
    def test_denominators_and_remainders(self, fraction, max_q):
        r, den = fraction
        pairs = list(_convergents(r, den, max_q))
        # the denominators, rebuilt from cf's quotients, cut at max_q
        rebuilt, prev = [1], 0
        for c in pw.cf_expand(Fraction(r, den)).quotients:
            prev, q = rebuilt[-1], c * rebuilt[-1] + prev
            rebuilt.append(q)
        assert [q for q, _ in pairs] == list(takewhile(lambda q: q <= max_q, rebuilt))
        for j, (q, d) in enumerate(pairs):
            assert (q * r - d) % den == 0
            # D_0 = r >= 0, then the signs alternate, and only the last is 0
            assert d == 0 or (d > 0) == (j % 2 == 0)
            assert d != 0 or j == len(pairs) - 1
        ds = [abs(d) for _, d in pairs]
        assert all(a > b for a, b in zip(ds, ds[1:]))


class TestPrefilter:
    @given(
        digit_words(max_len=12, bases=range(2, 11)).flatmap(
            lambda wb: st.tuples(
                st.just(wb),
                st.sampled_from((4096, 4097, 8193, 12289)) | st.integers(1, 12289),
                st.integers(0, len(wb[0]) + 4),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_same_result(self, case):
        # max_k past the length reaches den = 1, where the step is clamped
        (word, base), max_q, max_k = case
        got = pw.brute_force_min(word, base, max_q, max_k)
        assert got == integer_brute_force_min(word, base, max_q, max_k)

    @pytest.mark.parametrize("base", [2, 3, 10])
    @pytest.mark.parametrize("letter", ["0", "top"])
    def test_constant_prefixes(self, base, letter):
        word = (str(base - 1) if letter == "top" else "0") * 12
        got = pw.brute_force_min(word, base, 5000, 14)
        assert got == integer_brute_force_min(word, base, 5000, 14)

    @given(SHIFTED_FRACTIONS, st.integers(1, 5000))
    @example((0, 1), 5000)
    @example((0, 2**12), 1)
    @settings(max_examples=150, deadline=None)
    def test_every_minimiser_is_a_candidate(self, fraction, max_q):
        # every q's exact upper end, by the Fraction oracle
        shifted, den = fraction
        tops = [q * _naive_dist_interval(q * shifted, q * shifted + q, den)[1]
                for q in range(1, max_q + 1)]
        least = min(tops)
        winners = {q for q, top in enumerate(tops, 1) if top == least}
        assert winners <= {q for q, _ in _convergents(shifted, den, max_q)}

    def test_candidates_per_shift_are_logarithmic(self):
        word = pw.thue_morse_prefix(256)
        value = pw.word_value(word, 2)
        max_q = 1 << 16
        for k in range(16):
            den = 2 ** (256 - k)
            qs = [q for q, _ in _convergents(value % den, den, max_q)]
            assert len(qs) <= 2 * max_q.bit_length() + 3

    def test_largest_q_refines_the_pinned_search(self):
        # tests/golden/inputs/tm64.txt; (257, 16) is also what a test of every q gives
        word = pw.thue_morse_prefix(64)
        pinned = pw.brute_force_min(word, 2, 1 << 20, 16)
        assert (pinned.q, pinned.k) == (257, 16)
        assert pinned.value_hi == Fraction(378975541, 2**47)
        widest = pw.brute_force_min(word, 2, (1 << 63) - 1, 16)
        assert widest.value_hi <= pinned.value_hi
        # past 2**63, and at every q up to 2**64 = p**len
        every = pw.brute_force_min(word, 2, 1 << 64, 16)
        assert (every.q, every.k, every.value_hi) == (257, 16, Fraction(378975541, 2**47))

    @given(
        # the longest prefixes with p**len <= 1024
        st.sampled_from([(2, 10), (3, 6), (4, 5), (5, 4)]).flatmap(
            lambda bl: digit_words(max_len=bl[1], bases=(bl[0],))
        ).flatmap(lambda wb: st.tuples(st.just(wb), st.integers(0, len(wb[0]) + 2)))
    )
    @settings(max_examples=100, deadline=None)
    def test_q_up_to_p_to_the_len_is_every_q(self, case):
        # every convergent denominator of each shift is at most p**len, so
        # no larger Q changes the result
        (word, base), max_k = case
        every_q = base ** len(word)
        got = pw.brute_force_min(word, base, every_q, max_k)
        assert got == naive_brute_force_min(word, base, every_q, max_k)
        assert got == pw.brute_force_min(word, base, every_q * 10**30 + 7, max_k)

    @pytest.mark.parametrize("j", range(2, 8))
    def test_thue_morse_squares_are_found_exactly(self, j):
        # mu^j(1) mu^j(1) sits at k = 2**j, and its period has a q of
        # 2**(j-1) + 1 bits; at j = 7 that q is past 2**64
        word = pw.thue_morse_prefix(3 * 2**j)
        res = pw.brute_force_min(word, 2, 2 ** len(word), 2**j)
        assert res.k == 2**j
        assert res.q.bit_length() == 2 ** (j - 1) + 1
        assert res.value_hi < Fraction(1, 2 ** (2**j))


class TestEnclosure:
    @given(
        digit_words(max_len=24).flatmap(
            lambda wb: st.tuples(
                st.just(wb),
                st.integers(1, 60),
                st.integers(0, len(wb[0]) + 3),
                st.lists(st.integers(0, wb[1] - 1), max_size=12),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_contains_every_continuation(self, case):
        (word, base), q, k, tail = case
        lo, hi = pw.enclosure(word, base, q, k)
        assert 0 <= lo <= hi <= Fraction(q, 2)
        for digits in ("".join(map(str, tail)), str(base - 1) * 12, ""):
            x = pw.prefix_value(word + digits, base)
            assert lo <= pw.quality(q, k, base, x) <= hi
        # the greatest continuation, all (p-1)s forever, is the right end
        if word:
            x = pw.prefix_value(word, base)
            assert lo <= pw.quality(q, k, base, x + Fraction(1, base ** len(word))) <= hi

    @given(
        digit_words(max_len=24).flatmap(
            lambda wb: st.tuples(st.just(wb), st.integers(1, 60), st.integers(0, 8))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_brute_force_reports_the_enclosure_of_its_pair(self, case):
        (word, base), max_q, max_k = case
        res = pw.brute_force_min(word, base, max_q, max_k)
        assert (res.value_lo, res.value_hi) == pw.enclosure(word, base, res.q, res.k)

    def test_known_values(self):
        # x in [85, 86] / 256, so 3x in [255, 258] / 256 holds 1 and reaches 2/256
        assert pw.enclosure("01010101", 2, 3, 0) == (0, Fraction(3 * 2, 256))
        # x in [1, 2] / 8, so 3x in [3, 6] / 8 holds 1/2 and is nearest 1 at 6/8
        assert pw.enclosure("001", 2, 3, 0) == (Fraction(3 * 2, 8), Fraction(3, 2))
        # k at or past the prefix length: the whole range [0, q/2]
        assert pw.enclosure("0101", 2, 3, 4) == (0, Fraction(3, 2))
        assert pw.enclosure("", 5, 2, 0) == (0, 1)

    @pytest.mark.parametrize("q, k", [(0, 0), (-1, 2), (1, -1)])
    def test_out_of_range_pair_is_rejected(self, q, k):
        with pytest.raises(ValueError):
            pw.enclosure("0101", 2, q, k)


def maximal_occurrence(word, pos, v):
    """The period-|v| occurrence at pos, extended as far as it literally goes."""
    m = len(v)
    t = m
    while pos + t < len(word) and word[pos + t] == word[pos + t - m]:
        t += 1
    repeats, frac = divmod(t, m)
    return pw.RepetitionOccurrence(pos, v, repeats, frac)


class TestSoundness:
    def test_planted_certificates_hold_for_all_continuations(self):
        rng = random.Random(37)
        for _ in range(20):
            word, pos, v, frac = plant_repetition(rng, 120)
            occ = maximal_occurrence(word, pos, v)
            assert occ.whole_repeats >= 2
            cert = pw.certificate_from_occurrence(word, occ, 2, "square3")
            assert cert.s >= frac
            assert pw.verify_certificate(word, cert, 2)
            for _ in range(10):
                extended = word[: cert.k + cert.window_len] + random_digit_word(
                    rng, 40, 2
                )
                value = pw.quality(cert.q, cert.k, 2, pw.prefix_value(extended, 2))
                assert value < cert.bound

    def test_brute_force_agrees_with_certificates(self):
        rng = random.Random(41)
        for _ in range(10):
            word, pos, v, frac = plant_repetition(rng, 60)
            occ = maximal_occurrence(word, pos, v)
            cert = pw.certificate_from_occurrence(word, occ, 2, "square3")
            slack = cert.k + 2 * occ.whole_repeats * occ.period + occ.frac_len + cert.s + 4
            extended = word[: cert.k + cert.window_len] + random_digit_word(rng, slack, 2)
            res = pw.brute_force_min(extended, 2, cert.q, cert.k)
            assert res.value_hi < cert.bound


class TestEndToEndSoundness:
    """Every certificate the scan emits holds: at exactly its (q, k), the
    enclosure over all continuations of the window stays below the bound."""

    N = 200
    WORDS = {
        "random2": random_digit_word(random.Random(47), N, 2),
        "random3": random_digit_word(random.Random(53), N, 3),
        "fibonacci": pw.fixed_point_prefix(pw.parse_morphism("0->01;1->0"), "0", N),
        "thue-morse": pw.FixedPointStream(pw.MU, "0").prefix(N),
    }

    @pytest.mark.parametrize(
        "name, base",
        [(name, base) for name in WORDS for base in (2, 3) if name != "random3" or base == 3],
    )
    def test_every_certificate_is_below_its_bound(self, name, base):
        word = self.WORDS[name]
        certs = pw.scan_and_certify(word, base, 1)
        # Thue-Morse is overlap-free, and no window in it reaches s = 1
        assert bool(certs) == (name != "thue-morse")
        for cert in certs:
            _, hi = pw.enclosure(word[: cert.k + cert.window_len], base, cert.q, cert.k)
            assert hi < cert.bound, cert.to_json()


class TestScanAndCertify:
    def test_periodic_stream_scores_grow(self):
        certs = pw.scan_and_certify("011" * 10, 2, 4)
        assert certs
        best = certs[0]
        assert best.kind == "square3"
        assert best.period in ("011", "110", "101")
        assert best.s >= 30 // 3 - 3
        deeper = pw.scan_and_certify("011" * 20, 2, 4)
        assert deeper[0].s > best.s

    def test_thue_morse_has_no_square3_certificates(self):
        stream = pw.FixedPointStream(pw.MU, "0")
        certs = pw.scan_and_certify(stream.prefix(64), 2, -100)
        assert certs, "gcd-kind certificates still appear"
        assert not [c for c in certs if c.kind == "square3"]

    def test_complement_pattern_yields_gcd_certificate(self):
        # v v~ v[:1] patterns over base 3, as in the periodic word 1210...
        certs = pw.scan_and_certify("121012", 3, -5)
        comp = [
            c
            for c in certs
            if c.kind == "gcd" and c.period == "1210" and c.k == 0
        ]
        assert comp
        assert comp[0].vacuous  # desk-scale window, score stays negative

    def test_sorted_by_decreasing_score_and_deterministic(self):
        once = pw.scan_and_certify("0110" * 10, 2, 0)
        again = pw.scan_and_certify("0110" * 10, 2, 0)
        assert once == again
        assert [c.s for c in once] == sorted((c.s for c in once), reverse=True)

    def test_respects_target_threshold(self):
        for target in (0, 5, 10):
            assert all(c.s >= target for c in pw.scan_and_certify("01" * 20, 2, target))

    def test_bad_digit_after_the_last_run(self):
        with pytest.raises(ValueError, match="^letter '2' is not a base-2 digit$"):
            pw.scan_and_certify("0110" * 10 + "2", 2, 1)

    def test_period_past_the_int_string_limit(self):
        # int() converts at most 4,300 digits in base 3; this period has 4,400
        v = random_digit_word(random.Random(61), 4400, 3)
        word = v + v + v[:100]
        certs = pw.scan_and_certify(word, 3, 1)
        assert any(len(c.period) == 4400 for c in certs)
        bounds = {}
        for cert in certs:
            assert pw.PlcCertificate.from_json(cert.to_json(), bounds) == cert
            assert pw.verify_certificate(word, cert, 3)


class TestScanMatchesNaiveScan:
    @given(digit_words().filter(lambda wb: wb[0]))
    @settings(max_examples=150, deadline=None)
    def test_same_certificates_and_json(self, word_base):
        word, base = word_base
        for target in (-100, -3, 0, 1, 3):
            got = pw.scan_and_certify(word, base, target)
            want = naive_scan_and_certify(word, base, target)
            assert got == want, target
            assert [c.to_json() for c in got] == [c.to_json() for c in want]


@st.composite
def cut_powers(draw):
    """(word, base): u * j for a random u of 1-6 letters, or u = v v~ with
    v of 1-3 letters, cut to a random length and with 0-3 letters changed,
    so that runs of period |u| carry runs whose period word is a proper
    power, and runs of a v v~ word hold complement windows."""
    base = draw(st.integers(2, 5))
    digit = st.integers(0, base - 1).map(str)
    u = "".join(draw(st.lists(digit, min_size=1, max_size=6)))
    if draw(st.booleans()):
        u = u[:3] + pw.complement(u[:3], base)
    word = list((u * draw(st.integers(2, 12)))[: draw(st.integers(1, 40))])
    for _ in range(draw(st.integers(0, 3))):
        word[draw(st.integers(0, len(word) - 1))] = draw(digit)
    return "".join(word), base


class TestProperPowerRuns:
    @given(cut_powers())
    @example(("0100100100100100100", 2))
    @settings(max_examples=150, deadline=None)
    def test_same_certificates_and_json(self, word_base):
        word, base = word_base
        for target in range(-3, 6):
            got = pw.scan_and_certify(word, base, target)
            want = naive_scan_and_certify(word, base, target)
            assert got == want, target
            assert [c.to_json() for c in got] == [c.to_json() for c in want]


class TestPlainRuns:
    @given(cut_powers())
    @example(("0100100100100100100", 2))
    @settings(max_examples=150, deadline=None)
    def test_yields_the_runs_that_may_reach_the_target(self, word_base):
        # m > 1, and a square3 window or a gcd window reaching the target with
        # ell at the floor of the period's primitive root; each run once
        word, base = word_base
        for target in range(-3, 6):
            want = []
            for m, a, b in naive_period_runs(word, word):
                floor = naive_least_ell(root_length(word[a : a + m]) + 1, base)
                if m > 1 and (b - a >= m + max(target, 0) or b - a >= target + 2 * floor):
                    want.append((m, a, b))
            assert sorted(_plain_runs(word, base, target)) == sorted(want), target


class TestKernelCut:
    @pytest.mark.parametrize("base", range(2, 11))
    def test_floors_match_naive_least_ell(self, base):
        floors = _ell_floors(5001, base)
        assert floors.dtype == np.int64
        assert floors.tolist() == [naive_least_ell(m + 1, base) for m in range(5001)]

    def test_few_plain_runs_leave_the_kernel(self, monkeypatch):
        # the cut target + 2 alone lets 1,994 plain runs of this word through
        plain = []
        period_runs = witness._period_runs

        def logged(word, image, cut):
            for run in period_runs(word, image, cut):
                if image == word:
                    plain.append(run)
                yield run

        monkeypatch.setattr(witness, "_period_runs", logged)
        pw.scan_and_certify(FIBONACCI_240, 2, 1)
        assert 0 < len(plain) <= 300

    @pytest.mark.parametrize("target", [10**30, -(10**30)])
    def test_targets_past_int64(self, target):
        word = "0100100100100100100"
        assert pw.scan_and_certify(word, 2, target) == naive_scan_and_certify(word, 2, target)


class TestOneGcdPerRun:
    @pytest.mark.parametrize(
        "word, base",
        [
            (FIBONACCI_240, 2),
            (random_digit_word(random.Random(3), 200, 2), 2),
            ("0112" * 40, 3),
        ],
        ids=["fibonacci", "random-2", "periodic-3"],
    )
    def test_gcd_bound_once_per_run(self, monkeypatch, word, base):
        want = naive_scan_and_certify(word, base, 1)
        runs, gcd_runs, built = [], [], []

        def logged_runs(*args):
            for run in plain_runs(*args):
                runs.append(run)
                yield run

        def log_calls(name, log, entry):
            original = getattr(witness, name)

            def logged(*args):
                log.append(entry())
                return original(*args)

            monkeypatch.setattr(witness, name, logged)

        plain_runs = witness._plain_runs
        monkeypatch.setattr(witness, "_plain_runs", logged_runs)
        log_calls("_gcd_bound", gcd_runs, lambda: len(runs))
        log_calls("_certificate", built, lambda: None)
        # the run's one check covers its windows: none is read again
        monkeypatch.setattr(witness, "certificate_from_occurrence", None)
        monkeypatch.setattr(pw.RepetitionOccurrence, "matches", None)
        # nor is its kind checked: the scan names its own two kinds
        monkeypatch.setattr(witness, "_require_rule", None)
        assert pw.scan_and_certify(word, base, 1) == want
        # each run yielded takes one gcd, before the next one, and no gcd is
        # taken elsewhere: complement windows come from these runs too
        assert runs and gcd_runs == list(range(1, len(runs) + 1))
        assert len(gcd_runs) < len(built) == len(want)


class TestOneCheckPerRun:
    """A run the prefix does not hold is a fault of the kernel, not of the input."""

    @pytest.mark.parametrize(
        "word, run",
        [
            # Thue-Morse: no run of period 2 or 3 this long
            ("0110100110010110", (2, 0, 6)),
            ("0110100110010110", (3, 4, 12)),
            ("0110100110010110", (2, 10, 15)),
            # the run is (2, 1, 6) or (2, 0, 5): one letter wrong at either end
            ("11010101", (2, 0, 6)),
            ("01010100", (2, 0, 6)),
        ],
        ids=["not-periodic", "shifted", "past-the-end", "first-letter", "last-letter"],
    )
    def test_a_false_run_is_an_assertion_error(self, monkeypatch, word, run):
        monkeypatch.setattr(witness, "_plain_runs", lambda *args: iter([run]))
        with pytest.raises(AssertionError, match=f"no run of period {run[0]}"):
            pw.scan_and_certify(word, 2, -100)


class TestBoundText:
    @pytest.mark.parametrize("p", range(2, 11))
    def test_equals_the_formatted_fraction(self, p):
        for s in (-5000, -37, -1, 0, 1, 2, 37, 1500, 5000):
            assert _bound_text(p, s) == pw.format_rational(Fraction(p) ** -s)

    def test_square3_of_a_long_square(self):
        occ = pw.RepetitionOccurrence(0, "01", 7500, 0)
        cert = pw.certificate_from_occurrence("01" * 7500, occ, 2, "square3")
        assert cert.to_json()["bound"] == pw.format_rational(cert.bound)


class TestRotationInvariance:
    @given(
        st.sampled_from((2, 3, 5, 7, 10)).flatmap(
            lambda base: st.tuples(
                st.just(base), st.text("0123456789"[:base], min_size=1, max_size=14)
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_gcd_bound_is_rotation_invariant(self, base_period):
        base, period = base_period
        first = pw.gcd_bound(period, base)
        # the floor a proper power's run is kept with in _plain_runs
        c = root_length(period)
        assert _ell_floors(c + 1, base)[c] <= first.ell
        for j in range(1, len(period)):
            rotated = pw.gcd_bound(period[j:] + period[:j], base)
            assert (rotated.d, rotated.q_max, rotated.ell) == (first.d, first.q_max, first.ell)


class TestGcdScoreConsistency:
    def test_coprime_periods_use_ell_equal_m(self):
        rng = random.Random(43)
        checked = 0
        while checked < 50:
            base = rng.choice((2, 3, 5))
            word = random_digit_word(rng, rng.randint(8, 30), base)
            for occ in pw.find_fractional_squares(word, 1, 2):
                bound = pw.gcd_bound(occ.period_word, base)
                if bound.d != 1:
                    continue
                cert = pw.certificate_from_occurrence(word, occ, base, "gcd")
                m = occ.period
                assert bound.ell == m
                assert cert.s == m * (occ.whole_repeats - 1) + occ.frac_len - 2 * m
                checked += 1


class TestCertificateJson:
    def test_round_trip(self):
        occ = pw.RepetitionOccurrence(3, "010", 2, 2)
        cert = pw.certificate_from_occurrence("111" + "01001001", occ, 2, "gcd")
        data = cert.to_json()
        assert data["period"] == "010" and data["bound"].count("/") == 1
        assert pw.PlcCertificate.from_json(data) == cert

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kind", "cube"),
            ("k", -1),
            ("period", 5),
            ("period", None),
            ("period", ""),
            ("period", "012"),
            ("repeats", 0),
            ("frac_len", -1),
            ("frac_len", 3),
            ("q", 1.5),
            ("bound", 0.5),
            ("bound", "1/0"),
            ("kind", ["gcd"]),
            ("q", 7.0),
            ("s", -1.0),
            ("bound", 2),
            ("vacuous", 1),
        ],
    )
    def test_malformed_fields_raise_value_error(self, field, value):
        occ = pw.RepetitionOccurrence(3, "010", 2, 2)
        data = pw.certificate_from_occurrence("111" + "01001001", occ, 2, "gcd").to_json()
        data[field] = value
        with pytest.raises(ValueError):
            pw.PlcCertificate.from_json(data)

    @pytest.mark.parametrize(
        "field", ["p", "kind", "k", "q", "period", "repeats", "frac_len", "s", "bound", "vacuous"]
    )
    def test_renamed_field_is_missing(self, field):
        # the same values in the same order, one key renamed in place
        occ = pw.RepetitionOccurrence(3, "010", 2, 2)
        data = pw.certificate_from_occurrence("111" + "01001001", occ, 2, "gcd").to_json()
        data = {key + "_" * (key == field): value for key, value in data.items()}
        with pytest.raises(ValueError, match=f"missing field '{field}'"):
            pw.PlcCertificate.from_json(data)
        # extra keys and another key order are accepted
        data[field] = data.pop(field + "_")
        assert pw.PlcCertificate.from_json({"note": 1, **data}) == pw.PlcCertificate.from_json(data)

    def test_round_trip_past_the_int_string_limit(self):
        # s = 14,996, so the bound's denominator has 4,515 digits: more than
        # str() converts by default
        occ = pw.RepetitionOccurrence(0, "01", 7500, 0)
        cert = pw.certificate_from_occurrence("01" * 7500, occ, 2, "square3")
        data = cert.to_json()
        assert data["s"] == 14996
        one, den = data["bound"].split("/")
        assert (one, len(den), Decimal(den)) == ("1", 4515, 2**14996)
        assert pw.PlcCertificate.from_json(data) == cert

    def test_square3_needs_two_repeats(self):
        occ = pw.RepetitionOccurrence(0, "01", 2, 1)
        data = pw.certificate_from_occurrence("0101010", occ, 2, "square3").to_json()
        assert pw.PlcCertificate.from_json(data).kind == "square3"
        data["repeats"] = 1
        with pytest.raises(ValueError, match="repeats"):
            pw.PlcCertificate.from_json(data)
        # a gcd certificate may have one copy, but it carries its own q and s
        occ = pw.RepetitionOccurrence(0, "01", 1, 1)
        honest = pw.certificate_from_occurrence("0101010", occ, 2, "gcd")
        assert pw.PlcCertificate.from_json(honest.to_json()) == honest
        data["kind"] = "gcd"  # still the square3 s and bound
        with pytest.raises(ValueError, match="'s'"):
            pw.PlcCertificate.from_json(data)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            pw.PlcCertificate.from_json(["p", 2])

    def test_forged_repeats_does_not_raise_p_to_its_score(self):
        # s is about 10**9, so the honest bound 1/7**s has some 8 * 10**8
        # digits; the short claim is rejected before the power is taken
        occ = pw.RepetitionOccurrence(0, "01", 2, 1)
        data = pw.certificate_from_occurrence("01010", occ, 7, "square3").to_json()
        data["repeats"] = 10**9 // 2
        with pytest.raises(ValueError, match="'bound'"):
            pw.PlcCertificate.from_json(data)


def mutations(data: dict) -> list[tuple[str, object]]:
    """Single-field edits of a certificate's JSON, every field at least once."""
    p, period = data["p"], data["period"]
    bump = str((int(period[0]) + 1) % p) + period[1:]
    edits = [
        ("p", p + 1),
        ("kind", "gcd" if data["kind"] == "square3" else "square3"),
        ("period", bump),
        ("period", period[1:] + period[:1]),
        ("bound", f"1/{2 * int(data['bound'].split('/')[1])}"),
        ("vacuous", not data["vacuous"]),
    ]
    for field in ("k", "q", "repeats", "frac_len", "s"):
        edits += [(field, data[field] + 1), (field, data[field] - 1)]
    return [(f, v) for f, v in edits if v != data[f]]


class TestMutatedCertificates:
    """Every single-field edit of an emitted certificate fails to verify.

    q, s, bound and vacuous are derived, so ``from_json`` rejects any edit of
    them and names the field.  p, kind and the window are stored: their edit
    is rejected, fails the window check, or (when the edited window really
    reads there) is itself an honest certificate of the prefix.
    """

    TM = pw.FixedPointStream(pw.MU, "0").prefix(48)
    FIB = pw.FixedPointStream(pw.parse_morphism("0->01;1->0"), "0").prefix(48)
    CASES = [
        (TM, 2), (TM, 3), (FIB, 2), (FIB, 3),
        (random_digit_word(random.Random(53), 40, 2), 2),
        (random_digit_word(random.Random(59), 40, 3), 3),
    ]

    @pytest.mark.parametrize(
        "word, base", CASES, ids=["tm2", "tm3", "fib2", "fib3", "rand2", "rand3"]
    )
    def test_no_edit_verifies_a_false_claim(self, word, base):
        certs = pw.scan_and_certify(word, base, -100)
        assert len(certs) > 20
        rejected = true_edits = 0
        for cert in certs:
            data = cert.to_json()
            assert pw.PlcCertificate.from_json(data) == cert
            for field, value in mutations(data):
                edited = {**data, field: value}
                if field in ("q", "s", "bound", "vacuous"):
                    with pytest.raises(ValueError, match=f"'{field}'"):
                        pw.PlcCertificate.from_json(edited)
                    continue
                try:
                    claim = pw.PlcCertificate.from_json(edited)
                    ok = pw.verify_certificate(word, claim, base)
                except ValueError:  # also a base mismatch or a short prefix
                    ok = False
                if not ok:
                    rejected += 1
                    continue
                true_edits += 1
                occ = pw.RepetitionOccurrence(claim.k, claim.period, claim.repeats, claim.frac_len)
                honest = pw.certificate_from_occurrence(word, occ, claim.p, claim.kind)
                assert honest.to_json() == edited
        assert rejected > 10 * true_edits

    @pytest.mark.parametrize(
        "word, base", CASES, ids=["tm2", "tm3", "fib2", "fib3", "rand2", "rand3"]
    )
    def test_a_shared_dict_changes_nothing(self, word, base):
        certs = [c.to_json() for c in pw.scan_and_certify(word, base, -100)]
        shared = {}
        for data in certs:
            pw.PlcCertificate.from_json(data, shared)
        assert shared and len(shared) < len(certs)
        for data in certs:
            for field, value in mutations(data):
                edited = {**data, field: value}
                assert outcome(edited, shared) == outcome(edited)

    def test_the_dict_key_holds_p(self):
        certs = [c.to_json() for p in (2, 3) for c in pw.scan_and_certify("0110" * 6, p, -100)]
        shared = {}
        for data in certs:
            assert outcome(data, shared) == outcome(data)
        assert {(2, "0011"), (3, "0011")} <= set(shared)
        assert shared[2, "0011"] != shared[3, "0011"]

    def test_a_cached_period_still_checks_its_digits(self):
        occ = pw.RepetitionOccurrence(0, "012", 2, 1)
        data = pw.certificate_from_occurrence("0120120", occ, 3, "gcd").to_json()
        shared = {}
        pw.PlcCertificate.from_json(data, shared)
        assert (3, "012") in shared
        with pytest.raises(ValueError, match="^letter '2' is not a base-2 digit$"):
            pw.PlcCertificate.from_json({**data, "p": 2}, shared)
        assert (2, "012") not in shared

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("kind", "cube", "unknown certificate kind 'cube'"),
            ("repeats", 0, "gcd certificates need repeats >= 1"),
        ],
    )
    def test_kind_and_repeats_are_checked_before_the_gcd(self, field, value, message):
        occ = pw.RepetitionOccurrence(0, "012", 2, 1)
        data = pw.certificate_from_occurrence("0120120", occ, 3, "gcd").to_json()
        # under p = 2 the period's digit check would fail, but only after these
        edited = {**data, "p": 2, field: value}
        assert outcome(edited) == outcome(edited, {}) == message


class TestOneRebuildPerWindow:
    """A shared dict works out each distinct window once and changes no outcome."""

    @pytest.mark.parametrize(
        "word", [FIBONACCI_240, PERIOD_DOUBLING_160], ids=["fibonacci", "period-doubling"]
    )
    def test_each_window_and_period_word_once(self, monkeypatch, word):
        certs = pw.scan_and_certify(word, 2, 1)
        certs_json = [c.to_json() for c in certs]
        rebuilt, gcds = [], []
        certificate, gcd_bound = witness._certificate, witness.gcd_bound

        def logged_certificate(p, kind, k, period, r, f, bound=None):
            rebuilt.append((p, kind, period, r, f))
            return certificate(p, kind, k, period, r, f, bound)

        def logged_gcd_bound(period, p):
            gcds.append((p, period))
            return gcd_bound(period, p)

        monkeypatch.setattr(witness, "_certificate", logged_certificate)
        monkeypatch.setattr(witness, "gcd_bound", logged_gcd_bound)
        shared = {}
        assert [pw.PlcCertificate.from_json(data, shared) for data in certs_json] == certs
        monkeypatch.undo()
        windows = {(d["p"], d["kind"], d["period"], d["repeats"], d["frac_len"]) for d in certs_json}
        assert sorted(rebuilt) == sorted(windows) and len(rebuilt) < len(certs)
        assert sorted(gcds) == sorted({(d["p"], d["period"]) for d in certs_json})
        for data in certs_json:
            for field, value in mutations(data):
                edited = {**data, field: value}
                assert outcome(edited, shared) == outcome(edited)


def outcome(data: dict, bounds: dict | None = None):
    """``from_json``'s certificate, or the text of the ValueError it raises."""
    try:
        return pw.PlcCertificate.from_json(data, bounds)
    except ValueError as error:
        return str(error)
