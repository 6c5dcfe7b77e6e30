import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plcword as pw
from helpers import digit_words, naive_scan_and_certify, random_digit_word
from plcword.witness import _ell_floor


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


class TestVerifyCertificate:
    def cert(self):
        occ = pw.RepetitionOccurrence(0, "01", 2, 1)
        return pw.certificate_from_occurrence("0101010", occ, 2, "square3")

    def test_matching_prefix(self):
        res = pw.verify_certificate("0101010", self.cert(), 2)
        assert res.combinatorial_ok
        assert res.window_checked == 5
        assert res.guaranteed_bound == Fraction(1, 2)

    def test_break_inside_window(self):
        res = pw.verify_certificate("0100010", self.cert(), 2)
        assert not res.combinatorial_ok
        assert res.guaranteed_bound is None

    def test_prefix_too_short_reports_requirement(self):
        with pytest.raises(pw.PrefixTooShortError) as exc:
            pw.verify_certificate("010", self.cert(), 2)
        assert exc.value.required == 5

    def test_digits_after_window_are_irrelevant(self):
        cert = self.cert()
        base_res = pw.verify_certificate("01010", cert, 2)
        for tail in ("00", "11", "01", "10"):
            res = pw.verify_certificate("01010" + tail, cert, 2)
            assert res == base_res

    def test_wrong_base_rejected(self):
        with pytest.raises(ValueError):
            pw.verify_certificate("0101010", self.cert(), 3)


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
            assert pw.verify_certificate(word, cert, 2).combinatorial_ok
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


class TestScanAndCertify:
    def test_periodic_stream_scores_grow(self):
        stream = pw.PeriodicStream("011")
        certs = pw.scan_and_certify(stream, 2, 30, 4)
        assert certs
        best = certs[0]
        assert best.kind == "square3"
        assert best.occurrence.period_word in ("011", "110", "101")
        assert best.s >= 30 // 3 - 3
        deeper = pw.scan_and_certify(pw.PeriodicStream("011"), 2, 60, 4)
        assert deeper[0].s > best.s

    def test_thue_morse_has_no_square3_certificates(self):
        stream = pw.FixedPointStream(pw.MU, "0")
        certs = pw.scan_and_certify(stream, 2, 64, -100)
        assert certs, "gcd-kind certificates still appear"
        assert not [c for c in certs if c.kind == "square3"]

    def test_complement_pattern_yields_gcd_certificate(self):
        # v v~ v[:1] patterns over base 3, as in the periodic word 1210...
        stream = pw.PeriodicStream("1210")
        certs = pw.scan_and_certify(stream, 3, 6, -5)
        comp = [
            c
            for c in certs
            if c.kind == "gcd" and c.occurrence.period_word == "1210" and c.k == 0
        ]
        assert comp
        assert comp[0].vacuous  # desk-scale window, score stays negative

    def test_sorted_by_decreasing_score_and_deterministic(self):
        stream = pw.PeriodicStream("0110")
        once = pw.scan_and_certify(stream, 2, 40, 0)
        again = pw.scan_and_certify(pw.PeriodicStream("0110"), 2, 40, 0)
        assert once == again
        assert [c.s for c in once] == sorted((c.s for c in once), reverse=True)

    def test_respects_target_threshold(self):
        stream = pw.PeriodicStream("01")
        for target in (0, 5, 10):
            assert all(
                c.s >= target
                for c in pw.scan_and_certify(stream, 2, 40, target)
            )


class TestScanMatchesNaiveScan:
    @given(digit_words().filter(lambda wb: wb[0]))
    @settings(max_examples=150, deadline=None)
    def test_same_certificates_and_json(self, word_base):
        word, base = word_base
        for target in (-100, -3, 0, 1, 3):
            got = pw.scan_and_certify(pw.LiteralStream(word), base, len(word), target)
            want = naive_scan_and_certify(word, base, target)
            assert got == want, target
            assert [c.to_json() for c in got] == [c.to_json() for c in want]


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
        assert _ell_floor(period, base) <= first.ell
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
        certs = pw.scan_and_certify(pw.LiteralStream(word), base, len(word), -100)
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
                    ok = pw.verify_certificate(word, claim, base).combinatorial_ok
                except ValueError:  # also a base mismatch or a short prefix
                    ok = False
                if not ok:
                    rejected += 1
                    continue
                true_edits += 1
                honest = pw.certificate_from_occurrence(
                    word, claim.occurrence, claim.p, claim.kind
                )
                assert honest.to_json() == edited
        assert rejected > 10 * true_edits

