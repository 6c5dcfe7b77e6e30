import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plcword as pw
from helpers import naive_least_ell, random_digit_word
from plcword import arithmetic
from plcword.arithmetic import _least_ell


class TestWordValue:
    def test_base3(self):
        assert pw.word_value("1210", 3) == 48

    def test_zero(self):
        assert pw.word_value("0", 2) == 0

    def test_base2(self):
        assert pw.word_value("101", 2) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pw.word_value("", 2)

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError):
            pw.word_value("2", 2)
        with pytest.raises(ValueError, match="letter 'a' is not a base-2 digit"):
            pw.word_value("01a2", 2)
        # int() reads the Arabic-Indic three as 3; the digit rule must not
        with pytest.raises(ValueError, match="is not a base-10 digit"):
            pw.word_value("1\u0663", 10)

    def test_past_the_int_string_limit(self):
        # int() converts at most 4,300 digits in a base that is not a power of two
        assert pw.word_value("1" * 5000, 3) == (3**5000 - 1) // 2
        assert pw.word_value("9" * 5000, 10) == 10**5000 - 1
        rng = random.Random(5)
        for base in (3, 5, 6, 7, 9, 10):
            word = random_digit_word(rng, rng.randint(4301, 9000), base)
            want = 0
            for letter in word:
                want = want * base + int(letter)
            assert pw.word_value(word, base) == want
            assert pw.prefix_value(word, base) == Fraction(want, base ** len(word))

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_under_the_least_int_string_limit(self):
        # 640 is the least limit Python accepts; blocks follow the limit in force
        rng = random.Random(7)
        words = [random_digit_word(rng, length, 3) for length in (640, 641, 1000, 2500)]
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for word in words:
                want = 0
                for letter in word:
                    want = want * 3 + int(letter)
                assert pw.word_value(word, 3) == want
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("base", [2, 3, 4, 8, 10])
    def test_splits_only_where_int_has_a_limit(self, monkeypatch, base):
        # int() has no digit limit in a power-of-two base, so one call reads any length
        calls = []
        digits_value = arithmetic._digits_value

        def logged(word, b):
            calls.append(len(word))
            return digits_value(word, b)

        monkeypatch.setattr(arithmetic, "_digits_value", logged)
        monkeypatch.setattr(arithmetic, "_max_str_digits", lambda: 640)
        word = random_digit_word(random.Random(base), 5000, base)
        want = 0
        for letter in word:
            want = want * base + int(letter)
        assert arithmetic._digits_value(word, base) == want
        if base & (base - 1):
            # halved until each piece is within the limit: 1 + 2 + 4 + 8 calls
            assert sorted(calls) == [625] * 8 + [1250] * 4 + [2500] * 2 + [5000]
        else:
            assert calls == [5000]
            # a letter that is no digit still raises, from that one call
            calls.clear()
            with pytest.raises(ValueError):
                arithmetic._digits_value(word[:2500] + "x" + word[2500:], base)
            assert calls == [5001]


class TestPrefixValue:
    def test_examples(self):
        assert pw.prefix_value("0110", 2) == Fraction(3, 8)
        assert pw.prefix_value("", 2) == 0
        assert pw.prefix_value("01", 2) == Fraction(1, 4)

    def test_enclosure_along_a_stream(self):
        stream = pw.FixedPointStream(pw.MU, "0")
        for length in range(0, 40):
            lo = pw.prefix_value(stream.prefix(length), 2)
            nxt = pw.prefix_value(stream.prefix(length + 1), 2)
            assert lo <= nxt <= lo + Fraction(1, 2**length)


class TestGcdBound:
    def test_base3_word(self):
        assert pw.gcd_bound("1210", 3) == pw.GcdBound(m=4, d=16, q_max=5, ell=2)

    def test_base2_word(self):
        assert pw.gcd_bound("01", 2) == pw.GcdBound(m=2, d=1, q_max=3, ell=2)

    def test_boundary_smallest_ell(self):
        assert pw.gcd_bound("1", 2) == pw.GcdBound(m=1, d=1, q_max=1, ell=1)

    def test_all_zero_period(self):
        assert pw.gcd_bound("00", 2) == pw.GcdBound(m=2, d=3, q_max=1, ell=1)

    def test_reduced_denominator_matches_gcd_bound(self):
        rng = random.Random(6)
        for _ in range(100):
            base = rng.choice((2, 3, 5))
            word = random_digit_word(rng, rng.randint(1, 10), base)
            bound = pw.gcd_bound(word, base)
            value = Fraction(pw.word_value(word, base), base ** len(word) - 1)
            assert value.denominator == bound.q_max

    def test_sandwich_invariant(self):
        rng = random.Random(8)
        for _ in range(200):
            base = rng.choice((2, 3, 5, 7))
            word = random_digit_word(rng, rng.randint(1, 9), base)
            b = pw.gcd_bound(word, base)
            assert (base ** b.m - 1) % b.d == 0
            assert b.q_max <= base**b.ell
            assert b.ell == 1 or base ** (b.ell - 1) <= b.q_max


class TestLeastEll:
    @given(
        st.integers(2, 10),
        st.one_of(
            st.integers(1, 2**64),
            st.integers(1, 2**3000),
            st.tuples(st.integers(0, 1500), st.integers(-1, 1)),
        ),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_naive(self, base, drawn):
        # tuples (k, d) stand for x = base**k + d, the edges of each answer
        x = max(1, base ** drawn[0] + drawn[1]) if isinstance(drawn, tuple) else drawn
        assert _least_ell(x, base) == naive_least_ell(x, base)

    @pytest.mark.parametrize("base", range(2, 11))
    def test_powers_and_neighbours(self, base):
        for k in range(0, 200):
            for x in (base**k - 1, base**k, base**k + 1):
                if x >= 1:
                    assert _least_ell(x, base) == naive_least_ell(x, base)


class TestDistNearestInt:
    def test_examples(self):
        assert pw.dist_nearest_int(Fraction(7, 3)) == Fraction(1, 3)
        assert pw.dist_nearest_int(Fraction(1, 2)) == Fraction(1, 2)
        assert pw.dist_nearest_int(Fraction(-5, 4)) == Fraction(1, 4)

    @given(st.fractions(max_denominator=10**6))
    def test_within_half(self, x):
        d = pw.dist_nearest_int(x)
        assert 0 <= d <= Fraction(1, 2)
        floor = x.numerator // x.denominator
        assert d == min(x - floor, floor + 1 - x)


class TestQuality:
    def test_examples(self):
        assert pw.quality(3, 0, 2, Fraction(1, 3)) == 0
        assert pw.quality(1, 0, 2, Fraction(3, 8)) == Fraction(3, 8)
        assert pw.quality(2, 1, 2, Fraction(3, 8)) == 1

    def test_shift_equals_fractional_part(self):
        rng = random.Random(9)
        for _ in range(100):
            base = rng.choice((2, 3, 5))
            x = Fraction(rng.randint(0, 999), rng.randint(1, 999))
            q = rng.randint(1, 50)
            k = rng.randint(0, 6)
            shifted = x * base**k
            frac_part = shifted - (shifted.numerator // shifted.denominator)
            assert pw.quality(q, k, base, x) == pw.quality(q, 0, base, frac_part)

    def test_q_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="^q must be at least 1$"):
            pw.quality(0, 0, 2, Fraction(1, 3))

    def test_negative_k_is_rejected(self):
        with pytest.raises(ValueError, match="^k must be non-negative$"):
            pw.quality(1, -1, 2, Fraction(1, 3))


class TestComplementDivisibility:
    def test_base3(self):
        res = pw.complement_divisibility_check("12", 3)
        assert (res.value, res.divisor, res.quotient) == (48, 8, 6)

    def test_base2_single(self):
        res = pw.complement_divisibility_check("1", 2)
        assert (res.value, res.divisor, res.quotient) == (2, 1, 2)

    def test_base2_pair(self):
        res = pw.complement_divisibility_check("10", 2)
        assert (res.value, res.divisor, res.quotient) == (9, 3, 3)

    def test_random_words_always_divide(self):
        rng = random.Random(10)
        for _ in range(1000):
            base = rng.choice((2, 3, 5, 7))
            word = random_digit_word(rng, rng.randint(1, 12), base)
            res = pw.complement_divisibility_check(word, base)
            assert res.value == res.divisor * res.quotient


class TestRationalFormat:
    def test_round_trip(self):
        assert pw.format_rational(Fraction(3, 8)) == "3/8"
        assert pw.parse_rational("3/8") == Fraction(3, 8)
        assert pw.parse_rational("-7") == -7

    @pytest.mark.parametrize(
        "text", ["1/0", "-3/0", "0/0_0", "x", "", "inf", "nan", "1__0", "1/-2", "1 /2", "1e5/2"]
    )
    def test_malformed_raises_value_error(self, text):
        with pytest.raises(ValueError):
            pw.parse_rational(text)

    @given(
        st.lists(
            st.sampled_from(["0", "1", "7", "12", "\u0663", "_", "/", ".", "e", "E", "-", "+", " "]),
            max_size=8,
        ).map("".join)
    )
    @settings(max_examples=500)
    def test_reads_what_fraction_reads(self, text):
        # Fraction would expand a long exponent for seconds before any answer
        exponent = re.search(r"e([-+]?\d[\d_]*)\s*$", text, re.I)
        if exponent and abs(int(exponent[1].replace("_", ""))) > arithmetic._MAX_EXPONENT:
            with pytest.raises(ValueError):
                pw.parse_rational(text)
            return
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError):
            if "_" in text and sys.version_info < (3, 11):
                return  # Fraction reads digit groups from Python 3.11 on
            with pytest.raises(ValueError):
                pw.parse_rational(text)
        else:
            assert pw.parse_rational(text) == want

    def test_parts_past_the_int_string_limit(self):
        num, den = 7 * 10**4400 + 1, 3**9500
        text = f"-{Decimal(num)}/{Decimal(den)}"
        assert pw.parse_rational(text) == Fraction(-num, den)
        # 0.55...5 with n fives is 5 (10**n - 1) / (9 10**n)
        assert pw.parse_rational(f"0.{'5' * 4400}e1") == Fraction(5 * (10**4400 - 1), 9 * 10**4399)

    def test_exponent_limit(self):
        limit = arithmetic._MAX_EXPONENT
        assert pw.parse_rational(f"3e{limit}") == 3 * 10**limit
        assert pw.parse_rational(f" -3E-{limit} ") == Fraction(-3, 10**limit)
        assert pw.parse_rational(f"0.5e+{limit - 1}") == 5 * 10 ** (limit - 2)
        # past the limit nothing is expanded: each text would take seconds to years
        past = (f"1e{limit + 1}", f"0e-{limit + 1}", "0e-7777777", "1e121212121212", "1e1_000_000")
        for text in past:
            with pytest.raises(ValueError, match="exponent past"):
                pw.parse_rational(text)
