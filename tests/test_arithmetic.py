import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import plcword as pw
from helpers import random_digit_word


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


class TestIntToWord:
    def test_examples(self):
        assert pw.int_to_word(48, 3) == "1210"
        assert pw.int_to_word(0, 5) == "0"
        assert pw.int_to_word(1, 2) == "1"

    @given(st.integers(0, 10**12), st.sampled_from([2, 3, 5, 10]))
    def test_round_trip(self, value, base):
        assert pw.word_value(pw.int_to_word(value, base), base) == value

    @given(st.text(alphabet="01", max_size=20), st.sampled_from([2, 3, 5, 10]))
    def test_round_trip_strips_leading_zeros(self, word, base):
        if not word:
            return
        assert pw.int_to_word(pw.word_value(word, base), base) == (word.lstrip("0") or "0")


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


class TestPeriodicValue:
    def test_examples(self):
        assert pw.periodic_value("01", 2) == Fraction(1, 3)
        assert pw.periodic_value("1", 2) == 1
        assert pw.periodic_value("1210", 3) == Fraction(3, 5)

    def test_telescoping_identity(self):
        rng = random.Random(5)
        for _ in range(50):
            base = rng.choice((2, 3, 5, 7))
            word = random_digit_word(rng, rng.randint(1, 8), base)
            full = pw.periodic_value(word, base)
            for t in (1, 2, 3):
                repeated = pw.prefix_value(word * t, base)
                assert full == repeated + full * Fraction(1, base ** (t * len(word)))

    def test_reduced_denominator_matches_gcd_bound(self):
        rng = random.Random(6)
        for _ in range(100):
            base = rng.choice((2, 3, 5))
            word = random_digit_word(rng, rng.randint(1, 10), base)
            bound = pw.gcd_bound(word, base)
            assert pw.periodic_value(word, base).denominator == bound.q_max


class TestGcdBound:
    def test_base3_word(self):
        assert pw.gcd_bound("1210", 3) == pw.GcdBound(m=4, d=16, q_max=5, ell=2)

    def test_base2_word(self):
        assert pw.gcd_bound("01", 2) == pw.GcdBound(m=2, d=1, q_max=3, ell=2)

    def test_boundary_smallest_ell(self):
        assert pw.gcd_bound("1", 2) == pw.GcdBound(m=1, d=1, q_max=1, ell=1)

    def test_all_zero_period(self):
        assert pw.gcd_bound("00", 2) == pw.GcdBound(m=2, d=3, q_max=1, ell=1)

    def test_sandwich_invariant(self):
        rng = random.Random(8)
        for _ in range(200):
            base = rng.choice((2, 3, 5, 7))
            word = random_digit_word(rng, rng.randint(1, 9), base)
            b = pw.gcd_bound(word, base)
            assert (base ** b.m - 1) % b.d == 0
            assert b.q_max <= base**b.ell
            assert b.ell == 1 or base ** (b.ell - 1) <= b.q_max


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

    @pytest.mark.parametrize("text", ["1/0", "-3/0", "x", ""])
    def test_malformed_raises_value_error(self, text):
        with pytest.raises(ValueError):
            pw.parse_rational(text)
