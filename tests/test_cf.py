import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import plcword as pw


class TestExpand:
    def test_seven_fifths(self):
        assert pw.cf_expand(Fraction(7, 5)) == pw.ContinuedFraction(1, (2, 2))

    def test_integer(self):
        assert pw.cf_expand(Fraction(3)) == pw.ContinuedFraction(3, ())

    def test_one_third(self):
        assert pw.cf_expand(Fraction(1, 3)) == pw.ContinuedFraction(0, (3,))

    def test_negative(self):
        # floor-based a0, so -7/5 = [-2; 1, 1, 2]
        e = pw.cf_expand(Fraction(-7, 5))
        assert e.value() == Fraction(-7, 5)
        assert e.a0 == -2

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_reconstruction(self, num, den):
        x = Fraction(num, den)
        assert pw.cf_expand(x).value() == x

    @given(st.integers(0, 10**6), st.integers(1, 10**6))
    def test_canonical_final_quotient(self, num, den):
        e = pw.cf_expand(Fraction(num, den))
        if e.quotients:
            assert all(a >= 1 for a in e.quotients)
            assert e.quotients[-1] >= 2


class TestOrbitMaxQuotient:
    def test_one_third(self):
        res = pw.orbit_max_quotient(Fraction(1, 3), 2, 2)
        assert (res.max_quotient, res.k, res.i) == (3, 0, 1)
        # 1/3 = [0; 3], 2/3 = [0; 1, 2], 4/3 = [1; 3]; the tie at k = 2 loses
        assert res.rows == ((0, 1, 3), (1, 1, 1), (1, 2, 2), (2, 1, 3))

    def test_integral_orbit_point_skipped(self):
        res = pw.orbit_max_quotient(Fraction(1, 2), 2, 1)
        assert res.max_quotient == 2

    def test_three_eighths(self):
        res = pw.orbit_max_quotient(Fraction(3, 8), 2, 3)
        assert res.max_quotient == 3

    def test_integer_input_has_no_quotients(self):
        res = pw.orbit_max_quotient(Fraction(5), 2, 4)
        assert res == pw.OrbitMaxResult(None, None, None)

    def test_monotone_in_k(self):
        rng = random.Random(3)
        for _ in range(50):
            x = Fraction(rng.randint(1, 500), rng.randint(2, 500))
            prev = 0
            for max_k in range(4):
                res = pw.orbit_max_quotient(x, 3, max_k)
                cur = res.max_quotient or 0
                assert cur >= prev
                prev = cur


class TestSandwich:
    def test_one_third(self):
        res = pw.sandwich_check(Fraction(1, 3))
        assert res.sup_quotient == 3
        assert res.min_quality == Fraction(1, 3)
        assert res.holds

    def test_two_fifths(self):
        res = pw.sandwich_check(Fraction(2, 5))
        assert res.sup_quotient == 2
        assert res.min_quality == Fraction(2, 5)
        assert res.holds

    def test_one_half(self):
        res = pw.sandwich_check(Fraction(1, 2))
        assert res.sup_quotient == 2
        assert res.min_quality == Fraction(1, 2)
        assert res.holds

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            pw.sandwich_check(Fraction(3, 2))

    def test_integer_scan_matches_quality(self):
        rng = random.Random(4)
        for _ in range(40):
            den = rng.randint(3, 60)
            num = rng.randint(1, den - 1)
            if gcd(num, den) != 1:
                continue
            y = Fraction(num, den)
            res = pw.sandwich_check(y)
            oracle = min(pw.quality(q, 0, 2, y) for q in range(1, den))
            assert res.min_quality == oracle

    def test_holds_on_random_rationals(self):
        rng = random.Random(5)
        done = 0
        while done < 100:
            den = rng.randint(3, 800)
            num = rng.randint(1, den - 1)
            if gcd(num, den) != 1:
                continue
            assert pw.sandwich_check(Fraction(num, den)).holds
            done += 1
