import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plcword as pw
from helpers import (
    digit_words,
    literal_fractional_squares,
    mu_grown_words,
    naive_complement_squares,
    naive_find_overlaps,
    naive_first_overlap,
    naive_fractional_squares,
    naive_is_overlap_free,
    naive_longest_overlap_free,
    per_period_first_overlap,
    binary_words_upto,
    random_digit_word,
)

TM16 = "0110100110010110"


class TestFindOverlaps:
    def test_thue_morse_prefix_is_clean(self):
        assert pw.find_overlaps(TM16) == []

    def test_simple_alternation(self):
        occs = pw.find_overlaps("01010")
        assert occs[0] == pw.OverlapOccurrence(0, "0", "1")

    def test_cube_of_a_letter(self):
        assert pw.find_overlaps("000")[0] == pw.OverlapOccurrence(0, "0", "")

    def test_limit(self):
        assert len(pw.find_overlaps("0000000", 2)) == 2

    @pytest.mark.parametrize("limit", [0, -1])
    def test_non_positive_limit_rejected(self, limit):
        with pytest.raises(ValueError, match="limit"):
            pw.find_overlaps("0000000", limit)

    def test_matches_oracle_exhaustively(self):
        for word in binary_words_upto(12):
            got = [(o.position, o.u, o.x) for o in pw.find_overlaps(word)]
            assert got == naive_find_overlaps(word), word

    def test_matches_oracle_on_random_ternary(self):
        rng = random.Random(7)
        for _ in range(1000):
            word = random_digit_word(rng, rng.randint(0, 64), 3)
            got = [(o.position, o.u, o.x) for o in pw.find_overlaps(word)]
            assert got == naive_find_overlaps(word), word


class TestIsOverlapFree:
    def test_examples(self):
        assert pw.is_overlap_free(TM16)
        assert not pw.is_overlap_free("0101010")
        assert pw.is_overlap_free("")

    def test_fast_path_equals_naive_path(self):
        for word in binary_words_upto(12):
            assert pw.is_overlap_free(word) == (pw.find_overlaps(word, 1) == [])

    def test_first_overlap_is_genuine(self):
        rng = random.Random(11)
        for _ in range(200):
            word = random_digit_word(rng, rng.randint(0, 80), 2)
            occ = pw.first_overlap(word)
            if occ is None:
                assert naive_is_overlap_free(word)
            else:
                assert occ.matches(word)


class TestFirstOverlapOracles:
    @given(
        st.sampled_from(("01", "012", "0123456789")).flatmap(
            lambda letters: st.text(alphabet=letters, max_size=200)
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_literal_oracle(self, word):
        assert pw.first_overlap(word) == naive_first_overlap(word)

    @given(mu_grown_words())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_period_scan_on_long_periods(self, word):
        assert pw.first_overlap(word) == per_period_first_overlap(word)

    def test_planted_overlaps_in_every_period_block(self):
        # mu^k of "00000" has its first overlap at period 2**k, at 0
        for k in range(12):
            word = pw.MU.iterate("00000", k)
            occ = pw.first_overlap(word)
            assert occ == per_period_first_overlap(word)
            assert (occ.position, len(occ.x) + 1) == (0, 2**k)

    def test_thue_morse_peak_memory(self):
        word = pw.thue_morse_prefix(2**15)
        tracemalloc.start()
        try:
            assert pw.first_overlap(word) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


class TestFractionalSquares:
    def test_alternating_word(self):
        occs = pw.find_fractional_squares("0101010", 1, 3)
        assert occs == [
            pw.RepetitionOccurrence(0, "01", 3, 1),
            pw.RepetitionOccurrence(2, "01", 2, 1),
        ]

    def test_square_without_fraction_is_excluded(self):
        assert pw.find_fractional_squares("011011", 1, 3) == []

    def test_boundary_normalisation(self):
        # "aa" renormalises any fractional letter into a whole copy
        assert pw.find_fractional_squares("aa", 1, 2) == []

    def test_matches_oracle_exhaustively(self):
        for word in binary_words_upto(10):
            for squares in (2, 3):
                got = [
                    (o.position, o.period_word, o.whole_repeats, o.frac_len)
                    for o in pw.find_fractional_squares(word, 1, squares)
                ]
                assert got == literal_fractional_squares(word, 1, squares), word

    def test_matches_oracle_on_random_words(self):
        rng = random.Random(13)
        for _ in range(150):
            word = random_digit_word(rng, rng.randint(0, 48), 3)
            min_frac = rng.randint(1, 3)
            squares = rng.choice((2, 3))
            got = [
                (o.position, o.period_word, o.whole_repeats, o.frac_len)
                for o in pw.find_fractional_squares(word, min_frac, squares)
            ]
            assert got == literal_fractional_squares(word, min_frac, squares)

    def test_raising_min_frac_only_removes(self):
        rng = random.Random(17)
        for _ in range(50):
            word = random_digit_word(rng, 40, 2)
            loose = set(pw.find_fractional_squares(word, 1, 2))
            tight = set(pw.find_fractional_squares(word, 2, 2))
            assert tight <= loose

    def test_square_with_fraction_contains_overlap(self):
        rng = random.Random(19)
        for _ in range(100):
            word = random_digit_word(rng, 32, 2)
            for occ in pw.find_fractional_squares(word, 1, 3):
                window = word[occ.position : occ.position + occ.window_len]
                assert pw.find_overlaps(window, 1)

    @given(st.text(alphabet="012", max_size=40), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_reported_windows_reread_exactly(self, word, min_frac):
        for occ in pw.find_fractional_squares(word, min_frac, 2):
            assert occ.matches(word)
            assert occ.frac_len < occ.period


class TestComplementSquares:
    def test_base3_example(self):
        occs = pw.find_complement_squares("12101", 3, 1)
        assert occs == [pw.ComplementOccurrence(0, "12", 1)]

    def test_fraction_required(self):
        assert pw.find_complement_squares("0110", 2, 1) == []

    def test_single_letter_period(self):
        occs = pw.find_complement_squares("010", 2, 1)
        assert occs == [pw.ComplementOccurrence(0, "0", 1)]

    def test_windows_reread_exactly(self):
        rng = random.Random(23)
        for base in (2, 3, 5):
            for _ in range(60):
                word = random_digit_word(rng, rng.randint(0, 40), base)
                for occ in pw.find_complement_squares(word, base, 1):
                    window = word[occ.position : occ.position + 2 * len(occ.period_word) + occ.frac_len]
                    assert window == occ.pattern(base)
                    assert 1 <= occ.frac_len <= len(occ.period_word)


class TestRunKernelOracles:
    @given(digit_words(), st.integers(1, 3), st.sampled_from((2, 3)))
    @settings(max_examples=200, deadline=None)
    def test_fractional_squares_match_naive_scan(self, word_base, min_frac, squares):
        word, _ = word_base
        got = pw.find_fractional_squares(word, min_frac, squares)
        assert got == naive_fractional_squares(word, min_frac, squares)

    @given(digit_words(), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_complement_squares_match_naive_scan(self, word_base, min_frac):
        word, base = word_base
        got = pw.find_complement_squares(word, base, min_frac)
        assert got == naive_complement_squares(word, base, min_frac)

    def test_complement_scan_rejects_non_digits(self):
        with pytest.raises(ValueError):
            pw.find_complement_squares("0120", 2, 1)


class TestLongestOverlapFreeSubword:
    def test_three_zeros_three_ones(self):
        assert pw.longest_overlap_free_subword("000111") == pw.SubwordSpan(1, 4)

    def test_thue_morse_prefix(self):
        assert pw.longest_overlap_free_subword(TM16) == pw.SubwordSpan(0, 16)

    def test_single_letter(self):
        assert pw.longest_overlap_free_subword("0") == pw.SubwordSpan(0, 1)

    def test_matches_exhaustive_window_scan(self):
        rng = random.Random(29)
        for _ in range(80):
            word = random_digit_word(rng, rng.randint(1, 24), 2)
            assert tuple(pw.longest_overlap_free_subword(word)) == naive_longest_overlap_free(word)
