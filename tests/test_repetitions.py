import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plcword as pw
from plcword.repetitions import _period_runs
from helpers import (
    digit_words,
    literal_fractional_squares,
    mu_grown_words,
    naive_complement_squares,
    naive_find_overlaps,
    naive_first_overlap,
    naive_fractional_squares,
    naive_is_overlap_free,
    naive_period_runs,
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
            assert pw.is_overlap_free(word) == (pw.find_overlaps(word) == [])

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

    @given(
        st.one_of(
            st.text(alphabet="αé€𝄞", max_size=200),
            mu_grown_words().map(lambda w: w.translate(str.maketrans("01", "α𝄞"))),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_any_alphabet(self, word):
        # letters beyond ASCII, some beyond 16 bits, in the direct pass of every period
        occ = pw.first_overlap(word)
        assert occ == per_period_first_overlap(word)
        every = pw.find_overlaps(word)
        assert occ == min(every, key=lambda o: (len(o.x), o.position), default=None)

    def test_planted_overlaps_in_every_period_block(self):
        # mu^k of "00000" has its first overlap at period 2**k, at 0
        for k in range(12):
            word = pw.MU.iterate("00000", k)
            occ = pw.first_overlap(word)
            assert occ == per_period_first_overlap(word)
            assert (occ.position, len(occ.x) + 1) == (0, 2**k)
        # distinct letters hold no overlap, so a planted v v v[0] is the first.
        # Alone it starts the word, with no letter to its left; after other
        # letters it ends the word, with no letter to its right.
        letters = [chr(0x100 + i) for i in range(2048)]
        for lo in (32, 64, 128, 256, 512):
            for m in (lo, lo + lo // 3, 2 * lo - 1):
                v = letters[:m]
                n = (m + 1) * (len(letters) // (m + 1))
                for pos, word in (
                    (0, v + v + v[:1]),
                    (n - 2 * m - 1, letters[m : n - m - 1] + v + v + v[:1]),
                ):
                    word = "".join(word)
                    occ = pw.first_overlap(word)
                    assert occ == per_period_first_overlap(word)
                    assert (occ.position, len(occ.x) + 1) == (pos, m)

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

    def test_min_frac_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="^min_frac must be at least 1$"):
            pw.find_fractional_squares("0101010", 0, 3)

    @pytest.mark.parametrize("squares", [1, 4])
    def test_squares_other_than_two_or_three_is_rejected(self, squares):
        with pytest.raises(ValueError, match="^squares must be 2 or 3$"):
            pw.find_fractional_squares("0101010", 1, squares)

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
                assert pw.find_overlaps(window)

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

    def test_min_frac_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="^min_frac must be at least 1$"):
            pw.find_complement_squares("12101", 3, 0)

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

    @pytest.mark.parametrize("min_frac", [10**30, 2**63 - 1], ids=["10**30", "2**63-1"])
    def test_min_frac_past_int64(self, min_frac):
        word = pw.fixed_point_prefix(pw.parse_morphism("0->01;1->0"), "0", 40)
        got = pw.find_fractional_squares(word, min_frac, 2)
        assert got == naive_fractional_squares(word, min_frac, 2) == []
        got = pw.find_complement_squares(word, 2, min_frac)
        assert got == naive_complement_squares(word, 2, min_frac) == []

    @pytest.mark.parametrize("kind", ["overlap", "square", "complement"])
    def test_limit_past_int64_keeps_every_occurrence(self, kind):
        word = pw.fixed_point_prefix(pw.parse_morphism("0->01;1->0"), "0", 40)
        find = {
            "overlap": lambda limit: pw.find_overlaps(word, limit),
            "square": lambda limit: pw.find_fractional_squares(word, 1, 2, limit),
            "complement": lambda limit: pw.find_complement_squares(word, 2, 1, limit),
        }[kind]
        assert find(10**30) == find(None) != []

    @given(digit_words())
    @settings(max_examples=200, deadline=None)
    def test_overlap_finders_match_naive_scans(self, word_base):
        word, _ = word_base
        got = [(o.position, o.u, o.x) for o in pw.find_overlaps(word)]
        assert got == naive_find_overlaps(word)

    @given(digit_words(), st.integers(1, 3), st.sampled_from((2, 3)), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_limit_keeps_the_first_occurrences(self, word_base, min_frac, squares, limit):
        word, base = word_base
        assert pw.find_fractional_squares(word, min_frac, squares, limit) == (
            pw.find_fractional_squares(word, min_frac, squares)[:limit]
        )
        assert pw.find_complement_squares(word, base, min_frac, limit) == (
            pw.find_complement_squares(word, base, min_frac)[:limit]
        )
        assert pw.find_overlaps(word, limit) == pw.find_overlaps(word)[:limit]

    @pytest.mark.parametrize(
        "word, find",
        [
            ("0" * 600, lambda w: pw.find_fractional_squares(w, 1, 2, 5)),
            ("0" * 600, lambda w: pw.find_overlaps(w, 5)),
            ("01" * 300, lambda w: pw.find_complement_squares(w, 2, 1, 5)),
        ],
        ids=["squares", "overlaps", "complement"],
    )
    def test_limited_search_builds_only_what_it_returns(self, word, find):
        # all occurrences with their period texts peak at 12-65 MB here
        tracemalloc.start()
        try:
            found = find(word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found) == 5
        assert peak < 4 * 2**20

    def test_complement_scan_rejects_non_digits(self):
        with pytest.raises(ValueError):
            pw.find_complement_squares("0120", 2, 1)


# the cuts the callers of _period_runs pass, and one per-shift cut above them
KERNEL_CUTS = {
    "every run": lambda m: 1,
    "scan, target 2": lambda m: 4,
    "overlaps": lambda m: m + 1,
    "complement squares, min_frac 3": lambda m: m + 3,
    "steep": lambda m: 2 * m + 1,
}


def expected_runs(word, image, cut):
    return [(m, a, b) for m, a, b in naive_period_runs(word, image) if b - a >= cut(m)]


class TestPeriodRunKernel:
    @given(
        digit_words(bases=range(2, 11)),
        st.booleans(),
        st.sampled_from(sorted(KERNEL_CUTS)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_runs(self, word_base, complemented, cut_name):
        word, base = word_base
        image = pw.complement(word, base) if complemented else word
        cut = KERNEL_CUTS[cut_name]
        got = list(_period_runs(word, image, cut))
        assert got == expected_runs(word, image, cut)
        assert all(type(x) is int for run in got for x in run)

    @pytest.mark.parametrize("name", ["fibonacci", "zeros"])
    @pytest.mark.parametrize("cut_name", ["every run", "overlaps"])
    def test_words_longer_than_one_block(self, name, cut_name):
        # 600 letters: about 108 shifts per block, so six blocks
        word = {
            "fibonacci": pw.fixed_point_prefix(pw.parse_morphism("0->01;1->0"), "0", 600),
            "zeros": "0" * 600,
        }[name]
        cut = KERNEL_CUTS[cut_name]
        for image in (word, pw.complement(word, 2)):
            assert list(_period_runs(word, image, cut)) == expected_runs(word, image, cut)

    def test_thue_morse_peak_memory(self):
        word = pw.thue_morse_prefix(2**12)
        tracemalloc.start()
        try:
            deque(_period_runs(word, word, lambda m: 1), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
