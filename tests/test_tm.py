import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plcword as pw
from helpers import (
    binary_words_upto,
    edited_overlap_free_factors,
    naive_mu_preimage,
    naive_tm_identity_suite,
    near_mu_images,
    overlap_free_census,
)
from plcword import tm
from plcword.repetitions import first_overlap
from plcword.tm import _mu_preimage

TM16 = "0110100110010110"


class TestDecompose:
    def test_pure_image(self):
        assert pw.decompose("0110") == pw.Decomposition("", "01", "")

    def test_odd_length(self):
        assert pw.decompose("011") == pw.Decomposition("", "0", "1")

    def test_single_letter_boundary(self):
        assert pw.decompose("0") == pw.Decomposition("", "", "0")

    def test_rejects_overlaps(self):
        with pytest.raises(ValueError):
            pw.decompose("000")

    def test_rejects_empty_and_nonbinary(self):
        with pytest.raises(ValueError):
            pw.decompose("")
        with pytest.raises(ValueError):
            pw.decompose("012")

    def test_census_words_decompose_and_reassemble(self):
        census = overlap_free_census(12)
        for length in range(1, 13):
            for word in census[length]:
                d = pw.decompose(word)
                assert len(d.u) <= 2 and len(d.v) <= 2
                assert d.reassemble() == word
                # the chosen core is the largest one
                best = (len(word) - len(d.u) - len(d.v)) // 2
                assert len(d.y) == best


class TestMuPreimage:
    @given(st.text(alphabet="01", max_size=40))
    def test_random_words_match_pair_oracle(self, word):
        assert _mu_preimage(word) == naive_mu_preimage(word)

    @given(near_mu_images())
    def test_near_images_match_pair_oracle(self, word):
        assert _mu_preimage(word) == naive_mu_preimage(word)


class TestMuPreservesOverlapFree:
    def test_examples(self):
        assert pw.mu_preserves_overlap_free("01") == pw.OverlapFreePair(True, True)
        assert pw.mu_preserves_overlap_free("000") == pw.OverlapFreePair(False, False)
        assert pw.mu_preserves_overlap_free(TM16) == pw.OverlapFreePair(True, True)

    def test_flags_agree_exhaustively_to_ten(self):
        for word in binary_words_upto(10):
            pair = pw.mu_preserves_overlap_free(word)
            assert pair.y_free == pair.mu_y_free, word


class TestExtractTmPrefix:
    def test_thue_morse_prefix_32(self):
        chain = pw.extract_tm_prefix(pw.thue_morse_prefix(32))
        assert chain.depth == 3
        assert chain.tm_prefix_len == 8
        assert chain.target == "M"

    def test_single_letter(self):
        chain = pw.extract_tm_prefix("0")
        assert chain.depth == 0
        assert chain.tm_prefix_len == 1
        assert chain.letter == "0"

    def test_census_guarantee_and_reassembly(self):
        census = overlap_free_census(14)
        for length in range(1, 15):
            for word in census[length]:
                chain = pw.extract_tm_prefix(word)
                assert chain.reassemble() == word
                assert 8 * chain.tm_prefix_len >= length + 4
                extracted = word[chain.offset : chain.offset + chain.tm_prefix_len]
                start = "0" if chain.target == "M" else "1"
                assert extracted == pw.thue_morse_prefix(chain.tm_prefix_len, start)

    def test_chain_level_length_bounds(self):
        rng = random.Random(47)
        words = overlap_free_census(16)[16]
        for word in rng.sample(words, min(20, len(words))):
            chain = pw.extract_tm_prefix(word)
            size = len(word)
            for u, v in chain.levels:
                shrunk = (size - len(u) - len(v)) // 2
                assert (size - 4) / 2 <= shrunk <= size / 2
                size = shrunk
            assert size == len(chain.core)

    def test_rejects_overlap_input(self):
        # short words are checked too, though their target depth is 0
        for word in ("010101", "000", "111", "2"):
            with pytest.raises(ValueError):
                pw.extract_tm_prefix(word)

    def test_chain_never_calls_first_overlap(self, monkeypatch):
        # the final core is checked by the same end test as every level
        calls = []

        def recording(word):
            calls.append(word)
            return first_overlap(word)

        monkeypatch.setattr(pw.repetitions, "first_overlap", recording)
        assert not hasattr(pw.tm, "first_overlap")
        chain = pw.extract_tm_prefix(pw.thue_morse_prefix(1024))
        assert chain.depth == 8 and len(chain.core) < 8
        pw.decompose(pw.thue_morse_prefix(1024))
        for word in overlap_free_census(16)[16][:50] + ["0" + pw.thue_morse_prefix(4095)]:
            pw.extract_tm_prefix(word)
        with pytest.raises(ValueError, match="word contains an overlap"):
            pw.extract_tm_prefix("00" + pw.thue_morse_prefix(4094))
        assert calls == []


class TestOverlapFreeDecider:
    def test_every_binary_word_to_fourteen(self):
        for word in binary_words_upto(14):
            assert (tm._overlap_free_chain(word) is not None) == (first_overlap(word) is None), word

    @settings(max_examples=300, deadline=None)
    @given(edited_overlap_free_factors())
    def test_edited_factors_match_first_overlap(self, word):
        free = first_overlap(word) is None
        assert (tm._overlap_free_chain(word) is not None) == free
        if free:
            assert pw.extract_tm_prefix(word).reassemble() == word
        else:
            with pytest.raises(ValueError, match="^word contains an overlap$"):
                pw.extract_tm_prefix(word)


class TestTmConstant:
    def test_examples(self):
        assert pw.tm_constant(0, 1, 2, 4) == Fraction(3, 8)
        assert pw.tm_constant(1, 0, 2, 4) == Fraction(9, 16)
        assert pw.tm_constant(0, 0, 3, 7) == 0

    def test_digit_range_checked(self):
        with pytest.raises(ValueError):
            pw.tm_constant(0, 3, 3, 4)

    def test_digit_word_coding(self):
        assert pw.tm_digit_word(0, 1, 16) == TM16
        assert pw.tm_digit_word(1, 0, 16) == pw.complement(TM16, 2)

    @pytest.mark.parametrize("a, b", [(10, 1), (0, -1)])
    def test_coded_digit_outside_0_to_9_is_rejected(self, a, b):
        with pytest.raises(ValueError, match="^coded digits must be single decimal digits$"):
            pw.tm_digit_word(a, b, 16)

    def test_length_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="^length must be at least 1$"):
            pw.tm_constant(0, 1, 2, 0)


class TestIdentitySuite:
    def test_scaling_base3(self):
        checks = pw.tm_identity_suite(3, 8)
        scaling = [c for c in checks if c.identity == "scaling" and c.params["r"] == 2]
        assert scaling and scaling[0].ok

    def test_complement_base2_matches_literal_words(self):
        checks = {c.identity: c for c in pw.tm_identity_suite(2, 16)}
        assert checks["complement"].ok
        assert pw.tm_digit_word(1, 0, 16) == "1001011001101001"

    def test_shift_base5(self):
        checks = pw.tm_identity_suite(5, 10)
        shift = [
            c
            for c in checks
            if c.identity == "shift" and c.params == {"k": 2, "l": 2}
        ]
        assert shift and shift[0].ok

    def test_all_pass_for_small_bases(self):
        for base in (2, 3, 4):
            assert all(c.ok for c in pw.tm_identity_suite(base, 32))

    @pytest.mark.parametrize("base", range(2, 11))
    def test_matches_fraction_suite(self, base):
        for length in (1, 7, 64, 301):
            assert pw.tm_identity_suite(base, length) == naive_tm_identity_suite(base, length)

    def test_corrupted_digit_word_fails(self, monkeypatch):
        real = tm.tm_digit_word

        def corrupted(a, b, length):
            word = real(a, b, length)
            if (a, b) != (0, 3):
                return word
            return word[:-1] + ("1" if word[-1] == "0" else "0")

        monkeypatch.setattr(tm, "tm_digit_word", corrupted)
        failed = [c for c in pw.tm_identity_suite(5, 40) if not c.ok]
        assert {"r": 3} in [c.params for c in failed if c.identity == "scaling"]
        assert {"k": 3, "l": 1} in [c.params for c in failed if c.identity == "shift"]

    def test_rejects_empty_length(self):
        with pytest.raises(ValueError):
            pw.tm_identity_suite(3, 0)
