import random
import re
import threading
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plcword as pw
from plcword.words import _require_digits
from helpers import (
    digit_words,
    naive_complement,
    per_block_fixed_point,
    prolongable_binary_morphisms,
    random_morphism,
)

MU = pw.parse_morphism("0->01;1->10")


class TestParseMorphism:
    def test_thue_morse_rules(self):
        assert MU.images == {"0": "01", "1": "10"}
        assert MU.alphabet == frozenset("01")

    def test_single_fixed_letter(self):
        m = pw.parse_morphism("0->0")
        assert m.images == {"0": "0"}

    def test_explicit_empty_image(self):
        m = pw.parse_morphism("0->01;1->")
        assert m.images == {"0": "01", "1": ""}

    def test_newlines_and_spaces(self):
        m = pw.parse_morphism("0 -> 01\n1 -> 10\n")
        assert m == MU

    def test_missing_arrow(self):
        with pytest.raises(pw.MorphismError):
            pw.parse_morphism("0=01")

    def test_undeclared_letter(self):
        with pytest.raises(pw.MorphismError):
            pw.parse_morphism("0->01")

    @pytest.mark.parametrize("text", ["01->0", "->0", "\x01->\x01"])
    def test_head_must_be_one_printable_letter(self, text):
        # one rule and one message, in Morphism, for parsed and built maps
        head = text.partition("->")[0]
        message = f"rule head {head!r} must be a single printable character"
        with pytest.raises(pw.MorphismError, match=re.escape(message)):
            pw.parse_morphism(text)

    def test_duplicate_head(self):
        with pytest.raises(pw.MorphismError):
            pw.parse_morphism("0->0;0->00")

    def test_empty_text(self):
        with pytest.raises(pw.MorphismError):
            pw.parse_morphism("")

    def test_apply_rejects_a_letter_without_a_rule(self):
        with pytest.raises(pw.MorphismError, match="^letter '2' not in alphabet$"):
            MU.apply("0120")

    def test_equal_morphisms_hash_equal(self):
        other = pw.parse_morphism("1 -> 10\n0 -> 01")
        assert other == MU and other is not MU
        assert hash(other) == hash(MU)
        assert len({MU, other}) == 1


class TestMortalLetters:
    def test_thue_morse_has_none(self):
        assert pw.mortal_letters(MU) == frozenset()

    def test_directly_erased(self):
        m = pw.parse_morphism("0->01;1->")
        assert pw.mortal_letters(m) == frozenset("1")

    def test_two_step_erasure(self):
        m = pw.parse_morphism("0->01;1->2;2->")
        assert pw.mortal_letters(m) == frozenset("12")

    def test_stabilises_and_survivors_survive(self):
        m = pw.parse_morphism("0->012;1->2;2->;3->3")
        mortal = pw.mortal_letters(m)
        assert mortal == frozenset("12")
        for a in m.alphabet - mortal:
            assert m.iterate(a, 2 * len(m.alphabet)) != ""
        for a in mortal:
            assert m.iterate(a, len(m.alphabet)) == ""


class TestProlongable:
    def test_thue_morse(self):
        assert pw.is_prolongable(MU, "0")
        assert pw.is_prolongable(MU, "1")

    def test_fixed_letter_is_not(self):
        assert not pw.is_prolongable(pw.parse_morphism("0->0"), "0")

    def test_mortal_remainder_is_not(self):
        assert not pw.is_prolongable(pw.parse_morphism("0->01;1->"), "0")

    def test_wrong_head_is_not(self):
        assert not pw.is_prolongable(pw.parse_morphism("0->10;1->1"), "0")

    def test_letter_outside_the_alphabet_is_named(self):
        with pytest.raises(pw.MorphismError, match="'2' is not in the morphism's alphabet"):
            pw.is_prolongable(MU, "2")


class TestFixedPointPrefix:
    def test_thue_morse_16(self):
        assert pw.fixed_point_prefix(MU, "0", 16) == "0110100110010110"

    def test_complement_start(self):
        assert pw.fixed_point_prefix(MU, "1", 4) == "1001"

    def test_non_uniform(self):
        m = pw.parse_morphism("0->010;1->1")
        assert pw.fixed_point_prefix(m, "0", 7) == "0101010"

    def test_rejects_non_prolongable(self):
        with pytest.raises(pw.MorphismError):
            pw.fixed_point_prefix(pw.parse_morphism("0->01;1->"), "0", 4)

    @pytest.mark.parametrize("rules,start", [("0->01;1->10", "0"), ("0->010;1->1", "0"), ("0->001;1->10", "0")])
    def test_prefix_consistency(self, rules, start):
        stream = pw.FixedPointStream(pw.parse_morphism(rules), start)
        long = stream.prefix(200)
        for n in (0, 1, 7, 50, 199):
            assert stream.prefix(n) == long[:n]

    @pytest.mark.parametrize("rules,start", [("0->01;1->10", "0"), ("0->010;1->1", "0"), ("0->01;1->20;2->2", "0")])
    def test_fixed_point_law(self, rules, start):
        m = pw.parse_morphism(rules)
        prefix = pw.fixed_point_prefix(m, start, 120)
        assert m.apply(prefix)[:120] == prefix

    def test_agrees_with_direct_iteration(self):
        word = "0"
        for _ in range(6):
            word = MU.apply(word)
        assert pw.fixed_point_prefix(MU, "0", len(word)) == word


class TestFixedBlock:
    # phi fixes a block of one or two letters, at once or after one step
    FIXED = [
        ("0->01;1->1", "0"), ("0->011;1->1", "0"), ("0->0;1->10", "1"),
        ("0->0;1->100", "1"), ("0->01;1->2;2->2", "0"),
    ]

    @pytest.mark.parametrize("rules,start", FIXED)
    def test_block_doubles_instead_of_reapplying(self, rules, start, monkeypatch):
        m = pw.parse_morphism(rules)
        calls, steps = [], []
        apply = pw.Morphism.apply
        grow = pw.FixedPointStream._grow
        monkeypatch.setattr(pw.Morphism, "apply", lambda m, w: calls.append(w) or apply(m, w))
        monkeypatch.setattr(pw.FixedPointStream, "_grow", lambda s: steps.append(1) or grow(s))
        prefix = pw.FixedPointStream(m, start).prefix(1 << 15)
        assert len(calls) <= 16
        assert len(steps) <= 16
        monkeypatch.undo()
        assert prefix == per_block_fixed_point(m, start, 1 << 15)

    def test_census_prefixes_match_per_block_oracle(self):
        n = 1 << 12
        pairs = [(m, a) for m, a in prolongable_binary_morphisms() if pw.is_prolongable(m, a)]
        assert len(pairs) == 176
        for m, start in pairs:
            stream = pw.FixedPointStream(m, start)
            assert stream.prefix(n) == per_block_fixed_point(m, start, n), (m, start)


class TestLetterPowers:
    # an erased letter, a bounded cycle that is never fixed, a block fixed
    # after two steps, a linearly growing block beside a 3**n letter, erased
    # letters inside a growing block, a fixed block from start letter 1
    SHAPES = [
        ("0->012;1->;2->2", "0"), ("0->01;1->2;2->1", "0"),
        ("0->01;1->2;2->33;3->3", "0"), ("0->01;1->12;2->2;3->333", "0"),
        ("0->0120;1->3;2->;3->13", "0"), ("1->10;0->0", "1"),
    ]

    @pytest.mark.parametrize("rules,start", SHAPES)
    def test_shapes_match_per_block_oracle(self, rules, start):
        m = pw.parse_morphism(rules)
        for n in (1, 2, 3, 17, 100, 1 << 12):
            assert pw.FixedPointStream(m, start).prefix(n) == per_block_fixed_point(m, start, n)

    @given(st.integers(0, 2**32), st.integers(0, 3), st.integers(1, 1 << 12))
    @settings(max_examples=300, deadline=None)
    def test_random_morphisms_match_per_block_oracle(self, seed, index, n):
        # draw until some letter is prolongable: filtering with assume
        # rejects too many examples for hypothesis' health check
        rng = random.Random(seed)
        starts = []
        while not starts:
            m = random_morphism(rng, max_letters=4)
            starts = [a for a in sorted(m.alphabet) if pw.is_prolongable(m, a)]
        start = starts[index % len(starts)]
        assert pw.FixedPointStream(m, start).prefix(n) == per_block_fixed_point(m, start, n)

    # a linearly growing block beside an unreachable 3**n letter, which
    # stays out of the table, and a chain 1 -> 12, ..., 8 -> 89 whose last
    # letter 9 -> 9^9 outgrows the block by a factor near 9^8 (about 3.5e9
    # letters by the 1,000th), which makes the stream drop its table
    MEMORY = [
        ("0->01;1->12;2->2;3->333", 1 << 12, True),
        (";".join(f"{a}->{a}{a + 1}" for a in range(9)) + ";9->999999999", 5000, False),
    ]

    @pytest.mark.parametrize("rules,n,keeps_table", MEMORY)
    def test_table_stays_near_the_prefix(self, rules, n, keeps_table, monkeypatch):
        m = pw.parse_morphism(rules)
        stream = pw.FixedPointStream(m, "0")
        calls = []
        apply = pw.Morphism.apply
        monkeypatch.setattr(pw.Morphism, "apply", lambda m, w: calls.append(w) or apply(m, w))
        tracemalloc.start()
        try:
            # one block per call at most, so a blow-up fails while still small
            for k in range(1, n + 1):
                stream.prefix(k)
                assert tracemalloc.get_traced_memory()[1] < 1 << 20, k
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert (calls == []) == keeps_table
        assert stream.prefix(n) == per_block_fixed_point(m, "0", n)

    @pytest.mark.parametrize("rules", ["0->01;1->2;2->1", "0->01;1->2;2->33;3->3"])
    def test_bounded_block_builds_no_table(self, rules, monkeypatch):
        m = pw.parse_morphism(rules)
        steps = []
        power_step = pw.FixedPointStream._power_step
        monkeypatch.setattr(pw.FixedPointStream, "_power_step", lambda s: steps.append(1) or power_step(s))
        prefix = pw.FixedPointStream(m, "0").prefix(1 << 10)
        assert steps == []
        monkeypatch.undo()
        assert prefix == per_block_fixed_point(m, "0", 1 << 10)


class TestComplement:
    def test_base3(self):
        assert pw.complement("12", 3) == "10"

    def test_base2_single(self):
        assert pw.complement("0", 2) == "1"

    def test_empty(self):
        assert pw.complement("", 5) == ""

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError):
            pw.complement("2", 2)
        with pytest.raises(ValueError, match="letter 'a' is not a base-2 digit"):
            pw.complement("01a2", 2)
        with pytest.raises(ValueError, match="letter '\u0663' is not a base-10 digit"):
            pw.complement("0\u0663", 10)
        with pytest.raises(ValueError, match="base must be between 2 and 10, got 11"):
            pw.complement("", 11)

    @given(digit_words())
    def test_matches_per_letter_oracle(self, word_base):
        word, base = word_base
        assert pw.complement(word, base) == naive_complement(word, base)
        tm = pw.thue_morse_prefix(len(word))
        assert pw.tm_digit_word(base - 1, base - 2, len(word)) == naive_complement(tm, base)

    @given(st.integers(2, 10), st.text(alphabet="0123456789", max_size=30))
    def test_involution(self, base, word):
        word = "".join(ch for ch in word if int(ch) < base)
        assert pw.complement(pw.complement(word, base), base) == word


class TestRequireDigits:
    @given(st.tuples(st.text(), st.integers(2, 10)) | digit_words())
    @example(("01\u00e9", 2))  # not ASCII: the lstrip path
    @example(("012", 2))
    @example(("", 2))
    @example(("0\x001\n", 2))
    @settings(max_examples=300)
    def test_first_letter_that_is_not_a_digit(self, word_base):
        # the naive oracle: the first letter not in "0123456789"[:base]
        word, base = word_base
        bad = next((ch for ch in word if ch not in "0123456789"[:base]), None)
        if bad is None:
            _require_digits(word, base)
        else:
            with pytest.raises(ValueError) as exc:
                _require_digits(word, base)
            assert str(exc.value) == f"letter {bad!r} is not a base-{base} digit"


class TestStreams:
    def test_negative_prefix_length_is_rejected(self):
        with pytest.raises(ValueError, match="^prefix length must be non-negative$"):
            pw.FixedPointStream(MU, "0").prefix(-1)

    def test_concurrent_readers_see_consistent_prefixes(self):
        stream = pw.FixedPointStream(MU, "0")
        reference = pw.fixed_point_prefix(MU, "0", 4096)
        errors = []

        def reader(n):
            got = stream.prefix(n)
            if got != reference[:n]:
                errors.append(n)

        threads = [threading.Thread(target=reader, args=(n,)) for n in (4096, 11, 503, 2048, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
