import random
from fractions import Fraction

import pytest

import plcword as pw
from helpers import iterated_lengths, random_morphism


class TestGrowsUnboundedly:
    def test_thue_morse_letter(self):
        assert pw.grows_unboundedly(pw.MU, "0")

    def test_fixed_letter_stays_bounded(self):
        m = pw.parse_morphism("0->01;1->1")
        assert not pw.grows_unboundedly(m, "1")
        assert pw.grows_unboundedly(m, "0")

    def test_mortal_letter(self):
        m = pw.parse_morphism("0->01;1->")
        assert not pw.grows_unboundedly(m, "1")

    def test_growth_through_mortal_spawning(self):
        # images shed mortals but the cycle letter spawns a survivor each turn
        m = pw.parse_morphism("0->021;1->1;2->")
        assert pw.grows_unboundedly(m, "0")
        assert not pw.grows_unboundedly(m, "2")

    def test_agrees_with_direct_iteration(self):
        rng = random.Random(53)
        for _ in range(120):
            m = random_morphism(rng)
            for letter in sorted(m.alphabet):
                lengths = iterated_lengths(m, letter, 12)
                growing = pw.grows_unboundedly(m, letter)
                # phases of length 1..3 all divide 6, so bounded words have
                # settled into an exact period by step 6
                if growing:
                    assert lengths[12] > lengths[6], (m, letter)
                else:
                    assert lengths[12] == lengths[6], (m, letter)

    def test_growth_classes_partition(self):
        rng = random.Random(59)
        for _ in range(50):
            m = random_morphism(rng)
            classes = pw.growth_classes(m)
            assert set(classes) == set(m.alphabet)
            for letter, kind in classes.items():
                assert kind in ("mortal", "bounded", "growing")
                assert (kind == "mortal") == (letter in pw.mortal_letters(m))


class TestClassifyBinary:
    def test_thue_morse_is_p1(self):
        result = pw.classify_binary(pw.MU, "0", depth=512)
        assert result.tag == "P1"
        assert result.matched == "M"

    def test_thue_morse_complement_start(self):
        result = pw.classify_binary(pw.MU, "1", depth=512)
        assert result.tag == "P1"
        assert result.matched == "M~"

    def test_case_two_overlap(self):
        m = pw.parse_morphism("0->010;1->1")
        result = pw.classify_binary(m, "0", depth=512)
        assert result.tag == "P3"
        assert result.overlap.pattern() == "01010"
        assert result.growing_letter == "0"
        prefix = pw.fixed_point_prefix(m, "0", 64)
        assert result.overlap.matches(prefix)

    def test_erased_image_is_periodic(self):
        m = pw.parse_morphism("0->01;1->")
        result = pw.classify_binary(m, "0", depth=512)
        assert result.tag == "P2"
        assert result.witness == "01"
        assert result.case_label == "CaseI"

    def test_all_start_letters_is_periodic(self):
        m = pw.parse_morphism("0->00;1->10")
        result = pw.classify_binary(m, "0", depth=256)
        assert result.tag == "P2"
        assert result.witness == "0"
        assert result.case_label == "u=0^n"

    def test_pumped_ones_tail(self):
        m = pw.parse_morphism("0->0011;1->1")
        result = pw.classify_binary(m, "0", depth=256)
        assert result.tag == "P2"
        assert result.case_label == "CaseII-tail"
        assert result.witness == "1"

    def test_ones_image_power(self):
        m = pw.parse_morphism("0->01;1->11")
        result = pw.classify_binary(m, "0", depth=256)
        assert result.tag == "P2"
        assert result.case_label == "CaseII-1^n"

    def test_case_three_finds_overlap(self):
        m = pw.parse_morphism("0->011;1->10")
        result = pw.classify_binary(m, "0", depth=512)
        assert result.tag == "P3"
        prefix = pw.fixed_point_prefix(m, "0", 512)
        assert result.overlap.matches(prefix)
        assert pw.grows_unboundedly(m, result.growing_letter)

    def test_rejects_non_prolongable(self):
        with pytest.raises(ValueError):
            pw.classify_binary(pw.parse_morphism("0->10;1->1"), "0")

    @pytest.mark.parametrize("start", ["2", "01", ""])
    def test_rejects_start_outside_the_alphabet(self, start):
        with pytest.raises(ValueError, match="not in the morphism's alphabet"):
            pw.classify_binary(pw.MU, start)

    def test_rejects_wrong_alphabet(self):
        with pytest.raises(ValueError):
            pw.classify_binary(pw.parse_morphism("0->012;1->1;2->2"), "0")

    def test_hand_labelled_spot_checks(self):
        cases = [
            ("0->01;1->10", "0", "P1"),
            ("0->01;1->10", "1", "P1"),
            ("0->010;1->1", "0", "P3"),
            ("0->01;1->", "0", "P2"),
            ("0->00;1->", "0", "P2"),
            ("0->001;1->1", "0", "P2"),
            ("0->0010;1->1", "0", "P3"),
            ("0->011;1->1", "0", "P2"),
            ("0->01;1->11", "0", "P2"),
            ("0->011;1->0", "0", "P3"),
            ("0->001;1->10", "0", "P3"),
        ]
        for rules, start, expected in cases:
            result = pw.classify_binary(pw.parse_morphism(rules), start, depth=1024)
            assert result.tag == expected, (rules, start, result)


class TestRestrictToSubalphabet:
    def test_closed_subalphabet(self):
        m = pw.parse_morphism("0->01;1->12;2->2")
        sub = pw.restrict_to_subalphabet(m, {"1", "2"})
        assert sub is not None
        assert sub.images == {"1": "12", "2": "2"}

    def test_escaping_image(self):
        assert pw.restrict_to_subalphabet(pw.MU, {"0"}) is None

    def test_full_alphabet(self):
        assert pw.restrict_to_subalphabet(pw.MU, {"0", "1"}) == pw.MU


class TestEmpiricalRecurrence:
    def test_thue_morse_single_letters(self):
        assert pw.empirical_recurrence(pw.thue_morse_prefix(16), 1).window == 3

    def test_alternating_pairs(self):
        assert pw.empirical_recurrence("0101", 2).window == 3

    def test_skewed_word(self):
        assert pw.empirical_recurrence("0001", 1).window == 4

    def test_agrees_with_direct_window_scan(self):
        rng = random.Random(61)
        for _ in range(60):
            word = "".join(rng.choice("01") for _ in range(rng.randint(2, 18)))
            n = rng.randint(1, min(3, len(word)))
            subwords = {word[i : i + n] for i in range(len(word) - n + 1)}
            direct = None
            for size in range(n, len(word) + 1):
                if all(
                    all(s in word[i : i + size] for s in subwords)
                    for i in range(len(word) - size + 1)
                ):
                    direct = size
                    break
            assert pw.empirical_recurrence(word, n).window == direct


class TestWordDistance:
    def test_examples(self):
        assert pw.word_distance("0110x", "0111y") == Fraction(1, 8)
        assert pw.word_distance("abc", "abc") == 0
        assert pw.word_distance("0a", "1b") == 1

    def test_ultrametric_inequality(self):
        rng = random.Random(67)
        words = ["".join(rng.choice("01") for _ in range(rng.randint(0, 10))) for _ in range(100)]
        for _ in range(300):
            x, y, z = rng.choice(words), rng.choice(words), rng.choice(words)
            assert pw.word_distance(x, z) <= max(
                pw.word_distance(x, y), pw.word_distance(y, z)
            )
