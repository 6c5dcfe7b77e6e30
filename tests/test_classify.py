import random

import pytest

import plcword as pw
from helpers import iterated_lengths, prolongable_binary_morphisms, random_morphism


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

    def test_search_reads_up_to_the_cap(self):
        # the first 111 sits at 901 * 902 - 1 = 812,701: past the last
        # doubling of the 76-letter start (622,592) but below the cap
        m = pw.parse_morphism("0->" + "0" * 901 + "1;1->11")
        result = pw.classify_binary(m, "0")
        assert result.tag == "P2"
        assert result.case_label == "CaseII-1^n"
        assert pw.fixed_point_prefix(m, "0", 812_704).find("111") == 812_701

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

    @pytest.mark.parametrize("depth", [0, -3])
    def test_rejects_depth_below_one(self, depth):
        # at depth 0 the empty prefix would pass for Thue-Morse
        with pytest.raises(ValueError, match=f"depth must be at least 1, got {depth}"):
            pw.classify_binary(pw.parse_morphism("0->01;1->0"), "0", depth=depth)

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


class TestThueMorseBeforeScan:
    # Case III settles P1 by comparison and skips the overlap scan; these
    # run the scan it skips
    DEPTHS = [*range(1, 65), 4096]

    def test_p1_prefixes_carry_no_overlap(self):
        p1 = 0
        for m, start in prolongable_binary_morphisms():
            for depth in self.DEPTHS:
                if pw.classify_binary(m, start, depth).tag == "P1":
                    p1 += 1
                    assert pw.first_overlap(pw.fixed_point_prefix(m, start, depth)) is None
        assert p1 >= 2 * len(self.DEPTHS)

    @pytest.mark.parametrize("head", ["0", "1"])
    def test_long_thue_morse_prefix_has_no_overlap(self, head):
        assert pw.first_overlap(pw.thue_morse_prefix(1 << 16, head)) is None

    def test_other_case_three_prefixes_are_not_thue_morse(self):
        for m, start in prolongable_binary_morphisms():
            other = "1" if start == "0" else "0"
            if set(m.images[start][1:]) == {start} or start not in m.images[other]:
                continue  # not Case III
            for depth in self.DEPTHS:
                if pw.classify_binary(m, start, depth).tag != "P1":
                    prefix = pw.fixed_point_prefix(m, start, depth)
                    assert prefix not in (pw.thue_morse_prefix(depth, "0"), pw.thue_morse_prefix(depth, "1"))


class TestOverlapScan:
    def test_first_overlap_sees_only_short_periods(self, monkeypatch):
        # the classify counterpart of test_tm.py's short-core test: every scan
        # classify makes stops at a short period, so none pays the quadratic
        # cost of an overlap-free prefix
        periods = []

        def recording(word):
            occ = pw.first_overlap(word)
            periods.append(None if occ is None else len(occ.x) + 1)
            return occ

        monkeypatch.setattr(pw.classify, "first_overlap", recording)
        for m, start in prolongable_binary_morphisms(4):
            pw.classify_binary(m, start, depth=4096)
        assert periods and None not in periods and max(periods) <= 6


class TestToJson:
    @staticmethod
    def field_walk(result):
        """The set fields in declaration order, the overlap as its JSON object."""
        data = {}
        for name in result._fields:
            value = getattr(result, name)
            if value is not None:
                data[name] = value.to_json() if name == "overlap" else value
        return data

    @pytest.mark.parametrize("depth", [8, 256])
    def test_matches_a_field_walk(self, depth):
        # every pair is settled by depth 16, so only depth 8 leaves some UNRESOLVED
        tags = set()
        for m, start in prolongable_binary_morphisms():
            result = pw.classify_binary(m, start, depth=depth)
            tags.add(result.tag)
            got, want = result.to_json(), self.field_walk(result)
            assert list(got.items()) == list(want.items()), (m, start)
        assert tags >= {"P1", "P2", "P3"}
        assert ("UNRESOLVED" in tags) == (depth == 8)
