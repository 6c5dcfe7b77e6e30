import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import plcword as pw
from helpers import per_block_fixed_point, prolongable_binary_morphisms

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

    def test_duplicate_head(self):
        with pytest.raises(pw.MorphismError):
            pw.parse_morphism("0->0;0->00")

    def test_empty_text(self):
        with pytest.raises(pw.MorphismError):
            pw.parse_morphism("")


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
        calls = []
        apply = pw.Morphism.apply
        monkeypatch.setattr(pw.Morphism, "apply", lambda m, w: calls.append(w) or apply(m, w))
        prefix = pw.FixedPointStream(m, start).prefix(1 << 15)
        assert len(calls) <= 16
        monkeypatch.undo()
        assert prefix == per_block_fixed_point(m, start, 1 << 15)

    def test_census_prefixes_match_per_block_oracle(self):
        n = 1 << 12
        pairs = [(m, a) for m, a in prolongable_binary_morphisms() if pw.is_prolongable(m, a)]
        assert len(pairs) == 176
        for m, start in pairs:
            stream = pw.FixedPointStream(m, start)
            assert stream.prefix(n) == per_block_fixed_point(m, start, n), (m, start)


class TestMorphismProperties:
    def test_thue_morse(self):
        props = pw.morphism_properties(MU)
        assert props == pw.MorphismProperties(k_uniform=2, expanding=True, primitive=True)

    def test_non_primitive(self):
        props = pw.morphism_properties(pw.parse_morphism("0->01;1->1"))
        assert props == pw.MorphismProperties(k_uniform=None, expanding=False, primitive=False)

    def test_identity_on_one_letter(self):
        props = pw.morphism_properties(pw.parse_morphism("0->0"))
        assert props == pw.MorphismProperties(k_uniform=1, expanding=False, primitive=True)

    def test_primitive_needs_power(self):
        # 1 only reaches 0 after two applications
        m = pw.parse_morphism("0->01;1->0")
        assert pw.morphism_properties(m).primitive


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

    @given(st.integers(2, 10), st.text(alphabet="0123456789", max_size=30))
    def test_involution(self, base, word):
        word = "".join(ch for ch in word if int(ch) < base)
        assert pw.complement(pw.complement(word, base), base) == word


class TestStreams:
    def test_periodic(self):
        s = pw.PeriodicStream("011")
        assert s.prefix(8) == "01101101"

    def test_shift(self):
        s = pw.FixedPointStream(MU, "0").shift(1)
        assert s.prefix(5) == "11010"

    def test_coded_preserves_length(self):
        coding = pw.parse_morphism("0->a;1->b;a->a;b->b")
        s = pw.FixedPointStream(MU, "0").coded(coding)
        assert s.prefix(6) == "abbaba"
        assert len(s.prefix(33)) == 33

    def test_coding_rejects_long_images(self):
        with pytest.raises(pw.MorphismError):
            pw.FixedPointStream(MU, "0").coded(MU)

    def test_literal_bounds(self):
        s = pw.LiteralStream("0110")
        assert s.prefix(4) == "0110"
        with pytest.raises(ValueError):
            s.prefix(5)

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
