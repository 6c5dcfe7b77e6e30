import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plcword import cli, repetitions
from plcword.cf import cf_expand

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
TM_RULES = "0->01;1->10"
HONEST_CERT = {
    "p": 2, "kind": "square3", "k": 0, "q": 3, "period": "01",
    "repeats": 2, "frac_len": 1, "s": 1, "bound": "1/2", "vacuous": False,
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def tm_file(tmp_path):
    path = tmp_path / "tm.mrf"
    path.write_text(TM_RULES)
    return str(path)


@pytest.fixture
def digits_file(tmp_path):
    def write(content, name="digits.txt"):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


class TestGen:
    def test_thue_morse_16(self, capsys, tm_file):
        doc = run_json(capsys, "gen", "--morphism", tm_file, "--start", "0", "--length", "16")
        assert doc["result"]["word"] == "0110100110010110"
        assert doc["schema"] == 1
        assert doc["command"] == "gen"

    def test_bad_morphism_file_is_validation_error(self, capsys, digits_file):
        path = digits_file("0->01", "bad.mrf")
        code, _, err = run_cli(capsys, "gen", "--morphism", path, "--start", "0", "--length", "4")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command", [["gen", "--length", "4"], ["classify"]])
    def test_start_outside_the_alphabet_is_named(self, capsys, tm_file, command):
        code, _, err = run_cli(capsys, *command, "--morphism", tm_file, "--start", "2")
        assert code == 2
        assert err == "error: letter '2' is not in the morphism's alphabet\n"


class TestUtf8Inputs:
    """Morphism, digit and certificate files are read as UTF-8 text."""

    @pytest.fixture
    def greek_file(self, tmp_path):
        path = tmp_path / "greek.mrf"
        path.write_text("α->αβ;β->βα", encoding="utf-8")
        return str(path)

    def test_gen_reads_a_non_ascii_morphism(self, capsys, greek_file):
        doc = run_json(capsys, "gen", "--morphism", greek_file, "--start", "α", "--length", "8")
        assert doc["result"]["word"] == "αββαβααβ"

    def test_classify_names_its_alphabet_rule(self, capsys, greek_file):
        code, out, err = run_cli(capsys, "classify", "--morphism", greek_file, "--start", "α")
        assert (code, out, err) == (2, "", "error: classification needs the alphabet {0, 1}\n")

    def test_non_ascii_digit_is_named(self, capsys, tmp_path):
        path = tmp_path / "digits.txt"
        path.write_text("01α0", encoding="utf-8")
        code, out, err = run_cli(capsys, "detect", "--digits", str(path))
        assert (code, out, err) == (2, "", "error: letter 'α' is not a base-2 digit\n")

    def test_non_ascii_certificate_period_is_named(self, capsys, tmp_path, digits_file):
        path = digits_file("0101010")
        cert_path = tmp_path / "greek.json"
        cert = {**HONEST_CERT, "period": "0α"}
        cert_path.write_text(json.dumps(cert, ensure_ascii=False), encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--digits", path, "--cert", str(cert_path))
        assert (code, out, err) == (2, "", "error: letter 'α' is not a base-2 digit\n")


# Every command that takes a base, with its other required arguments and
# its base flag last (--p, or tm's --n); the digit commands read stdin,
# which the base check must never reach.
BASE_COMMANDS = {
    "detect": ["detect", "--digits", "-", "--p"],
    "cert": ["cert", "--digits", "-", "--p"],
    "verify": ["verify", "--digits", "-", "--cert", "-", "--p"],
    "bruteforce": ["bruteforce", "--digits", "-", "--Q", "3", "--K", "0", "--p"],
    "orbit": ["orbit", "--x", "1/3", "--K", "2", "--p"],
    # its digit 1 is not below base 1, so the base must be checked first
    "tm": ["tm", "--a", "0", "--b", "1", "--L", "4", "--n"],
}
DIGIT_COMMANDS = {
    "detect": [],
    "cert": [],
    "verify": ["--cert", "honest.json"],
    "bruteforce": ["--Q", "3", "--K", "0"],
}


class UnreadableStdin:
    """A stdin for checks that must fail before any input is read."""

    def read(self, *args):
        pytest.fail("stdin was read")


class TestBaseRule:
    @pytest.mark.parametrize("base", ["1", "11"])
    @pytest.mark.parametrize("command", list(BASE_COMMANDS))
    def test_out_of_range_base_fails_before_input(self, capsys, monkeypatch, command, base):
        monkeypatch.setattr("sys.stdin", UnreadableStdin())
        code, out, err = run_cli(capsys, *BASE_COMMANDS[command], base)
        assert (code, out) == (2, "")
        assert err == f"error: base must be between 2 and 10, got {base}\n"


class TestDigitArguments:
    """detect, cert, verify and bruteforce share one --digits/--p group."""

    @pytest.mark.parametrize("command", list(DIGIT_COMMANDS))
    def test_digits_is_required(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *DIGIT_COMMANDS[command]])
        assert exc.value.code == 2
        assert "the following arguments are required: --digits" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(DIGIT_COMMANDS))
    def test_base_defaults_to_two(self, capsys, monkeypatch, tmp_path, digits_file, command):
        path = digits_file("0101010")
        (tmp_path / "honest.json").write_text(json.dumps(HONEST_CERT))
        monkeypatch.chdir(tmp_path)
        doc = run_json(capsys, command, "--digits", path, *DIGIT_COMMANDS[command])
        assert doc["config"]["p"] == 2
        assert doc["config"]["digits"] == path

    def test_whitespace_is_ignored(self, digits_file):
        assert cli.digits_io(digits_file(" 01 2\n\t10\r\n"), 3) == "01210"
        with pytest.raises(ValueError, match="letter '2' is not a base-2 digit"):
            cli.digits_io(digits_file("01\n 2"), 2)


class TestDetect:
    def test_square_occurrences(self, capsys, digits_file):
        path = digits_file("0101010")
        doc = run_json(capsys, "detect", "--digits", path, "--p", "2", "--squares", "3")
        assert doc["result"]["occurrences"] == [
            {"pos": 0, "period": "01", "repeats": 3, "frac_len": 1},
            {"pos": 2, "period": "01", "repeats": 2, "frac_len": 1},
        ]

    def test_overlap_kind(self, capsys, digits_file):
        path = digits_file("000")
        doc = run_json(capsys, "detect", "--digits", path, "--kind", "overlap")
        assert doc["result"]["overlaps"] == [{"pos": 0, "u": "0", "x": ""}]

    def test_complement_kind(self, capsys, digits_file):
        path = digits_file("12101")
        doc = run_json(
            capsys, "detect", "--digits", path, "--p", "3", "--kind", "complement"
        )
        assert doc["result"]["occurrences"] == [
            {"pos": 0, "period": "12", "repeats": 1, "frac_len": 1, "complement": True}
        ]

    def test_bad_digit_is_validation_error(self, capsys, digits_file):
        path = digits_file("2")
        code, _, err = run_cli(capsys, "detect", "--digits", path, "--p", "2")
        assert code == 2

    def test_empty_digit_file_is_accepted(self, capsys, digits_file):
        path = digits_file("")
        doc = run_json(capsys, "detect", "--digits", path, "--p", "2")
        assert doc["result"]["occurrences"] == []

    @pytest.mark.parametrize("kind", ["square", "complement", "overlap"])
    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_non_positive_limit_is_validation_error(self, capsys, digits_file, kind, limit):
        path = digits_file("0000")
        code, out, err = run_cli(
            capsys, "detect", "--digits", path, "--kind", kind, "--limit", limit
        )
        assert (code, out) == (2, "")
        assert err == f"error: --limit must be at least 1, got {limit}\n"

    @pytest.mark.parametrize("kind", ["square", "complement"])
    def test_min_frac_past_int64(self, capsys, kind):
        path = str(GOLDEN_INPUTS / "fib40.txt")
        doc = run_json(capsys, "detect", "--digits", path, "--kind", kind, "--min-frac", str(10**23))
        assert doc["result"]["occurrences"] == []

    @pytest.mark.parametrize("kind", ["square", "complement", "overlap"])
    def test_limit_past_int64_keeps_every_occurrence(self, capsys, kind):
        argv = ("detect", "--digits", str(GOLDEN_INPUTS / "fib40.txt"), "--kind", kind)
        whole = run_json(capsys, *argv)["result"]
        assert run_json(capsys, *argv, "--limit", str(10**23))["result"] == whole
        assert all(whole.values())

    def test_base_out_of_range(self, capsys, digits_file):
        path = digits_file("0")
        code, _, err = run_cli(capsys, "detect", "--digits", path, "--p", "1")
        assert code == 2

    @pytest.mark.parametrize("kind", ["square", "complement", "overlap"])
    def test_limit_keeps_the_first_occurrences(self, capsys, digits_file, kind):
        path = digits_file("0110" * 6 + "1001" * 6)
        argv = ("detect", "--digits", path, "--kind", kind, "--squares", "2")
        whole = run_json(capsys, *argv)["result"]
        limited = run_json(capsys, *argv, "--limit", "3")["result"]
        (key, found), = whole.items()
        assert len(found) > 3
        assert limited == {key: found[:3]}


class TestCertifyPipeline:
    def test_cert_then_verify_round_trip(self, capsys, tmp_path, digits_file):
        path = digits_file("011011011011011011011011011011")
        doc = run_json(
            capsys, "cert", "--digits", path, "--p", "2", "--depth", "30",
            "--target-s", "4",
        )
        certs = doc["result"]["certificates"]
        assert certs and certs[0]["s"] >= 4
        cert_path = tmp_path / "certs.json"
        cert_path.write_text(json.dumps(doc["result"]))
        doc = run_json(capsys, "verify", "--digits", path, "--p", "2", "--cert", str(cert_path))
        assert all(r["combinatorial_ok"] for r in doc["result"]["results"])

    def test_cert_out_document_verifies(self, capsys, tmp_path, digits_file):
        path = digits_file("011011011011011011011011011011")
        cert_path = str(tmp_path / "c.json")
        code, _, err = run_cli(
            capsys, "--out", cert_path, "cert", "--digits", path, "--p", "2",
            "--target-s", "4",
        )
        assert code == 0, err
        certs = json.loads((tmp_path / "c.json").read_text())["result"]["certificates"]
        doc = run_json(capsys, "verify", "--digits", path, "--p", "2", "--cert", cert_path)
        results = doc["result"]["results"]
        assert len(results) == len(certs) > 0
        assert all(r["combinatorial_ok"] for r in results)

    def test_a_false_run_is_an_internal_error(self, capsys, monkeypatch, digits_file):
        path = digits_file("0110100110010110")
        monkeypatch.setattr(cli.witness, "_plain_runs", lambda *args: iter([(2, 0, 6)]))
        code, out, err = run_cli(capsys, "cert", "--digits", path, "--target-s", "1")
        assert (code, out) == (1, "")
        assert err.startswith("internal error: no run of period 2 spans prefix[0:8]")

    @pytest.mark.parametrize(
        "content, depth",
        [("0110", ["--depth", "0"]), ("0110", ["--depth", "5"]), ("", [])],
        ids=["depth-zero", "depth-past-the-word", "empty-file"],
    )
    def test_depth_outside_the_word_is_validation_error(
        self, capsys, digits_file, content, depth
    ):
        path = digits_file(content)
        code, out, err = run_cli(capsys, "cert", "--digits", path, *depth)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_bound_past_the_int_string_limit_verifies(self, capsys, tmp_path, digits_file):
        path = digits_file("01" * 7500)
        bound = f"1/{Decimal(2**14996)}"
        cert = {**HONEST_CERT, "repeats": 7500, "frac_len": 0, "s": 14996, "bound": bound}
        cert_path = tmp_path / "long.json"
        cert_path.write_text(json.dumps(cert))
        doc = run_json(capsys, "verify", "--digits", path, "--cert", str(cert_path))
        assert doc["result"]["combinatorial_ok"]
        assert doc["result"]["guaranteed_bound"] == bound

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kind", "cube"),
            ("k", -1),
            ("period", 5),
            ("period", ""),
            ("period", "012"),
            ("repeats", 0),
            ("repeats", 1),
            ("frac_len", -1),
            ("frac_len", 2),
            ("k", "0"),
            ("kind", ["square3"]),
            ("bound", "1/0"),
        ],
    )
    def test_malformed_certificate_is_validation_error(
        self, capsys, tmp_path, digits_file, field, value
    ):
        path = digits_file("0101010")
        cert = dict(HONEST_CERT)
        cert[field] = value
        cert_path = tmp_path / "bad.json"
        cert_path.write_text(json.dumps({"certificates": [cert]}))
        code, _, err = run_cli(capsys, "verify", "--digits", path, "--p", "2", "--cert", str(cert_path))
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("field", list(HONEST_CERT))
    def test_missing_field_is_named(self, capsys, tmp_path, digits_file, field):
        path = digits_file("0101010")
        cert = {k: v for k, v in HONEST_CERT.items() if k != field}
        cert_path = tmp_path / "bad.json"
        cert_path.write_text(json.dumps(cert))
        code, _, err = run_cli(capsys, "verify", "--digits", path, "--cert", str(cert_path))
        assert code == 2
        assert err == f"error: certificate is missing field {field!r}\n"

    @pytest.mark.parametrize(
        "field, value", [("q", 7), ("s", 40), ("bound", "1/1099511627776"), ("vacuous", True)]
    )
    def test_forged_claim_is_named(self, capsys, tmp_path, digits_file, field, value):
        path = digits_file("0101010")
        cert_path = tmp_path / "forged.json"
        cert_path.write_text(json.dumps({**HONEST_CERT, field: value}))
        code, out, err = run_cli(capsys, "verify", "--digits", path, "--cert", str(cert_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: certificate field {field!r} is ")

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"certificates": 3},
            {"result": "x"},
            # raw text: too deep for json.load, which raises RecursionError
            pytest.param("[" * 200000 + "]" * 200000, id="deeply_nested"),
        ],
    )
    def test_malformed_certificate_file_is_validation_error(
        self, capsys, tmp_path, digits_file, payload
    ):
        path = digits_file("0101010")
        cert_path = tmp_path / "bad.json"
        cert_path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        code, _, err = run_cli(capsys, "verify", "--digits", path, "--p", "2", "--cert", str(cert_path))
        assert code == 2
        assert err.startswith("error: ")

    def test_out_flag_writes_document(self, capsys, tmp_path, digits_file):
        path = digits_file("0101010")
        out_path = tmp_path / "doc.json"
        code, out, _ = run_cli(
            capsys, "--out", str(out_path), "detect", "--digits", path, "--p", "2"
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["command"] == "detect"

    def test_unwritable_out_path_is_validation_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "doc.json"
        code, out, err = run_cli(capsys, "--out", str(out_path), "cf", "--x", "7/5")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_single_certificate_file(self, capsys, tmp_path, digits_file):
        path = digits_file("0101010")
        cert = dict(HONEST_CERT)
        cert_path = tmp_path / "one.json"
        cert_path.write_text(json.dumps(cert))
        doc = run_json(capsys, "verify", "--digits", path, "--p", "2", "--cert", str(cert_path))
        assert doc["result"]["combinatorial_ok"] is True
        assert doc["result"]["guaranteed_bound"] == "1/2"

    def test_digits_and_cert_cannot_both_be_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", UnreadableStdin())
        code, out, err = run_cli(capsys, "verify", "--digits", "-", "--cert", "-")
        assert (code, out) == (2, "")
        assert err == "error: --digits and --cert cannot both read stdin ('-')\n"

    def test_short_prefix_is_validation_error(self, capsys, tmp_path, digits_file):
        path = digits_file("010")
        cert = dict(HONEST_CERT)
        cert_path = tmp_path / "one.json"
        cert_path.write_text(json.dumps(cert))
        code, _, err = run_cli(capsys, "verify", "--digits", path, "--p", "2", "--cert", str(cert_path))
        assert code == 2
        assert "need 5 letters" in err

    def test_bad_digit_after_the_last_run_is_validation_error(self, capsys, digits_file):
        path = digits_file("0110" * 10 + "2")
        code, out, err = run_cli(capsys, "cert", "--digits", path, "--p", "2")
        assert (code, out, err) == (2, "", "error: letter '2' is not a base-2 digit\n")

    def test_verify_takes_one_gcd_per_period_word(self, capsys, monkeypatch, tmp_path):
        digits = str(GOLDEN_INPUTS / "fib40.txt")
        cert_path = tmp_path / "fib40.json"
        code, _, err = run_cli(capsys, "--out", str(cert_path), "cert", "--digits", digits)
        assert code == 0, err
        certs = json.loads(cert_path.read_text())["result"]["certificates"]
        calls = []
        gcd_bound = cli.witness.gcd_bound
        monkeypatch.setattr(
            cli.witness, "gcd_bound", lambda word, p: calls.append((p, word)) or gcd_bound(word, p)
        )
        doc = run_json(capsys, "verify", "--digits", digits, "--cert", str(cert_path))
        assert all(r["combinatorial_ok"] for r in doc["result"]["results"])
        assert sorted(calls) == sorted({(c["p"], c["period"]) for c in certs})
        assert len(calls) < len(certs)

    @pytest.mark.parametrize("p", [2, 3])
    def test_cert_writes_each_bound_text_once(self, capsys, monkeypatch, digits_file, p):
        word = cli.words.fixed_point_prefix(cli.words.parse_morphism("0->01;1->0"), "0", 240)
        want = [c.to_json() for c in cli.witness.scan_and_certify(word, p, 1)]
        calls = []
        bound_text = cli.witness._bound_text
        monkeypatch.setattr(
            cli.witness, "_bound_text", lambda p, s: calls.append((p, s)) or bound_text(p, s)
        )
        code, out, err = run_cli(capsys, "cert", "--digits", digits_file(word), "--p", str(p))
        assert code == 0, err
        # the bytes of one to_json per certificate
        assert out == json.dumps({**json.loads(out), "result": {"certificates": want}}, indent=2) + "\n"
        assert sorted(calls) == sorted({(c["p"], c["s"]) for c in want})
        assert len(calls) < len(want)

    @pytest.mark.parametrize("kind, text", [([], "[]"), ({}, "{}"), (1, "1"), (None, "None")])
    @pytest.mark.parametrize("after_honest", [False, True], ids=["first", "after-honest"])
    def test_malformed_kind_is_named(self, capsys, tmp_path, digits_file, kind, text, after_honest):
        # an unhashable kind must fail the kind check, not a lookup of the window
        path = digits_file("0101010")
        certs = [HONEST_CERT] * after_honest + [{**HONEST_CERT, "kind": kind}]
        cert_path = tmp_path / "bad.json"
        cert_path.write_text(json.dumps({"certificates": certs}))
        code, out, err = run_cli(capsys, "verify", "--digits", path, "--cert", str(cert_path))
        assert (code, out, err) == (2, "", f"error: unknown certificate kind {text}\n")


class TestOtherCommands:
    def test_bruteforce(self, capsys, digits_file):
        path = digits_file("01" * 10)
        doc = run_json(capsys, "bruteforce", "--digits", path, "--p", "2", "--Q", "3", "--K", "0")
        assert doc["result"]["q"] == 3

    def test_bruteforce_past_63_bit_q_equals_every_q(self, capsys, digits_file):
        # 1048576 = 2**20 already tests every q for a prefix of 20 letters
        path = digits_file("01" * 10)
        wide = run_json(capsys, "bruteforce", "--digits", path, "--Q", str(1 << 63), "--K", "0")
        every = run_json(capsys, "bruteforce", "--digits", path, "--Q", "1048576", "--K", "0")
        assert wide["result"] == every["result"]

    def test_cf(self, capsys):
        doc = run_json(capsys, "cf", "--x", "7/5")
        assert doc["result"] == {"a0": 1, "quotients": [2, 2]}

    def test_orbit(self, capsys):
        doc = run_json(capsys, "orbit", "--x", "1/3", "--p", "2", "--K", "2")
        assert doc["result"]["max"]["a"] == 3
        assert {"k": 0, "i": 1, "a": 3} in doc["result"]["rows"]

    def test_result_past_the_int_string_limit_is_validation_error(self, capsys):
        # a0 = 10**4400 has more digits than json.dumps may print
        code, out, err = run_cli(capsys, "cf", "--x", "1e4400")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_rational_past_the_int_string_limit(self, capsys):
        # F_n / F_(n+1) with more than 4,400 digits in both parts
        a, b = 0, 1
        for _ in range(21100):
            a, b = b, a + b
        assert len(str(Decimal(a))) > 4400
        doc = run_json(capsys, "cf", "--x", f"{Decimal(a)}/{Decimal(b)}")
        assert doc["result"]["a0"] == 0
        # the convergents h/k of the quotients end at x in lowest terms
        h, h_prev, k, k_prev = 0, 1, 1, 0
        for quotient in doc["result"]["quotients"]:
            h, h_prev = quotient * h + h_prev, h
            k, k_prev = quotient * k + k_prev, k
        assert (h, k) == (a, b)

    @pytest.mark.parametrize("command", [["cf"], ["orbit", "--K", "2"]])
    def test_zero_denominator_is_validation_error(self, capsys, command):
        code, _, err = run_cli(capsys, *command, "--x", "1/0")
        assert code == 2
        assert "zero denominator" in err

    def test_orbit_expands_each_point_once(self, capsys, monkeypatch):
        calls = []
        quotients = cli.cf._quotients
        monkeypatch.setattr(cli.cf, "_quotients", lambda n, d: calls.append((n, d)) or quotients(n, d))
        monkeypatch.setattr(cli.cf, "cf_expand", None)  # the orbit steps integers only
        doc = run_json(capsys, "orbit", "--x", "5/7", "--p", "2", "--K", "48")
        assert len(calls) == 49
        assert len(doc["result"]["rows"]) > 49

    # 300-bit parts and K <= 48 cover the perfbench orbit jobs (256 bits, K = 48)
    @given(st.integers(-(2**300) + 1, 2**300 - 1), st.integers(1, 2**300 - 1),
           st.integers(2, 10), st.integers(0, 48))
    @settings(max_examples=60, deadline=None)
    # only some shifts are integers, every shift is, and K = 0
    @example(1, 4, 2, 5)
    @example(5, 8, 2, 6)
    @example(-7, 9, 3, 4)
    @example(-3, 1000, 10, 4)
    @example(0, 1, 2, 3)
    @example(7, 3, 2, 0)
    def test_orbit_rows_are_written_as_naive_rows(self, num, den, base, max_k):
        args = cli._parser().parse_args(
            ["orbit", f"--x={num}/{den}", "--p", str(base), "--K", str(max_k)]
        )
        x = Fraction(num, den)
        rows = [
            {"k": k, "i": i, "a": a}
            for k in range(max_k + 1)
            for i, a in enumerate(cf_expand(x * base**k).quotients, start=1)
        ]
        assert cli._dumps(args.func(args)["rows"]) == json.dumps(rows, indent=2)

    def test_decompose(self, capsys, digits_file):
        path = digits_file("0110100110010110")
        doc = run_json(capsys, "decompose", "--digits", path)
        assert doc["result"]["tm_prefix_len"] >= (16 + 4) / 8

    def test_decompose_rejects_a_short_overlap(self, capsys, digits_file):
        code, out, err = run_cli(capsys, "decompose", "--digits", digits_file("000"))
        assert (code, out, err) == (2, "", "error: word contains an overlap\n")

    @pytest.mark.parametrize(
        "where, position, period", [("left", 0, 1024), ("right", 2047, 1024), ("middle", 2048, 1)]
    )
    def test_decompose_rejects_a_forced_overlap(self, capsys, digits_file, where, position, period):
        # 4,096 letters of Thue-Morse around a forced overlap: mu^10(11)
        # starts at 1024 and mu^10(00) at 5120, each a square of period 1024
        tm = cli.tm.thue_morse_prefix(8192)
        word = {
            "left": tm[2047] + tm[1024:5119],
            "right": tm[3073:7168] + tm[5120],
            "middle": tm[:2048] + ("1" if tm[2048] == "0" else "0") + tm[2049:4096],
        }[where]
        occ = repetitions.first_overlap(word)
        assert len(word) == 4096 and (occ.position, len(occ.x) + 1) == (position, period)
        code, out, err = run_cli(capsys, "decompose", "--digits", digits_file(word))
        assert (code, out, err) == (2, "", "error: word contains an overlap\n")

    def test_tm(self, capsys):
        doc = run_json(capsys, "tm", "--a", "0", "--b", "1", "--n", "2", "--L", "4")
        assert doc["result"]["constant"] == "3/8"
        assert all(c["ok"] for c in doc["result"]["identities"])

    def test_tm_identities_match_asdict(self, capsys):
        # nested params dicts, in their key order
        doc = run_json(capsys, "tm", "--a", "1", "--b", "2", "--n", "10", "--L", "1100")
        checks = cli.tm.tm_identity_suite(10, 1100)
        want = [{name: getattr(c, name) for name in c._fields} for c in checks]
        assert len(want) == 66
        assert json.dumps(doc["result"]["identities"]) == json.dumps(want)

    def test_tm_past_the_int_string_limit(self, capsys):
        # int() converts at most 4,300 digits in base 3
        doc = run_json(capsys, "tm", "--a", "0", "--b", "1", "--n", "3", "--L", "5000")
        assert doc["result"]["constant"].endswith(f"/{Decimal(3**5000)}")
        assert all(c["ok"] for c in doc["result"]["identities"])

    def test_classify(self, capsys, tm_file):
        doc = run_json(capsys, "classify", "--morphism", tm_file, "--start", "0", "--depth", "256")
        assert doc["result"]["tag"] == "P1"

    @pytest.mark.parametrize("name", ["zeros.mrf", "ones_power.mrf"])
    def test_classify_pattern_search_ignores_large_depth(self, capsys, name):
        # a P2 confirmation reads as far as its pattern needs, not --depth
        path = str(GOLDEN_INPUTS / name)
        small = run_json(capsys, "classify", "--morphism", path, "--start", "0", "--depth", "64")
        large = run_json(capsys, "classify", "--morphism", path, "--start", "0", "--depth", str(1 << 21))
        assert large["result"] == small["result"]

    def test_stdin_digits(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0110\n1001"))
        doc = run_json(capsys, "detect", "--digits", "-", "--kind", "overlap")
        assert doc["config"]["digits"] == "-"


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, capsys, digits_file):
        path = digits_file("011011011011011011")
        first = run_cli(capsys, "cert", "--digits", path, "--p", "2", "--target-s", "1")
        second = run_cli(capsys, "cert", "--digits", path, "--p", "2", "--target-s", "1")
        assert first == second

    def test_output_round_trips_through_json(self, capsys, digits_file):
        path = digits_file("0101010")
        code, out, _ = run_cli(capsys, "detect", "--digits", path, "--p", "2")
        assert code == 0
        assert json.loads(out)


class TestParserReuse:
    def test_one_process_matches_fresh_runs(self, capsys, tm_file, digits_file):
        # main() builds its parser once per process; every later call, after
        # successes and errors alike, must print what a fresh process prints
        path = digits_file("0110100110010110")
        runs = [
            ["cf", "--x", "7/5"],
            ["detect", "--digits", path, "--kind", "bogus"],
            ["decompose", "--digits", path + ".missing"],
            ["classify", "--morphism", tm_file, "--start", "0", "--depth", "64"],
            ["cf", "--x", "7/5"],
        ]
        src = str(Path(cli.__file__).resolve().parents[1])
        path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path_var}
        codes = []
        for argv in runs:
            fresh = subprocess.run(
                [sys.executable, "-m", "plcword.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
            codes.append(code)
        assert codes == [0, 2, 2, 0, 0]


# Run by a fresh interpreter with the source directory and three JSON lists:
# module names to watch, modules to import first, and argument lists.  Prints
# which watched modules are loaded after each import, and the exit code,
# output and loaded flags after main() of each argument list.
MODULE_PROBE = """
import contextlib, io, json, sys
src, watched, preload, runs = sys.argv[1], *map(json.loads, sys.argv[2:])
sys.path.insert(0, src)
for name in preload:
    __import__(name)
loaded = lambda: [name in sys.modules for name in watched]
import plcword
imports = [loaded()]
from plcword import cli
imports.append(loaded())
results = []
for argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([code, out.getvalue(), loaded()])
print(json.dumps({"imports": imports, "runs": results}))
"""


def module_probe(watched, runs, preload=(), site=True):
    """MODULE_PROBE in a fresh interpreter; without ``site`` it runs under
    -S, so what the environment's .pth files import stays out of the answer
    (and site-packages, numpy included, out of reach)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    flags = ["-I", "-B"] if site else ["-I", "-S", "-B"]
    done = subprocess.run(
        [sys.executable, *flags, "-c", MODULE_PROBE, src,
         *map(json.dumps, (watched, preload, runs))],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout)


def no_kernel_runs(tm_file, digits_file):
    """Commands on tiny inputs that reach none of the numpy kernels."""
    # classify on a P1, a P2 and a Case II P3 morphism
    classify = [
        ["classify", "--morphism", str(GOLDEN_INPUTS / name), "--start", "0"]
        for name in ("tm.mrf", "ones_power.mrf", "overlap_ii.mrf")
    ]
    return [
        ["cf", "--x", "7/5"],
        ["orbit", "--x", "3/7", "--p", "3", "--K", "4"],
        ["tm", "--a", "1", "--b", "2", "--n", "10", "--L", "40"],
        ["gen", "--morphism", tm_file, "--start", "0", "--length", "16"],
        ["verify", "--digits", str(GOLDEN_INPUTS / "fib40.txt"),
         "--cert", str(GOLDEN_INPUTS / "fib.certs.json")],
        ["decompose", "--digits", digits_file("0110100110010110")],
        ["bruteforce", "--digits", str(GOLDEN_INPUTS / "tm64.txt"), "--Q", "1048576", "--K", "16"],
        *classify,
    ]


class TestNumpyLoadsOnlyForAKernel:
    def test_commands_that_reach_no_kernel(self, tm_file, digits_file):
        runs = no_kernel_runs(tm_file, digits_file)
        probe = module_probe(["numpy"], runs)
        assert probe["imports"] == [[False]] * 2
        # numpy stays loaded once a command loads it, so the first True names it
        steps = [(argv[0], code, loaded) for argv, (code, _, loaded) in zip(runs, probe["runs"])]
        assert steps == [(argv[0], 0, [False]) for argv in runs]
        results = [json.loads(out)["result"] for _, out, _ in probe["runs"][-3:]]
        assert [(r["tag"], r.get("case_label")) for r in results] == [
            ("P1", None), ("P2", "CaseII-1^n"), ("P3", None)
        ]
        assert results[2]["overlap"] == {"pos": 0, "u": "0", "x": "1"}

    @pytest.mark.parametrize("argv", [
        ["cert", "--digits", str(GOLDEN_INPUTS / "fib40.txt")],
        ["classify", "--morphism", str(GOLDEN_INPUTS / "overlap_iii.mrf"), "--start", "0"],
    ], ids=["cert", "classify-case-III"])
    def test_a_kernel_loads_numpy_at_its_first_call(self, argv):
        probe = module_probe(["numpy"], [argv])
        assert probe["imports"] == [[False]] * 2
        assert [(code, loaded) for code, _, loaded in probe["runs"]] == [(0, [True])]


class TestNoDataclassesOnTheImportPath:
    # dataclasses imports inspect, which imports dis, ast, tokenize and linecache
    WATCHED = ["dataclasses", "inspect"]

    def test_imports_and_commands_load_neither(self, tm_file, digits_file):
        runs = no_kernel_runs(tm_file, digits_file)
        probe = module_probe(self.WATCHED, runs, site=False)
        assert probe["imports"] == [[False, False]] * 2
        steps = [(argv[0], code, loaded) for argv, (code, _, loaded) in zip(runs, probe["runs"])]
        assert steps == [(argv[0], 0, [False, False]) for argv in runs]

    def test_the_probe_sees_an_explicit_import(self):
        probe = module_probe(self.WATCHED, [["cf", "--x", "7/5"]], ["dataclasses"], site=False)
        assert probe["imports"] == [[True, True]] * 2
        assert [(code, loaded) for code, _, loaded in probe["runs"]] == [(0, [True, True])]


# Strings that would break a careless splitter, and ints past the digit limit.
TRICKY_TEXT = st.text(
    st.sampled_from(
        ["{", "}", "[", "]", ",", ":", '"', "\\", "\n", "\x00", "\x1f", " ", "a"]
        + ["\u00e9", "\u2028", "\U0001f600"]
    )
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-3, 3).map(lambda d: 10**4400 + d),
    st.floats(),
    st.text(),
    TRICKY_TEXT,
)
KEYS = st.one_of(TRICKY_TEXT, st.text(), st.integers(), st.booleans(), st.none())
# lists of non-empty dicts of scalars, each with its own keys
ROWS = st.lists(st.dictionaries(KEYS, SCALARS, min_size=1, max_size=4), min_size=1, max_size=4)


# plain ints, with 0 and negatives often, which rows of ints write through the encoder
INTS = st.integers() | st.integers(-3, 3)


@st.composite
def same_keyed_rows(draw, scalars=SCALARS):
    """A plain list of dicts with one drawn list of str keys, which the
    writer takes item by item like any other list, sometimes with one
    row's keys reordered, one key missing or extra, one key not a str, one
    value nested, one value a bool, or one value an int of either sign past
    the int-to-str digit limit."""
    keys = draw(st.lists(TRICKY_TEXT | st.sampled_from(["%", "%s", "%d"]), min_size=1, max_size=4, unique=True))
    count = draw(st.integers(1, 5))
    values = draw(st.lists(scalars, min_size=count * len(keys), max_size=count * len(keys)))
    rows = [dict(zip(keys, values[i * len(keys):])) for i in range(count)]
    mutation = draw(st.sampled_from(
        [None, None, "reorder", "missing", "extra", "non-str", "nested", "bool", "past-limit"]
    ))
    i = draw(st.integers(0, count - 1))
    key = draw(st.sampled_from(keys))
    if mutation == "reorder":
        rows[i] = dict(reversed(rows[i].items()))
    elif mutation == "missing":
        del rows[i][key]
    elif mutation == "extra":
        rows[i][draw(TRICKY_TEXT.filter(lambda k: k not in keys))] = draw(scalars)
    elif mutation == "non-str":
        other = draw(st.one_of(st.integers(), st.booleans(), st.none(), st.floats()))
        rows[i] = {other if k == key else k: v for k, v in rows[i].items()}
    elif mutation == "nested":
        rows[i][key] = draw(st.sampled_from([[], {}, [rows[i][key]], {key: rows[i][key]}]))
    elif mutation == "bool":
        rows[i][key] = draw(st.booleans())
    elif mutation == "past-limit":
        rows[i][key] = draw(st.sampled_from([1, -1])) * 10**4400 + draw(st.integers(-3, 3))
    return draw(st.sampled_from([rows, tuple(rows)]))


@st.composite
def declared_rows(draw, scalars=SCALARS):
    """A ``cli._Rows`` as a command declares one: unique str keys, and rows
    of that many values as tuples, in a tuple, a list or a generator,
    sometimes with one value a bool or an int of either sign past the
    int-to-str digit limit."""
    keys = draw(st.lists(TRICKY_TEXT | st.sampled_from(["%", "%s", "%d"]), min_size=1, max_size=4, unique=True))
    count = draw(st.integers(0, 5))
    values = draw(st.lists(scalars, min_size=count * len(keys), max_size=count * len(keys)))
    if count:
        mutation = draw(st.sampled_from([None, None, "bool", "past-limit"]))
        i = draw(st.integers(0, len(values) - 1))
        if mutation == "bool":
            values[i] = draw(st.booleans())
        elif mutation == "past-limit":
            values[i] = draw(st.sampled_from([1, -1])) * 10**4400 + draw(st.integers(-3, 3))
    rows = [tuple(values[j:j + len(keys)]) for j in range(0, len(values), len(keys))]
    form = draw(st.sampled_from([tuple, list, lambda rows: (row for row in rows)]))
    return cli._Rows(tuple(keys), form(rows))


@st.composite
def shift_rows(draw):
    """A ``cli._ShiftRows`` as ``orbit`` declares one: a tuple of per-shift
    tuples of positive ints, some empty, sometimes with one int past the
    int-to-str digit limit."""
    quotient = st.integers(1, 3) | st.integers(1, 2**80)
    shifts = draw(st.lists(st.lists(quotient, max_size=4), max_size=5))
    if any(shifts) and draw(st.sampled_from([False, False, False, True])):
        qs = draw(st.sampled_from([qs for qs in shifts if qs]))
        qs[draw(st.integers(0, len(qs) - 1))] = 10**4400 + draw(st.integers(0, 3))
    return cli._ShiftRows(tuple(map(tuple, shifts)))


JSON_VALUES = st.recursive(
    SCALARS | ROWS | same_keyed_rows() | same_keyed_rows(INTS) | declared_rows() | declared_rows(INTS)
    | shift_rows(),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)


def dumped(dump, obj):
    """The text, or ValueError for an int past the int-to-str digit limit."""
    try:
        return dump(obj)
    except ValueError:
        return ValueError


def as_dicts(obj):
    """obj with every ``cli._Rows`` and ``cli._ShiftRows`` as the list of
    dicts it is written as.  Rows given as an iterator are read here, so the
    iterator is replaced by a fresh one over the same rows."""
    if isinstance(obj, cli._ShiftRows):
        return [{"k": k, "i": i, "a": a} for k, qs in enumerate(obj.quotients) for i, a in enumerate(qs, 1)]
    if isinstance(obj, cli._Rows):
        rows = [tuple(row) for row in obj.rows]
        if not isinstance(obj.rows, (tuple, list)):
            obj.rows = iter(rows)
        return [dict(zip(obj.keys, row)) for row in rows]
    if isinstance(obj, dict):
        return {key: as_dicts(value) for key, value in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [as_dicts(value) for value in obj]
    return obj


def json_dumps(obj):
    return json.dumps(as_dicts(obj), indent=2)


class TestWriter:
    @given(JSON_VALUES)
    @settings(max_examples=500, deadline=None)
    def test_equals_json_dumps_indent_2(self, obj):
        # json_dumps first: it reads rows given as an iterator and replaces them
        assert dumped(json_dumps, obj) == dumped(cli._dumps, obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {}, [], (), [{}], [[]], {"a": {}}, [{"a": {}}, {"b": 2}], [{"a": 1}, {}],
            [{"a": "},\n      {"}, {"b": None}], ({"a": (1, 2)},), {"x": [{"a": True}], 3: [1.5]},
            [{"k": 10**4400}], {"deep": [[[{"a": [1]}]]]},
            [{"a": 1}, {"a": 10**4400}], [{"a": float("nan")}, {"a": float("inf")}],
            ({"k": 1}, {"k": 2}), [{"b": 1, "a": 2}, {"a": 2, "b": 1}], [{1: 2}, {True: 2}],
            [{"a": True}, {"a": 1}], [{"%d": 1}, {"%d": 2}], [{"a": 1}, {"a": 1.0}],
            [{"a": -(10**4400)}, {"a": 0}], [{"%": -1, "%s": 0, "b": 10**4299}],
        ],
    )
    def test_edge_cases(self, obj):
        assert dumped(cli._dumps, obj) == dumped(lambda o: json.dumps(o, indent=2), obj)

    @pytest.mark.parametrize(
        "obj",
        [
            cli._Rows(("a",), []), {"a": cli._Rows(("a", "b"), iter(()))},
            [cli._Rows(("%d",), [(1,), (2,)]), cli._Rows(("a", "b"), ((True, 1),))],
            {"a": [cli._Rows(("a",), [("x",), (None,)])]}, cli._Rows(("a",), [(10**4400,)]),
            cli._Rows(("a",), [(-1.5,), (10**4299,)]),
            cli._ShiftRows(()), cli._ShiftRows(((), ())), [cli._ShiftRows(((3,),)), {}],
            {"rows": cli._ShiftRows(((), (1, 2), (), (4,)))}, cli._ShiftRows(((1,), (10**4400,))),
        ],
    )
    def test_declared_edge_cases(self, obj):
        assert dumped(json_dumps, obj) == dumped(cli._dumps, obj)

    @pytest.mark.parametrize(
        "value",
        [
            [], {}, [1], {"a": 1}, (1, 2), pytest.param(cli._Rows(("a",), [(1,)]), id="_Rows"),
            pytest.param(cli._ShiftRows(((1,),)), id="_ShiftRows"),
        ],
        ids=repr,
    )
    def test_nested_row_value_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            cli._dumps({"rows": cli._Rows(("a", "b"), [(1, 2), (3, value)])})

    @pytest.mark.parametrize("rows", [[(1,)], [(1, 2), (3,)], [(1, 2, 3)], [("a", "b"), ("c",)]])
    def test_values_short_of_whole_rows_are_an_assertion_error(self, rows):
        with pytest.raises(AssertionError):
            cli._dumps(cli._Rows(("a", "b"), rows))

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["detect", "--kind", "square", "--squares", "2"], "occurrences"),
            (["detect", "--kind", "complement"], "occurrences"),
            (["detect", "--kind", "overlap"], "overlaps"),
            (["cert"], "certificates"),
            (["verify"], "results"),
            (["orbit", "--x", "5/7", "--K", "8"], "rows"),
            (["decompose"], "levels"),
        ],
        ids=lambda v: "-".join(v) if isinstance(v, list) else v,
    )
    def test_row_lists_are_declared(self, tmp_path, argv, key):
        # each command hands its row list to the writer as keys and tuples
        word = "tm64" if argv[0] == "decompose" else "fib40"
        if argv[0] != "orbit":
            argv = [*argv, "--digits", str(GOLDEN_INPUTS / f"{word}.txt")]
        if argv[0] == "verify":
            cert_path = tmp_path / "certs.json"
            assert cli.main(["--out", str(cert_path), "cert", *argv[1:]]) == 0
            argv = [*argv, "--cert", str(cert_path)]
        args = cli._parser().parse_args(argv)
        rows = args.func(args)[key]
        if argv[0] == "orbit":
            # one tuple of ints per shift k = 0..K
            assert isinstance(rows, cli._ShiftRows)
            assert len(rows.quotients) == 8 + 1
            assert all(type(qs) is tuple and {type(a) for a in qs} <= {int} for qs in rows.quotients)
            return
        assert isinstance(rows, cli._Rows)
        widths = [len(row) for row in rows.rows]
        assert widths and set(widths) == {len(rows.keys)}

    def test_declared_rows_are_not_an_array(self):
        # written only through _rows and _shift_rows: no encoder takes them as a list
        with pytest.raises(TypeError):
            json.dumps(cli._Rows(("a",), [(1,)]))
        with pytest.raises(TypeError):
            json.dumps(cli._ShiftRows(((1,),)))
