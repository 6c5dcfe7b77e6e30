import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from plcword import cli

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

    def test_base_out_of_range(self, capsys, digits_file):
        path = digits_file("0")
        code, _, err = run_cli(capsys, "detect", "--digits", path, "--p", "1")
        assert code == 2


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

    @pytest.mark.parametrize("payload", [[1, 2], {"certificates": 3}, {"result": "x"}])
    def test_malformed_certificate_file_is_validation_error(
        self, capsys, tmp_path, digits_file, payload
    ):
        path = digits_file("0101010")
        cert_path = tmp_path / "bad.json"
        cert_path.write_text(json.dumps(payload))
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

    def test_single_certificate_file(self, capsys, tmp_path, digits_file):
        path = digits_file("0101010")
        cert = dict(HONEST_CERT)
        cert_path = tmp_path / "one.json"
        cert_path.write_text(json.dumps(cert))
        doc = run_json(capsys, "verify", "--digits", path, "--p", "2", "--cert", str(cert_path))
        assert doc["result"]["combinatorial_ok"] is True
        assert doc["result"]["guaranteed_bound"] == "1/2"

    def test_short_prefix_is_validation_error(self, capsys, tmp_path, digits_file):
        path = digits_file("010")
        cert = dict(HONEST_CERT)
        cert_path = tmp_path / "one.json"
        cert_path.write_text(json.dumps(cert))
        code, _, err = run_cli(capsys, "verify", "--digits", path, "--p", "2", "--cert", str(cert_path))
        assert code == 2
        assert "need 5 letters" in err


class TestOtherCommands:
    def test_bruteforce(self, capsys, digits_file):
        path = digits_file("01" * 10)
        doc = run_json(capsys, "bruteforce", "--digits", path, "--p", "2", "--Q", "3", "--K", "0")
        assert doc["result"]["q"] == 3

    def test_cf(self, capsys):
        doc = run_json(capsys, "cf", "--x", "7/5")
        assert doc["result"] == {"a0": 1, "quotients": [2, 2]}

    def test_orbit(self, capsys):
        doc = run_json(capsys, "orbit", "--x", "1/3", "--p", "2", "--K", "2")
        assert doc["result"]["max"]["a"] == 3
        assert {"k": 0, "i": 1, "a": 3} in doc["result"]["rows"]

    @pytest.mark.parametrize("command", [["cf"], ["orbit", "--K", "2"]])
    def test_zero_denominator_is_validation_error(self, capsys, command):
        code, _, err = run_cli(capsys, *command, "--x", "1/0")
        assert code == 2
        assert "zero denominator" in err

    def test_orbit_expands_each_point_once(self, capsys, monkeypatch):
        calls = []
        expand = cli.cf.cf_expand
        monkeypatch.setattr(cli.cf, "cf_expand", lambda x: calls.append(x) or expand(x))
        doc = run_json(capsys, "orbit", "--x", "5/7", "--p", "2", "--K", "48")
        assert len(calls) == 49
        assert len(doc["result"]["rows"]) > 49

    def test_decompose(self, capsys, digits_file):
        path = digits_file("0110100110010110")
        doc = run_json(capsys, "decompose", "--digits", path)
        assert doc["result"]["tm_prefix_len"] >= (16 + 4) / 8

    def test_tm(self, capsys):
        doc = run_json(capsys, "tm", "--a", "0", "--b", "1", "--n", "2", "--L", "4")
        assert doc["result"]["constant"] == "3/8"
        assert all(c["ok"] for c in doc["result"]["identities"])

    def test_classify(self, capsys, tm_file):
        doc = run_json(capsys, "classify", "--morphism", tm_file, "--start", "0", "--depth", "256")
        assert doc["result"]["tag"] == "P1"

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
