"""Byte-for-byte CLI output on a fixed list of argument vectors.

``tests/golden/cases.json`` lists each case's name, argv and exit code;
``tests/golden/out/<name>.json`` holds what ``main`` printed to stdout.
Paths in the argv are relative to ``tests/golden`` so that the recorded
``config`` does not depend on the checkout location.  Stderr is not
compared: only the exit code of a failing run is part of the contract.

To record the outputs of the current code (only when a change of output is
intended), run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from plcword import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``cli.main(argv)`` run from ``tests/golden``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_is_unchanged(case):
    code, out = run_case(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / "out" / f"{case['name']}.json").read_text(encoding="ascii")


if __name__ == "__main__":
    for case in CASES:
        case["exit"], out = run_case(case["argv"])
        (GOLDEN / "out" / f"{case['name']}.json").write_text(out, encoding="ascii")
    text = json.dumps(CASES, indent=1) + "\n"
    (GOLDEN / "cases.json").write_text(text, encoding="ascii")
    sys.exit(0)
