"""Time the cold start of each command: fresh processes, median wall time.

Prints one line per row: the median milliseconds of ``--runs`` fresh
processes, whether the process loads numpy and dataclasses, and what it
runs.  The rows are a bare interpreter (``python -c pass``), ``import
plcword``, and ``python -m plcword.cli <cmd>`` for each command on the fixed
inputs in ``tests/golden/inputs`` (``classify`` once per outcome: P1, P2, a
Case II P3 and a Case III P3).  Every round runs each row once, in order, so a
change in the machine's speed reaches every row alike.  Whether a row loads
numpy and dataclasses is read from one more run under ``-X importtime``,
which is not timed.

``--against DIR`` times a second source tree (a checkout with ``src`` and
``tests/golden/inputs``) in the same rounds: each row runs in both trees
back to back, the first tree alternating from round to round, and each line
reads ``DIR's figures -> this tree's``.  Timing both trees minutes apart, in
two runs, lets the machine's drift between the runs swamp the difference.
Give both trees the same bytecode cache (``python -m compileall src`` in
each): under ``PYTHONDONTWRITEBYTECODE`` a tree without one compiles every
module in every process, about 10 ms a row on a 2-vCPU VM.

Run from anywhere: ``python tools/time_import.py --runs 11``, or
``python tools/time_import.py --runs 11 --against ../parent``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = "tests/golden/inputs"  # from ROOT, where every process runs


def classify(mrf: str) -> list[str]:
    return ["classify", "--morphism", f"{INPUTS}/{mrf}", "--start", "0"]


COMMANDS = {
    "gen": ["gen", "--morphism", f"{INPUTS}/tm.mrf", "--start", "0", "--length", "64"],
    "cf": ["cf", "--x", "7/5"],
    "orbit": ["orbit", "--x", "3/7", "--p", "3", "--K", "4"],
    "tm": ["tm", "--a", "1", "--b", "2", "--n", "10", "--L", "40"],
    "verify": ["verify", "--digits", f"{INPUTS}/fib40.txt",
               "--cert", f"{INPUTS}/fib.certs.json"],
    "decompose": ["decompose", "--digits", f"{INPUTS}/tm64.txt"],
    "classify P1": classify("tm.mrf"),
    "classify P2": classify("ones_power.mrf"),
    "classify Case II P3": classify("overlap_ii.mrf"),
    "classify Case III P3": classify("overlap_iii.mrf"),
    "detect": ["detect", "--digits", f"{INPUTS}/fib40.txt"],
    "cert": ["cert", "--digits", f"{INPUTS}/fib40.txt"],
    "bruteforce": ["bruteforce", "--digits", f"{INPUTS}/tm64.txt", "--Q", "40", "--K", "3"],
}


# each row's label and the interpreter arguments it runs
ROWS = {
    "bare interpreter": ["-c", "pass"],
    "import plcword": ["-c", "import plcword"],
    **{name: ["-m", "plcword.cli", *argv] for name, argv in COMMANDS.items()},
}


def run(args: list[str], tree: Path) -> subprocess.CompletedProcess:
    """One process of the row ``args``, run in ``tree`` on its own source."""
    path = [str(tree / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120, check=True)


def imported(args: list[str], tree: Path) -> set[str]:
    """The modules the run imports, as ``-X importtime`` names them."""
    stderr = run(["-X", "importtime", *args], tree).stderr
    return {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=11, help="fresh processes per row")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="a second source tree, timed in the same rounds")
    opts = parser.parse_args()
    trees = [ROOT] if opts.against is None else [opts.against.resolve(), ROOT]
    seconds = {(tree, label): [] for tree in trees for label in ROWS}
    for round_ in range(opts.runs):
        for label, args in ROWS.items():
            for tree in trees if round_ % 2 == 0 else trees[::-1]:
                start = time.perf_counter()
                run(args, tree)
                seconds[tree, label].append(time.perf_counter() - start)
    print(f"median of {opts.runs} fresh processes, Python {sys.version.split()[0]}"
          + (f"; {trees[0]} -> {ROOT}" if opts.against else ""))
    for label, args in ROWS.items():
        cells = []
        for tree in trees:
            modules = imported(args, tree)
            flags = "".join(f"{('' if name in modules else 'no ') + name:16}"
                            for name in ("numpy", "dataclasses"))
            cells.append(f"{1000 * statistics.median(seconds[tree, label]):7.1f} ms  {flags}")
        print(f"{label:22} {' -> '.join(cells)}{' '.join(args)}")


if __name__ == "__main__":
    main()
