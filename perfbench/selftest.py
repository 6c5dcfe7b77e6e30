"""Tests of the benchmark itself: python3 -m pytest -q perfbench/selftest.py

Run from the repository root.  The file is not named test_*.py, so the
library's own test run does not collect it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import checks
import run
import workloads
from spans import LAYERS, RESULT_COUNTERS, Tracer

plcword = run.load_plcword()

SMALL_FIB = checks.fixed_point(workloads.FIBONACCI, "0", 200)[37:101]


# Names bound by ``from .x import f`` in a module other than their own.
COPIED_NAMES = [
    ("witness", "gcd_bound"), ("witness", "find_fractional_squares"),
    ("witness", "find_complement_squares"), ("witness", "complement"),
    ("repetitions", "complement"), ("arithmetic", "complement"),
    ("classify", "first_overlap"), ("classify", "thue_morse_prefix"),
    ("tm", "is_overlap_free"),
]


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _small_jobs(workdir: str) -> list[workloads.Job]:
    writer = workloads._Writer(workdir)
    jobs = workloads.certify_word_jobs(writer, "fib", SMALL_FIB, 2)
    word = checks.tm_word(40)
    digits = writer.text("tm.txt", word)
    jobs.append(workloads._job(writer, "bruteforce", "bf",
                               ["--digits", digits, "--p", 2, "--Q", 64, "--K", 3],
                               lambda doc: checks.check_bruteforce(doc, word, 2, 64, 3)))
    return jobs


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_are_fixed_by_the_seed(workload, tmp_path, monkeypatch):
    built = {}
    for run_dir, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / run_dir).mkdir()
        monkeypatch.chdir(tmp_path / run_dir)
        jobs = workloads.WORKLOADS[workload](seed, "work")
        built[run_dir] = ([(j.kind, j.argv, j.out) for j in jobs], _files(Path("work")))
    assert built["a"] == built["b"]
    assert built["a"][1] != built["c"][1]


def test_census_has_180_pairs():
    assert len(workloads.binary_census()) == 180


def test_random_overlap_free_word_has_no_overlap():
    word = workloads.random_overlap_free(random.Random(5), 40)
    assert len(word) == 40
    assert not plcword.find_overlaps(word)


def test_tampered_certificate_is_a_failed_job(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    jobs = [j for j in _small_jobs("work") if j.kind in ("cert", "verify")]
    honest = run.run_pass(plcword.cli, jobs)
    assert [r.error for r in honest] == [None, None] and honest[1].units > 0

    original = plcword.cli.main

    def raise_s(argv):
        code = original(argv)
        if "cert" in argv:
            out = Path(argv[argv.index("--out") + 1])
            doc = json.loads(out.read_text())
            for cert in doc["result"]["certificates"]:
                cert["s"] += 40
                cert["bound"] = f"1/{2 ** cert['s']}"
            out.write_text(json.dumps(doc, indent=2) + "\n")
        return code

    monkeypatch.setattr(plcword.cli, "main", raise_s)
    tampered = run.run_pass(plcword.cli, jobs)
    assert "bound fails on some continuation" in tampered[0].error
    # verify only re-reads the digit window, so it accepts the raised claims
    assert tampered[1].error is None


def test_a_later_pass_must_repeat_the_checked_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    jobs = _small_jobs("work")
    checked = run.run_pass(plcword.cli, jobs)
    again = run.run_pass(plcword.cli, jobs, checked=checked)
    assert [r.error for r in again] == [None] * len(jobs)
    assert [r.units for r in again] == [r.units for r in checked]
    assert [r.ref_loops for r in again] == [1 + int(r.seconds / run.REF_SPACING_S) for r in checked]

    original = plcword.cli.main

    def reformat(argv):
        code = original(argv)
        out = Path(argv[argv.index("--out") + 1])
        out.write_text(json.dumps(json.loads(out.read_text())) + "\n")
        return code

    monkeypatch.setattr(plcword.cli, "main", reformat)
    changed = run.run_pass(plcword.cli, jobs, checked=checked)
    assert all("differs from the checked pass" in r.error for r in changed)


def test_busy_time_in_reference_loops_cancels_a_uniform_slowdown():
    fast = [run.JobResult("cert", 1.0, 0.002, 2, 1, "", None),
            run.JobResult("verify", 3.0, 0.002, 2, 1, "", None)]
    slow = [run.JobResult(r.kind, 2 * r.seconds, 2 * r.ref_seconds, r.ref_loops, 1, "", None)
            for r in fast]
    assert run.busy([fast], "cert") == (1.0, 1000.0)
    assert run.busy([slow], "cert") == (2.0, 1000.0)
    assert run.busy([fast, slow, slow]) == (8.0, 4000.0)


def test_tracing_patches_copied_names_and_restores_them(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    jobs = _small_jobs("work")
    namespaces = [plcword, *(getattr(plcword, layer) for layer in LAYERS)]
    streams = [c for c in vars(plcword.words).values()
               if isinstance(c, type) and "prefix" in vars(c)]

    def bindings():
        return [dict(vars(ns)) for ns in namespaces] + [vars(c)["prefix"] for c in streams]

    before = bindings()
    untraced = run.run_pass(plcword.cli, jobs)
    tracer = Tracer()
    tracer.install(plcword)
    try:
        for module, name in COPIED_NAMES:
            binding = getattr(getattr(plcword, module), name)
            assert binding.__wrapped__ is before[0][name]
        traced = run.run_pass(plcword.cli, jobs, tracer)
    finally:
        tracer.restore()

    after = bindings()
    for old, new in zip(before, after):
        if isinstance(old, dict):
            assert old.keys() == new.keys()
            assert all(new[k] is v for k, v in old.items())
        else:
            assert new is old
    assert [r.error for r in traced] == [None] * len(jobs)
    assert [r.digest for r in traced] == [r.digest for r in untraced]

    metrics = tracer.layer_metrics()
    # gcd_bound and complement are reached only through copied bindings
    assert metrics["arithmetic.gcd_bound_calls"] == metrics["witness.certificate_from_occurrence_calls"] > 0
    assert metrics["words.complement_calls"] > 0
    assert metrics["witness.brute_force_candidates"] == 64 * 4
    by_kind = tracer.layer_self_by_kind([j.kind for j in jobs])
    assert set(by_kind["bruteforce"]) <= {"cli", "witness", "arithmetic"}


def test_benchmark_json_names_only_metrics_the_run_produces():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    fake = [run.JobResult(kind, 1.0, 0.001, 1, 1, "", None) for kind in run.MAIN_KIND.values()]
    for workload in workloads.WORKLOADS:
        produced = run.end_to_end(workload, [fake, fake], 1.0)
        assert [m["name"] for m in spec["end_to_end"]] == list(produced)

    tracer = Tracer()
    tracer.install(plcword)
    tracer.restore()
    names = set(tracer.names)
    known = {f"{n}_{what}" for n in names for what in ("calls", "s", "self_s")}
    known |= {f"{n.split('.')[0]}.layer_self_s" for n in names}
    known |= {key for fn in RESULT_COUNTERS.values() for key in fn((0, 0, 1, 1), [])}
    known |= {"witness.cert_keep_ratio", "cli.self_s", "bench.untraced_pass_s",
              "bench.traced_pass_s", "bench.trace_overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= known
