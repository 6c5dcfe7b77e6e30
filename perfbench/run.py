"""plcword benchmark: drive ``plcword.cli.main`` in-process on seeded inputs.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; plcword is imported from ``src/``.
One process, one thread, closed loop: each job starts when the previous
``main`` returns.  The seed fixes the job list (see ``workloads.py``); the
run repeats whole passes over it for about ``--seconds``, so every pass
does identical work and rates are comparable between commits.

The first pass checks every output with ``checks.py``; every later pass
must repeat its outputs byte for byte, and only the later passes are
measured.  A fixed pure-Python reference loop runs between the jobs, and
the two gated rates count job time in units of that loop, because the
speed of a shared machine drifts for minutes at a time (see README.md).
With ``--trace 1`` one more pass runs with every public plcword function
wrapped in spans (``spans.py``); its outputs must match the untraced
ones, and the per-layer metrics come from it.

The last line of stdout is the result object; the line before it holds
run metadata and the per-kind figures behind each metric.  Both are also
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 9  # at least; a run with more passes takes one per pass
REF_SPACING_S = 0.05  # one reference loop before a job per this much of its time

# The job kind behind main_work_per_ref on each workload (see README.md).
MAIN_KIND = {"certify": "cert", "oracle": "bruteforce", "structure": "classify"}


@dataclass(frozen=True)
class JobResult:
    kind: str
    seconds: float
    ref_seconds: float  # reference loops run just before the job, in all
    ref_loops: int
    units: int
    digest: str
    error: str | None


def load_plcword():
    if not (SRC / "plcword" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no plcword sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import plcword
    import plcword.cli

    if Path(plcword.__file__).resolve().parent != SRC / "plcword":
        raise SystemExit(f"perfbench: imported plcword from {plcword.__file__}, not {SRC}")
    return plcword


REF_WORD = "".join(str(bin(i).count("1") & 1) for i in range(256))


def reference_loop() -> float:
    """Seconds for a fixed piece of pure-Python work of the kinds plcword
    does (string slices and compares, big-int, dict and Fraction
    arithmetic).  The gated rates count job time in runs of this loop."""
    start = time.perf_counter()
    for _ in range(8):
        hits = 0
        for period in range(1, 7):
            for i in range(0, 160, 2):
                if REF_WORD[i : i + period] == REF_WORD[i + period : i + 2 * period]:
                    hits += 1
        value, counts = 7**90, {}
        for q in range(1, 120):
            a = q * value % 1000003
            counts[a & 15] = counts.get(a & 15, 0) + 1
        x = Fraction(0)
        for q in range(1, 30):
            x += Fraction(1, q)
    return time.perf_counter() - start


def time_import() -> float:
    """Seconds from starting a fresh interpreter until ``import plcword``
    (numpy included) returns."""
    code = "import sys, time; sys.path.insert(0, 'src'); import plcword; print(time.time())"
    start = time.time()
    done = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout) - start


def run_pass(cli, jobs: list[workloads.Job], tracer: Tracer | None = None,
             checked: list[JobResult] | None = None) -> list[JobResult]:
    """Every job once, in order; a job's time covers only its main() call.

    Outputs are checked by each job's check, or, given an earlier checked
    pass, must be byte-identical to its outputs.  Before each job the
    reference loop runs once, or, after a checked pass, once per
    REF_SPACING_S of the job's time there, so that the loops sample the
    machine's speed evenly over the pass."""
    results = []
    for i, job in enumerate(jobs):
        out = Path(job.out)
        out.unlink(missing_ok=True)
        if tracer is not None:
            tracer.job_id = i
        error = None
        loops = 1 if checked is None else 1 + int(checked[i].seconds / REF_SPACING_S)
        ref_seconds = sum(reference_loop() for _ in range(loops))
        start = time.perf_counter()
        try:
            code = cli.main(list(job.argv))
        except (Exception, SystemExit) as exc:  # a crash is one failed job
            code = repr(exc)
        seconds = time.perf_counter() - start
        units, digest = 0, ""
        try:
            raw = out.read_bytes()
            digest = hashlib.sha256(raw).hexdigest()
            if code != 0:
                raise RuntimeError(f"exit status {code}")
            if checked is None:
                units = job.check(json.loads(raw))
            elif digest != checked[i].digest:
                raise RuntimeError("output differs from the checked pass")
            else:
                units = checked[i].units
        except Exception as exc:  # malformed output or a failed check
            error = f"{type(exc).__name__}: {exc}"[:500]
        results.append(JobResult(job.kind, seconds, ref_seconds, loops, units, digest, error))
    return results


def busy(passes: list[list[JobResult]], kind: str | None = None) -> tuple[float, float]:
    """Median over the passes of the time spent in jobs (of one kind), in
    seconds and in reference loops.  A pass's time in loops is its time
    over the mean time of the loops run during it, so a slow phase of the
    machine that spans a pass cancels out."""
    seconds, refs = [], []
    for results in passes:
        spent = sum(r.seconds for r in results if kind in (None, r.kind))
        loop_s = sum(r.ref_seconds for r in results) / sum(r.ref_loops for r in results)
        seconds.append(spent)
        refs.append(spent / loop_s)
    return statistics.median(seconds), statistics.median(refs)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def kind_table(passes: list[list[JobResult]]) -> dict[str, dict]:
    """Per job kind: busy time and rates, and the p50 and p90 of the jobs'
    median times over the passes."""
    table = {}
    for kind in sorted({r.kind for r in passes[0]}):
        runs = [rs for rs in zip(*passes) if rs[0].kind == kind]
        times = [statistics.median(r.seconds for r in rs) for rs in runs]
        units, p90 = sum(rs[0].units for rs in runs), percentile(times, 0.9)
        busy_s, busy_refs = busy(passes, kind)
        table[kind] = {
            "jobs": len(runs), "units": units, "busy_s": busy_s, "busy_refs": busy_refs,
            "units_per_s": units / busy_s, "units_per_ref": units / busy_refs,
            "p50_s": percentile(times, 0.5), "p90_s": p90,
            "samples_beyond_p90": sum(t > p90 for t in times),
        }
    return table


def end_to_end(workload: str, passes: list[list[JobResult]], setup_s: float) -> dict[str, float]:
    """The gated metrics.  The two rates count time in reference loops:
    on a shared machine the speed drifts by up to 1.6x for minutes at a
    time, and the loop, run between the jobs, drifts with it."""
    main = MAIN_KIND[workload]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs_per_ref": len(passes[0]) / busy(passes)[1],
        "main_work_per_ref": sum(r.units for r in passes[0] if r.kind == main)
        / busy(passes, main)[1],
    }


def metadata() -> dict:
    """Versions and machine facts recorded with every result."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30).stdout.split()
    except OSError:
        git = []
    source = hashlib.sha256()
    for path in sorted((SRC / "plcword").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "git_sha": git[1] if len(git) == 2 and Path(git[0]) == ROOT else None,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def pass_digest(results: list[JobResult]) -> str:
    return hashlib.sha256("\n".join(r.digest for r in results).encode()).hexdigest()


def setup_sample(build, seed: int, workdir: str):
    """One set-up: a fresh interpreter's import of plcword, plus writing
    the workload's input files.  Returns the jobs and the seconds taken."""
    import_s = time_import()
    start = time.perf_counter()
    jobs = build(seed, workdir)
    return jobs, import_s + time.perf_counter() - start


def traced_pass(plcword, jobs, checked, untraced_s: float, spans_path: str):
    """One more pass with every public plcword function in spans; returns
    its results, the per-layer metrics and the layer self time per job kind."""
    tracer = Tracer()
    tracer.install(plcword)
    try:
        results = run_pass(plcword.cli, jobs, tracer, checked)
    finally:
        tracer.restore()
    traced_s = sum(r.seconds for r in results)
    metrics = tracer.layer_metrics()
    metrics.update({"bench.untraced_pass_s": untraced_s, "bench.traced_pass_s": traced_s,
                    "bench.trace_overhead_s": traced_s - untraced_s})
    tracer.write(spans_path)
    return results, metrics, tracer.layer_self_by_kind([j.kind for j in jobs])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    plcword = load_plcword()
    os.chdir(ROOT)
    Path(OUT_DIR).mkdir(exist_ok=True)
    name = f"{args.workload}-{args.seed}"
    workdir = f"{WORK_DIR}/{name}"
    build = workloads.WORKLOADS[args.workload]
    try:
        jobs, first_setup = setup_sample(build, args.seed, workdir)
        setup = [first_setup]
        gc.collect()
        start = time.perf_counter()
        # The first pass runs every output check; later passes must repeat
        # its outputs byte for byte.  A set-up sample, into a spare
        # directory, comes before each later pass, so the samples spread
        # over the run like the passes do.  No pass starts that would end
        # after --seconds, by the length of the pass before it.
        passes = [run_pass(plcword.cli, jobs)]
        last = time.perf_counter() - start
        while time.perf_counter() - start + last < args.seconds:
            began = time.perf_counter()
            setup.append(setup_sample(build, args.seed, f"{workdir}-setup")[1])
            passes.append(run_pass(plcword.cli, jobs, checked=passes[0]))
            last = time.perf_counter() - began
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(build, args.seed, f"{workdir}-setup")[1])
        # the checked pass warms up; the later ones are measured
        measured = passes[1:] or passes
        metrics = end_to_end(args.workload, measured, statistics.median(setup))
        busy_s, busy_refs = busy(measured)
        info = {"passes": len(passes), "measured_passes": len(measured),
                "jobs_per_pass": len(jobs), "reference_loop_s": busy_s / busy_refs,
                "jobs_per_s": len(jobs) / busy_s, "kinds": kind_table(measured),
                "end_to_end": metrics, "setup_samples_s": setup}
        attempted = [r for p in passes for r in p]
        digests = {pass_digest(p) for p in passes}
        if args.trace:
            traced, layer, by_kind = traced_pass(plcword, jobs, passes[0], busy_s,
                                                 f"{OUT_DIR}/spans-{name}.csv.gz")
            attempted += traced
            digests.add(pass_digest(traced))
            info["layer_self_s_by_kind"] = by_kind
            # a function a workload never calls has no spans: 0 calls, 0 s
            metrics = {m["name"]: layer.get(m["name"], 0) for m in spec["per_layer"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(f"{workdir}-setup", ignore_errors=True)

    failures = [r for r in attempted if r.error is not None]
    info.update({
        "fail_ratio": len(failures) / len(attempted),
        "failures": sorted({f"{r.kind}: {r.error}" for r in failures})[:20],
        "output_digests": sorted(digests),
        "digests_identical": len(digests) == 1,
    })
    result = {
        "correct": not failures and len(digests) == 1,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }
    context = {"meta": {**metadata(), **vars(args)}, "info": info}
    record = {**context, "job_seconds": [[r.seconds for r in p] for p in passes],
              "ref_seconds": [[r.ref_seconds for r in p] for p in passes], "result": result}
    Path(OUT_DIR, f"result-{name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
