"""Span tracing around the public functions of each plcword module.

``Tracer.install`` wraps every function a layer module lists in
``__all__`` (plus ``cli.main``, ``cli.digits_io`` and every ``prefix``
method of the word streams).  A name copied into another module with
``from .x import f`` is a second binding that a patch on the defining
module would miss, so every plcword namespace that binds the same object
is patched.  ``restore`` puts every original back.

Spans stay in memory as parallel arrays (name, start, end, parent, job)
until the run writes them out; ``layer_metrics`` reduces them to calls,
busy time (outermost calls of a name) and self time (duration minus the
time covered by child spans).
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("words", "repetitions", "arithmetic", "witness", "cf", "tm", "classify", "cli")
CLI_FUNCTIONS = ("main", "digits_io")

# Work counters read from a call's arguments or result, at the boundary
# where the work happens.
RESULT_COUNTERS = {
    "repetitions.find_fractional_squares": lambda a, r: {"repetitions.find_fractional_squares_found": len(r)},
    "repetitions.find_complement_squares": lambda a, r: {"repetitions.find_complement_squares_found": len(r)},
    "witness.scan_and_certify": lambda a, r: {"witness.certs_emitted": len(r)},
    "witness.brute_force_min": lambda a, r: {"witness.brute_force_candidates": a[2] * (a[3] + 1)},
}


class Tracer:
    """Wraps plcword functions in spans and keeps the spans in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.outermost = array("b")
        self.counters: Counter = Counter()
        self.job_id = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, name: str, fn):
        code = self._code(name)
        counter = RESULT_COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack, active = tracer._stack, tracer._active
            idx = len(tracer.start)
            tracer.name.append(code)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.outermost.append(active[code] == 0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            active[code] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[code] -= 1
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if counter is not None:
                tracer.counters.update(counter(args, result))
            return result

        return functools.wraps(fn)(traced)

    def install(self, package) -> None:
        """Patch every binding of each traced function in the package."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            names = CLI_FUNCTIONS if layer == "cli" else getattr(module, "__all__", ())
            for attr in names:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, traced)
        streams = modules["words"]
        for cls in vars(streams).values():
            if inspect.isclass(cls) and issubclass(cls, streams.WordStream) and "prefix" in vars(cls):
                self._patch(cls, "prefix", self.wrap("words.prefix", vars(cls)["prefix"]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """All spans as gzip CSV: name,start_s,end_s,parent,job (parent is a
        row index, -1 at the top)."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as handle:
            handle.write("name,start_s,end_s,parent,job\n")
            for i in range(len(self.start)):
                handle.write(f"{self.names[self.name[i]]},{self.start[i]:.9f},"
                             f"{self.end[i]:.9f},{self.parent[i]},{self.job[i]}\n")

    def _self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [end - start for start, end in zip(self.start, self.end)]
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[i] - self.start[i]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls / busy / self seconds, per-layer self seconds,
        and the result counters, keyed ``<layer>.<function>_<what>``."""
        out: dict[str, float] = Counter()
        for i, own in enumerate(self._self_times()):
            name = self.names[self.name[i]]
            out[f"{name}_calls"] += 1
            if self.outermost[i]:
                out[f"{name}_s"] += self.end[i] - self.start[i]
            out[f"{name}_self_s"] += own
            out[f"{name.split('.', 1)[0]}.layer_self_s"] += own
        out.update(self.counters)
        built = out["witness.certificate_from_occurrence_calls"]
        out["witness.cert_keep_ratio"] = out["witness.certs_emitted"] / built if built else 0.0
        out["cli.self_s"] = out["cli.main_self_s"]
        return dict(out)

    def layer_self_by_kind(self, job_kinds: list[str]) -> dict[str, dict[str, float]]:
        """Self seconds per layer, split by the kind of job each span ran in."""
        out: dict[str, Counter] = {}
        for i, own in enumerate(self._self_times()):
            layer = self.names[self.name[i]].split(".", 1)[0]
            out.setdefault(job_kinds[self.job[i]], Counter())[layer] += own
        return {kind: dict(layers) for kind, layers in out.items()}
