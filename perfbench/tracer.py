"""Spans around the public functions of each phasefront module.

The tracer replaces a function at every module-level name where phasefront
looks it up, so a function imported by name into another module (``simulate``
in ``harness``, ``is_simple`` in ``flow``) is timed where each call happens.
Methods are replaced on their class. Spans (name, start, end, parent) stay in
memory until ``write_spans`` is called once at the end of a run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

# (module, attribute) of every traced function; "Class.method" names a method
TARGETS = [
    ("acsolver", "step"),
    ("acsolver", "stability_dt"),
    ("acsolver", "simulate"),
    ("acsolver", "extract_level_set"),
    ("flow", "signed_distance"),
    ("flow", "step_level_set"),
    ("flow", "reinitialize"),
    ("flow", "evolve_level_set"),
    ("flow", "step_front"),
    ("flow", "evolve_front"),
    ("curves", "geometry"),
    ("curves", "is_simple"),
    ("curves", "resample"),
    ("curves", "points_to_curve_distance"),
    ("curves", "hausdorff"),
    ("curves", "marching_squares"),
    ("profile", "ProfileTable.build"),
    ("profile", "solve_standing_wave"),
    ("mobility", "tabulate_mobility"),
    ("mobility", "mu_tensor"),
    ("model", "DirectionSection.__init__"),
    ("model", "validate_model"),
    ("quadrature", "gauss_adaptive"),
    ("quadrature", "gauss_adaptive_vec"),
    ("harness", "propagation_sweep"),
    ("harness", "generation_experiment"),
    ("harness", "tanh_ansatz_field"),
]


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__init__')}"


# work size of one call, from its arguments: grid cells, markers or points
SIZES = {
    "acsolver.step": lambda args: args[0].grid.n ** 2,
    "flow.step_level_set": lambda args: args[0].grid.n ** 2,
    "flow.step_front": lambda args: args[0].n_vertices,
    "curves.points_to_curve_distance": lambda args: len(args[0]),
}

# functions whose allocation is sampled; the first ALLOC_SAMPLES calls per
# distinct work size in each round run under tracemalloc
ALLOC_SAMPLED = ("acsolver.step", "flow.step_level_set")
ALLOC_SAMPLES = 2


# the traced round time, against which the untraced wall_s gives the overhead
ROUND_METRIC = "bench.round.s"


def layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, as BENCHMARK.json lists them."""
    with open(Path(__file__).resolve().parents[1] / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


class Tracer:
    """Installs timing wrappers and turns the recorded spans into metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self._stack: list[list] = []           # [span index, child seconds]
        self._restore: list[tuple[object, str, object]] = []
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.work = defaultdict(int)
        self.alloc: dict[str, list[float]] = defaultdict(list)
        self._alloc_seen: dict[tuple[str, int], int] = defaultdict(int)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at each phasefront module name bound to it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "phasefront" or name.startswith("phasefront.")}
        for mod_name, attr in TARGETS:
            owner = modules[f"phasefront.{mod_name}"]
            name = _span_name(mod_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, skip=1))
                else:
                    wrapped = self._wrap(name, raw, skip=1)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def new_round(self) -> None:
        self._alloc_seen.clear()

    def _wrap(self, name: str, func, skip: int = 0):
        ident = len(self.names)
        self.names.append(name)
        size_of = SIZES.get(name)
        sampled = name in ALLOC_SAMPLED
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            size = size_of(args[skip:]) if size_of else 0
            measure = False
            if sampled:
                seen = self._alloc_seen[(name, size)]
                self._alloc_seen[(name, size)] = seen + 1
                measure = seen < ALLOC_SAMPLES and not tracemalloc.is_tracing()
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            if measure:
                tracemalloc.start()
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.alloc[name].append(peak / size)
                stack.pop()
                spans[index] = (ident, start, end, parent)
                took = end - start
                if stack:
                    stack[-1][1] += took
                self.calls[name] += 1
                self.seconds[name] += took
                self.self_seconds[name] += took - frame[1]
                self.work[name] += size

        return functools.wraps(func)(traced)

    # -- results --------------------------------------------------------------

    def metrics(self, round_seconds: list[float]) -> dict[str, float]:
        """Per-round values of every per-layer metric (0 where nothing ran)."""
        rounds = len(round_seconds)
        out = {}
        for metric in layer_units():
            if metric == ROUND_METRIC:
                out[metric] = statistics.median(round_seconds)
                continue
            func, quantity = metric.rsplit(".", 1)
            calls = self.calls.get(func, 0)
            secs = self.seconds.get(func, 0.0)
            work = self.work.get(func, 0)
            if quantity == "calls":
                value = calls / rounds
            elif quantity == "points":
                value = work / rounds
            elif quantity == "s":
                value = secs / rounds
            elif quantity == "self_s":
                value = self.self_seconds.get(func, 0.0) / rounds
            elif quantity == "ns_per_cell":
                value = 1e9 * secs / work if work else 0.0
            elif quantity == "us_per_marker":
                value = 1e6 * secs / work if work else 0.0
            elif quantity == "alloc_bytes_per_cell":
                samples = self.alloc.get(func, [])
                value = statistics.fmean(samples) if samples else 0.0
            else:
                raise KeyError(metric)
            if quantity in ("calls", "points") and float(value).is_integer():
                value = int(value)
            out[metric] = value
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for ident, start, end, parent in self.spans:
                fh.write(json.dumps({"name": self.names[ident], "start": start,
                                     "end": end, "parent": parent}) + "\n")
