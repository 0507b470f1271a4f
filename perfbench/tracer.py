"""Run one triwords CLI job in this process with per-layer spans.

    python3 perfbench/tracer.py SRC_DIR REPORT_JSON ALLOC(0|1) CLI_ARGS...

The layers are the modules of the package.  Every function and method
defined in a layer module is replaced by a wrapper, in its own module and
in every other triwords namespace that bound it by name (cli and engines
import with `from ... import`, so patching the defining module alone
would miss those calls).  The program itself is not edited.

A span opens when a call crosses from one layer into another, or enters
an engine's core function; a layer's self time is its spans' time minus
the time covered by child spans.  Counts are computed from the call
arguments (recurrence steps, words enumerated, compositions summed,
coefficients extracted), so they repeat exactly from run to run.  With
ALLOC=1 tracemalloc runs too, and each engine's allocation peak is taken
over its outermost core call.

The report's wall_s runs from the call of cli.main to the flush of its
output, so its unattributed_s is the part of the job no layer span
covers; the package import before it is reported as import_s.  The
job's stdout is the CLI's own; the report goes to REPORT_JSON.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = ("cli", "engines", "recurrence", "closedform", "ring", "genfun", "counting")

# Core function of each engine, by "module.qualname".
ENGINE_FUNCTIONS = {
    "counting.brute_force_words": "brute",
    "counting.composition_sum": "compsum",
    "recurrence.coupled_sequence": "coupled",
    "recurrence.decoupled_third_order": "decoupled",
    "recurrence.decoupled_d": "decoupled",
    "engines._third_order_series": "decoupled",
    "engines._d_series": "decoupled",
    "recurrence.quartic_c": "quartic-c",
    "engines._quartic_series": "quartic-c",
    "closedform.closed_form": "closed",
    "closedform.root_basis": "rootbasis",
    "closedform.case_mod4": "mod4",
    "genfun.gf_coefficients": "genfun",
}
ENGINES = ("brute", "compsum", "coupled", "decoupled", "quartic-c", "closed", "rootbasis", "mod4", "genfun")

_DIRECT_SUM_SHIFT = {"A": 0, "B": 1, "C": 2, "D": 1}


def _pairs(k: int) -> int:
    """Number of (k1, k2, k3) >= 0 with k1 + k2 + k3 = k."""
    return (k + 1) * (k + 2) // 2 if k >= 0 else 0


# Computed counts: "module.qualname" -> (argument names, fn(tracer, *values)).
# A recurrence call reports (series key, steps taken, indices produced).
COUNTERS = {
    "recurrence.coupled_sequence": (("N",), lambda t, N: t.recurrence("coupled", N, N + 1)),
    "recurrence.decoupled_third_order": (
        ("label", "n"),
        lambda t, label, n: t.recurrence(("decoupled", label.value), max(0, n - 3), 1),
    ),
    "recurrence.decoupled_d": (("n",), lambda t, n: t.recurrence(("decoupled", "D"), max(0, n - 1), 1)),
    "recurrence.quartic_c": (("n",), lambda t, n: t.recurrence(("quartic-c", "C"), max(0, n - 4), 1)),
    "engines._third_order_series": (
        ("label", "N"),
        lambda t, label, N: t.recurrence(("decoupled", label.value), max(0, N - 3), N + 1),
    ),
    "engines._d_series": (("N",), lambda t, N: t.recurrence(("decoupled", "D"), max(0, N - 1), N + 1)),
    "engines._quartic_series": (("N",), lambda t, N: t.recurrence(("quartic-c", "C"), max(0, N - 4), N + 1)),
    "genfun.gf_coefficients": (("gf", "N"), lambda t, gf, N: t.series(("genfun", gf.numerator), "genfun.coeffs", N + 1)),
    "counting.brute_force_words": (("n",), lambda t, n: t.add("counting.words", 27**n)),
    "counting.composition_sum": (("n",), lambda t, n: t.add("counting.compositions", _pairs(3 * n))),
    "counting.direct_sum": (
        ("label", "n"),
        lambda t, label, n: t.add("counting.compositions", _pairs(n - _DIRECT_SUM_SHIFT[label.value])),
    ),
    "ring.AlgebraicQ3i.__mul__": ((), lambda t: t.add("ring.muls", 1)),
    "ring.AlgebraicQ3i.__pow__": ((), lambda t: t.add("ring.muls", 1)),
}


class Layer:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Span stack, per-layer times, engine times and computed counts of one job."""

    def __init__(self, alloc: bool):
        self.alloc = alloc
        self.layers = {name: Layer() for name in LAYERS}
        self.stack: list[list] = []  # frames: [layer, time covered by child spans]
        self.counts: Counter = Counter()
        self.series_builds: Counter = Counter()
        self.engine_s = dict.fromkeys(ENGINES, 0.0)
        self.engine_depth = dict.fromkeys(ENGINES, 0)
        self.engines_active = 0
        self.alloc_peak = dict.fromkeys(ENGINES, 0)
        self.originals: dict[int, object] = {}
        self.wrappers: dict[int, object] = {}

    # -- computed counts ------------------------------------------------

    def add(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def series(self, series_key, count_key: str, indices: int) -> None:
        self.series_builds[series_key] += 1
        self.counts[count_key] += indices

    def recurrence(self, series_key, steps: int, indices: int) -> None:
        self.series(series_key, "recurrence.indices", indices)
        self.counts["recurrence.steps"] += steps

    # -- spans ----------------------------------------------------------

    def _span(self, fn, layer: Layer, engine, args, kwargs):
        stack = self.stack
        frame = [layer, 0.0]
        stack.append(frame)
        layer.depth += 1
        measure_alloc = False
        if engine is not None:
            self.engine_depth[engine] += 1
            if self.alloc and self.engines_active == 0:
                measure_alloc = True
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            self.engines_active += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            layer.self_time += elapsed - frame[1]
            layer.depth -= 1
            if layer.depth == 0:
                layer.total += elapsed
            if stack:
                stack[-1][1] += elapsed
            if engine is not None:
                self.engines_active -= 1
                self.engine_depth[engine] -= 1
                if self.engine_depth[engine] == 0:
                    self.engine_s[engine] += elapsed
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.alloc_peak[engine] = max(self.alloc_peak[engine], peak)

    def _wrap(self, fn, layer: Layer, key: str):
        engine = ENGINE_FUNCTIONS.get(key)
        counter = None
        if key in COUNTERS:
            names, count = COUNTERS[key]
            params = list(inspect.signature(fn).parameters)
            positions = [params.index(name) for name in names]

            def counter(args, kwargs):
                count(self, *(args[i] if i < len(args) else kwargs[params[i]] for i in positions))

        stack = self.stack
        span = self._span

        def wrapper(*args, **kwargs):
            layer.calls += 1
            if counter is not None:
                counter(args, kwargs)
            if engine is None and stack and stack[-1][0] is layer:
                return fn(*args, **kwargs)
            return span(fn, layer, engine, args, kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrapper_for(self, fn, layer: Layer, key: str):
        if id(fn) not in self.wrappers:
            self.originals[id(fn)] = fn
            self.wrappers[id(fn)] = self._wrap(fn, layer, key)
        return self.wrappers[id(fn)]

    def install(self) -> list[str]:
        """Wrap every layer function; return the names still bound to an original.

        Methods are replaced on their class; functions in every package
        namespace that binds them, the defining module included.
        """
        for name in LAYERS:
            module = importlib.import_module(f"triwords.{name}")
            layer = self.layers[name]
            for obj in list(vars(module).values()):
                if _defined_in(obj, module):
                    self._wrapper_for(obj, layer, f"{name}.{obj.__qualname__}")
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth_name, meth in list(vars(obj).items()):
                        if _defined_in(meth, module):
                            key = f"{name}.{meth.__qualname__}"
                            setattr(obj, meth_name, self._wrapper_for(meth, layer, key))
        for module in _package_modules():
            for attr, obj in list(vars(module).items()):
                if self._is_original(obj):
                    setattr(module, attr, self.wrappers[id(obj)])
        missed = []
        for module in _package_modules():
            namespaces = [(module.__name__, vars(module))]
            namespaces += [
                (f"{module.__name__}.{k}", vars(v))
                for k, v in vars(module).items()
                if inspect.isclass(v) and v.__module__.startswith("triwords.")
            ]
            for where, ns in namespaces:
                missed += [f"{where}.{attr}" for attr, obj in ns.items() if self._is_original(obj)]
        return missed

    def _is_original(self, obj) -> bool:
        return id(obj) in self.originals and self.originals[id(obj)] is obj

    def report(self, wall: float) -> dict:
        attributed = sum(layer.self_time for layer in self.layers.values())
        return {
            "wall_s": wall,
            "unattributed_s": wall - attributed,
            "layers": {
                name: {"calls": layer.calls, "total_s": layer.total, "self_s": layer.self_time}
                for name, layer in self.layers.items()
            },
            "counts": dict(self.counts)
            | {f"{name}.calls": layer.calls for name, layer in self.layers.items()}
            | {"engines.series_recomputed": sum(n - 1 for n in self.series_builds.values())},
            "engine_s": self.engine_s,
            "alloc_peak_mb": {k: v / 2**20 for k, v in self.alloc_peak.items()},
        }


def _defined_in(obj, module) -> bool:
    """A plain (non-generator) function whose code lives in the module's file."""
    return (
        inspect.isfunction(obj)
        and obj.__code__.co_filename == module.__file__
        and not inspect.isgeneratorfunction(obj)
    )


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "triwords" or name.startswith("triwords.")]


def main() -> int:
    src, report_path, alloc, argv = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    cli = importlib.import_module("triwords.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer(alloc)
    missed = tracer.install()
    if alloc:
        tracemalloc.start()
    start = time.perf_counter()
    code = cli.main(argv)
    sys.stdout.flush()
    report = tracer.report(time.perf_counter() - start)
    report["import_s"] = import_s
    report["exit_code"] = code
    report["unwrapped"] = missed
    with open(report_path, "w") as f:
        json.dump(report, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
