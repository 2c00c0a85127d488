"""Spans around the public functions of each corrdyn layer, kept in memory.

The tracer wraps functions where their callers look them up: every corrdyn
module attribute that holds the original function is replaced for the time
the tracer is installed.  A span records its name, start, end, parent span,
the CLI run it belongs to, its self time (duration minus the time its child
spans cover) and whether the call raised.  Generators are timed over each
step of their iteration, one span per item, so a consumer's own work between
items stays with the consumer.  Outside a run (run_id is None) the wrappers
call straight through, which keeps the benchmark's own checks untraced.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter


def _evolve_args(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _evolve_name(fn, args, kwargs):
    return f"dynamics.evolve.{_evolve_args(fn, args, kwargs)['method']}"


def _count_nnz(tracer, fn, args, kwargs, gen):
    tracer.add("hierarchy.nnz", gen.matrix.nnz)


def _count_evolve(tracer, fn, args, kwargs, traj):
    from corrdyn.dynamics import default_step

    a = _evolve_args(fn, args, kwargs)
    tracer.add("dynamics.evolve.samples", traj.times.size)
    if a["method"] == "rk4":
        dt = a["dt"] if a["dt"] is not None else default_step(a["gen"])
        tracer.add("dynamics.rk4.steps", max(1, int(round(a["t_max"] / dt))))


# (module, attribute, span name or name function, return hook)
FUNCTIONS = (
    ("corrdyn.cli", "run", "cli.run", None),
    ("corrdyn.cli", "load_config", "cli.load_config", None),
    ("corrdyn.hierarchy", "build_generator", "hierarchy.build_generator", _count_nnz),
    ("corrdyn.dynamics", "evolve", _evolve_name, _count_evolve),
    ("corrdyn.dynamics", "spectrum", "dynamics.spectrum", None),
    ("corrdyn.dynamics", "resolvent", "dynamics.resolvent", None),
    ("corrdyn.oracle", "correlator_trajectory", "oracle.correlator_trajectory", None),
    ("corrdyn.oracle", "eigensystem", "oracle.eigensystem", None),
    ("corrdyn.decomposition", "correlated_parts", "decomposition.correlated_parts", None),
    ("corrdyn.decomposition", "cumulant_parts", "decomposition.cumulant_parts", None),
    ("corrdyn.decomposition", "reconstruct", "decomposition.reconstruct", None),
    ("corrdyn.decomposition", "cumulant_reconstruct",
     "decomposition.cumulant_reconstruct", None),
    ("corrdyn.density", "extract_correlators", "density.extract_correlators", None),
    ("corrdyn.density", "from_correlators", "density.from_correlators", None),
    ("corrdyn.density", "partial_trace_array", "density.partial_trace", None),
)
# generator functions: (module, attribute, span name, item counter)
GENERATORS = (
    ("corrdyn.combinatorics", "enumerate_partitions",
     "combinatorics.enumerate_partitions", "combinatorics.partitions"),
    ("corrdyn.combinatorics", "enumerate_subsets",
     "combinatorics.enumerate_subsets", "combinatorics.subsets"),
)
SPAN_NAMES = tuple(
    n for _, _, n, _ in FUNCTIONS if isinstance(n, str)
) + ("dynamics.evolve.rk4", "dynamics.evolve.expm") + tuple(n for _, _, n, _ in GENERATORS)


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith((".s", "_s")):
        return "s"
    return "B" if metric.endswith("_bytes") else "count"


class Tracer:
    """Spans and counters of the runs made while installed."""

    def __init__(self):
        # (span id, name, start, end, parent id, run id, self seconds, raised)
        self.spans: list[tuple] = []
        self.counts: dict[tuple, float] = defaultdict(float)
        self.run_id = None
        self._stack: list[list] = []  # open spans: [id, child seconds]

    def add(self, key: str, value: float) -> None:
        self.counts[(self.run_id, key)] += value

    def _open(self) -> list:
        frame = [len(self.spans) + len(self._stack), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, start, end, raised) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += end - start
        self.spans.append((
            frame[0], name, start, end, parent and parent[0], self.run_id,
            end - start - frame[1], raised,
        ))

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.run_id is None:
                return fn(*args, **kwargs)
            span = name if isinstance(name, str) else name(fn, args, kwargs)
            frame = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, span, start, perf_counter(), True)
                raise
            self._close(frame, span, start, perf_counter(), False)
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return traced

    def _steps(self, it, name, counter):
        while True:
            frame = self._open()
            start = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                self._close(frame, name, start, perf_counter(), False)
                return
            except BaseException:
                self._close(frame, name, start, perf_counter(), True)
                raise
            self._close(frame, name, start, perf_counter(), False)
            self.add(counter, 1)
            yield item

    def _wrap_generator(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            return it if self.run_id is None else self._steps(it, name, counter)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every corrdyn reference to a traced function, then restore."""
        wrappers = {}
        for module, attr, name, hook in FUNCTIONS:
            fn = getattr(sys.modules[module], attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, name, hook))
        for module, attr, name, counter in GENERATORS:
            fn = getattr(sys.modules[module], attr)
            wrappers[id(fn)] = (fn, self._wrap_generator(fn, name, counter))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "corrdyn" or mod_name.startswith("corrdyn.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def layer_metrics(self, run_ids) -> dict[str, float]:
        """Per-layer metrics summed over the given runs."""
        runs = set(run_ids)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        errors = dict.fromkeys(SPAN_NAMES, 0)
        for _, name, _, _, _, run, own, raised in self.spans:
            if run in runs:
                self_s[name] += own
                calls[name] += 1
                errors[name] += raised
        count = defaultdict(float)
        for (run, key), value in self.counts.items():
            if run in runs:
                count[key] += value
        rk4_s = self_s["dynamics.evolve.rk4"]
        out = {
            "hierarchy.build_generator.s": self_s["hierarchy.build_generator"],
            "hierarchy.build_generator.calls": calls["hierarchy.build_generator"],
            "hierarchy.nnz": count["hierarchy.nnz"],
            "dynamics.evolve.rk4.s": rk4_s,
            "dynamics.evolve.expm.s": self_s["dynamics.evolve.expm"],
            "dynamics.evolve.samples": count["dynamics.evolve.samples"],
            "dynamics.rk4.matvecs_per_s":
                4 * count["dynamics.rk4.steps"] / rk4_s if rk4_s else 0.0,
            "dynamics.spectrum.s": self_s["dynamics.spectrum"],
            "dynamics.resolvent.s": self_s["dynamics.resolvent"],
            "dynamics.resolvent.calls": calls["dynamics.resolvent"],
            "oracle.correlator_trajectory.s": self_s["oracle.correlator_trajectory"],
            "oracle.eigensystem.s": self_s["oracle.eigensystem"],
            "decomposition.correlated_parts.s": self_s["decomposition.correlated_parts"],
            "decomposition.cumulant_parts.s": self_s["decomposition.cumulant_parts"],
            "decomposition.reconstruct.s": self_s["decomposition.reconstruct"],
            "decomposition.cumulant_reconstruct.s":
                self_s["decomposition.cumulant_reconstruct"],
            "density.extract_correlators.s": self_s["density.extract_correlators"],
            "density.from_correlators.s": self_s["density.from_correlators"],
            "density.partial_trace.calls": calls["density.partial_trace"],
            "combinatorics.partitions": count["combinatorics.partitions"],
            "combinatorics.subsets": count["combinatorics.subsets"],
            "cli.load_config.s": self_s["cli.load_config"],
            "cli.run.self_s": self_s["cli.run"],
            "cli.output_bytes": count["cli.output_bytes"],
        }
        out.update({f"{name}.errors": errors[name] for name in SPAN_NAMES})
        return out
