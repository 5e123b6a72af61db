"""In-memory spans around the library's public functions.

``Tracer`` rebinds each traced function, on every ``hilbertbridge`` module
that holds it, to a wrapper that records a span (name, start, end, parent
span, run id) and the counts the layer's return value or arguments give.
Nothing under ``src/`` changes: the wrappers live here and are removed when
the tracer closes.  A layer's self time is its span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "hilbertbridge"

# (module, attribute) of each traced function, named as its module owns it
TRACED = (
    ("spin_measurement", "run_ensemble"),
    ("spin_measurement", "tangent_displacements"),
    ("spin_measurement", "isotropy_test"),
    ("position_measurement", "run_position_ensemble"),
    ("position_measurement", "velocity_isotropy_diagnostic"),
    ("born_bridge", "fs_euclid_relation"),
    ("packet_dynamics", "packet_wavefunction"),
    ("packet_dynamics", "reconstruct_hamiltonian"),
    ("hilbert_core", "inner_l2"),
    ("density_diffusion", "brownian_ensemble"),
    ("density_diffusion", "state_density_msd"),
    ("experiments", "write_outputs"),
)


def _count_spin(counts, args, kwargs, result):
    results, steps, _ = result
    kicks = int(steps.sum())
    counts["spin_measurement.kicks"] += kicks
    # computed: three float64 normals per kick
    counts["spin_measurement.draw_bytes"] += kicks * 3 * 8
    counts["spin_measurement.trials"] += len(steps)
    counts["spin_measurement.resolved"] += sum(r.value != "UNRESOLVED" for r in results)


def _count_cell(counts, args, kwargs, result):
    cells, steps = result
    state0 = args[0] if args else kwargs["state0"]
    n = len(state0)
    kicks = int(steps.sum())
    counts["position_measurement.kicks"] += kicks
    counts["position_measurement.trials"] += len(cells)
    counts["position_measurement.resolved"] += int((cells >= 0).sum())
    # computed: one (2, N, N) float64 Gaussian block and one N×N eigh per kick
    counts["position_measurement.draw_bytes"] += kicks * 2 * n * n * 8
    counts["position_measurement.eigh_calls"] += kicks


def _count_grid(counts, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    points = 1
    for n in grid.extent:
        points *= int(n)
    counts["hilbert_core.grid_points"] += points


def _count_written(counts, args, kwargs, result):
    counts["experiments.write_outputs.bytes"] += sum(p.stat().st_size for p in result)


COUNTERS = {
    "spin_measurement.run_ensemble": _count_spin,
    "position_measurement.run_position_ensemble": _count_cell,
    "packet_dynamics.packet_wavefunction": _count_grid,
    "experiments.write_outputs": _count_written,
}


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    run_id: int


class Tracer:
    """Context manager: installs the wrappers on enter, restores on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.run_id = 0
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._registry: dict | None = None

    # -- spans

    @contextlib.contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), None, parent, self.run_id))
        stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    # -- install / restore

    @staticmethod
    def _modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _rebind(self, fn, wrapper) -> None:
        """Replace ``fn`` under every name a library module holds it by."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def __enter__(self):
        pkg = PACKAGE
        try:
            for mod_name, attr in TRACED:
                fn = getattr(sys.modules[f"{pkg}.{mod_name}"], attr)
                self._rebind(fn, self._wrap(f"{mod_name}.{attr}", fn))
            stream = sys.modules[f"{pkg}.stats_util"].RngStream
            self._restore.append((stream, "generator", stream.__dict__["generator"]))
            stream.generator = self._wrap("stats_util.RngStream.generator",
                                          stream.__dict__["generator"])
            experiments = sys.modules[f"{pkg}.experiments"]
            self._registry = dict(experiments.REGISTRY)
            for key, entry in self._registry.items():
                experiments.REGISTRY[key] = dataclasses.replace(
                    entry, runner=self._wrap("experiments.runner", entry.runner))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()
        if self._registry is not None:
            experiments = sys.modules[f"{PACKAGE}.experiments"]
            experiments.REGISTRY.clear()
            experiments.REGISTRY.update(self._registry)
            self._registry = None

    # -- aggregation

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (summed durations) and self time."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, s in enumerate(self.spans):
            agg = out[s.name]
            agg["calls"] += 1
            agg["busy_s"] += s.end - s.start
            agg["self_s"] += s.end - s.start - child[i]
        return dict(out)

    def records(self):
        """Spans as JSON-ready dicts, in start order."""
        return [dataclasses.asdict(s) for s in self.spans]
