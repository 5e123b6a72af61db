"""End-to-end benchmark of hilbertbridge's experiments.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload spin-born --seed 1 --seconds 20 --trace 0

One process runs the workload's ``experiments.run`` calls in a closed loop
(one caller, each call after the previous one returned), outputs written,
with the library's default worker count (``HB_THREADS`` is unset for the
run).  A pass is one round of the workload's calls; passes repeat for
``--seconds`` and timings are medians over passes, scaled to a reference
host speed (see ``Timings``).  Every call is checked for correct output
bytes.  The last line of standard output is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics from a
traced run with ``--trace 1``.  The lines before it are the readable report
and the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = {"full": 7, "tiny": 1}
# seconds the reference kernel takes at the reference host speed, close to
# its time on the machine the baseline was recorded on (see Timings)
REFERENCE_S = 0.2
MODULES = (
    "experiments",
    "spin_measurement",
    "position_measurement",
    "stats_util",
    "born_bridge",
    "packet_dynamics",
    "hilbert_core",
    "density_diffusion",
)
EXPERIMENTS = ("spin-born", "position-born") + workloads.REGISTRY_SWEEP

END_TO_END_UNITS = {
    "wall_s": "s",
    "trial_steps_per_s": "kicks/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; "computed" marks counts derived from sizes, not timed
LAYER_UNITS = {
    "spin_measurement.run_ensemble.busy_s": "s",
    "spin_measurement.run_ensemble.calls": "count",
    "spin_measurement.kicks": "count",
    "spin_measurement.kicks_per_busy_s": "kicks/s",
    "spin_measurement.resolved_ratio": "ratio",
    "spin_measurement.draw_bytes": "B",
    "spin_measurement.tangent_displacements.busy_s": "s",
    "spin_measurement.isotropy_test.busy_s": "s",
    "position_measurement.run_position_ensemble.busy_s": "s",
    "position_measurement.run_position_ensemble.calls": "count",
    "position_measurement.kicks": "count",
    "position_measurement.kicks_per_busy_s": "kicks/s",
    "position_measurement.resolved_ratio": "ratio",
    "position_measurement.draw_bytes": "B",
    "position_measurement.eigh_calls": "count",
    "position_measurement.velocity_isotropy_diagnostic.busy_s": "s",
    "stats_util.RngStream.generator.calls": "count",
    "stats_util.RngStream.generator.busy_s": "s",
    "born_bridge.fs_euclid_relation.busy_s": "s",
    "born_bridge.fs_euclid_relation.calls": "count",
    "packet_dynamics.packet_wavefunction.busy_s": "s",
    "packet_dynamics.packet_wavefunction.calls": "count",
    "hilbert_core.inner_l2.busy_s": "s",
    "hilbert_core.grid_points": "count",
    "hilbert_core.grid_points_per_s": "points/s",
    "packet_dynamics.reconstruct_hamiltonian.busy_s": "s",
    "density_diffusion.brownian_ensemble.busy_s": "s",
    "density_diffusion.state_density_msd.busy_s": "s",
    **{f"experiments.run.{e}.busy_s": "s" for e in EXPERIMENTS},
    "experiments.runner.self_s": "s",
    "experiments.write_outputs.busy_s": "s",
    "experiments.write_outputs.bytes": "B",
    "failed_ops_ratio": "ratio",
    "host.reference_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
COMPUTED = (
    "spin_measurement.kicks",
    "spin_measurement.draw_bytes",
    "position_measurement.kicks",
    "position_measurement.draw_bytes",
    "position_measurement.eigh_calls",
    "hilbert_core.grid_points",
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def load_library():
    """Import hilbertbridge from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "hilbertbridge" / "__init__.py").is_file():
        raise SetupError(f"no library source at {src / 'hilbertbridge'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lib = types.SimpleNamespace()
    for name in MODULES:
        module = importlib.import_module(f"hilbertbridge.{name}")
        if not Path(module.__file__).resolve().is_relative_to(src):
            raise SetupError(f"hilbertbridge.{name} imported from {module.__file__}")
        setattr(lib, name, module)
    import numpy
    import scipy

    lib.np, lib.scipy = numpy, scipy
    return lib


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its configs being built."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise SetupError(f"setup probe failed (exit {code})")
    return elapsed


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> int | None:
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            blas = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(blas, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hilbertbridge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(lib, workload: str, seed, hb_threads: str | None) -> dict:
    blas = lib.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": lib.np.__version__,
        "scipy": lib.scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "HB_THREADS": hb_threads if hb_threads is not None else "unset",
        "workers": lib.experiments.resolve_workers(),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


class Runner:
    """Runs passes of one workload and counts the operations that fail."""

    def __init__(self, lib, workload, out_dir: Path, checker):
        self.lib = lib
        self.workload = workload
        self.out_dir = out_dir
        self.checker = checker
        self.configs = [workloads.config(lib, op, out_dir) for op in workload.ops]
        self.attempted = 0
        self.failures: list[str] = []
        # peak RSS through set-up and the first pass; later passes can only
        # add allocator fragmentation, which varies from run to run
        self.peak_rss_mb: float | None = None

    def run_pass(self, tracer=None) -> float:
        """One pass; returns the seconds spent inside ``experiments.run``."""
        run = self.lib.experiments.run
        wall = 0.0
        for op, cfg in zip(self.workload.ops, self.configs):
            for path in workloads.output_paths(op, self.out_dir):
                path.unlink(missing_ok=True)
            self.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    run(cfg)
                else:
                    with tracer.span(f"experiments.run.{op.experiment}"):
                        run(cfg)
            except Exception as exc:  # an operation that raises is a failed one
                wall += time.perf_counter() - start
                self.failures.append(f"{op.experiment}: raised {exc!r}")
                continue
            wall += time.perf_counter() - start
            err = self.checker.check(op, self.out_dir)
            if err is not None:
                self.failures.append(f"{op.experiment}: {err}")
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return wall

    def kicks(self) -> int:
        if self.workload.computed_kicks is not None:
            return self.workload.computed_kicks
        return sum(self.checker.kicks(op) for op in self.workload.ops)


def reference_kernel() -> float:
    """Seconds this host takes for a fixed piece of work outside the library.

    The work mixes what the workloads spend their time on: a per-step loop
    of small numpy calls with random draws, batched 8x8 Hermitian ``eigh``,
    large-array complex arithmetic and a pure-Python loop.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(20191212)
    x = np.ones(3)
    for _ in range(8000):
        x = x + 0.01 * rng.normal(size=3)
        x /= np.linalg.norm(x)
    a = rng.normal(size=(64, 8, 8)) + 1j * rng.normal(size=(64, 8, 8))
    h = a + a.conj().transpose(0, 2, 1)
    for _ in range(60):
        np.linalg.eigh(h)
    grid = np.linspace(-4.0, 4.0, 1 << 18)
    for _ in range(4):
        np.sum(np.abs(np.exp(1j * grid - grid * grid)) ** 2)
    total = 0
    for i in range(600_000):
        total += i * i
    return time.perf_counter() - start


class Timings:
    """Raw pass and set-up times of a run, and the host's speed during it.

    The reference kernel runs before the first pass and after every pass and
    set-up probe.  ``scale`` is REFERENCE_S over its median time in the run;
    a run's median times multiplied by it are seconds at the reference host
    speed.  A host whose speed drifts over minutes then reads the same,
    while a change of the timed code itself still shows in full, because
    the kernel runs no library code.
    """

    def __init__(self):
        self.references = [reference_kernel()]
        self.walls: list[float] = []
        self.setups: list[float] = []

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.references)

    def probe(self, workload: str, seed: int) -> None:
        self.setups.append(probe_setup(workload, seed))
        self.references.append(reference_kernel())

    def passes(self, runner: Runner, seconds: float, tracer=None, probes=0,
               probe_args=None) -> None:
        """Repeat passes while the next one is expected to end within
        ``seconds`` of pass time (at least one).  ``probes`` set-up probes
        are spread through the run: after each pass, as many as the share of
        ``seconds`` passed so far calls for."""
        while True:
            self.walls.append(runner.run_pass(tracer))
            self.references.append(reference_kernel())
            if tracer is not None:
                tracer.run_id += 1
            elapsed = sum(self.walls)
            due = min(probes, math.ceil(probes * elapsed / seconds))
            while len(self.setups) < due:
                self.probe(*probe_args)
            if elapsed + statistics.median(self.walls) > seconds:
                break
        while len(self.setups) < probes:
            self.probe(*probe_args)


def end_to_end(runner: Runner, seconds: float, probes: int,
               probe_args) -> tuple[dict, Timings]:
    t = Timings()
    t.passes(runner, seconds, probes=probes, probe_args=probe_args)
    wall = statistics.median(t.walls) * t.scale
    return {
        "wall_s": wall,
        "trial_steps_per_s": runner.kicks() / wall,
        "setup_s": statistics.median(t.setups) * t.scale,
        "peak_rss_mb": runner.peak_rss_mb,
    }, t


def per_layer(runner: Runner, seconds: float) -> tuple[dict, Timings, tracing.Tracer]:
    """Untraced passes for half the time, then traced passes for the rest."""
    plain = Timings()
    plain.passes(runner, seconds / 2)
    traced = Timings()
    with tracing.Tracer() as tracer:
        traced.passes(runner, seconds / 2, tracer)
    n = len(traced.walls)
    layers = tracer.layers()
    counts = tracer.counts

    def busy(name):
        return layers.get(name, {}).get("busy_s", 0.0) / n

    def calls(name):
        return layers.get(name, {}).get("calls", 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for name in LAYER_UNITS:
        stem, _, field = name.rpartition(".")
        if field == "busy_s":
            metrics[name] = busy(stem)
        elif field == "calls":
            metrics[name] = calls(stem)
    metrics["experiments.runner.self_s"] = (
        layers.get("experiments.runner", {}).get("self_s", 0.0) / n)
    for walk in ("spin_measurement", "position_measurement"):
        kicks = counts[f"{walk}.kicks"] / n
        metrics[f"{walk}.kicks"] = kicks
        engine = "run_ensemble" if walk == "spin_measurement" else "run_position_ensemble"
        metrics[f"{walk}.kicks_per_busy_s"] = ratio(kicks, busy(f"{walk}.{engine}"))
        metrics[f"{walk}.resolved_ratio"] = ratio(
            counts[f"{walk}.resolved"], counts[f"{walk}.trials"])
    for name in ("spin_measurement.draw_bytes", "position_measurement.draw_bytes",
                 "position_measurement.eigh_calls", "hilbert_core.grid_points",
                 "experiments.write_outputs.bytes"):
        metrics[name] = counts[name] / n
    metrics["hilbert_core.grid_points_per_s"] = ratio(
        metrics["hilbert_core.grid_points"],
        busy("packet_dynamics.packet_wavefunction"))
    metrics["failed_ops_ratio"] = len(runner.failures) / runner.attempted
    metrics["host.reference_s"] = statistics.median(traced.references)
    metrics["trace.wall_s"] = statistics.median(traced.walls)
    metrics["trace.overhead_s"] = (statistics.median(traced.walls) * traced.scale
                                   - statistics.median(plain.walls) * plain.scale)
    return metrics, traced, tracer


# ---------------------------------------------------------------------------
# command line


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="how long to repeat passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and build the configs, print 'ready', exit")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**48:
        ap.error("--seed must lie in [0, 2^48)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _report(line: str) -> None:
    print(f"perfbench: {line}")


def main(argv=None, *, size: str = "full") -> int:
    args = parse(argv)
    hb_threads = os.environ.pop("HB_THREADS", None)
    try:
        lib = load_library()
        workload = workloads.build(lib, args.workload, args.seed, size)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    expected = workloads.load_expected(HERE / "expected.json")
    runner = Runner(lib, workload, out_dir, workloads.Checker(lib, expected))
    env = environment(lib, args.workload, args.seed, hb_threads)
    _report("env " + json.dumps(env, sort_keys=True))

    try:
        if args.trace:
            metrics, timings, tracer = per_layer(runner, args.seconds)
        else:
            metrics, timings = end_to_end(runner, args.seconds, SETUP_PROBES[size],
                                          (args.workload, args.seed))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    walls = timings.walls
    if args.trace:
        units = LAYER_UNITS
        layers = tracer.layers()
        for name, agg in sorted(layers.items()):
            _report(f"span {name}: calls={agg['calls'] / len(walls):g}/pass "
                    f"busy={agg['busy_s'] / len(walls):.4f} s "
                    f"self={agg['self_s'] / len(walls):.4f} s")
        top = sum(agg["self_s"] for agg in layers.values())
        _report(f"span self times sum to {top / len(walls):.4f} s/pass; "
                f"mean traced pass wall {sum(walls) / len(walls):.4f} s")
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        with spans_path.open("w") as fh:
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
    else:
        units = END_TO_END_UNITS
        _report(f"setup probes (s): {_seconds(timings.setups)}")
    _report(f"passes={len(walls)} pass wall (s): {_seconds(walls)}")
    _report(f"reference kernel (s): {_seconds(timings.references)}; host scale "
            f"= REFERENCE_S {REFERENCE_S} / median = {timings.scale:.4f}")
    _report(f"kicks per pass ({'computed' if workload.computed_kicks else 'steps column'})"
            f" = {runner.kicks()}")
    failed = len(runner.failures)
    _report(f"failed_ops_ratio = {failed / runner.attempted:g} ratio "
            f"({failed} of {runner.attempted} experiments.run calls)")
    for failure in runner.failures[:20]:
        _report(f"FAILED {failure}")
    for name in units:
        label = " (computed)" if name in COMPUTED else ""
        _report(f"{name} = {metrics[name]!r} {units[name]}{label}")

    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report_path = OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(
        {**result, "env": env, "failures": runner.failures,
         "timings_s": {"passes": walls, "setups": timings.setups,
                       "references": timings.references},
         "host_scale": timings.scale},
        indent=2) + "\n")
    print(json.dumps(result), flush=True)
    return 0


def _seconds(values) -> str:
    return " ".join(f"{v:.4f}" for v in values)


if __name__ == "__main__":
    sys.exit(main())
