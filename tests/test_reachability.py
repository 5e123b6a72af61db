"""Every library function runs in the registry, the CLI or the benchmark, or says why not.

A fresh interpreter with ``HB_THREADS=1`` (so no walk forks) installs a
profiler before it imports ``hilbertbridge``, so calls made at import count.
It runs every registry experiment at the sizes of
``test_experiments.SMALL_RUNS``, then ``hb list``, ``hb validate`` and one
``hb`` run, and reports the module-level functions and methods defined under
``src/`` that never ran.  Each of those must be a name the benchmark uses,
read from the text of ``perfbench/tracing.py`` and ``perfbench/workloads.py``,
or sit on ``ALLOWED`` with the reason it is kept.  An ``ALLOWED`` entry that
now runs, or no longer exists, fails as well, so the list cannot go stale.
The probe is itself checked on a copy of the library with unused functions,
methods and properties planted in it.
"""

import ast
import functools
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_experiments import SMALL_RUNS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"

# module.qualname → why it stays though no experiment or CLI path reaches it
_ORACLE = "oracle of test_path_speed_matches_state_finite_difference"
_REFERENCE_WALK = "per-kick oracle of tests/reference_walks.py"
ALLOWED = {
    "hilbert_core.inner_h": _ORACLE,
    "hilbert_core.rho_sigma_apply": _ORACLE,
    "hilbert_core.delta_approximant": _ORACLE,
    "hilbert_core.kernel_k": _ORACLE,
    "hilbert_core._axis_convolve": _ORACLE,
    "hilbert_core.KernelSpec.delta_width": "width of delta_approximant, an oracle",
    "hilbert_core._check_same_grid": "grid check of inner_l2 (benchmark) and inner_h (oracle)",
    "hilbert_core.GridWaveFunction.l2_norm": "the norm the propagator and packet tests check",
    "state_geometry.hopf_map": "Bloch-sphere oracle of the spin and geometry tests",
    "state_geometry.BlochPoint.__post_init__": "Bloch-sphere oracle of the spin and geometry tests",
    "state_geometry.BlochPoint.as_array": "Bloch-sphere oracle of the spin and geometry tests",
    "state_geometry.observable_field": "paper claim tested: observables as tangent fields",
    "packet_dynamics.phase_space_speed":
        "paper claim tested: the Fubini–Study line element of the coherent family",
    "packet_dynamics.PotentialField.harmonic": "potential of the propagator and decomposition tests",
    "spin_measurement.pauli_step": _REFERENCE_WALK,
    "spin_measurement.sample_field": _REFERENCE_WALK,
    "spin_measurement._as_field": "field check of pauli_step and sample_field",
    "position_measurement.isotropic_step": _REFERENCE_WALK,
    "spin_measurement.lattice_ruin_probability": "acceptance test c02",
    "packet_dynamics.projective_evolution_speed": "acceptance test c06",
    "position_measurement.run_diagonal_walk": "acceptance test c10",
    "stats_util.two_proportion_z": "acceptance test c09's N = 2 cross-check",
    "stats_util._send_windows": "runs only in a forked range",
    "stats_util._received": "runs only when a forked range sends a window",
    "_ksstats._kolmogn_pomeranz": "exact KS branch of scipy's kstwo for small samples",
    "_ksstats._pomeranz_j1j2": "exact KS branch of scipy's kstwo for small samples",
    "stats_util.chi_square_gof": "position-born's χ² test, run once enough trials resolve",
    "position_measurement.CellState.probabilities": "Born weights of position-born's χ² test",
    "stats_util.TestReport.passed": "verdict acceptance test c09 reads; experiments read p-values",
    "spin_measurement.IsotropyReport.passed": "verdict of isotropy_test; experiments read p-values",
    "born_bridge.ExtensionReport.passed":
        "verdict of isotropic_extension_check; born-bridge reads max_deviation",
    "position_measurement._EighKick.keep":
        "kicked_windows' compaction step; the free state-msd walk drops no trial",
}

# Run in a fresh interpreter: argv[1] is the source directory, argv[2] the
# JSON of SMALL_RUNS, or null to import the library and run nothing.  Prints
# {"defined": [...], "unreached": [...]}.
_CHILD = r"""
import contextlib, importlib, inspect, io, json, sys, tempfile
from pathlib import Path

src, sizes = Path(sys.argv[1]).resolve(), json.loads(sys.argv[2])
ran = set()


def profile(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)


sys.setprofile(profile)
from hilbertbridge import cli, experiments as ex

if sizes is not None:
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        sections = []
        for name, entry in ex.REGISTRY.items():
            trials, parameters = sizes.get(name, (None, {}))
            cfg = ex.ExperimentConfig(name, parameters, seed=7 if entry.stochastic else None,
                                      trials=trials, output_dir=out)
            ex.run(cfg)
            lines = [f"[{name}]", f"trials = {cfg.resolved_trials}",
                     *([f"seed = {cfg.seed}"] if entry.stochastic else []),
                     *(f"{key} = {value}" for key, value in parameters.items())]
            sections.append("\n".join(lines))
        good, bad = Path(out, "good.conf"), Path(out, "bad.conf")
        good.write_text("\n\n".join(sections) + "\n")
        bad.write_text("[diffusion]\nseed = 1\ntrials = 8\ndt = 0\n")
        assert cli.main(["list"]) == 0
        assert cli.main(["validate", str(good)]) == 0
        assert cli.main(["validate", str(bad)]) == 1
        assert cli.main(["spin-born", "--config", str(good), "--format", "json",
                         "--output-dir", out]) in (0, 1)
sys.setprofile(None)

for path in sorted(src.glob("hilbertbridge/*.py")):
    importlib.import_module(f"hilbertbridge.{path.stem}".removesuffix(".__init__"))


def functions(namespace, module, seen):
    for value in vars(namespace).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            yield from (f for f in (value.fget, value.fset, value.fdel) if f is not None)
        elif callable(value) and inspect.isfunction(inspect.unwrap(value)):
            yield inspect.unwrap(value)  # functools.cache wrappers are no functions
        elif inspect.isclass(value) and value.__module__ == module and value not in seen:
            seen.add(value)
            yield from functions(value, module, seen)


defined = {}
for name, module in list(sys.modules.items()):
    if name.startswith("hilbertbridge"):
        for f in functions(module, name, set()):
            if Path(f.__code__.co_filename).resolve().is_relative_to(src):
                key = f.__module__.removeprefix("hilbertbridge.") + "." + f.__qualname__
                defined[f.__code__] = key
print(json.dumps({"defined": sorted(defined.values()),
                  "unreached": sorted(k for c, k in defined.items() if c not in ran)}))
"""


def _key(module: str, attr: str) -> str | None:
    """``module.qualname`` of library function or class ``module.attr``, where it is defined."""
    if not (SRC / "hilbertbridge" / f"{module}.py").is_file():
        return None  # numpy and the like
    value = getattr(importlib.import_module(f"hilbertbridge.{module}"), attr)
    if not hasattr(value, "__qualname__"):
        return None  # the registry and other data
    return value.__module__.removeprefix("hilbertbridge.") + "." + value.__qualname__


@functools.cache
def _perfbench_names() -> frozenset[str]:
    """Library names perfbench rebinds (``TRACED``) or calls through ``lib``."""
    pairs = set()
    for node in ast.walk(ast.parse((PERFBENCH / "tracing.py").read_text())):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                 for t in node.targets):
            pairs |= set(ast.literal_eval(node.value))
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    # names bound to lib.<module>, e.g. ``np, sm = lib.np, lib.spin_measurement``
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target, value in _bound(node.targets[0], node.value):
                if _is_lib(value) and isinstance(target, ast.Name):
                    aliases[target.id] = value.attr
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in aliases:
            pairs.add((aliases[node.value.id], node.attr))
        elif _is_lib(node.value):
            pairs.add((node.value.attr, node.attr))
    return frozenset(key for pair in pairs if (key := _key(*pair)) is not None)


def _bound(target, value):
    if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
        return zip(target.elts, value.elts)
    return [(target, value)]


def _is_lib(node) -> bool:
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "lib")


def _probe(src: Path, sizes) -> tuple[set[str], set[str]]:
    """``(defined, unreached)`` of the library under ``src`` after the child's run."""
    env = {**os.environ, "HB_THREADS": "1", "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _CHILD, str(src), json.dumps(sizes)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    return set(out["defined"]), set(out["unreached"])


def _unexplained(unreached, allowed=ALLOWED) -> list[str]:
    return sorted(unreached - set(allowed) - _perfbench_names())


def _stale(defined, unreached, allowed=ALLOWED) -> list[str]:
    return sorted(k for k in allowed
                  if k not in defined or k not in unreached or k in _perfbench_names())


@pytest.fixture(scope="module")
def reach():
    return _probe(SRC, SMALL_RUNS)


def test_perfbench_names_are_read_from_its_files():
    names = _perfbench_names()
    assert "spin_measurement.run_ensemble" in names  # TRACED
    assert "experiments.ExperimentConfig" in names  # lib.experiments.ExperimentConfig
    assert "spin_measurement.SpinWalkParams" in names  # sm = lib.spin_measurement


def test_every_unreached_function_is_allowed(reach):
    _, unreached = reach
    unexplained = _unexplained(unreached)
    assert not unexplained, f"nothing reaches {unexplained}: delete them or allow them"


def test_every_allowed_function_exists_and_is_unreached(reach):
    defined, unreached = reach
    stale = _stale(defined, unreached)
    assert not stale, f"allowed but gone, reached or a benchmark name: {stale}"


# ---------------------------------------------------------------------------
# the probe itself, on a copy of the library with code planted in stats_util

_PLANTED = """

import functools as _planted_functools


def _planted_function():
    pass


@_planted_functools.cache
def _planted_cached():
    pass


class _Planted:
    def method(self):
        pass

    @staticmethod
    def static():
        pass

    @classmethod
    def klass(cls):
        pass

    @property
    def prop(self):
        pass

    class Inner:
        def method(self):
            pass


def _planted_at_import():
    return 0


_planted_at_import()
"""

PLANTED = {
    "function": "_planted_function",
    "cached": "_planted_cached",
    "method": "_Planted.method",
    "staticmethod": "_Planted.static",
    "classmethod": "_Planted.klass",
    "property": "_Planted.prop",
    "nested-class-method": "_Planted.Inner.method",
}


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """``(defined, unreached)`` of a planted copy that is imported and never run."""
    src = tmp_path_factory.mktemp("planted") / "src"
    shutil.copytree(SRC / "hilbertbridge", src / "hilbertbridge",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "hilbertbridge" / "stats_util.py", "a") as module:
        module.write(_PLANTED)
    return _probe(src, None)


@pytest.mark.parametrize("qualname", PLANTED.values(), ids=PLANTED)
def test_planted_unused_code_fails_the_guard(planted, qualname):
    defined, unreached = planted
    key = f"stats_util.{qualname}"
    assert key in defined
    assert key in _unexplained(unreached)


def test_calls_made_at_import_count_as_reached(planted):
    defined, unreached = planted
    assert "stats_util._planted_at_import" in defined
    assert "stats_util._planted_at_import" not in unreached


@pytest.mark.parametrize("key", [
    "stats_util._no_such_function",
    "stats_util._planted_at_import",
    "spin_measurement.run_ensemble",
], ids=["gone", "reached", "benchmark-name"])
def test_stale_allowed_entry_fails_the_guard(planted, key):
    defined, unreached = planted
    allowed = {"stats_util._planted_function": "kept", key: "stale"}
    assert _stale(defined, unreached, allowed) == [key]
