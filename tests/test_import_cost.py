"""Loading the library imports no numpy.random, and neither it nor the two
measurement walks import a scipy submodule; each is imported by the function
that needs it, and no experiment or kernel-space convolution imports
scipy.stats or scipy.signal."""

import json
import os
import subprocess
import sys
from pathlib import Path

from hilbertbridge import experiments

# the submodules that cost most of a cold start (scipy._lib._util pulls in
# numpy.f2py, numpy.testing and numpy.ma)
HEAVY = ("scipy.linalg", "scipy.constants", "scipy.special", "scipy.stats",
         "scipy.signal", "scipy._lib._util")

# every experiment at its smallest accepted sizes, the two walks first
RUNS = [("spin-born", {"max_steps": 2000}, 8),
        ("position-born", {"n_cells": 8, "max_steps": 40}, 8),
        ("isotropy", {"n_cells": 3}, 100),
        ("diffusion", {}, 1),
        ("state-msd", {"n_steps": 1}, 100),
        ("uncertainty-identity", {}, 2),
        ("born-bridge", {}, 2)]

_PROBE = """
import json, sys
from hilbertbridge import cli, experiments, hilbert_core

loaded = {"import": sorted(sys.modules)}
for name, params, trials in json.loads(sys.argv[2]):
    experiments.run(experiments.ExperimentConfig(
        name, params, seed=3, trials=trials, output_dir=sys.argv[1]))
    loaded[name] = sorted(sys.modules)
for name, entry in experiments.REGISTRY.items():
    if not entry.stochastic:
        experiments.run(experiments.ExperimentConfig(name, output_dir=sys.argv[1]))
        loaded[name] = sorted(sys.modules)
spec = hilbert_core.KernelSpec(sigma=1.0)
psi = hilbert_core.delta_approximant(
    [0.0], hilbert_core.grid_covering(spec, [[0.0]], spacing=0.01), spec)
hilbert_core.inner_h(psi, psi, spec)
hilbert_core.rho_sigma_apply(psi, spec)
loaded["kernel convolutions"] = sorted(sys.modules)
print(json.dumps(loaded))
"""


def test_library_and_walks_load_no_heavy_scipy_module(tmp_path):
    src = Path(experiments.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "HB_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path), json.dumps(RUNS)],
                         env=env, capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert set(loaded) == {"import", *experiments.REGISTRY, "kernel convolutions"}
    heavy = {stage: sorted(set(HEAVY) & set(loaded[stage]))
             for stage in ("import", "spin-born", "position-born")}
    assert heavy == {"import": [], "spin-born": [], "position-born": []}
    assert "hilbertbridge._ksstats" not in loaded["import"]
    # RngStream imports numpy.random on its first generator
    assert [name for name in loaded["import"] if name.split(".")[:2] == ["numpy", "random"]] == []
    # kstest, chi.cdf, linregress and fftconvolve are ported: scipy.stats
    # alone is about 70 MB of RSS
    assert {stage: sorted({"scipy.stats", "scipy.signal"} & set(modules))
            for stage, modules in loaded.items()} == dict.fromkeys(loaded, [])
    for name in experiments.REGISTRY:
        assert (tmp_path / f"{name}-summary.json").is_file()


def test_electron_mass_literal_is_scipys():
    from scipy import constants

    assert experiments._ELECTRON_MASS == constants.m_e
    assert experiments.REGISTRY["estimates"].schema["mass"] == constants.m_e
