"""Loading the library and walking its two measurement walks import no
scipy submodule; each is imported by the function that needs it."""

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

_PROBE = """
import json, sys
from hilbertbridge import cli, experiments

loaded = {"import": sorted(sys.modules)}
for name, params in (("spin-born", {"max_steps": 2000}),
                     ("position-born", {"n_cells": 8, "max_steps": 40})):
    experiments.run(experiments.ExperimentConfig(
        name, params, seed=3, trials=8, output_dir=sys.argv[1]))
    loaded[name] = sorted(sys.modules)
print(json.dumps(loaded))
"""


def test_library_and_walks_load_no_heavy_scipy_module(tmp_path):
    src = Path(experiments.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "HB_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = {stage: sorted(set(HEAVY) & set(modules))
              for stage, modules in json.loads(out).items()}
    assert loaded == {"import": [], "spin-born": [], "position-born": []}
    assert (tmp_path / "position-born-summary.json").is_file()


def test_electron_mass_literal_is_scipys():
    from scipy import constants

    assert experiments._ELECTRON_MASS == constants.m_e
    assert experiments.REGISTRY["estimates"].schema["mass"] == constants.m_e
