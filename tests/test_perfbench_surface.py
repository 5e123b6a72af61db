"""The library surface the benchmark uses, checked in the fast suite.

``perfbench/tracing.py`` rebinds library functions by module and name, and
the replay gate in ``perfbench/workloads.py`` builds walk parameters by
keyword, so a deleted or renamed name would otherwise fail only in a
benchmark run.  Both files are compiled from their text: nothing under
``perfbench/`` is imported as a package or written.
"""

import importlib
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from hilbertbridge import experiments as ex
from hilbertbridge import stats_util

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _files():
    return sorted((p, p.stat().st_mtime_ns) for p in PERFBENCH.rglob("*"))


def _compiled(monkeypatch, name: str):
    """``perfbench/<name>.py`` as a fresh module; the directory stays as it was."""
    before = _files()
    module = types.ModuleType(f"perfbench_{name}")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    path = PERFBENCH / f"{name}.py"
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    yield module
    assert _files() == before


@pytest.fixture
def tracing(monkeypatch):
    yield from _compiled(monkeypatch, "tracing")


@pytest.fixture
def workloads(monkeypatch):
    yield from _compiled(monkeypatch, "workloads")


def _bindings():
    """Every callable a library module holds, ``RngStream.generator`` and the registry."""
    held = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.startswith("hilbertbridge")
        for attr, value in vars(module).items()
        if callable(value)
    }
    held["RngStream.generator"] = stats_util.RngStream.__dict__["generator"]
    return held, dict(ex.REGISTRY)


def test_every_traced_name_resolves(tracing):
    for module, attr in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"hilbertbridge.{module}"), attr))


def test_tracer_restores_every_rebound_name(tracing, tmp_path):
    # the first generator a process opens imports hilbertbridge._philox
    stats_util.RngStream(0).generator()
    before = _bindings()
    cfg = ex.ExperimentConfig("position-born", {"n_cells": 2}, seed=1, trials=4,
                              output_dir=str(tmp_path))
    with tracing.Tracer() as tracer:
        assert _bindings() != before
        ex.run(cfg)
    layers = tracer.layers()
    assert layers["experiments.runner"]["calls"] == 1
    assert layers["position_measurement.run_position_ensemble"]["calls"] == 1
    assert _bindings() == before


@pytest.mark.parametrize("workload", ["spin-born", "cell-born-n8"])
def test_replay_gate_accepts_the_walk_outputs(workloads, tmp_path, workload):
    # seeds from 40 have no recorded digest, so the gate replays sampled
    # trials through SpinWalkParams/PositionWalkParams and the scalar walks
    lib = types.SimpleNamespace(np=np, **{
        name: importlib.import_module(f"hilbertbridge.{name}")
        for name in ("experiments", "spin_measurement", "position_measurement", "stats_util")
    })
    (op,) = workloads.build(lib, workload, seed=40, size="tiny").ops
    ex.run(workloads.config(lib, op, tmp_path))
    checker = workloads.Checker(lib, {})
    assert checker.check(op, tmp_path) is None
    assert checker.kicks(op) > 0
