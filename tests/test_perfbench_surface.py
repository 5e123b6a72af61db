"""The library names the benchmark's tracer rebinds, checked in the fast suite.

``perfbench/tracing.py`` rebinds library functions by module and name, so a
deleted or renamed name would otherwise fail only in a traced benchmark run.
The tracer is compiled from its text: nothing under ``perfbench/`` is
imported as a package or written.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

from hilbertbridge import experiments as ex
from hilbertbridge import stats_util

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _files():
    return sorted((p, p.stat().st_mtime_ns) for p in PERFBENCH.rglob("*"))


@pytest.fixture
def tracing(monkeypatch):
    """``perfbench/tracing.py`` as a fresh module; the directory stays as it was."""
    before = _files()
    module = types.ModuleType("perfbench_tracing")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    path = PERFBENCH / "tracing.py"
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    yield module
    assert _files() == before


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
