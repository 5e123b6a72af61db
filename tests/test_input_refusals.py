"""Every library input that must be a positive scale or a unit state refuses
non-finite values, and names what it refused.

Scales go through ``state_geometry.require_positive`` and states through
``require_state``; each row below is one constructor or entry point that
takes such an input from a caller.
"""

import math
import re

import numpy as np
import pytest

from hilbertbridge import experiments as ex
from hilbertbridge.born_bridge import (TransitionPair, born_normal_equivalence,
                                       fs_euclid_relation)
from hilbertbridge.density_diffusion import DiffusionParams, EvolutionParams
from hilbertbridge.hilbert_core import (ClassicalPath, Grid, KernelSpec, action_functional,
                                        grid_covering)
from hilbertbridge.packet_dynamics import GaussianPacket
from hilbertbridge.position_measurement import (CellState, PositionWalkParams,
                                                magnitude_estimates, run_position_ensemble)
from hilbertbridge.spin_measurement import (SpinWalkParams, lattice_ruin_probability,
                                            pauli_step, run_ensemble)
from hilbertbridge.state_geometry import (BlochPoint, hopf_map, require_anti_hermitian,
                                          require_hermitian, require_positive, require_state)

BAD_SCALES = (0.0, -1.0, math.nan, math.inf)

_PATH = ClassicalPath(times=[0.0, 1.0, 2.0], positions=[0.0, 0.1, 0.2])


def _prepare(experiment, key):
    return lambda v: ex.prepare(ex.ExperimentConfig(experiment, {key: v}))


# row id -> (key the message names, callable taking the bad value)
SCALES = {
    "require_positive": ("x", lambda v: require_positive(x=v)),
    **{f"SpinWalkParams-{k}": (k, lambda v, k=k: SpinWalkParams(
        **{"dt": 0.01, "field_std": 1.0, k: v})) for k in ("dt", "field_std", "mu", "hbar")},
    **{f"PositionWalkParams-{k}": (k, lambda v, k=k: PositionWalkParams(
        **{"tau": 0.01, "v_std": 1.0, k: v})) for k in ("v_std", "hbar")},
    **{f"EvolutionParams-{k}": (k, lambda v, k=k: EvolutionParams(
        **{"dt": 0.01, "steps": 1, k: v})) for k in ("dt", "hbar", "mass")},
    **{f"DiffusionParams-{k}": (k, lambda v, k=k: DiffusionParams(
        **{"diffusivity": 1.0, "walkers": 10_000, "dt": 0.01, "t_final": 1.0, k: v}))
       for k in ("diffusivity", "dt", "t_final")},
    "KernelSpec-sigma": ("sigma", lambda v: KernelSpec(sigma=v)),
    "Grid-spacing": ("spacing", lambda v: Grid([0.0], v, (4,))),
    "grid_covering-spacing": ("spacing",
                              lambda v: grid_covering(KernelSpec(1.0), [[0.0]], spacing=v)),
    **{f"GaussianPacket-{k}": (k, lambda v, k=k: GaussianPacket(
        **{"center": [0.0], "momentum": [0.0], "sigma": 1.0, "mass": 1.0, k: v}))
       for k in ("sigma", "mass", "hbar")},
    **{f"magnitude_estimates-{k}": (k, lambda v, k=k: magnitude_estimates(
        **{"wavelength": 1e-9, "mass": 9.1e-31, "temperature": 500.0, k: v}))
       for k in ("wavelength", "mass", "temperature")},
    "action_functional-mass": ("mass", lambda v: action_functional(
        _PATH, lambda a: 0.0, v, KernelSpec(0.5))),
    "fs_euclid_relation-sigma": ("sigma", lambda v: fs_euclid_relation([0.0], [1.0], v)),
    "born_normal_equivalence-sigma": ("sigma",
                                      lambda v: born_normal_equivalence([0.0], [1.0], v)),
    "lattice_ruin_probability-delta": ("delta",
                                       lambda v: lattice_ruin_probability(0.4, delta=v)),
    **{f"action-equivalence-{k}": (k, _prepare("action-equivalence", k))
       for k in ("omega", "amplitude", "mass", "sigma")},
    **{f"{name}-{k}": (k, _prepare(name, k))
       for name in ("decomposition", "ehrenfest", "continuity")
       for k in ("sigma", "spacing_frac")},
    "born-bridge-sigma": ("sigma", lambda v: ex.prepare(
        ex.ExperimentConfig("born-bridge", {"sigma": v}, seed=1))),
}


@pytest.mark.parametrize("value", BAD_SCALES, ids=["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("key, build", SCALES.values(), ids=SCALES)
def test_scale_refusal_names_the_key(key, build, value):
    with pytest.raises(ValueError, match=rf"(?<!\w){key}(?!\w)"):
        build(value)


@pytest.mark.parametrize("value", (-1.0, math.nan, math.inf))
def test_tau_may_be_zero_but_not_negative_or_non_finite(value):
    assert PositionWalkParams(tau=0.0, v_std=1.0).step_phase == 0.0
    with pytest.raises(ValueError, match="^tau must be finite and nonnegative"):
        PositionWalkParams(tau=value, v_std=1.0)


def test_require_positive_refuses_the_first_bad_scale():
    assert require_positive(a=1.0, b=2) is None
    with pytest.raises(ValueError, match=re.escape("b must be finite, got nan")):
        require_positive(a=1.0, b=math.nan, c=0.0)
    with pytest.raises(ValueError, match=re.escape("c must be positive, got -0.0")):
        require_positive(a=1.0, c=-0.0)


# walk -> (engine, start inside the cap, start outside it, params)
WALKS = {
    "spin": (run_ensemble, np.array([0.0, 1.0]), np.array([1.0, 1.0]) / math.sqrt(2),
             SpinWalkParams(dt=0.01, field_std=1.0)),
    "cell": (run_position_ensemble, CellState([1.0, 0.0]),
             CellState(np.array([1.0, 1.0]) / math.sqrt(2)),
             PositionWalkParams(tau=0.01, v_std=1.0)),
}


@pytest.mark.parametrize("inside", (True, False), ids=["in-cap", "outside"])
@pytest.mark.parametrize("walk", WALKS.values(), ids=WALKS)
def test_walks_return_empty_columns_for_no_trials_and_refuse_negative_counts(walk, inside):
    engine, in_cap, outside, params = walk
    start = in_cap if inside else outside
    columns = engine(start, 0, params)
    assert [len(c) for c in columns] == [0] * len(columns)
    with pytest.raises(ValueError, match=re.escape("trials must be nonnegative, got -5")):
        engine(start, -5, params)


STATES = {
    "require_state": require_state,
    "hopf_map": hopf_map,
    "TransitionPair": lambda v: TransitionPair(v, np.array([1.0, 0.0])),
    "CellState": CellState,
    "pauli_step": lambda v: pauli_step(v, np.zeros(3), SpinWalkParams(dt=0.01, field_std=1.0)),
}


@pytest.mark.parametrize("bad", (math.nan, math.inf, complex(0.0, math.inf)),
                         ids=["nan", "inf", "imag-inf"])
@pytest.mark.parametrize("build", STATES.values(), ids=STATES)
def test_state_refusal_names_finiteness(build, bad):
    with pytest.raises(ValueError, match="state must be finite"):
        build(np.array([bad, 1.0]))


@pytest.mark.parametrize("bad", (math.nan, math.inf), ids=["nan", "inf"])
def test_matrices_and_bloch_points_refuse_non_finite(bad):
    with pytest.raises(ValueError, match="observable must be finite"):
        require_hermitian(np.full((2, 2), bad))
    with pytest.raises(ValueError, match="generator must be finite"):
        require_anti_hermitian(np.full((2, 2), bad))
    with pytest.raises(ValueError, match="is not 1"):
        BlochPoint(bad, 0.0, 0.0)


def test_state_size_is_checked():
    assert hopf_map(np.array([1.0, 0.0])).z == -1.0
    with pytest.raises(ValueError, match="dimension 2, got shape"):
        hopf_map(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="dimension ≥ 2, got shape"):
        require_state(np.array([1.0]))
