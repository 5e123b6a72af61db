"""Named, reproducible experiments binding the library to its claims.

Each experiment draws its randomness from (seed, trial) substreams, returns
per-trial rows plus a list of pass/fail checks against reference values, and
is deterministic for a fixed config at any worker count.  The CLI in
:mod:`hilbertbridge.cli` is a thin shell around :func:`run`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import time
from pathlib import Path
from typing import Callable

import numpy as np

from hilbertbridge import (
    born_bridge,
    density_diffusion,
    hilbert_core,
    packet_dynamics,
    position_measurement,
    spin_measurement,
    state_geometry,
)
from hilbertbridge.stats_util import (MIN_DIRECTION_SAMPLES, RngStream, SparseTableError,
                                      check_seed, chi_square_gof, ks_test, linear_fit,
                                      range_processes, resolve_workers, walk_ranges)

__all__ = [
    "CriterionCheck",
    "ExperimentConfig",
    "MemoryBudgetError",
    "OutputFormat",
    "RunSummary",
    "catalog",
    "prepare",
    "run",
    "write_outputs",
]


# ---------------------------------------------------------------------------
# config and result types


class OutputFormat:
    CSV = "csv"
    JSON = "json"


def _coerce(default, raw):
    """``raw`` as a value of ``default``'s type, int or float.

    An int refuses bools and fractions; a float refuses non-finite values.
    """
    if isinstance(default, int):
        if isinstance(raw, bool):
            raise ValueError("expected an integer")
        if isinstance(raw, str):
            return int(raw, 0)
        if isinstance(raw, float) and not raw.is_integer():
            raise ValueError(f"expected an integer, got {raw}")
        return int(raw)
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


@dataclasses.dataclass(frozen=True)
class CriterionCheck:
    """One measured value against its reference.

    ``mode`` decides the comparison: ``abs`` |m−r| ≤ tol, ``rel``
    |m−r| ≤ tol·|r|, ``ge`` m ≥ r, ``le`` m ≤ r.  ``source`` records where
    the reference comes from: ``closed-form`` (a formula proven in the
    module docs/tests), ``definition`` (true by construction), or
    ``oracle`` (an independent numerical computation).
    """

    name: str
    measured: float
    reference: float
    tolerance: float
    mode: str
    source: str

    @property
    def passed(self) -> bool:
        if self.mode == "abs":
            return abs(self.measured - self.reference) <= self.tolerance
        if self.mode == "rel":
            return abs(self.measured - self.reference) <= self.tolerance * abs(self.reference)
        if self.mode == "ge":
            return self.measured >= self.reference
        if self.mode == "le":
            return self.measured <= self.reference
        raise ValueError(f"unknown check mode {self.mode!r}")

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self), "passed": self.passed}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    parameters: dict = dataclasses.field(default_factory=dict)
    seed: int | None = None
    trials: int | None = None
    output_dir: str = "hb-output"
    format: str = OutputFormat.CSV

    def __post_init__(self) -> None:
        if self.experiment not in REGISTRY:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        entry = REGISTRY[self.experiment]
        resolved = {}
        for key, default in entry.schema.items():
            raw = self.parameters.get(key, default)
            try:
                resolved[key] = _coerce(default, raw)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"parameter {key!r}: {exc}") from exc
        unknown = sorted(set(self.parameters) - set(entry.schema))
        if unknown:
            raise ValueError(f"unknown parameters of {self.experiment}: unknown key "
                             + ", ".join(map(repr, unknown)))
        object.__setattr__(self, "parameters", resolved)
        if entry.stochastic and self.seed is None:
            raise ValueError(f"missing 'seed': {self.experiment} is stochastic")
        if self.seed is not None:
            check_seed(self.seed)
        if self.format not in (OutputFormat.CSV, OutputFormat.JSON):
            raise ValueError(f"unknown output format {self.format!r}")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be positive")

    @property
    def resolved_seed(self) -> int:
        return 0 if self.seed is None else int(self.seed)

    @property
    def resolved_trials(self) -> int:
        if self.trials is not None:
            return int(self.trials)
        return REGISTRY[self.experiment].default_trials


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    columns: tuple
    rows: list
    checks: list


@dataclasses.dataclass(frozen=True)
class RunSummary:
    experiment: str
    parameters: dict
    seed: int
    trials: int
    checks: list
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        # wall time deliberately excluded: the JSON summary must be
        # byte-identical across reruns of the same config
        return {
            "experiment": self.experiment,
            "parameters": dict(sorted(self.parameters.items())),
            "seed": self.seed,
            "trials": self.trials,
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
        }


@dataclasses.dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    topic: str
    schema: dict  # parameter name -> default; the default's type is the kind
    stochastic: bool
    default_trials: int
    # called as runner(config, *inputs(config))
    runner: Callable[..., ExperimentResult]
    # the library inputs of a run, built without running it; refuses what the
    # library refuses and runs over the memory budget
    inputs: Callable[[ExperimentConfig], tuple]


def _check(name, measured, reference, tolerance, mode, source) -> CriterionCheck:
    return CriterionCheck(name, float(measured), float(reference), float(tolerance),
                          mode, source)


# ---------------------------------------------------------------------------
# measurement experiments


def _spinor_at_height(z: float) -> np.ndarray:
    if not -1.0 <= z <= 1.0:
        raise ValueError("z must lie in [-1, 1]")
    return np.array([math.sqrt((1 - z) / 2), math.sqrt((1 + z) / 2)], dtype=complex)


def _stop_rule(cfg: ExperimentConfig) -> dict:
    """A walk's absorb_eps and max_steps where the schema has them."""
    return {key: cfg.parameters[key] for key in ("absorb_eps", "max_steps")
            if key in cfg.parameters}


def _spin_params(cfg: ExperimentConfig) -> spin_measurement.SpinWalkParams:
    return spin_measurement.SpinWalkParams(
        dt=cfg.parameters["step_angle"], field_std=1.0, seed=cfg.resolved_seed,
        **_stop_rule(cfg),
    )


def _cell_params(cfg: ExperimentConfig) -> position_measurement.PositionWalkParams:
    p = cfg.parameters
    return position_measurement.PositionWalkParams(
        tau=p["tau"], v_std=p["v_std"], seed=cfg.resolved_seed, **_stop_rule(cfg)
    )


# bytes of one trial's row tuple and output text (measured per trial between
# 5·10⁵ and 2·10⁶ trials: spin-born CSV 330, JSON 1300; position-born CSV 200)
_ROW_BYTES = {OutputFormat.CSV: 400, OutputFormat.JSON: 1400}


def _require_budget(need: float, what: str, remedy: str) -> None:
    """Refuse a run planned to need ``need`` bytes, over :func:`memory_budget`."""
    budget = memory_budget()
    if need > budget:
        raise MemoryBudgetError(
            f"{what} needs about {need / 2**30:.1f} GiB, over the "
            f"{budget / 2**30:.1f} GiB budget (half of physical memory); {remedy}"
        )


def _require_parts(cfg: ExperimentConfig, parts: dict) -> None:
    """:func:`_require_budget` of bytes keyed by remedy; the largest part's remedy is named."""
    _require_budget(sum(parts.values()), cfg.experiment, max(parts, key=parts.get))


def _require_memory(cfg: ExperimentConfig, walk_bytes: int) -> None:
    """Refuse a run whose walk and output rows exceed :func:`memory_budget`."""
    _require_budget(walk_bytes + _ROW_BYTES[cfg.format] * cfg.resolved_trials,
                    f"{cfg.experiment} with {cfg.resolved_trials} trials", "lower --trials")


def _spin_born_inputs(cfg: ExperimentConfig) -> tuple:
    _require_memory(cfg, spin_measurement.ensemble_bytes(cfg.resolved_trials))
    return _spin_params(cfg), _spinor_at_height(cfg.parameters["z0"])


def _run_spin_born(cfg: ExperimentConfig, params, phi0) -> ExperimentResult:
    p = cfg.parameters
    trials = cfg.resolved_trials
    results, steps, finals = spin_measurement.run_ensemble(phi0, trials, params)

    final_z = np.abs(finals[:, 1]) ** 2 - np.abs(finals[:, 0]) ** 2
    rows = [
        (t, results[t].value, int(steps[t]), float(final_z[t]))
        for t in range(trials)
    ]
    n_down = int(np.sum(results == spin_measurement.WalkResult.DOWN))
    p_down = n_down / trials
    reference = (1.0 - p["z0"]) / 2.0
    tol = 3.0 * math.sqrt(max(reference * (1 - reference), 1e-12) / trials) + 0.01
    checks = [
        _check("p_down_height_rule", p_down, reference, tol, "abs", "closed-form"),
    ]
    return ExperimentResult(("trial", "result", "steps", "final_z"), rows, checks)


def _position_born_inputs(cfg: ExperimentConfig) -> tuple:
    # the budget first: it bounds n_cells before the start is drawn
    n = int(cfg.parameters["n_cells"])
    _require_memory(cfg, position_measurement.ensemble_bytes(cfg.resolved_trials, n))
    params = _cell_params(cfg)
    # fixed-seed start amplitudes from a reserved substream
    gen = RngStream(cfg.resolved_seed, 2**63).generator()
    raw = gen.normal(size=n) + 1j * gen.normal(size=n)
    return params, position_measurement.CellState(raw / np.linalg.norm(raw))


def _run_position_born(cfg: ExperimentConfig, params, state0) -> ExperimentResult:
    n = len(state0)
    trials = cfg.resolved_trials
    cells, steps = position_measurement.run_position_ensemble(state0, trials, params)
    rows = [(t, int(cells[t]), int(steps[t])) for t in range(trials)]

    resolved = cells >= 0
    n_resolved = int(resolved.sum())
    # too few resolved trials, or too few cells left once sparse cells are
    # merged, to test the distribution
    p_value = 0.0
    if n_resolved >= 5 * n:
        counts = np.bincount(cells[resolved], minlength=n)
        with contextlib.suppress(SparseTableError):
            p_value = chi_square_gof(counts, state0.probabilities, alpha=0.001).p_value
    checks = [
        _check("chi_square_p_value", p_value, 0.001, 0.0, "ge", "definition"),
        _check(
            "resolved_fraction", n_resolved / trials, 0.5, 0.0, "ge", "definition"
        ),
    ]
    return ExperimentResult(("trial", "cell", "steps"), rows, checks)


def _at_least(key: str, value: int, floor: int) -> int:
    """``value`` of parameter ``key``, refused below the library's ``floor``."""
    if value < floor:
        raise ValueError(f"{key} must be at least {floor}, got {value}")
    return value


def _isotropy_inputs(cfg: ExperimentConfig) -> tuple:
    p = cfg.parameters
    trials = _at_least("trials", cfg.resolved_trials, MIN_DIRECTION_SAMPLES)
    samples = _at_least("samples", int(p["samples"]), position_measurement.MIN_DIAGNOSTIC_SAMPLES)
    n = _at_least("n_cells", int(p["n_cells"]), position_measurement.MIN_DIAGNOSTIC_CELLS)
    # two normal planes and a GUE stack, 32 bytes a sample and N² (34 traced at N = 4)
    _require_parts(cfg, {"lower samples or n_cells": 48 * samples * n * n,
                         "lower --trials": _ROW_BYTES[cfg.format] * trials})
    uniform = np.full(n, 1 / math.sqrt(n), dtype=complex)
    return (_spin_params(cfg), _cell_params(cfg),
            position_measurement.CellState(uniform))


def _run_isotropy(cfg: ExperimentConfig, spin_params, pos_params,
                  state) -> ExperimentResult:
    p = cfg.parameters
    report = spin_measurement.isotropy_test(_spinor_at_height(0.0),
                                            cfg.resolved_trials, spin_params)
    rows = [(i, float(d[0]), float(d[1])) for i, d in enumerate(report.displacements)]

    n_cells = len(state)
    diag = position_measurement.velocity_isotropy_diagnostic(
        state,
        samples=int(p["samples"]),
        rng=RngStream(cfg.resolved_seed, 1).generator(),
        params=pos_params,
    )
    eig = diag.covariance_eigenvalues
    checks = [
        _check("spin_direction_p", report.direction.p_value,
               report.direction.alpha, 0.0, "ge", "definition"),
        _check("spin_axial_p", report.axial.p_value,
               report.axial.alpha, 0.0, "ge", "definition"),
        _check("spin_component_ks_p", min(r.p_value
               for r in report.component_normality),
               report.component_normality[0].alpha, 0.0, "ge", "closed-form"),
        _check("velocity_rank", diag.rank, 2 * (n_cells - 1), 0.0,
               "abs", "closed-form"),
        _check("velocity_eigen_ratio", float(eig[0] / eig[-1]), 1.6, 0.0,
               "le", "definition"),
    ]
    return ExperimentResult(("kick", "tangent_x", "tangent_y"), rows, checks)


# ---------------------------------------------------------------------------
# geometry experiments


def _curvature_inputs(cfg: ExperimentConfig) -> tuple:
    levels = int(cfg.parameters["levels"])
    # eight complex levels² matrices; the traced peak is 81–86 bytes a levels²
    _require_budget(128 * levels**2, f"curvature at {levels} levels", "lower levels")
    return state_geometry.oscillator_matrices(levels)


def _run_curvature(cfg: ExperimentConfig, x_op, p_op) -> ExperimentResult:
    n = len(x_op)
    phi = np.array([1.0, 0.0], dtype=complex)
    spin_curv = state_geometry.state_sectional_curvature(
        state_geometry.PAULI_X, state_geometry.PAULI_Y, phi
    )

    vacuum = np.zeros(n, dtype=complex)
    vacuum[0] = 1.0
    osc_curv = state_geometry.state_sectional_curvature(x_op, p_op, vacuum)

    gen_x = -0.5j * state_geometry.PAULI_X
    gen_y = -0.5j * state_geometry.PAULI_Y
    base = state_geometry.sectional_curvature(gen_x, gen_y)
    scaled = state_geometry.sectional_curvature(2.7 * gen_x, 0.31 * gen_y)

    rows = [
        ("spin_xy_plane", float(spin_curv)),
        (f"oscillator_vacuum_n{n}", float(osc_curv)),
        ("generator_plane", float(base)),
        ("generator_plane_rescaled", float(scaled)),
    ]
    checks = [
        _check("spin_curvature", spin_curv, 1.0, 1e-12, "abs", "closed-form"),
        _check("oscillator_curvature", osc_curv, 1.0, 1e-10, "abs", "closed-form"),
        _check("rescale_invariance", abs(scaled - base), 0.0, 1e-12,
               "abs", "closed-form"),
    ]
    return ExperimentResult(("case", "curvature"), rows, checks)


def _uncertainty_inputs(cfg: ExperimentConfig) -> tuple:
    # each instance draws its level count from 2 … max_levels
    max_levels = _at_least("max_levels", int(cfg.parameters["max_levels"]), 2)
    # an instance of n levels holds about five complex n² planes (80 bytes
    # a level², traced), and its seven-column row twice a walk's
    _require_parts(cfg, {"lower max_levels": 96 * max_levels**2,
                         "lower --trials": 2 * _ROW_BYTES[cfg.format] * cfg.resolved_trials})
    return (max_levels,)


def _run_uncertainty(cfg: ExperimentConfig, max_levels: int) -> ExperimentResult:
    rows = []
    worst_rel = 0.0
    min_slack = math.inf
    for k in range(cfg.resolved_trials):
        gen = RngStream(cfg.resolved_seed, k).generator()
        n = int(gen.integers(2, max_levels + 1))
        # real part, then imaginary part: the recorded outputs keep this order
        a, b = (position_measurement.hermitian_generator(
            gen.normal(size=(n, n)), gen.normal(size=(n, n))) for _ in range(2))
        phi = gen.normal(size=n) + 1j * gen.normal(size=n)
        phi = phi / np.linalg.norm(phi)
        product, area_sq, inner_sq = state_geometry.uncertainty_identity(a, b, phi)
        rel = abs(product - (area_sq + inner_sq)) / product
        commutator_term = 0.25 * abs(np.vdot(phi, (a @ b - b @ a) @ phi)) ** 2
        slack = product - commutator_term
        worst_rel = max(worst_rel, rel)
        min_slack = min(min_slack, slack)
        rows.append((k, n, product, area_sq, inner_sq, rel, slack))
    checks = [
        _check("max_identity_deviation", worst_rel, 1e-10, 0.0, "le",
               "closed-form"),
        _check("min_inequality_slack", min_slack, -1e-12, 0.0, "ge",
               "closed-form"),
    ]
    return ExperimentResult(
        ("instance", "levels", "variance_product", "area_sq", "inner_sq",
         "rel_deviation", "slack"),
        rows,
        checks,
    )


# ---------------------------------------------------------------------------
# packet dynamics experiments


def _packet_and_grid(sigma, momentum, mass, spacing_frac, half_width_sigmas=10.0):
    pkt = packet_dynamics.GaussianPacket(
        center=np.array([0.0]),
        momentum=np.array([momentum]),
        sigma=sigma,
        mass=mass,
    )
    spec = hilbert_core.KernelSpec(sigma=sigma, dim=1)
    grid = hilbert_core.grid_covering(
        spec, [[0.0]], spacing=spacing_frac * sigma,
        margin=half_width_sigmas * sigma,
    )
    return pkt, grid


# traced peak bytes per grid point of a packet run; ehrenfest, the largest of
# the three, peaks at 112 at 10⁵ and 10⁶ points and 119 at 2·10⁴
_GRID_POINT_BYTES = 128


def _packet_inputs(cfg: ExperimentConfig, half_width_sigmas: float = 10.0) -> tuple:
    # GaussianPacket refuses sigma and mass; continuity has no mass parameter
    # and uses a unit mass
    p = cfg.parameters
    state_geometry.require_positive(spacing_frac=p["spacing_frac"])
    # the grid spans ±half_width_sigmas·σ in steps of spacing_frac·σ
    points = 2 * half_width_sigmas / p["spacing_frac"] + 1
    _require_budget(points * _GRID_POINT_BYTES,
                    f"{cfg.experiment} on a grid of {points:.3g} points", "raise spacing_frac")
    return _packet_and_grid(p["sigma"], p["momentum"], p.get("mass", 1.0),
                            p["spacing_frac"], half_width_sigmas)


def _run_decomposition(cfg: ExperimentConfig, pkt, grid) -> ExperimentResult:
    p = cfg.parameters
    sigma, momentum, mass = p["sigma"], p["momentum"], p["mass"]
    force = p["force"]
    potential = packet_dynamics.PotentialField.linear(np.array([force]))
    rel_dev = packet_dynamics.decomposition_check(pkt, potential, grid)
    comps = packet_dynamics.velocity_components(pkt, potential)

    v = momentum / mass
    space_ref = abs(v) / (2 * sigma)
    momentum_ref = abs(force) * sigma  # |∇V|σ/ħ at ħ = 1
    spread_ref = math.sqrt(2) / (8 * sigma**2 * mass)
    rows = [
        ("space", comps.space, space_ref),
        ("momentum", comps.momentum, momentum_ref),
        ("spread", comps.spread, spread_ref),
        ("phase", comps.phase, comps.phase),
        ("quadrature_rel_deviation", rel_dev, 0.0),
    ]
    checks = [
        _check("quadrature_rel_deviation", rel_dev, 1e-6, 0.0, "le", "oracle"),
        _check("space_component", comps.space, space_ref, 1e-8, "abs",
               "closed-form"),
        _check("momentum_component", comps.momentum, momentum_ref, 1e-8, "abs",
               "closed-form"),
        _check("spread_component", comps.spread, spread_ref, 1e-8, "abs",
               "closed-form"),
    ]
    return ExperimentResult(("component", "measured", "reference"), rows, checks)


def _run_ehrenfest(cfg: ExperimentConfig, pkt, grid) -> ExperimentResult:
    p = cfg.parameters
    psi = packet_dynamics.packet_wavefunction(pkt, grid)
    rows = []
    worst = 0.0
    for name, potential in (
        ("free", packet_dynamics.PotentialField.zero()),
        ("linear", packet_dynamics.PotentialField.linear(np.array([p["force"]]))),
    ):
        lhs1, rhs1, lhs2, rhs2 = packet_dynamics.ehrenfest_check(
            psi, potential, mass=p["mass"]
        )
        scale1 = max(abs(rhs1[0]), 1e-3)
        scale2 = max(abs(rhs2[0]), 1e-3)
        dev1 = abs(lhs1[0] - rhs1[0]) / scale1
        dev2 = abs(lhs2[0] - rhs2[0]) / scale2
        worst = max(worst, dev1, dev2)
        rows.append((name, "position_rate", float(lhs1[0]), float(rhs1[0]), dev1))
        rows.append((name, "momentum_rate", float(lhs2[0]), float(rhs2[0]), dev2))
    checks = [
        _check("max_rel_deviation", worst, 1e-6, 0.0, "le", "closed-form"),
    ]
    return ExperimentResult(
        ("potential", "relation", "state_side", "classical_side",
         "rel_deviation"),
        rows,
        checks,
    )


def _reconstruct_inputs(cfg: ExperimentConfig) -> tuple:
    levels = _at_least("levels", int(cfg.parameters["levels"]), packet_dynamics.MIN_TRUNCATION)
    # a 4(levels−2)² × levels² float design matrix, ×3 for lstsq's copy and work (RSS 2–2.4×)
    _require_budget(3 * 8 * 4 * (levels - 2) ** 2 * levels**2,
                    f"hamiltonian-reconstruct at {levels} levels", "lower levels")
    return state_geometry.oscillator_matrices(levels)


def _run_reconstruct(cfg: ExperimentConfig, x_op, p_op) -> ExperimentResult:
    n = len(x_op)
    zero = np.zeros((n, n), dtype=complex)
    keep = packet_dynamics.interior_slice(n)
    # both potentials solve the same commutator system; each its own lstsq,
    # since one solve of two right-hand sides rounds differently
    design = packet_dynamics.commutator_design(x_op, p_op)
    rows = []
    checks = []
    for name, grad_v, v_op in (
        ("free", zero, zero),
        ("harmonic", x_op, 0.5 * (x_op @ x_op)),
    ):
        h_rec, rank, n_params = packet_dynamics._solve_hamiltonian(
            design, x_op, p_op, grad_v, v_op, mass=1.0, hbar=1.0
        )
        h_true = (p_op @ p_op) / 2 + v_op
        diff = np.linalg.norm(h_rec[keep, keep] - h_true[keep, keep])
        scale = np.linalg.norm(h_true[keep, keep])
        rel = float(diff / scale)
        rows.append((name, rel, rank, n_params))
        checks.append(
            _check(f"{name}_interior_error", rel, 1e-6, 0.0, "le", "oracle")
        )
    return ExperimentResult(
        ("potential", "interior_rel_error", "rank", "n_params"), rows, checks
    )


# ---------------------------------------------------------------------------
# transition-rule experiments


# fewest born-bridge pairs worth a forked process: every second pair is a
# 3-D grid of about 20 ms; two ranges of 2 pairs took 30 ms against 43 ms in
# one process, and 2 or 3 pairs, one 3-D pair, took 31 ms forked against 26
_MIN_PAIRS_PER_PROCESS = 2
# a process's 3-D pair: its grid's leaves and the axis-0 rows they are formed
# from, 2.4–3.9 MiB traced at separations of 0 to 8σ an axis (pairs draw 1.2σ)
_BRIDGE_PAIR_BYTES = 2**22


def _born_bridge_inputs(cfg: ExperimentConfig) -> tuple:
    # the kernel width both representations share, refused by KernelSpec unless positive
    sigma = hilbert_core.KernelSpec(sigma=cfg.parameters["sigma"]).sigma
    pairs = cfg.resolved_trials
    # each process's 3-D pair, and per pair its seven float columns (held
    # twice while joined, then as Python floats) and its six-column row,
    # twice a walk's
    processes = range_processes(pairs, _MIN_PAIRS_PER_PROCESS)
    _require_budget(processes * _BRIDGE_PAIR_BYTES + (336 + 2 * _ROW_BYTES[cfg.format]) * pairs,
                    f"born-bridge with {pairs} pairs", "lower --trials")
    return (sigma,)


def _born_bridge_pairs(seed: int, sigma: float, count: int, offset: int) -> tuple:
    """born-bridge's pairs offset … offset + count − 1, one float column per quantity.

    Pair k draws from ``RngStream(seed, k)`` alone.  The columns are its
    dimension, separation, Gaussian and angle sides, and the deviations of
    the distance relation, the density identity and the isotropic extension.
    """
    rows = []
    for k in range(offset, offset + count):
        gen = RngStream(seed, k).generator()
        dim = 1 if k % 2 == 0 else 3
        a = gen.normal(0.0, sigma, size=dim)
        b = a + gen.normal(0.0, 1.2 * sigma, size=dim)
        lhs, rhs = born_bridge.fs_euclid_relation(a, b, sigma)
        prob, density_form = born_bridge.born_normal_equivalence(a, b, sigma)
        sep = float(np.linalg.norm(b - a))

        pkt_a = packet_dynamics.GaussianPacket(
            center=a, momentum=gen.normal(size=dim), sigma=sigma, mass=1.0
        )
        pkt_b = packet_dynamics.GaussianPacket(
            center=b, momentum=gen.normal(size=dim), sigma=sigma, mass=1.0
        )
        spin = gen.normal(size=2) + 1j * gen.normal(size=2)
        spin /= np.linalg.norm(spin)
        other = gen.normal(size=2) + 1j * gen.normal(size=2)
        other /= np.linalg.norm(other)
        report = born_bridge.isotropic_extension_check(
            [born_bridge.TransitionPair(pkt_a, pkt_b), born_bridge.TransitionPair(spin, other)])
        rows.append((dim, sep, lhs, rhs, abs(lhs - rhs), abs(prob - density_form),
                     report.max_deviation))
    return tuple(np.array(rows, dtype=float).reshape(count, 7).T)


def _run_born_bridge(cfg: ExperimentConfig, sigma: float) -> ExperimentResult:
    # pair k owns its substream and a max does not depend on order, so the
    # pairs may run in any process
    columns = walk_ranges(functools.partial(_born_bridge_pairs, cfg.resolved_seed, sigma),
                          cfg.resolved_trials, _MIN_PAIRS_PER_PROCESS, cfg.resolved_trials)
    dims, seps, lhs, rhs, relation, density, extension = (c.tolist() for c in columns)
    rows = [(k, int(d), *row) for k, (d, *row) in enumerate(zip(dims, seps, lhs, rhs, relation))]
    # running maxima from 0.0 in pair order
    checks = [
        _check("max_distance_relation_dev", max([0.0, *relation]), 1e-8, 0.0, "le",
               "oracle"),
        _check("max_density_identity_dev", max([0.0, *density]), 1e-10, 0.0, "le",
               "closed-form"),
        _check("max_extension_dev", max([0.0, *extension]), 1e-10, 0.0, "le",
               "closed-form"),
    ]
    return ExperimentResult(
        ("pair", "dim", "separation", "gaussian_side", "angle_side",
         "deviation"),
        rows,
        checks,
    )


# ---------------------------------------------------------------------------
# classical-limit experiment


def _action_inputs(cfg: ExperimentConfig) -> tuple:
    p = cfg.parameters
    # the deviations divide by these; a negative one would pass every ``le`` check
    state_geometry.require_positive(omega=p["omega"], amplitude=p["amplitude"],
                                    mass=p["mass"])
    samples = _at_least("samples", int(p["samples"]), hilbert_core.MIN_PROJECTION_SAMPLES)
    spec = hilbert_core.KernelSpec(sigma=p["sigma"], dim=1)
    # ωt runs over [0, 2], so the path's ends span the projection's σ/4 grid;
    # newtonian_projection peaks at five floats a sample and grid point
    ends = p["amplitude"] * np.cos([[0.0], [2.0]])
    points = hilbert_core.grid_covering(spec, ends, spacing=spec.sigma / 4).extent[0]
    _require_parts(cfg, {"lower samples": samples * (40 * points + _ROW_BYTES[cfg.format])})
    return (spec,)


def _run_action(cfg: ExperimentConfig, spec) -> ExperimentResult:
    p = cfg.parameters
    omega, amp, mass, sigma = p["omega"], p["amplitude"], p["mass"], spec.sigma
    n_samples = int(p["samples"])
    t_final = 2.0 / omega
    times = np.linspace(0.0, t_final, n_samples)
    positions = amp * np.cos(omega * times)[:, None]
    path = hilbert_core.ClassicalPath(times=times, positions=positions)

    speed_h = hilbert_core.path_speed_h(path, spec)
    true_speed = np.abs(amp * omega * np.sin(omega * times))
    speed_dev = float(
        np.max(np.abs(2 * sigma * speed_h - true_speed)) / (amp * omega)
    )

    velocity, acceleration = hilbert_core.newtonian_projection(path, spec)
    interior = slice(2, -2)
    acc_dev = float(
        np.max(
            np.abs(acceleration[interior, 0] + omega**2
                   * positions[interior, 0])
        )
        / (omega**2 * amp)
    )

    def potential(a):
        return 0.5 * mass * omega**2 * float(a[0]) ** 2

    action = hilbert_core.action_functional(path, potential, mass, spec)
    # ∫ (½m ȧ² − ½mω²a²) dt for a = A cos ωt is −(mA²ω/4)·sin(2ωT)
    action_ref = -(mass * amp**2 * omega / 4.0) * math.sin(2 * omega * t_final)
    action_dev = abs(action - action_ref) / (mass * amp**2 * omega / 4.0)

    rows = [
        (float(t), float(a[0]), float(s), float(v[0]), float(ac[0]))
        for t, a, s, v, ac in zip(times, positions, speed_h, velocity,
                                  acceleration)
    ]
    checks = [
        _check("speed_rel_deviation", speed_dev, 1e-3, 0.0, "le", "closed-form"),
        _check("acceleration_rel_deviation", acc_dev, 1e-3, 0.0, "le",
               "closed-form"),
        _check("action_rel_deviation", action_dev, 1e-3, 0.0, "le",
               "closed-form"),
    ]
    return ExperimentResult(
        ("time", "position", "state_speed", "read_velocity",
         "read_acceleration"),
        rows,
        checks,
    )


# ---------------------------------------------------------------------------
# conservation experiments


def _continuity_inputs(cfg: ExperimentConfig) -> tuple:
    return _packet_inputs(cfg, half_width_sigmas=8.0)


def _run_continuity(cfg: ExperimentConfig, pkt, grid) -> ExperimentResult:
    p = cfg.parameters
    sigma, momentum = p["sigma"], p["momentum"]

    def residual_norm(spacing, dt):
        pkt, grid = _packet_and_grid(sigma, momentum, 1.0, spacing, 9.0)
        psi0 = packet_dynamics.packet_wavefunction(pkt, grid)
        params = density_diffusion.EvolutionParams(dt=dt, steps=1)
        before, after = density_diffusion.evolve_grid(
            psi0, packet_dynamics.PotentialField.zero(), params
        )
        return float(
            np.max(np.abs(density_diffusion.continuity_residual(
                before, after, params)))
        )

    coarse = residual_norm(0.05, 3e-4)
    fine = residual_norm(0.025, 1.5e-4)
    order = math.log2(coarse / fine)

    psi0 = packet_dynamics.packet_wavefunction(pkt, grid)
    j = density_diffusion.probability_current(psi0)[..., 0]
    rho = np.abs(psi0.values) ** 2
    expected = momentum * rho
    current_dev = float(np.max(np.abs(j - expected)) / np.max(np.abs(expected)))

    rows = [
        ("coarse_residual", 0.05 * sigma, 3e-4, coarse),
        ("fine_residual", 0.025 * sigma, 1.5e-4, fine),
        ("order", float("nan"), float("nan"), order),
        ("current_rel_deviation", p["spacing_frac"] * sigma, 0.0, current_dev),
    ]
    checks = [
        _check("residual_order", order, 1.8, 0.0, "ge", "oracle"),
        _check("current_rel_deviation", current_dev, 1e-6, 0.0, "le",
               "closed-form"),
    ]
    return ExperimentResult(("case", "h", "dt", "value"), rows, checks)


def _diffusion_inputs(cfg: ExperimentConfig) -> tuple:
    p = cfg.parameters
    params = density_diffusion.DiffusionParams(
        diffusivity=p["diffusivity"],
        walkers=max(cfg.resolved_trials, 10_000),
        dt=p["dt"],
        t_final=p["t_final"],
        seed=cfg.resolved_seed,
    )
    # positions, squares, draws and radii (80 bytes a walker traced); a row a step (250)
    _require_parts(cfg, {"lower --trials": 128 * params.walkers,
                         "raise dt": 400 * p["t_final"] / p["dt"]})
    return (params,)


def _run_diffusion(cfg: ExperimentConfig, params) -> ExperimentResult:
    # chi(3, scale).cdf's own kernel; scipy.stats is slow to import
    from scipy.special import gammainc

    p = cfg.parameters
    out = density_diffusion.brownian_ensemble(params)
    slope, rvalue = linear_fit(out.times, out.mean_square_displacement)
    scale = math.sqrt(2 * p["diffusivity"] * p["t_final"])
    r = np.sort(np.linalg.norm(out.final_positions, axis=1)) / scale
    ks = ks_test(gammainc(1.5, 0.5 * r**2))

    rows = [
        (k, float(t), float(m))
        for k, (t, m) in enumerate(zip(out.times, out.mean_square_displacement))
    ]
    checks = [
        _check("msd_slope", slope, 6 * p["diffusivity"], 0.05, "rel",
               "closed-form"),
        _check("msd_linearity_r2", rvalue**2, 0.999, 0.0, "ge",
               "definition"),
        # two-sided 4σ band on the KS p-value
        _check("heat_kernel_ks_p", ks.p_value, 6.3e-5, 0.0, "ge", "oracle"),
    ]
    return ExperimentResult(("step", "time", "msd"), rows, checks)


def _state_msd_inputs(cfg: ExperimentConfig) -> tuple:
    trials, n_steps, n = (cfg.resolved_trials, int(cfg.parameters["n_steps"]),
                          int(cfg.parameters["n_cells"]))
    density_diffusion.check_msd(trials, n_steps)
    # the cell walk; a trial's ≤ 256 spin kicks' fields (24 bytes each),
    # generator and scan window, and the spin block's floor; a row a step
    walk = position_measurement.msd_bytes(trials, n, n_steps)
    _require_parts(cfg, {
        "lower --trials or n_cells": walk + trials * (24 * min(n_steps, 256) + 4096) + 24 * 2**18,
        "lower n_steps": 400 * n_steps})
    basis = np.eye(1, n, dtype=complex)[0]
    return _spin_params(cfg), _cell_params(cfg), position_measurement.CellState(basis)


def _run_state_msd(cfg: ExperimentConfig, spin_params, pos_params,
                   basis) -> ExperimentResult:
    p = cfg.parameters
    trials = cfg.resolved_trials
    n_steps = int(p["n_steps"])

    spin_out = density_diffusion.state_density_msd(
        _spinor_at_height(0.0), spin_params, n_steps=n_steps, trials=trials
    )
    spin_slope, spin_r = linear_fit(spin_out.steps, spin_out.mean_square_angle)

    n_cells = len(basis)
    pos_out = density_diffusion.state_density_msd(
        basis, pos_params, n_steps=n_steps, trials=trials,
    )
    pos_slope, _ = linear_fit(pos_out.steps, pos_out.mean_square_angle)

    control = density_diffusion.state_density_msd(
        basis, dataclasses.replace(pos_params, tau=0.0), n_steps=n_steps,
        trials=max(density_diffusion.MIN_MSD_TRIALS, trials // 10),
    )

    spin_ref = 2 * spin_params.step_angle**2
    pos_ref = (n_cells - 1) * (p["tau"] * p["v_std"]) ** 2
    rows = [
        (int(k), float(spin_out.mean_square_angle[k]),
         float(pos_out.mean_square_angle[k]),
         float(control.mean_square_angle[k]))
        for k in range(n_steps + 1)
    ]
    checks = [
        _check("spin_slope", spin_slope, spin_ref, 0.10, "rel",
               "closed-form"),
        _check("spin_linearity_r2", spin_r**2, 0.99, 0.0, "ge",
               "definition"),
        _check("position_slope", pos_slope, pos_ref, 0.10, "rel",
               "closed-form"),
        _check("control_max_angle", float(control.mean_square_angle.max()),
               0.0, 0.0, "le", "definition"),
    ]
    return ExperimentResult(
        ("step", "spin_msd", "position_msd", "control_msd"), rows, checks
    )


# ---------------------------------------------------------------------------
# order-of-magnitude experiment


_RATE_ANCHORS = {
    1e-9: (14.0, 17.0, 13.0),
    1e-5: (8.0, 15.0, 5.0),
}


def _estimates_inputs(cfg: ExperimentConfig) -> tuple:
    p = cfg.parameters
    return (position_measurement.magnitude_estimates(
        wavelength=p["wavelength"], mass=p["mass"], temperature=p["temperature"]
    ),)


def _run_estimates(cfg: ExperimentConfig, report) -> ExperimentResult:
    p = cfg.parameters
    quantities = [
        ("compton_shift", report.compton_shift),
        ("energy_transfer", report.energy_transfer),
        ("recoil_speed", report.speed),
        ("velocity_term", report.velocity_term),
        ("acceleration_term", report.acceleration_term),
        ("spreading_term", report.spreading_term),
        ("photon_density", report.photon_density),
        ("thermal_peak_wavelength", report.thermal_peak_wavelength),
    ]
    rows = [(name, value, math.log10(value)) for name, value in quantities]

    checks = []
    for anchor, refs in _RATE_ANCHORS.items():
        if abs(p["wavelength"] - anchor) <= 1e-12 * anchor:
            terms = (report.velocity_term, report.acceleration_term,
                     report.spreading_term)
            for (ref, value, label) in zip(
                refs, terms, ("velocity", "acceleration", "spreading")
            ):
                checks.append(
                    _check(f"log10_{label}_term", math.log10(value), ref, 0.7,
                           "abs", "closed-form")
                )
    if abs(p["temperature"] - 500.0) <= 1e-9:
        checks.append(
            _check("log10_photon_density", math.log10(report.photon_density),
                   15.0, 0.5, "abs", "closed-form")
        )
    return ExperimentResult(("quantity", "value", "log10"), rows, checks)


# ---------------------------------------------------------------------------
# registry


# CODATA 2022 electron mass in kg, equal to scipy.constants.m_e; a literal keeps
# scipy.constants out of library load
_ELECTRON_MASS = 9.1093837139e-31


REGISTRY: dict[str, Experiment] = {
    e.name: e
    for e in [
        Experiment(
            "spin-born",
            "spin walk absorption frequencies against the (1−z)/2 height rule",
            "measurement",
            {"z0": 0.0, "step_angle": 0.02, "absorb_eps": 0.005, "max_steps": 50_000},
            True,
            20_000,
            _run_spin_born,
            _spin_born_inputs,
        ),
        Experiment(
            "position-born",
            "cell walk absorption frequencies against the |C_n|² weights",
            "measurement",
            {"n_cells": 8, "tau": 0.05, "v_std": 1.0, "absorb_eps": 0.02,
             "max_steps": 400},
            True,
            20_000,
            _run_position_born,
            _position_born_inputs,
        ),
        Experiment(
            "isotropy",
            "direction uniformity and tangent-space geometry of walk kicks",
            "measurement",
            {"step_angle": 0.04, "n_cells": 4, "tau": 0.04, "v_std": 1.0,
             "samples": 10_000},
            True,
            4_000,
            _run_isotropy,
            _isotropy_inputs,
        ),
        Experiment(
            "curvature",
            "sectional curvature of the state sphere equals one",
            "geometry",
            {"levels": 16},
            False,
            1,
            _run_curvature,
            _curvature_inputs,
        ),
        Experiment(
            "uncertainty-identity",
            "variance-product identity and the uncertainty inequality",
            "geometry",
            {"max_levels": 16},
            True,
            100,
            _run_uncertainty,
            _uncertainty_inputs,
        ),
        Experiment(
            "decomposition",
            "state-velocity split into phase, drift, force and spreading rates",
            "dynamics",
            {"sigma": 0.8, "momentum": 0.9, "force": 0.6, "mass": 1.2,
             "spacing_frac": 1e-3},
            False,
            1,
            _run_decomposition,
            _packet_inputs,
        ),
        Experiment(
            "ehrenfest",
            "mean position and momentum rates against the classical sides",
            "dynamics",
            {"sigma": 1.0, "momentum": 0.8, "force": 0.5, "mass": 1.0,
             "spacing_frac": 1e-3},
            False,
            1,
            _run_ehrenfest,
            _packet_inputs,
        ),
        Experiment(
            "hamiltonian-reconstruct",
            "commutator equations pin the Hamiltonian on the interior band",
            "dynamics",
            {"levels": 24},
            False,
            1,
            _run_reconstruct,
            _reconstruct_inputs,
        ),
        Experiment(
            "born-bridge",
            "squared-overlap rule against Gaussian-distance and density forms",
            "transition-rules",
            {"sigma": 1.0},
            True,
            50,
            _run_born_bridge,
            _born_bridge_inputs,
        ),
        Experiment(
            "action-equivalence",
            "embedded-path speed, projected kinematics and the action integral",
            "classical-limit",
            {"omega": 1.3, "amplitude": 0.7, "mass": 1.0, "sigma": 0.5, "samples": 240},
            False,
            1,
            _run_action,
            _action_inputs,
        ),
        Experiment(
            "continuity",
            "probability-current residual order and the packet flux identity",
            "conservation",
            {"sigma": 1.0, "momentum": 1.0, "spacing_frac": 1e-3},
            False,
            1,
            _run_continuity,
            _continuity_inputs,
        ),
        Experiment(
            "diffusion",
            "Brownian ensemble against the heat kernel and the 6Kt law",
            "conservation",
            {"diffusivity": 0.7, "dt": 0.02, "t_final": 1.0},
            True,
            100_000,
            _run_diffusion,
            _diffusion_inputs,
        ),
        Experiment(
            "state-msd",
            "early-time mean squared projective displacement of the walks",
            "conservation",
            {"step_angle": 0.04, "n_cells": 4, "tau": 0.04, "v_std": 1.0,
             "n_steps": 10},
            True,
            3_000,
            _run_state_msd,
            _state_msd_inputs,
        ),
        Experiment(
            "estimates",
            "photon-scattering magnitude chain and the thermal photon census",
            "orders-of-magnitude",
            {"wavelength": 1e-9, "mass": _ELECTRON_MASS, "temperature": 500.0},
            False,
            1,
            _run_estimates,
            _estimates_inputs,
        ),
    ]
}


def catalog() -> list[tuple[str, str, str]]:
    """(name, description, topic) for every registered experiment."""
    return [(e.name, e.description, e.topic) for e in REGISTRY.values()]


# ---------------------------------------------------------------------------
# runner and output writing


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _json_value(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def write_outputs(summary: RunSummary, result: ExperimentResult,
                  output_dir: str, fmt: str) -> tuple[Path, Path]:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == OutputFormat.CSV:
        trials_path = out / f"{summary.experiment}-trials.csv"
        lines = [",".join(result.columns)]
        lines += [",".join(_format_cell(v) for v in row) for row in result.rows]
        trials_path.write_text("\n".join(lines) + "\n")
    else:
        trials_path = out / f"{summary.experiment}-trials.json"
        records = [{col: _json_value(v) for col, v in zip(result.columns, row)}
                   for row in result.rows]
        trials_path.write_text(json.dumps(records, sort_keys=True, indent=2) + "\n")
    summary_path = out / f"{summary.experiment}-summary.json"
    summary_path.write_text(json.dumps(summary.as_dict(), sort_keys=True, indent=2) + "\n")
    return trials_path, summary_path


class MemoryBudgetError(ValueError):
    """A run's estimated peak memory exceeds :func:`memory_budget`."""


def memory_budget() -> int:
    """Bytes a run may plan to use: half of the physical memory."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


def prepare(config: ExperimentConfig) -> tuple:
    """The library inputs of a run of ``config``, built before any work.

    Raises :class:`ValueError` for a bad ``HB_THREADS`` or library inputs
    the experiment refuses, and :class:`MemoryBudgetError` when the run's
    estimated peak memory exceeds :func:`memory_budget`.
    """
    resolve_workers()
    return REGISTRY[config.experiment].inputs(config)


def run(config: ExperimentConfig) -> RunSummary:
    """Execute one experiment; outputs are written even when checks fail.

    :func:`prepare` builds its inputs, or refuses it, before any work.
    """
    inputs = prepare(config)
    start = time.perf_counter()
    result = REGISTRY[config.experiment].runner(config, *inputs)
    wall = time.perf_counter() - start
    summary = RunSummary(
        experiment=config.experiment,
        parameters=dict(config.parameters),
        seed=config.resolved_seed,
        trials=config.resolved_trials,
        checks=list(result.checks),
        wall_time_s=wall,
    )
    write_outputs(summary, result, config.output_dir, config.format)
    return summary
