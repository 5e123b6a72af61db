"""Position measurement on a cell lattice.

A wavefunction is projected onto unit-normalized cell indicators; the cell
amplitudes are then walked by random unitaries.  Two generator modes are
provided and deliberately contrasted:

* ``DIAGONAL`` — random potentials applied literally as diagonal phase
  unitaries.  These cannot change any |C_n| (a one-line theorem, and the
  diagnostic reports the rank deficiency of the reachable directions).
* ``ISOTROPIC`` — unitarily-invariant random Hermitian generators, the
  direct realisation of "every tangent direction equally likely".  One
  engine walks them: a single :func:`run_measurement` is a one-trial
  :func:`run_position_ensemble`.

Also here: Gabor frame states at critical density and the order-of-
magnitude chain for photon-scattering measurements of an electron.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from collections.abc import Iterator

import numpy as np

from hilbertbridge.hilbert_core import Grid, GridResolutionError, GridWaveFunction
from hilbertbridge.packet_dynamics import GaussianPacket, packet_wavefunction
from hilbertbridge.state_geometry import require_positive, require_state
from hilbertbridge.stats_util import (RngStream, TestReport, check_seed, check_trials,
                                      range_processes, stream_ranges, walk_ranges)

__all__ = [
    "GeneratorMode",
    "CellLattice",
    "CellState",
    "PositionWalkParams",
    "MeasurementOutcome",
    "VelocityIsotropyReport",
    "EstimateReport",
    "discretize",
    "run_diagonal_walk",
    "velocity_isotropy_diagnostic",
    "hermitian_generator",
    "isotropic_step",
    "run_measurement",
    "run_position_ensemble",
    "ensemble_bytes",
    "msd_bytes",
    "gabor_state",
    "magnitude_estimates",
]


class GeneratorMode(enum.Enum):
    DIAGONAL = "DIAGONAL"
    ISOTROPIC = "ISOTROPIC"


@dataclasses.dataclass(frozen=True)
class CellLattice:
    """Axis-aligned box tiled exactly by cubical cells of edge ``gamma``."""

    bounds: tuple[tuple[float, float], ...]
    gamma: float

    def __post_init__(self) -> None:
        require_positive(gamma=self.gamma)
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        for lo, hi in bounds:
            if hi <= lo:
                raise ValueError("each axis needs hi > lo")
            ratio = (hi - lo) / self.gamma
            if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
                raise ValueError("cells must tile the region exactly")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(
            int(round((hi - lo) / self.gamma)) for lo, hi in self.bounds
        )

    @property
    def cells(self) -> int:
        return int(np.prod(self.shape))


@dataclasses.dataclass(frozen=True)
class CellState:
    """Unit vector of cell amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = require_state(np.ascontiguousarray(self.amplitudes, dtype=complex))
        object.__setattr__(self, "amplitudes", amp)

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def __len__(self) -> int:
        return self.amplitudes.size


_MAX_STEP_PHASE = 0.05


@dataclasses.dataclass(frozen=True)
class PositionWalkParams:
    """Step size, potential scale, stopping rule and generator mode.

    ``tau`` may be zero (degenerate identity steps, useful as a control);
    the product ``v_std * tau / hbar`` is the typical phase per step and is
    capped at 0.05 for the walk regime.
    """

    tau: float
    v_std: float
    hbar: float = 1.0
    absorb_eps: float = 0.02
    max_steps: int = 10_000
    seed: int = 0
    generator_mode: GeneratorMode = GeneratorMode.ISOTROPIC

    def __post_init__(self) -> None:
        if not 0 <= self.tau < math.inf:
            raise ValueError(f"tau must be finite and nonnegative, got {self.tau}")
        require_positive(v_std=self.v_std, hbar=self.hbar)
        if not 0 < self.absorb_eps <= 0.1:
            raise ValueError("absorb_eps must lie in (0, 0.1]")
        if not 1 <= self.max_steps < 2**63:  # step counts are int64
            raise ValueError("max_steps must lie in [1, 2**63)")
        check_seed(self.seed)
        if self.step_phase > _MAX_STEP_PHASE:
            raise ValueError(
                f"step phase {self.step_phase:g} exceeds {_MAX_STEP_PHASE}"
            )

    @property
    def step_phase(self) -> float:
        return self.v_std * self.tau / self.hbar


@dataclasses.dataclass(frozen=True)
class MeasurementOutcome:
    cell: int | None  # None means UNRESOLVED
    steps: int
    final_state: CellState

    @property
    def resolved(self) -> bool:
        return self.cell is not None


# ---------------------------------------------------------------------------
# discretization


def discretize(
    psi: GridWaveFunction, lattice: CellLattice
) -> tuple[CellState, float]:
    """Project ψ onto unit-normalized cell indicators.

    Returns the renormalized :class:`CellState` together with the L₂ error
    of reconstructing ψ from the (raw) projection — the resolution of the
    step-function approximation, which shrinks like O(γ).
    """
    if psi.dim != lattice.dim:
        raise ValueError("grid and lattice dimensions differ")
    samples_per_edge = lattice.gamma / psi.spacing
    if samples_per_edge < 4 - 1e-9:
        raise GridResolutionError(
            f"{samples_per_edge:.2f} samples per cell edge; need at least 4"
        )

    coords = [psi.axis_coordinates(i) for i in range(psi.dim)]
    axis_bins = []
    inside = []
    for axis, (lo, hi) in enumerate(lattice.bounds):
        x = coords[axis]
        bins = np.floor((x - lo) / lattice.gamma).astype(int)
        ok = (x >= lo - 1e-12) & (x <= hi + 1e-12)
        bins = np.clip(bins, 0, lattice.shape[axis] - 1)
        axis_bins.append(bins)
        inside.append(ok)

    shape = lattice.shape
    flat = np.zeros(lattice.cells, dtype=complex)
    mesh_bins = np.meshgrid(*axis_bins, indexing="ij")
    mesh_in = np.logical_and.reduce(np.meshgrid(*inside, indexing="ij"))
    cell_index = np.ravel_multi_index(mesh_bins, shape)
    h_vol = psi.spacing**psi.dim
    np.add.at(
        flat,
        cell_index[mesh_in],
        psi.values[mesh_in] * h_vol,
    )
    # indicator normalisation 1/√γ^d turns cell integrals into coefficients
    raw = flat / math.sqrt(lattice.gamma**lattice.dim)

    recon = raw[cell_index] / math.sqrt(lattice.gamma**lattice.dim)
    recon[~mesh_in.ravel()] = 0.0
    diff = psi.values.ravel() - recon
    error = math.sqrt(float((np.abs(diff) ** 2).sum() * h_vol))

    norm = np.linalg.norm(raw)
    if norm == 0:
        raise ValueError("wavefunction has no mass inside the lattice region")
    return CellState(raw / norm), error


# ---------------------------------------------------------------------------
# walk steps


def run_diagonal_walk(
    state: CellState, steps: int, rng: np.random.Generator,
    params: PositionWalkParams,
) -> CellState:
    """``steps`` random diagonal phase kicks exp(−iτ(V_n − V̄)/ħ), applied at once.

    V̄ is the state expectation Σ V_n |C_n|², so each kick is tangent to the
    fibre; the moduli |C_n| are untouched — measurement-as-collapse cannot
    come from these kicks alone.  The kicks commute and their weights never
    change, so the phases are summed in real arithmetic and applied with one
    complex multiply: one rounding instead of the ~sqrt(steps) ulps of
    modulus error that iterating one-step walks accumulates.  Draws consume
    the generator exactly as ``steps`` one-step walks do.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    c = state.amplitudes
    weights = np.abs(c) ** 2
    theta = np.zeros(c.size)
    for _ in range(steps):
        v = rng.normal(0.0, params.v_std, size=c.size)
        theta += v - float(np.dot(v, weights))
    return CellState(np.exp(-1j * params.tau * theta / params.hbar) * c)


def hermitian_generator(re, im, scale: float = 1.0, out=None) -> np.ndarray:
    """GUE generator ``scale·(M + Mᴴ)/2`` with ``M = re + i·im``.

    The transpose is over the last two axes, so ``re``/``im`` may hold a
    stack of matrices.  With standard normal planes every entry has
    E|H_ab|² = scale², so E‖H‖²_F = scale²·N².  Every random Hermitian
    matrix in the package is built here, which keeps each walk's generators
    equal bit for bit to those of the walk it is checked against.  ``out``
    may be any complex array of the right shape, including a transposed
    view.
    """
    if out is None:
        out = np.empty(np.shape(re), dtype=complex)
    np.add(re, np.swapaxes(re, -1, -2), out=out.real)
    np.subtract(im, np.swapaxes(im, -1, -2), out=out.imag)
    out *= 0.5 * scale
    return out


# largest series order; x ≤ 2.15 at this order, twice the typical x of a part
_TAYLOR_ORDER_MAX = 24


def _taylor_radii() -> np.ndarray:
    """x_K, the largest x with x^(K+1)·eˣ/(K+1)! ≤ 2⁻⁵³, for K = 0…max."""
    log_bound = -53 * math.log(2)
    radii = []
    for k in range(1, _TAYLOR_ORDER_MAX + 2):
        lo, hi = 0.0, 64.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if k * math.log(mid) + mid - math.lgamma(k + 1) <= log_bound:
                lo = mid
            else:
                hi = mid
        radii.append(lo)
    return np.array(radii)


_TAYLOR_RADII = _taylor_radii()


def _taylor_weights() -> np.ndarray:
    """weights[K, j − 1] = (−i)^j / j! for 1 ≤ j ≤ K, else 0."""
    slots = _TAYLOR_ORDER_MAX + 1
    inverse_factorials = np.cumprod(np.r_[1.0, 1.0 / np.arange(1, slots)])
    phases = np.array([1, -1j, -1, 1j])[np.arange(slots) % 4]
    full = np.tril(np.broadcast_to(inverse_factorials * phases, (slots, slots)))
    return np.ascontiguousarray(full[:, 1:])


_TAYLOR_WEIGHTS = _taylor_weights()


def _cell_masses(amplitudes: np.ndarray) -> np.ndarray:
    """|C_n|² as re² + im², elementwise, so every walk rounds it alike."""
    sq = np.square(amplitudes.view(float))
    return np.add(sq[..., 0::2], sq[..., 1::2])


class _TaylorKick:
    """exp(−iτH/ħ)ψ for a batch of cell states by a truncated Taylor series.

    A kick is applied as ``substeps`` equal parts exp(−iB), B = τH/(ħ·substeps),
    enough parts that ‖B‖_F is typically at most 1 (E‖H‖_F ≈ v_std·N); at
    the walk's step phases of ≤ 0.05 that is one part up to N = 20.  The
    generators B come straight from :func:`hermitian_generator`.  For each
    part the series Σ_{k≤K} (−iB)^k ψ/k! stops at the smallest K with
    x^(K+1)·eˣ/(K+1)! ≤ 2⁻⁵³, x = ‖B‖_F ≥ ‖B‖₂, which bounds the truncation
    error by 2⁻⁵³‖ψ‖ (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2),
    2011).  K is read off each trial's own B, the powers B^j ψ are formed
    only up to the largest K of the batch, and the weighted sum of the
    terms j ≥ 1 always runs over all ``_TAYLOR_ORDER_MAX`` slots with zero
    weights past K.  So a trial gets the same bits alone as in any batch.
    ψ itself is added last, by a separate ``add``: summed inside the
    ``matmul`` it shrank ‖ψ‖² by about 1.2e-17 per kick at N = 8, every
    kick the same way.

    The object holds the states of its trials; :attr:`states` reads and
    writes them, :meth:`apply` kicks them all and :meth:`keep` drops trials.
    """

    def __init__(self, states: np.ndarray, params: PositionWalkParams) -> None:
        k, n = states.shape
        self.n = n
        self.substeps = max(1, math.ceil(params.step_phase * n))
        self.scale = params.v_std * params.tau / (params.hbar * self.substeps)
        # slot j of a power buffer holds B^j ψ as a row vector, slot 0 ψ; the
        # two buffers swap roles each part
        self._powers = np.zeros((_TAYLOR_ORDER_MAX + 1, k, 1, n), dtype=complex)
        self._powers[0, :, 0] = states
        self._spare = np.zeros_like(self._powers)

    @property
    def states(self) -> np.ndarray:
        """The trials' current ψ, shape (k, n); a view into the buffer."""
        return self._powers[0, :, 0]

    @staticmethod
    def prepare(hams: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """Operands of each kick in a (kicks, k, n, n) stack of generators B.

        A kick's operands are its generators transposed (ψᵀBᵀ = (Bψ)ᵀ is a
        row-vector product), each trial's series weights and the largest
        series order.  Non-finite generators are refused here.  ‖B‖²_F is
        summed one kick at a time, so no squared copy of the stack is held.
        """
        norm2 = np.empty(hams.shape[:-2])
        for h, out in zip(hams, norm2):
            np.square(h.view(float)).reshape(out.shape + (-1,)).sum(axis=-1, out=out)
        orders = np.searchsorted(_TAYLOR_RADII**2, norm2)
        if orders.max() > _TAYLOR_ORDER_MAX:
            raise FloatingPointError(
                "kick generator is non-finite or beyond the Taylor range"
            )
        weights = _TAYLOR_WEIGHTS[orders][..., None, :]
        return list(
            zip(hams.swapaxes(-1, -2), weights, orders.max(axis=-1).tolist())
        )

    def apply(self, operands: tuple[np.ndarray, np.ndarray, int]) -> None:
        """Kick every trial by one kick's operands from :meth:`prepare`."""
        hams_t, weights, order_max = operands
        powers, spare = self._powers, self._spare
        for _ in range(self.substeps):
            for j in range(1, order_max + 1):
                np.matmul(powers[j - 1], hams_t, out=powers[j])
            np.matmul(weights, powers[1:, :, 0].swapaxes(0, 1), out=spare[0])
            np.add(spare[0], powers[0], out=spare[0])
            powers, spare = spare, powers
        self._powers, self._spare = powers, spare

    def keep(self, live: np.ndarray) -> None:
        """Keep only the trials where ``live`` is true, in order."""
        self._powers = np.ascontiguousarray(self._powers[:, live])
        self._spare = np.zeros_like(self._powers)


def isotropic_step(
    state: CellState, rng: np.random.Generator, params: PositionWalkParams
) -> CellState:
    """One kick by a unitarily-invariant random Hermitian generator."""
    kick = _TaylorKick(state.amplitudes[None, :], params)
    (operands,) = kick.prepare(_draw_block([rng], kick.n, 1, kick.scale))
    kick.apply(operands)
    return CellState(kick.states[0].copy())


# ---------------------------------------------------------------------------
# velocity diagnostic


@dataclasses.dataclass(frozen=True)
class VelocityIsotropyReport:
    """Documented geometry of the sampled state-velocity distribution."""

    n_samples: int
    coordinate_means: np.ndarray
    mean_zero: TestReport
    covariance_eigenvalues: np.ndarray
    rank: int

    @property
    def tangent_dimension(self) -> int:
        return self.coordinate_means.size


def _tangent_basis(psi: np.ndarray) -> np.ndarray:
    """Orthonormal complex basis of the complement of ψ (columns)."""
    n = psi.size
    proj = np.eye(n, dtype=complex) - np.outer(psi, psi.conj())
    u, s, _ = np.linalg.svd(proj)
    return u[:, : n - 1]


# fewest cells and samples velocity_isotropy_diagnostic reports on
MIN_DIAGNOSTIC_CELLS, MIN_DIAGNOSTIC_SAMPLES = 3, 10_000


def velocity_isotropy_diagnostic(
    state: CellState,
    samples: int,
    rng: np.random.Generator,
    params: PositionWalkParams,
    alpha: float = 0.01,
) -> VelocityIsotropyReport:
    """Sample state velocities and report their mean, spectrum and rank.

    DIAGONAL velocities are −i(V − V̄)ψ/ħ; ISOTROPIC ones are
    −i(H − ⟨H⟩)ψ/ħ.  Coordinates are taken in an orthonormal tangent frame,
    2(N−1) real dimensions.  The report states what the distribution does;
    it does not presume isotropy.
    """
    if len(state) < MIN_DIAGNOSTIC_CELLS:
        raise ValueError(f"diagnostic needs at least {MIN_DIAGNOSTIC_CELLS} cells")
    if samples < MIN_DIAGNOSTIC_SAMPLES:
        raise ValueError("diagnostic needs at least 10^4 samples for power")
    psi = state.amplitudes
    n = psi.size
    basis = _tangent_basis(psi)
    if params.generator_mode is GeneratorMode.DIAGONAL:
        v = rng.normal(0.0, params.v_std, size=(samples, n))
        vbar = v @ (np.abs(psi) ** 2)
        vels = -1j * (v - vbar[:, None]) * psi / params.hbar
    else:
        hams = hermitian_generator(
            rng.normal(size=(samples, n, n)), rng.normal(size=(samples, n, n)),
            params.v_std,
        )
        hpsi = np.einsum("kab,b->ka", hams, psi)
        mean = np.einsum("a,ka->k", psi.conj(), hpsi)
        vels = -1j * (hpsi - mean[:, None] * psi) / params.hbar
    comp = vels @ basis.conj()
    coords = np.concatenate([comp.real, comp.imag], axis=1)

    means = coords.mean(axis=0)
    stds = coords.std(axis=0, ddof=1)
    scale = np.where(stds > 0, stds, 1.0)
    z = np.abs(means) / (scale / math.sqrt(samples))
    worst = float(z.max())
    # norm.sf's own kernel; scipy.stats is slow to import
    from scipy.special import ndtr

    p_single = 2 * ndtr(-worst)
    p_value = float(min(1.0, p_single * coords.shape[1]))  # Bonferroni
    if np.allclose(coords, 0.0):
        p_value = 1.0
        worst = 0.0

    cov = np.cov(coords.T)
    eigs = np.sort(np.linalg.eigvalsh(np.atleast_2d(cov)))[::-1]
    top = eigs[0] if eigs.size else 0.0
    rank = int(np.sum(eigs > max(top, 1e-300) * 1e-10)) if top > 0 else 0
    return VelocityIsotropyReport(
        n_samples=samples,
        coordinate_means=means,
        mean_zero=TestReport(statistic=worst, p_value=p_value, alpha=alpha),
        covariance_eigenvalues=eigs,
        rank=rank,
    )


# ---------------------------------------------------------------------------
# the measurement walk


def run_measurement(
    state0: CellState, params: PositionWalkParams, stream_id: int = 0
) -> MeasurementOutcome:
    """Walk until one cell holds at least 1 − absorb_eps of the mass.

    The walk is trial ``stream_id`` of :func:`run_position_ensemble`, which
    walks ISOTROPIC kicks only.
    """
    cells, steps, finals = _walk_batch(state0, params, 1, stream_id)
    cell = int(cells[0])
    return MeasurementOutcome(cell if cell >= 0 else None, int(steps[0]),
                              CellState(finals[0]))


# a block of kicks takes as many kicks (8 to 256) as keep its draw, generator
# and weight buffers under this; wider batches than that take 8 kicks
_BLOCK_BYTES = 2**23
# trials walked together
_BATCH = 2048
# fewest trials worth a forked process: a fork costs about 10 ms, which two
# ranges of 64 of the cheapest walks (N = 2, about 300 kicks) just repay;
# N = 8 walks of 400 kicks already walk 25 % faster as two ranges of 32
MIN_TRIALS_PER_PROCESS = 64


def _kick_bytes(n: int) -> int:
    """Bytes of a block's draws, generators and weights per trial and kick."""
    return 32 * n * n + 16 * (_TAYLOR_ORDER_MAX + 1)


def _draw_block(gens, n: int, steps_left: int, scale: float) -> np.ndarray:
    """The next block of kicks of the k generators, a (span, k, n, n) stack at ``scale``.

    A block takes as many kicks (8 to 256, at most ``steps_left``) as keep its
    buffers under ``_BLOCK_BYTES``; one draw per generator equals one per kick.
    """
    k = len(gens)
    span = min(max(8, min(256, _BLOCK_BYTES // (k * _kick_bytes(n)))), steps_left)
    raw = np.empty((k, span, 2, n, n))
    for row, gen in zip(raw, gens):
        row[:] = gen.normal(size=(span, 2, n, n))
    hams = np.empty((span, k, n, n), dtype=complex)
    hermitian_generator(raw[:, :, 0], raw[:, :, 1], scale, out=hams.transpose(1, 0, 2, 3))
    return hams


def ensemble_bytes(trials: int, n: int) -> int:
    """Rough peak bytes of :func:`run_position_ensemble` at N = ``n``.

    Each process holds one batch's block of kicks, its two Taylor power
    buffers and its random generators (about 1 KiB each); every trial's
    outputs come on top, held twice while the batches' outputs are joined.
    """
    processes = range_processes(trials, _ensemble_min_trials(trials, n))
    k = min(-(-trials // processes), _BATCH)
    block = max(_BLOCK_BYTES, 8 * k * _kick_bytes(n))
    powers = 2 * (_TAYLOR_ORDER_MAX + 1) * k * n * 16
    return processes * (block + powers + 1024 * k) + 2 * (16 + 16 * n) * trials


def run_position_ensemble(
    state0: CellState, trials: int, params: PositionWalkParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Cells (−1 for unresolved) and step counts for trials 0..trials−1.

    Trial ``t`` is ``run_measurement(state0, params, stream_id=t)`` bit for
    bit, whichever batch and whichever process it walks in.
    :func:`~hilbertbridge.stats_util.walk_ranges` walks the trials in
    batches of up to ``_BATCH`` and, up to 63 cells, in ranges of at least
    ``MIN_TRIALS_PER_PROCESS`` trials, one per process (``HB_THREADS`` caps
    them); a start already inside the cap absorbs at once and forks nothing.
    """
    check_trials(trials)
    walk = functools.partial(_walk_batch, state0, params)
    if _start_cell(state0, params) >= 0:
        return walk(trials, 0)[:2]
    return walk_ranges(walk, trials, _ensemble_min_trials(trials, len(state0)), _BATCH)[:2]


def _ensemble_min_trials(trials: int, n: int) -> int:
    """Fewest trials of a cell-walk range worth a forked process; none from
    N² = ``_GEMV_ONE_THREAD`` on, where OpenBLAS threads the Taylor kick's
    mat-vec and stalls forked ranges (256 trials of 20 kicks: 0.57 s forked
    at N = 63, over 40 s forked against 1.1 s in one process at N = 64)."""
    return trials + 1 if n * n >= _GEMV_ONE_THREAD else MIN_TRIALS_PER_PROCESS


def _require_isotropic(params: PositionWalkParams) -> None:
    """Refuse DIAGONAL kicks: both cell walks kick with GUE generators."""
    if params.generator_mode is not GeneratorMode.ISOTROPIC:
        raise ValueError("the cell walk supports the ISOTROPIC mode only")


def _start_cell(state0: CellState, params: PositionWalkParams) -> int:
    """The cell already holding 1 − absorb_eps of the start's mass, else −1."""
    _require_isotropic(params)
    masses = _cell_masses(state0.amplitudes)
    cell = int(np.argmax(masses))
    return cell if masses[cell] >= 1.0 - params.absorb_eps else -1


def _walk_batch(
    state0: CellState, params: PositionWalkParams, trials: int, trial_offset: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(cells, steps, finals)`` of the ``trials`` substreams from ``trial_offset``.

    The trials walk together.  Draws come in blocks of kicks
    (:func:`_draw_block`); a block's series orders and weights are built
    for all its kicks at once.  A trial that absorbs is recorded, zeroed so
    it cannot absorb again, and dropped at block end.
    """
    cell = _start_cell(state0, params)
    cells = np.full(trials, cell, dtype=np.int64)
    steps_out = np.full(trials, 0 if cell >= 0 else params.max_steps, dtype=np.int64)
    finals = np.tile(state0.amplitudes, (trials, 1))
    if cell >= 0:
        return cells, steps_out, finals
    ids = np.arange(trials)
    threshold = 1.0 - params.absorb_eps
    gens = [RngStream(params.seed, int(t) + trial_offset).generator() for t in ids]
    kick = _TaylorKick(np.tile(state0.amplitudes, (ids.size, 1)), params)
    step = 0
    while step < params.max_steps and ids.size:
        k = ids.size
        hams = _draw_block(gens, kick.n, params.max_steps - step, kick.scale)
        done = np.zeros(k, dtype=bool)

        for operands in kick.prepare(hams):
            step += 1
            kick.apply(operands)
            masses = _cell_masses(kick.states)
            if masses.max() >= threshold:
                winner = masses.argmax(axis=1)
                rows = np.flatnonzero(masses[np.arange(k), winner] >= threshold)
                cells[ids[rows]] = winner[rows]
                steps_out[ids[rows]] = step
                finals[ids[rows]] = kick.states[rows]
                kick.states[rows] = 0.0
                done[rows] = True
                if done.all():
                    break

        # free the block's generators and weights before keep() copies the
        # survivors and the next block is drawn
        del hams, operands
        if done.any():
            keep = ~done
            ids = ids[keep]
            gens = [g for g, live in zip(gens, keep) if live]
            kick.keep(keep)
    finals[ids] = kick.states
    return cells, steps_out, finals


def _apply_unitary_batch(states: np.ndarray, hams: np.ndarray,
                         params: PositionWalkParams) -> np.ndarray:
    """exp(−iτH/ħ)ψ for a batch of states/generators via eigh.

    The absorbing walk kicks with a Taylor series instead; this eigh form
    stays for :func:`_free_walk_msd` because the published state-msd floats
    were computed with it, and the Taylor form rounds differently.
    """
    w, vecs = np.linalg.eigh(hams)
    y = np.einsum("kba,kb->ka", vecs.conj(), states)
    y *= np.exp(-1j * params.tau * w / params.hbar)
    return np.einsum("kab,kb->ka", vecs, y)


# fewest trial-kicks of the state-msd walk worth a forked process: two
# ranges of 8000 of the cheapest kicks (N = 2) took 20 ms against 23 ms in
# one process, and 4000 at N = 4 already 13 ms against 14 ms
_MIN_MSD_KICKS_PER_PROCESS = 8192
# most cells the state-msd walk forks at: up to 25, eigh solves the
# tridiagonal problem by QR iteration, which OpenBLAS runs on one thread;
# from 26 on it divides and conquers, whose threaded calls stall two forked
# ranges (1000 trials of 20 kicks: 1.2 s forked against 2.3 s in one
# process at N = 25, over 40 s against 1.7–2.5 s at N = 26 to 31)
_MSD_FORK_MAX_CELLS = 25
# the state-msd walk's states after each step are handed over a window of
# steps at a time: as many steps as keep all trials' window under this
_WINDOW_BYTES = 2**23
# OpenBLAS runs a complex mat-vec of fewer elements than this on one thread
# (1024 times its default GEMM_MULTITHREAD_THRESHOLD, 4); a second thread
# would spin on the core a forked range walks on: 3000 trials of 400 N = 4
# kicks took 2.9 s with the whole product a step, 1.9–2.0 s in blocks
_GEMV_ONE_THREAD = 1024 * 4


def msd_bytes(trials: int, n: int, n_steps: int) -> int:
    """Rough peak bytes of :func:`_free_walk_msd` at N = ``n``.

    Each process holds a batch's block of kicks (at least 8) and eigh's
    stacks, and every trial its generator and state.  A window of all
    trials' states (16·N bytes a trial-step) is held at most six times
    over: each range's window and its pickle, the received copies and the
    joined window; it takes no more than ``_WINDOW_BYTES`` unless one step
    of states does, so the peak does not grow with ``n_steps``.
    """
    processes = range_processes(trials, _msd_min_trials(trials, n, n_steps))
    k = min(-(-trials // processes), _BATCH)
    block = max(_BLOCK_BYTES, 8 * k * _kick_bytes(n))
    window = _msd_window(trials, n, n_steps)
    return (processes * (block + k * 48 * n * n)
            + trials * (1024 + 16 * n * (6 * window + 2)))


def _msd_min_trials(trials: int, n: int, n_steps: int) -> int:
    """Fewest trials of a state-msd range worth a forked process; none over
    ``_MSD_FORK_MAX_CELLS`` cells."""
    if n > _MSD_FORK_MAX_CELLS:
        return trials + 1
    return max(1, -(-_MIN_MSD_KICKS_PER_PROCESS // n_steps))


def _msd_window(trials: int, n: int, n_steps: int) -> int:
    """Steps of the state-msd walk handed over at a time (at least 1)."""
    return max(1, min(n_steps, _WINDOW_BYTES // (16 * n * max(trials, 1))))


def _free_walk_windows(state0: CellState, params: PositionWalkParams, n_steps: int,
                       window: int, trials: int, trial_offset: int) -> Iterator[np.ndarray]:
    """The ``trials`` states from ``trial_offset`` after kicks 1 … ``n_steps``.

    Yields a (trials, w, N) array for each ``window`` steps (the last may be
    shorter).  The trials walk in batches of up to ``_BATCH``; a batch draws
    its kicks in blocks cut at the window's end (one draw per generator
    equals one per kick) and keeps its generators and states for the next
    window.  ``tau = 0`` draws nothing and the states stay ``state0``.
    The only LAPACK or BLAS call is eigh on N × N matrices.
    """
    start, n = state0.amplitudes, len(state0)
    batches = []
    for lo in range(trial_offset, trial_offset + trials, _BATCH):
        ids = range(lo, min(lo + _BATCH, trial_offset + trials))
        gens = [RngStream(params.seed, t).generator() for t in ids] if params.tau > 0 else []
        batches.append((np.tile(start, (len(ids), 1)), gens))
    for first in range(0, n_steps, window):
        span = min(window, n_steps - first)
        out = np.empty((span, trials, n), dtype=complex)
        row = 0
        for b, (states, gens) in enumerate(batches):
            hams = []  # the drawn kicks not yet applied
            for step in range(span):
                if gens:
                    if not hams:
                        hams = list(_draw_block(gens, n, span - step, params.v_std))
                    states = _apply_unitary_batch(states, hams.pop(0), params)
                out[step, row:row + len(states)] = states
            batches[b] = (states, gens)
            row += len(states)
        yield out.transpose(1, 0, 2)


def _row_products(states: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``states @ vec``, in row blocks under ``_GEMV_ONE_THREAD`` elements.

    Every block of two or more rows gives the one product's bits; a single
    row takes another path, so no block is a single row.
    """
    rows, n = states.shape
    block = max(2, (_GEMV_ONE_THREAD - 1) // n - 1)
    cuts = [0, *range(block, rows - 1, block), rows]
    if len(cuts) == 2:
        return states @ vec
    return np.concatenate([states[lo:hi] @ vec for lo, hi in zip(cuts[:-1], cuts[1:])])


def _free_walk_msd(state0: CellState, trials: int, params: PositionWalkParams,
                   n_steps: int) -> np.ndarray:
    """⟨θ²⟩, θ = arccos |⟨ψ₀|ψ⟩|, after each of 0 … ``n_steps`` eigh kicks.

    Trial ``t`` draws as trial ``t`` of :func:`run_position_ensemble`, at
    scale ``v_std``, and never stops; ``tau = 0`` draws nothing.
    :func:`~hilbertbridge.stats_util.stream_ranges` walks the trials, in a
    range per process when the trial-kicks repay the fork and N is at most
    ``_MSD_FORK_MAX_CELLS``, and joins their states a window of steps at a
    time.  The overlaps are taken here, on each step's (trials, N)
    states in trial order, in row blocks that OpenBLAS runs on one thread,
    so no BLAS thread competes with a forked range.
    """
    _require_isotropic(params)
    start, n = state0.amplitudes, len(state0)
    walk = functools.partial(_free_walk_windows, state0, params, n_steps,
                             _msd_window(trials, n, n_steps))
    out = np.zeros(n_steps + 1)
    step = 0
    for states in stream_ranges(walk, trials, _msd_min_trials(trials, n, n_steps)):
        for column in range(states.shape[1]):
            step += 1
            ov = np.abs(_row_products(np.ascontiguousarray(states[:, column]), start.conj()))
            out[step] = float((np.arccos(np.minimum(ov, 1.0)) ** 2).mean())
    return out


# ---------------------------------------------------------------------------
# Gabor frame states


def gabor_state(m, n, sigma: float, grid: Grid) -> GridWaveFunction:
    """Frame state at lattice site (m, n): shift αn, modulation βm.

    α = √(2π)σ and β = 2π/α, the critical frame density.  The state is the
    width-σ packet centred at αn carrying momentum βm (ħ = 1 units).
    """
    require_positive(sigma=sigma)
    m = np.atleast_1d(np.asarray(m, dtype=float))
    n = np.atleast_1d(np.asarray(n, dtype=float))
    if m.shape != n.shape:
        raise ValueError("m and n must have the same dimension")
    alpha = math.sqrt(2 * math.pi) * sigma
    beta = 2 * math.pi / alpha
    pkt = GaussianPacket(
        center=alpha * n, momentum=beta * m, sigma=sigma, mass=1.0, hbar=1.0
    )
    return packet_wavefunction(pkt, grid)


# ---------------------------------------------------------------------------
# order-of-magnitude chain


@dataclasses.dataclass(frozen=True)
class EstimateReport:
    """SI estimate chain for photon scattering off a localised electron."""

    wavelength: float
    mass: float
    temperature: float
    compton_shift: float
    energy_transfer: float
    speed: float
    sigma: float
    tau: float
    velocity_term: float
    acceleration_term: float
    spreading_term: float
    photon_density: float
    thermal_peak_wavelength: float


def magnitude_estimates(
    wavelength: float, mass: float, temperature: float
) -> EstimateReport:
    """Track one scattered photon's effect through to state-velocity terms.

    The photon Compton-shifts by (h/mc)(1 − cos θ) at θ = π/2; the energy
    lost goes to the electron, fixing its recoil speed.  The packet width is
    set to the probing wavelength (σ = λ) and the interaction time to λ/c;
    the three returned rates are the translation, force and spreading parts
    of the state velocity, plus the thermal photon census ≈ 2.02×10⁷ T³.
    """
    from scipy import constants  # slow to import; only the estimates need it

    require_positive(wavelength=wavelength, mass=mass, temperature=temperature)
    h, c, hbar = constants.h, constants.c, constants.hbar
    compton_shift = (h / (mass * c)) * (1 - math.cos(math.pi / 2))
    photon_in = h * c / wavelength
    photon_out = h * c / (wavelength + compton_shift)
    energy_transfer = photon_in - photon_out
    speed = math.sqrt(2 * energy_transfer / mass)
    sigma = wavelength
    tau = wavelength / c
    accel = speed / tau
    velocity_term = speed / (2 * sigma)
    acceleration_term = mass * accel * sigma / hbar
    spreading_term = hbar / (4 * math.sqrt(2) * sigma**2 * mass)
    photon_density = 2.02e7 * temperature**3
    thermal_peak = constants.value("Wien wavelength displacement law constant") / (
        temperature
    )
    return EstimateReport(
        wavelength=wavelength,
        mass=mass,
        temperature=temperature,
        compton_shift=compton_shift,
        energy_transfer=energy_transfer,
        speed=speed,
        sigma=sigma,
        tau=tau,
        velocity_term=velocity_term,
        acceleration_term=acceleration_term,
        spreading_term=spreading_term,
        photon_density=photon_density,
        thermal_peak_wavelength=thermal_peak,
    )
