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
  :func:`run_position_ensemble`; it and state-msd's walk kick on :func:`kicked_windows`.

Also here: the order-of-magnitude chain for photon-scattering measurements
of an electron.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from collections.abc import Iterator

import numpy as np

from hilbertbridge.state_geometry import require_positive, require_state
from hilbertbridge.stats_util import (RngStream, TestReport, check_seed, check_trials,
                                      kicked_windows, range_processes, stream_ranges,
                                      walk_ranges)

__all__ = [
    "GeneratorMode",
    "CellState",
    "PositionWalkParams",
    "MeasurementOutcome",
    "VelocityIsotropyReport",
    "EstimateReport",
    "run_diagonal_walk",
    "velocity_isotropy_diagnostic",
    "hermitian_generator",
    "isotropic_step",
    "run_measurement",
    "run_position_ensemble",
    "ensemble_bytes",
    "msd_bytes",
    "magnitude_estimates",
]


class GeneratorMode(enum.Enum):
    DIAGONAL = "DIAGONAL"
    ISOTROPIC = "ISOTROPIC"


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


class _CellKick:
    """The block rule and GUE draws of a batch of cell walks, for :func:`kicked_windows`.

    Generators go into ``buffer``, one complex array in a list that kicks may share.
    """

    def __init__(self, states: np.ndarray, buffer: list | None = None) -> None:
        self.n = states.shape[1]
        self._buffer = [np.empty(0, dtype=complex)] if buffer is None else buffer

    def block(self, live: int, steps_left: int) -> int:
        return min(max(8, min(256, _BLOCK_BYTES // (live * _kick_bytes(self.n)))), steps_left)

    def _draw(self, gens, span: int, scale: float) -> np.ndarray:
        """The next ``span`` kicks, a (span, k, n, n) stack at ``scale``; one draw per kick."""
        k, n = len(gens), self.n
        size = span * k * n * n
        if self._buffer[0].size < size:
            self._buffer[0] = np.empty(size, dtype=complex)
        raw = np.empty((k, span, 2, n, n))
        for row, gen in zip(raw, gens):
            gen.standard_normal(out=row)
        np.add(raw, 0.0, out=raw)  # Generator.normal is loc + scale * z: −0.0 becomes 0.0
        hams = self._buffer[0][:size].reshape(span, k, n, n)
        hermitian_generator(raw[:, :, 0], raw[:, :, 1], scale, out=hams.transpose(1, 0, 2, 3))
        return hams


class _TaylorKick(_CellKick):
    """exp(−iτH/ħ)ψ for a batch of cell states by a truncated Taylor series.

    A kick is ``substeps`` equal parts exp(−iB), B = τH/(ħ·substeps), so that
    ‖B‖_F is typically at most 1; each part's series Σ_{k≤K} (−iB)^k ψ/k!
    stops at the smallest K with x^(K+1)·eˣ/(K+1)! ≤ 2⁻⁵³, x = ‖B‖_F ≥ ‖B‖₂
    (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011; the position-born
    entry of ``docs/experiments.md`` gives the numbers).  K is read off each
    trial's own B, the powers B^j ψ are formed up to the batch's largest K,
    and the weighted sum of the terms j ≥ 1 runs over all
    ``_TAYLOR_ORDER_MAX`` slots with zero weights past K, so a trial gets
    the same bits alone as in any batch.  ψ itself is added last, by a
    separate ``add``: summed inside the ``matmul`` it shrank ‖ψ‖² by about
    1.2e-17 per kick at N = 8.  :attr:`states` reads and writes the trials'
    states and :meth:`apply` kicks them all; a block's series orders and
    weights are built for all its kicks at once.
    """

    def __init__(self, states: np.ndarray, params: PositionWalkParams) -> None:
        super().__init__(states)
        k, n = states.shape
        self.substeps = max(1, math.ceil(params.step_phase * n))
        self.scale = params.v_std * params.tau / (params.hbar * self.substeps)
        # slot j of a power buffer holds B^j ψ as a row vector, slot 0 ψ; the
        # two buffers swap roles each part
        self._powers = np.zeros((_TAYLOR_ORDER_MAX + 1, k, 1, n), dtype=complex)
        self._powers[0, :, 0] = states
        self._spare = np.zeros_like(self._powers)
        self._operands = []

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
            raise FloatingPointError("kick generator is non-finite or beyond the Taylor range")
        weights = _TAYLOR_WEIGHTS[orders][..., None, :]
        return list(zip(hams.swapaxes(-1, -2), weights, orders.max(axis=-1).tolist()))

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

    def draw(self, gens, span: int) -> None:
        self._operands = []  # the last block's weights go first
        self._operands = self.prepare(self._draw(gens, span, self.scale))

    def windows(self):
        for operands in self._operands:
            self.apply(operands)
            yield 1, self.states

    def keep(self, index: np.ndarray) -> None:
        """Move the trials at ``index`` to the front of the buffers, in order."""
        self._operands = []  # the block's weights go before the survivors are copied
        self._powers[:, : index.size] = self._powers[:, index]
        self._powers, self._spare = self._powers[:, : index.size], self._spare[:, : index.size]
        self._spare[...] = 0.0


def isotropic_step(
    state: CellState, rng: np.random.Generator, params: PositionWalkParams
) -> CellState:
    """One kick by a unitarily-invariant random Hermitian generator."""
    kick = _TaylorKick(state.amplitudes[None, :], params)
    kick.draw([rng], 1)
    ((_, states),) = kick.windows()
    return CellState(states[0].copy())


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


def ensemble_bytes(trials: int, n: int) -> int:
    """Rough peak bytes of :func:`run_position_ensemble` at N = ``n``.

    Each process holds one batch's block of kicks, its two Taylor power
    buffers and its random generators (about 1 KiB each); every trial's
    outputs come on top, held twice while the batches' outputs are joined.
    """
    processes = range_processes(trials, MIN_TRIALS_PER_PROCESS)
    k = min(-(-trials // processes), _BATCH)
    block = max(_BLOCK_BYTES, 8 * k * _kick_bytes(n))
    powers = 2 * (_TAYLOR_ORDER_MAX + 1) * k * n * 16
    return processes * (block + powers + 1024 * k) + 2 * (16 + 16 * n) * trials


def run_position_ensemble(
    state0: CellState, trials: int, params: PositionWalkParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Cells (−1 for unresolved) and step counts for trials 0..trials−1.

    Trial ``t`` is ``run_measurement(state0, params, stream_id=t)`` bit for
    bit, whichever batch, block and process it walks in.
    :func:`~hilbertbridge.stats_util.walk_ranges` walks the trials in batches
    of up to ``_BATCH``, in ranges of ``MIN_TRIALS_PER_PROCESS`` or more, one
    per process (``HB_THREADS`` caps them); a start inside the cap forks nothing.
    """
    check_trials(trials)
    walk = functools.partial(_walk_batch, state0, params)
    if _start_cell(state0, params) >= 0:
        return walk(trials, 0)[:2]
    return walk_ranges(walk, trials, MIN_TRIALS_PER_PROCESS, _BATCH)[:2]


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

    A trial that absorbs is recorded and zeroed, so it cannot absorb again.
    """
    cell = _start_cell(state0, params)
    cells = np.full(trials, cell, dtype=np.int64)
    steps_out = np.full(trials, 0 if cell >= 0 else params.max_steps, dtype=np.int64)
    finals = np.tile(state0.amplitudes, (trials, 1))
    if cell >= 0 or trials == 0:
        return cells, steps_out, finals
    threshold = 1.0 - params.absorb_eps
    gens = [RngStream(params.seed, t + trial_offset).generator() for t in range(trials)]
    kick = _TaylorKick(finals, params)
    for step, states, rows, alive in kicked_windows(kick, gens, params.max_steps):
        masses = _cell_masses(states)
        if masses.max() >= threshold:
            winner = masses.argmax(axis=1)
            hit = np.flatnonzero(masses[np.arange(rows.size), winner] >= threshold)
            t = rows[hit]
            cells[t] = winner[hit]
            steps_out[t] = step + 1
            finals[t] = states[hit]
            states[hit] = 0.0
            alive[hit] = False
    finals[rows[alive]] = states[alive]
    return cells, steps_out, finals


def _apply_unitary_batch(states: np.ndarray, hams: np.ndarray,
                         params: PositionWalkParams) -> np.ndarray:
    """exp(−iτH/ħ)ψ for a batch of states/generators via eigh.

    The absorbing walk kicks with a Taylor series instead; this eigh form
    stays for :class:`_EighKick` because the published state-msd floats
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
# the state-msd walk's states after each step are handed over a window of
# steps at a time: as many steps as keep all trials' window under this
_WINDOW_BYTES = 2**23


def msd_bytes(trials: int, n: int, n_steps: int) -> int:
    """Rough peak bytes of :func:`_free_windows` at N = ``n``.

    Each process holds a batch's block of kicks (at least 8) and eigh's
    stacks, and every trial its generator and state.  A window of all
    trials' states (16·N bytes a trial-step) is held at most six times
    over: each range's window and its pickle, the received copies and the
    joined window; it takes no more than ``_WINDOW_BYTES`` unless one step
    of states does, so the peak does not grow with ``n_steps``.
    """
    processes = range_processes(trials, _msd_min_trials(n_steps))
    k = min(-(-trials // processes), _BATCH)
    block = max(_BLOCK_BYTES, 8 * k * _kick_bytes(n))
    window = _msd_window(trials, n, n_steps)
    return (processes * (block + k * 48 * n * n)
            + trials * (1024 + 16 * n * (6 * window + 2)))


def _msd_min_trials(n_steps: int) -> int:
    """Fewest trials of a state-msd range worth a forked process."""
    return max(1, -(-_MIN_MSD_KICKS_PER_PROCESS // n_steps))


def _msd_window(trials: int, n: int, n_steps: int) -> int:
    """Steps of the state-msd walk handed over at a time (at least 1)."""
    return max(1, min(n_steps, _WINDOW_BYTES // (16 * n * max(trials, 1))))


class _EighKick(_CellKick):
    """state-msd's cell kick: :func:`_apply_unitary_batch` of generators at ``v_std``."""

    def __init__(self, states: np.ndarray, params: PositionWalkParams, buffer: list) -> None:
        super().__init__(states, buffer)
        self.states, self.params = states, params

    def draw(self, gens, span: int) -> None:
        self._hams = self._draw(gens, span, self.params.v_std)

    def windows(self):
        for hams in self._hams:
            self.states = _apply_unitary_batch(self.states, hams, self.params)
            yield 1, self.states

    def keep(self, index: np.ndarray) -> None:
        self.states = self.states[index]


def _free_windows(state0: CellState, trials: int, params: PositionWalkParams,
                  n_steps: int) -> Iterator[np.ndarray]:
    """(trials, w, N) windows of the states after eigh kicks 1 … ``n_steps``.

    Trial ``t`` draws as trial ``t`` of :func:`run_position_ensemble`, at
    scale ``v_std``, and never stops; ``tau = 0`` draws nothing.  Ranges of
    :func:`stream_ranges` walk their trials in batches of up to ``_BATCH``,
    each kicked a window at a time, so its blocks end at the window's end.
    """
    _require_isotropic(params)
    start, n = state0.amplitudes, len(state0)
    window = _msd_window(trials, n, n_steps)

    def walk_range(count: int, offset: int) -> Iterator[np.ndarray]:
        buffer = [np.empty(0, dtype=complex)]  # the batches' generators
        batches = [(_EighKick(np.tile(start, (len(ids), 1)), params, buffer),
                    [RngStream(params.seed, t).generator() for t in ids])
                   for lo in range(offset, offset + count, _BATCH) if params.tau > 0
                   for ids in [range(lo, min(lo + _BATCH, offset + count))]]
        for first in range(0, n_steps, window):
            out = np.empty((min(window, n_steps - first), count, n), dtype=complex)
            if not batches:
                out[:] = start
            row = 0
            for kick, gens in batches:
                for step, states, *_ in kicked_windows(kick, gens, len(out)):
                    out[step, row:row + len(gens)] = states
                row += len(gens)
            yield out.transpose(1, 0, 2)

    return stream_ranges(walk_range, trials, _msd_min_trials(n_steps))


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
