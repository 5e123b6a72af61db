"""Spin measurement as a random walk on the Bloch sphere.

A two-level state is kicked by an i.i.d. normal magnetic field, each kick
applied through the closed-form Pauli exponential.  The walk ends when the
Hopf height ``z`` enters one of the polar absorption bands; ensemble
statistics of those absorptions are compared against the ``(1 − z₀)/2``
ruin prediction.

One engine walks every trial: :func:`run_walk` is a one-trial
:func:`run_ensemble`, and trials are pure functions of ``(params, trial
index)`` that may be aggregated in any order.  The never-absorbed walk of
the state mean-squared displacement kicks with the same kernel.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from typing import Callable

import numpy as np

from hilbertbridge.state_geometry import hopf_map
from hilbertbridge.stats_util import (RngStream, TestReport, check_seed,
                                      direction_uniformity, walk_ranges)

__all__ = [
    "WalkResult",
    "SpinWalkParams",
    "WalkOutcome",
    "BornHistogram",
    "IsotropyReport",
    "pauli_step",
    "sample_field",
    "run_walk",
    "run_ensemble",
    "ensemble_bytes",
    "born_statistics",
    "tangent_displacements",
    "isotropy_test",
    "lattice_ruin_probability",
]

_MAX_STEP_ANGLE = 0.05


class WalkResult(enum.Enum):
    UP = "UP"
    DOWN = "DOWN"
    UNRESOLVED = "UNRESOLVED"


# the ensemble engine records outcomes as int8 codes into this table
_OUTCOMES = np.array(list(WalkResult), dtype=object)
_UP, _DOWN, _UNRESOLVED = range(3)


@dataclasses.dataclass(frozen=True)
class SpinWalkParams:
    """Knobs for the field statistics, the step size and the stopping rule.

    The product ``mu * field_std * dt / hbar`` is the typical rotation
    half-angle per kick; it must stay at or below 0.05 so that many weak
    kicks are needed to cross the sphere and the walk limit applies.
    """

    dt: float
    field_std: float
    mu: float = 1.0
    hbar: float = 1.0
    absorb_eps: float = 0.005
    max_steps: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.dt, self.field_std, self.mu, self.hbar))):
            raise ValueError("dt, field_std, mu and hbar must be finite")
        if self.dt <= 0 or self.field_std <= 0:
            raise ValueError("dt and field_std must be positive")
        if self.mu <= 0 or self.hbar <= 0:
            raise ValueError("mu and hbar must be positive")
        if not 0 < self.absorb_eps <= 0.1:
            raise ValueError("absorb_eps must lie in (0, 0.1]")
        if not 1 <= self.max_steps < 2**63:  # step counts are int64
            raise ValueError("max_steps must lie in [1, 2**63)")
        check_seed(self.seed)
        if self.step_angle > _MAX_STEP_ANGLE:
            raise ValueError(
                f"step angle {self.step_angle:g} exceeds {_MAX_STEP_ANGLE}; "
                "reduce dt or field_std"
            )

    @property
    def step_angle(self) -> float:
        return self.mu * self.field_std * self.dt / self.hbar

    @property
    def absorb_z(self) -> float:
        """Absorption height: |z| at or beyond 1 − 2·absorb_eps is terminal."""
        return 1.0 - 2.0 * self.absorb_eps


@dataclasses.dataclass(frozen=True)
class WalkOutcome:
    result: WalkResult
    steps: int
    final_state: np.ndarray


@dataclasses.dataclass(frozen=True)
class BornHistogram:
    """Absorption counts with the height-based theoretical reference."""

    trials: int
    n_up: int
    n_down: int
    n_unresolved: int
    reference_down: float

    @property
    def p_up(self) -> float:
        return self.n_up / self.trials

    @property
    def p_down(self) -> float:
        return self.n_down / self.trials

    @property
    def p_unresolved(self) -> float:
        return self.n_unresolved / self.trials


@dataclasses.dataclass(frozen=True)
class IsotropyReport:
    direction: TestReport
    axial: TestReport
    component_normality: tuple[TestReport, TestReport]

    @property
    def passed(self) -> bool:
        return (
            self.direction.passed
            and self.axial.passed
            and all(r.passed for r in self.component_normality)
        )


def _as_unit_spinor(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (2,):
        raise ValueError("state must be a 2-component vector")
    if not np.isfinite(phi).all() or abs(np.linalg.norm(phi) - 1.0) > 1e-10:
        raise ValueError("state must be a finite unit vector")
    return phi


def _height(phi: np.ndarray) -> float:
    return float(abs(phi[1]) ** 2 - abs(phi[0]) ** 2)


def pauli_step(phi, b, params: SpinWalkParams) -> np.ndarray:
    """One closed-form kick φ′ = exp(i μ dt σ·B / ħ) φ.

    Because (σ·B)² = |B)² I the exponential collapses to
    cos(λ) I + i sin(λ) σ·B̂ with λ = μ|B|dt/ħ — no series, no
    renormalization, unitary to round-off.  A zero field is the identity.
    """
    phi = _as_unit_spinor(phi)
    b = np.asarray(b, dtype=float)
    if b.shape != (3,):
        raise ValueError("field must be a 3-vector")
    norm = float(np.linalg.norm(b))
    if norm == 0.0:
        return phi.copy()
    lam = params.mu * norm * params.dt / params.hbar
    bx, by, bz = b / norm
    c, s = math.cos(lam), 1j * math.sin(lam)
    return np.array(
        [
            c * phi[0] + s * (bz * phi[0] + (bx - 1j * by) * phi[1]),
            c * phi[1] + s * ((bx + 1j * by) * phi[0] - bz * phi[1]),
        ]
    )


def sample_field(rng: np.random.Generator, params: SpinWalkParams) -> np.ndarray:
    """Three i.i.d. normal field components, mean 0, std ``field_std``."""
    return rng.normal(0.0, params.field_std, size=3)


def run_walk(phi0, params: SpinWalkParams, stream_id: int = 0) -> WalkOutcome:
    """Walk a single spin until polar absorption or the step budget runs out.

    A one-trial ensemble: trial ``t`` of :func:`run_ensemble` is exactly
    ``run_walk(phi0, params, stream_id=t)``.
    """
    codes, steps, finals = _walk_range(_as_unit_spinor(phi0), params, 1, stream_id)
    return WalkOutcome(_OUTCOMES[codes[0]], int(steps[0]), finals[0])


# ---------------------------------------------------------------------------
# vectorized ensemble


# Block buffers hold at most about _BLOCK_BUDGET trial-steps of kick
# coefficients: the block length is that budget over the survivors, clipped
# so that the per-trial refill and the per-step overhead stay amortised.
_BLOCK_BUDGET = 1 << 20
_MIN_BLOCK, _MAX_BLOCK = 32, 256
# widest batch whose shortest block still fits the budget
_MAX_BATCH = _BLOCK_BUDGET // _MIN_BLOCK
# kicked states held between two absorption scans
_SCAN = 32
# trials whose draws are transposed together (their rows stay in cache)
_TILE = 64


def _kick_coefficients(gens, block: int, params: SpinWalkParams,
                       real: np.ndarray, cplx: np.ndarray):
    """Complex ``(c, s, bz, bp, bm)`` planes of shape (block, n).

    Each generator draws its next ``block`` fields into its own contiguous
    row of a tile of trials, and each tile is transposed into step-major
    rows of ``real`` (5, ≥ block·n); the planes are written to ``cplx``
    (5, ≥ block·n).  Every element goes through the same floating-point
    operations as in ``_step_batch`` of ``tests/reference_walks.py``, the
    per-kick walk the engine is checked against: ``Generator.normal`` is
    ``loc + scale * z``, ``(f0² + f1²) + f2²`` is the order in which
    ``np.linalg.norm`` sums a 3-vector, and a real factor of a complex
    product is promoted to complex there too, so ``c`` and ``bz`` are
    stored promoted.
    """
    n = len(gens)
    size = block * n
    fields = real[:3].reshape(-1)[: 3 * size].reshape(block * 3, n)
    tile = np.empty((min(_TILE, n), block * 3))
    for lo in range(0, n, _TILE):
        rows = tile[: min(_TILE, n - lo)]
        for row, gen in zip(rows, gens[lo : lo + _TILE]):
            gen.standard_normal(out=row)
        fields[:, lo : lo + len(rows)] = rows.T
    np.multiply(fields, params.field_std, out=fields)
    np.add(fields, 0.0, out=fields)
    f0, f1, f2 = fields.reshape(block, 3, n).transpose(1, 0, 2)
    norm, lam = (real[3 + i, :size].reshape(block, n) for i in range(2))
    c, s, bz, bp, bm = (cplx[i, :size].reshape(block, n) for i in range(5))

    np.multiply(f0, f0, out=norm)
    np.multiply(f1, f1, out=lam)
    np.add(norm, lam, out=norm)
    np.multiply(f2, f2, out=lam)
    np.add(norm, lam, out=norm)
    np.sqrt(norm, out=norm)
    np.multiply(params.mu, norm, out=lam)
    np.multiply(lam, params.dt, out=lam)
    np.divide(lam, params.hbar, out=lam)
    norm[norm == 0.0] = 1.0
    np.divide(f2, norm, out=bz)
    np.divide(f0, norm, out=f0)
    np.divide(f1, norm, out=f1)
    # cos into a real plane first: a complex output would force numpy's
    # buffered casting path, which costs twice the cosine itself
    np.cos(lam, out=norm)
    np.copyto(c, norm)
    np.sin(lam, out=lam)
    np.multiply(1j, lam, out=s)
    np.multiply(1j, f1, out=bp)
    np.add(f0, bp, out=bp)
    np.conjugate(bp, out=bm)
    return c, s, bz, bp, bm


def _plane_buffers(n: int, max_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient plane buffers for ``n`` trials and any later, smaller block."""
    cap = min(max(_BLOCK_BUDGET, _MIN_BLOCK * n), _MAX_BLOCK * n, max_steps * n)
    return np.empty((5, cap)), np.empty((5, cap), dtype=complex)


def _block_length(n: int, steps_left: int) -> int:
    return min(max(_BLOCK_BUDGET // n, _MIN_BLOCK), _MAX_BLOCK, steps_left)


def _kick_window(slots0, slots1, planes, k0: int, width: int, u, v) -> None:
    """Kick ``k0 + j`` of a block's ``planes`` moves ring slot j − 1 into slot j.

    ``slots0``/``slots1`` list the two components' rows of a (2, _SCAN, n)
    ring, slot −1 holding the last kicked states; ``u``, ``v`` are scratch.
    """
    c, s, bz, bp, bm = planes
    for j in range(width):
        k = k0 + j
        ck, sk, zk, pk, mk = c[k], s[k], bz[k], bp[k], bm[k]
        p0, p1 = slots0[j - 1], slots1[j - 1]
        n0, n1 = slots0[j], slots1[j]
        # n0 = c*p0 + s*(bz*p0 + bm*p1)
        np.multiply(ck, p0, out=n0)
        np.multiply(zk, p0, out=u)
        np.multiply(mk, p1, out=v)
        np.add(u, v, out=u)
        np.multiply(sk, u, out=u)
        np.add(n0, u, out=n0)
        # n1 = c*p1 + s*(bp*p0 - bz*p1)
        np.multiply(ck, p1, out=n1)
        np.multiply(pk, p0, out=u)
        np.multiply(zk, p1, out=v)
        np.subtract(u, v, out=u)
        np.multiply(sk, u, out=u)
        np.add(n1, u, out=n1)


def _walk_batch(phi0, ids, params: SpinWalkParams, trial_offset: int,
                codes, steps_out, finals) -> None:
    """Walk trials ``ids`` to absorption, writing their rows of the outputs."""
    zc = params.absorb_z
    z0 = _height(phi0)
    if abs(z0) >= zc:
        codes[ids] = _UP if z0 > 0 else _DOWN
        finals[ids] = phi0
        return
    gens = [RngStream(params.seed, int(t) + trial_offset).generator() for t in ids]
    n = ids.size
    real, cplx = _plane_buffers(n, params.max_steps)
    ring_buf = np.empty(2 * _SCAN * n, dtype=complex)
    ring = ring_buf.reshape(2, _SCAN, n)
    ring[:, -1] = phi0[:, None]
    step = 0
    while n and step < params.max_steps:
        block = _block_length(n, params.max_steps - step)
        planes = _kick_coefficients(gens, block, params, real, cplx)
        slots = list(ring[0]), list(ring[1])
        u, v = np.empty((2, n), dtype=complex)
        # rows that absorb mid-block keep stepping (their outputs are already
        # frozen); survivors are compacted at the block end
        alive = np.ones(n, dtype=bool)
        for w0 in range(0, block, _SCAN):
            width = min(_SCAN, block - w0)
            _kick_window(*slots, planes, w0, width, u, v)

            # absorption scan: each row's first crossing in this window
            window = ring[:, :width]
            z = np.abs(window[1]) ** 2 - np.abs(window[0]) ** 2
            hit = (np.abs(z) >= zc) & alive
            rows = np.flatnonzero(hit.any(axis=0))
            if rows.size:
                first = hit[:, rows].argmax(axis=0)
                t = ids[rows]
                up = z[first, rows] >= zc
                codes[t[up]] = _UP
                codes[t[~up]] = _DOWN
                steps_out[t] = step + w0 + first + 1
                finals[t] = window[:, first, rows].T
                alive[rows] = False
                if not alive.any():
                    break

        step += block
        keep = np.flatnonzero(alive)
        survivors = ring[:, width - 1, keep]
        ids = ids[keep]
        gens = [gens[i] for i in keep]
        n = keep.size
        ring = ring_buf[: 2 * _SCAN * n].reshape(2, _SCAN, n)
        ring[:, -1] = survivors

    if n:
        codes[ids] = _UNRESOLVED
        steps_out[ids] = params.max_steps
        finals[ids] = ring[:, -1].T


def _free_walk_msd(phi0, trials: int, params: SpinWalkParams, n_steps: int) -> np.ndarray:
    """⟨θ²⟩, θ = arccos |⟨φ₀|φ⟩|, after each of 0 … ``n_steps`` kicks.

    Trial ``t`` kicks as trial ``t`` of :func:`run_ensemble` but never stops.
    """
    phi0 = _as_unit_spinor(phi0)
    gens = [RngStream(params.seed, t).generator() for t in range(trials)]
    real, cplx = _plane_buffers(trials, n_steps)
    ring = np.empty((2, _SCAN, trials), dtype=complex)
    ring[:, -1] = phi0[:, None]
    slots = list(ring[0]), list(ring[1])
    u, v = np.empty((2, trials), dtype=complex)
    pairs = np.empty((trials, 2), dtype=complex)  # states as rows
    out = np.zeros(n_steps + 1)
    step = 0
    while step < n_steps:
        block = _block_length(trials, n_steps - step)
        planes = _kick_coefficients(gens, block, params, real, cplx)
        for w0 in range(0, block, _SCAN):
            width = min(_SCAN, block - w0)
            _kick_window(*slots, planes, w0, width, u, v)
            for j in range(width):
                pairs[:, 0], pairs[:, 1] = slots[0][j], slots[1][j]
                overlap = np.abs(pairs @ phi0.conj())
                out[step + w0 + j + 1] = (np.arccos(np.minimum(overlap, 1.0)) ** 2).mean()
        step += block
        ring[:, -1] = ring[:, width - 1]
    return out


# fewest trials worth a forked process: smaller ranges save less walking
# than the fork, the result transfer and a second absorption tail cost
MIN_TRIALS_PER_PROCESS = 1024


def ensemble_bytes(trials: int, processes: int) -> int:
    """Rough peak bytes of :func:`run_ensemble` over all its processes.

    Each process holds 5 real and 5 complex block planes of 2²⁰ trial-steps
    (120 MiB) and, per trial of its widest batch, a generator (about
    0.6 KiB) and a ring of states (1 KiB); the returned arrays take 49 bytes
    a trial.
    """
    width = min(-(-trials // processes), _MAX_BATCH)
    planes = 5 * _BLOCK_BUDGET * (8 + 16)
    return processes * (planes + 2048 * width) + 49 * trials


def _walk_range(phi0, params: SpinWalkParams, trials: int, trial_offset: int):
    """``(codes, steps, finals)`` of the ``trials`` substreams from ``trial_offset``.

    Batches of up to ``_MAX_BATCH`` trials walk one after the other.
    """
    codes = np.empty(trials, dtype=np.int8)
    steps_out = np.zeros(trials, dtype=np.int64)
    finals = np.empty((trials, 2), dtype=complex)
    for lo in range(0, trials, _MAX_BATCH):
        ids = np.arange(lo, min(lo + _MAX_BATCH, trials))
        _walk_batch(phi0, ids, params, trial_offset, codes, steps_out, finals)
    return codes, steps_out, finals


def run_ensemble(
    phi0, trials: int, params: SpinWalkParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcomes for trials 0..trials−1, identical to per-trial run_walk.

    Returns ``(results, steps, final_states)`` where ``results`` holds
    ``WalkResult`` values, ``steps`` the kick counts and ``final_states``
    the (trials, 2) spinors at stopping time.

    The trials are split into contiguous ranges of at least
    ``MIN_TRIALS_PER_PROCESS`` trials, one per process (see
    :func:`~hilbertbridge.stats_util.walk_ranges`; ``HB_THREADS`` caps
    them).  This process walks the first range and forked processes walk
    the others, returning int8 outcome codes, step counts and final states;
    a start already inside the cap absorbs at once and forks nothing.
    Within a range all trials walk as one batch up to 2¹⁵ trials
    (``_MAX_BATCH``); wider ranges are split into batches of that width.  Fields are drawn in blocks whose buffers hold
    about 2²⁰ trial-steps, so memory stays bounded whatever ``max_steps``
    is.  Every trial is a pure function of its substream ``(seed, trial)``,
    the same bits at any batch width and process count.
    """
    phi0 = _as_unit_spinor(phi0)
    walk = functools.partial(_walk_range, phi0, params)
    if abs(_height(phi0)) >= params.absorb_z:
        codes, steps_out, finals = walk(trials, 0)
    else:
        codes, steps_out, finals = walk_ranges(walk, trials, MIN_TRIALS_PER_PROCESS)
    return _OUTCOMES[codes], steps_out, finals


def born_statistics(phi0, trials: int, params: SpinWalkParams) -> BornHistogram:
    """Empirical UP/DOWN frequencies with the (1 − z₀)/2 ruin reference.

    The reference is read off the Hopf height of the initial state, i.e.
    from where the walk starts on the sphere, not from the amplitudes.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    phi0 = _as_unit_spinor(phi0)
    z0 = hopf_map(phi0).z
    results, _, _ = run_ensemble(phi0, trials, params)
    n_up = int(np.sum(results == WalkResult.UP))
    n_down = int(np.sum(results == WalkResult.DOWN))
    return BornHistogram(
        trials=trials,
        n_up=n_up,
        n_down=n_down,
        n_unresolved=trials - n_up - n_down,
        reference_down=(1.0 - z0) / 2.0,
    )


# ---------------------------------------------------------------------------
# one-step tangent statistics


def tangent_displacements(
    phi0,
    n_steps: int,
    params: SpinWalkParams,
    stream_id: int = 0,
    field_sampler: Callable[[np.random.Generator], np.ndarray] | None = None,
) -> np.ndarray:
    """(n_steps, 2) real tangent components of one-kick displacements.

    Every kick starts from the same ``phi0``; the displacement is the
    complex projection of the moved state onto the unit tangent direction
    ``(−conj φ₁, conj φ₀)``.  ``field_sampler`` overrides the isotropic
    normal field (used by degenerate negative controls).
    """
    phi0 = _as_unit_spinor(phi0)
    gen = RngStream(params.seed, stream_id).generator()
    tangent = np.array([-np.conj(phi0[1]), np.conj(phi0[0])])
    out = np.empty((n_steps, 2))
    for i in range(n_steps):
        b = field_sampler(gen) if field_sampler else sample_field(gen, params)
        moved = pauli_step(phi0, b, params)
        ortho = moved - phi0 * np.vdot(phi0, moved)
        comp = complex(np.vdot(tangent, ortho))
        out[i] = comp.real, comp.imag
    return out


def isotropy_test(
    phi0,
    n_steps: int,
    params: SpinWalkParams,
    stream_id: int = 0,
    field_sampler: Callable[[np.random.Generator], np.ndarray] | None = None,
    alpha: float = 0.01,
) -> IsotropyReport:
    """Direction-uniformity and component-normality checks of one-step kicks.

    Displacements come in ± pairs by field symmetry, so the plain direction
    test has no power against axis-pinned noise; the doubled-angle (axial)
    test covers that case.  Component normality is tested against the
    predicted per-axis scale ``mu * field_std * dt / hbar``.
    """
    from scipy import stats

    z0 = abs(_height(_as_unit_spinor(phi0)))
    if z0 >= 1 - 1e-9:
        raise ValueError("pick a start state away from the poles")
    disp = tangent_displacements(phi0, n_steps, params, stream_id, field_sampler)

    direction = direction_uniformity(disp, alpha=alpha)
    angles = np.arctan2(disp[:, 1], disp[:, 0])
    doubled = np.column_stack([np.cos(2 * angles), np.sin(2 * angles)])
    axial = direction_uniformity(doubled, alpha=alpha)

    scale = params.step_angle
    normality = []
    for axis in range(2):
        stat, p = stats.kstest(disp[:, axis], "norm", args=(0.0, scale))
        normality.append(TestReport(statistic=float(stat), p_value=float(p), alpha=alpha))
    return IsotropyReport(
        direction=direction,
        axial=axial,
        component_normality=(normality[0], normality[1]),
    )


# ---------------------------------------------------------------------------
# lattice ruin oracle


def lattice_ruin_probability(z0: float, delta: float = 0.01) -> float:
    """Exact P(hit −1 before +1) for the symmetric walk on a z-lattice.

    Solves the interior harmonic system of the chain −1, −1+δ, …, 1 with
    absorbing ends; ``z0`` must be a lattice point.  Linear algebra only —
    no sampling — so it serves as an independent reference for (1 − z)/2.
    """
    n = round(2.0 / delta)
    if abs(n * delta - 2.0) > 1e-12:
        raise ValueError("delta must divide the interval [−1, 1]")
    k = round((z0 + 1.0) / delta)
    if abs(k * delta - (z0 + 1.0)) > 1e-9:
        raise ValueError("z0 must be a lattice point")
    if k <= 0:
        return 1.0
    if k >= n:
        return 0.0
    # interior unknowns u_1..u_{n-1}: u_k = (u_{k-1} + u_{k+1})/2,
    # boundary u_0 = 1 (down pole hit), u_n = 0
    size = n - 1
    main = np.full(size, 2.0)
    off = np.full(size - 1, -1.0)
    rhs = np.zeros(size)
    rhs[0] = 1.0
    ab = np.zeros((3, size))
    ab[0, 1:] = off
    ab[1] = main
    ab[2, :-1] = off
    from scipy.linalg import solve_banded

    u = solve_banded((1, 1), ab, rhs)
    return float(u[k - 1])
