"""Spin measurement as a random walk on the Bloch sphere.

A two-level state is kicked by an i.i.d. normal magnetic field, each kick
applied through the closed-form Pauli exponential.  The walk ends when the
Hopf height ``z`` enters one of the polar absorption bands; ensemble
statistics of those absorptions are compared against the ``(1 − z₀)/2``
ruin prediction.

One engine walks every trial: :func:`run_walk` is a one-trial
:func:`run_ensemble`, and trials are pure functions of ``(params, trial
index)`` that may be aggregated in any order.  It and the never-absorbed
walk of the state mean-squared displacement kick on :func:`kicked_windows`.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from typing import Callable

import numpy as np

from hilbertbridge.state_geometry import require_positive, require_state
from hilbertbridge.stats_util import (RngStream, TestReport, check_seed, check_trials,
                                      direction_uniformity, kicked_windows, ks_test,
                                      range_processes, walk_ranges)

__all__ = [
    "WalkResult",
    "SpinWalkParams",
    "WalkOutcome",
    "IsotropyReport",
    "pauli_step",
    "sample_field",
    "run_walk",
    "run_ensemble",
    "ensemble_bytes",
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
        require_positive(dt=self.dt, field_std=self.field_std, mu=self.mu,
                         hbar=self.hbar)
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
class IsotropyReport:
    direction: TestReport
    axial: TestReport
    component_normality: tuple[TestReport, TestReport]
    displacements: np.ndarray  # the tested (n_steps, 2) tangent components

    @property
    def passed(self) -> bool:
        return (
            self.direction.passed
            and self.axial.passed
            and all(r.passed for r in self.component_normality)
        )


def _as_unit_spinor(phi) -> np.ndarray:
    return require_state(phi, tol=1e-10, size=2)


def _height(phi: np.ndarray) -> float:
    return float(abs(phi[1]) ** 2 - abs(phi[0]) ** 2)


def pauli_step(phi, b, params: SpinWalkParams) -> np.ndarray:
    """One closed-form kick φ′ = exp(i μ dt σ·B / ħ) φ.

    Because (σ·B)² = |B)² I the exponential collapses to
    cos(λ) I + i sin(λ) σ·B̂ with λ = μ|B|dt/ħ — no series, no
    renormalization, unitary to round-off.  A zero field is the identity.
    """
    return _kick(_as_unit_spinor(phi), _as_field(b), params)


def _as_field(b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape != (3,):
        raise ValueError("field must be a 3-vector")
    return b


def _kick(phi: np.ndarray, b: np.ndarray, params: SpinWalkParams) -> np.ndarray:
    """:func:`pauli_step` of a unit spinor and a float 3-vector, unchecked."""
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
    codes, steps, finals = _walk_batch(_as_unit_spinor(phi0), params, 1, stream_id)
    return WalkOutcome(_OUTCOMES[codes[0]], int(steps[0]), finals[0])


# ---------------------------------------------------------------------------
# vectorized ensemble


# A block of fields holds about _BLOCK_BUDGET trial-steps (6 MiB): the block
# length is that budget over the survivors, clipped so that the per-trial
# refill and the per-step overhead stay amortised.  A wide batch's block of
# _MIN_BLOCK kicks can exceed the budget, up to 2²⁰ trial-steps at _MAX_BATCH.
_BLOCK_BUDGET = 1 << 18
_MIN_BLOCK, _MAX_BLOCK = 32, 256
# widest batch; each batch pays its own absorption tail, so fewer are faster
_MAX_BATCH = 1 << 15
# kicks (coefficient planes and kicked states) held between two absorption scans
_SCAN = 16
# trials whose draws are transposed together (their rows stay in cache)
_TILE = 64


class _SpinKick:
    """The spin walk's kick of a batch of trials, for :func:`kicked_windows`.

    ``scratch``, the real planes of a window's coefficients, is spent once
    the window is kicked into the (2, _SCAN, n) ring of states.
    """

    def __init__(self, phi0: np.ndarray, params: SpinWalkParams, trials: int,
                 n_steps: int) -> None:
        if _SCAN < 2:  # kick j reads slot j − 1, which one slot would overwrite
            raise ValueError(f"the ring of states needs at least 2 slots, got _SCAN = {_SCAN}")
        self.params = params
        self._fields = np.empty(3 * min(max(_BLOCK_BUDGET, _MIN_BLOCK * trials),
                                        _MAX_BLOCK * trials, n_steps * trials))
        self.scratch = np.empty((2, min(_SCAN, n_steps) * trials))
        self._cplx = np.empty((5, self.scratch.shape[1]), dtype=complex)
        self._ring_buf = np.empty(2 * _SCAN * trials, dtype=complex)
        self._ring = self._ring_buf.reshape(2, _SCAN, trials)
        self._ring[:, -1] = phi0[:, None]

    @staticmethod
    def block(live: int, steps_left: int) -> int:
        return min(max(_BLOCK_BUDGET // live, _MIN_BLOCK), _MAX_BLOCK, steps_left)

    def draw(self, gens, span: int) -> None:
        """The ``n`` generators' next ``span`` fields, a (span, 3, n) view of the buffer."""
        n = len(gens)
        fields = self._fields[: 3 * span * n].reshape(span * 3, n)
        tile = np.empty((min(_TILE, n), span * 3))
        for lo in range(0, n, _TILE):
            rows = tile[: min(_TILE, n - lo)]
            for row, gen in zip(rows, gens[lo : lo + _TILE]):
                gen.standard_normal(out=row)
            fields[:, lo : lo + len(rows)] = rows.T
        # Generator.normal is loc + scale * z
        np.multiply(fields, self.params.field_std, out=fields)
        np.add(fields, 0.0, out=fields)
        self._block = fields.reshape(span, 3, n)

    def windows(self):
        """Kick the block, yielding ``(width, ring[:, :width])`` every _SCAN kicks.

        Kick j of a window moves ring slot j − 1 into slot j, by coefficients
        ``(c, s, bz, bp, bm)`` built first as (width, n) planes.  Every element
        goes through the floating-point operations of ``_step_batch`` in
        ``tests/reference_walks.py``: :meth:`draw` repeats ``Generator.normal``,
        ``(f0² + f1²) + f2²`` is the order in which ``np.linalg.norm`` sums a
        3-vector, and a real factor of a complex product is promoted to complex
        there too, so ``c`` and ``bz`` are stored promoted.
        """
        params, ring = self.params, self._ring
        slots0, slots1 = list(ring[0]), list(ring[1])
        u, v = np.empty((2, ring.shape[2]), dtype=complex)
        for w0 in range(0, len(self._block), _SCAN):
            f0, f1, f2 = self._block[w0 : w0 + _SCAN].transpose(1, 0, 2)
            norm, lam = (r[: f2.size].reshape(f2.shape) for r in self.scratch)
            c, s, bz, bp, bm = (r[: f2.size].reshape(f2.shape) for r in self._cplx)

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

            for j, (ck, sk, zk, pk, mk) in enumerate(zip(c, s, bz, bp, bm)):
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
            yield len(f2), ring[:, : len(f2)]
        # the next block kicks on from slot −1
        ring[:, -1] = ring[:, len(f2) - 1]

    def keep(self, index: np.ndarray) -> None:
        survivors = self._ring[:, -1, index]
        self._ring = self._ring_buf[: 2 * _SCAN * index.size].reshape(2, _SCAN, index.size)
        self._ring[:, -1] = survivors


def _start_code(phi0, params: SpinWalkParams) -> int | None:
    """``_UP`` or ``_DOWN`` for a start already inside a cap, else None."""
    z0 = _height(phi0)
    if abs(z0) < params.absorb_z:
        return None
    return _UP if z0 > 0 else _DOWN


def _walk_batch(phi0, params: SpinWalkParams, trials: int, trial_offset: int):
    """``(codes, steps, finals)`` of the ``trials`` substreams from ``trial_offset``."""
    start = _start_code(phi0, params)
    codes = np.full(trials, _UNRESOLVED if start is None else start, dtype=np.int8)
    steps_out = np.full(trials, params.max_steps if start is None else 0, dtype=np.int64)
    finals = np.tile(phi0, (trials, 1))
    if start is not None or trials == 0:
        return codes, steps_out, finals
    zc = params.absorb_z
    gens = [RngStream(params.seed, t + trial_offset).generator() for t in range(trials)]
    kick = _SpinKick(phi0, params, trials, params.max_steps)
    for step, window, rows, alive in kicked_windows(kick, gens, params.max_steps):
        # absorption scan in the spent real planes: each row's first crossing
        width, n = window.shape[1:]
        z, mag = (r[: width * n].reshape(width, n) for r in kick.scratch)
        np.square(np.abs(window[1], out=z), out=z)
        np.subtract(z, np.square(np.abs(window[0], out=mag), out=mag), out=z)
        hit = (np.abs(z, out=mag) >= zc) & alive
        cols = np.flatnonzero(hit.any(axis=0))
        if cols.size:
            first = hit[:, cols].argmax(axis=0)
            t = rows[cols]
            up = z[first, cols] >= zc
            codes[t[up]] = _UP
            codes[t[~up]] = _DOWN
            steps_out[t] = step + first + 1
            finals[t] = window[:, first, cols].T
            alive[cols] = False
    # the rows still alive after the last window are unresolved
    finals[rows[alive]] = window[:, -1, alive].T
    return codes, steps_out, finals


def _free_windows(phi0, trials: int, params: SpinWalkParams, n_steps: int):
    """(trials, w, 2) windows of states kicked as in :func:`run_ensemble`, never stopping."""
    phi0 = _as_unit_spinor(phi0)
    gens = [RngStream(params.seed, t).generator() for t in range(trials)]
    kick = _SpinKick(phi0, params, trials, n_steps)
    return (ring.transpose(2, 1, 0) for _, ring, *_ in kicked_windows(kick, gens, n_steps))


# fewest trials worth a forked process: smaller ranges save less walking
# than the fork, the result transfer and a second absorption tail cost
MIN_TRIALS_PER_PROCESS = 1024


def ensemble_bytes(trials: int) -> int:
    """Rough peak bytes of :func:`run_ensemble` over all its processes.

    Each process holds a block of fields of 24 bytes a trial-step: about
    2¹⁸ trial-steps (6 MiB), but at least 32 kicks and at most 256 for each
    trial of its widest batch.  Per trial it also holds a 16-kick scan window
    of coefficient planes (1.5 KiB) and a ring of states (0.5 KiB), a
    generator (about 0.6 KiB) and scan masks, scratch and outputs
    (0.15 KiB).  The returned columns take 41 bytes a trial, held twice
    while the batches' columns are joined, and the outcome table 8 more.
    """
    processes = range_processes(trials, MIN_TRIALS_PER_PROCESS)
    width = min(-(-trials // processes), _MAX_BATCH)
    block = min(max(_BLOCK_BUDGET, _MIN_BLOCK * width), _MAX_BLOCK * width)
    return processes * (3 * 8 * block + (128 * _SCAN + 768) * width) + 90 * trials


def run_ensemble(
    phi0, trials: int, params: SpinWalkParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcomes for trials 0..trials−1, identical to per-trial run_walk.

    Returns ``(results, steps, final_states)`` where ``results`` holds
    ``WalkResult`` values, ``steps`` the kick counts and ``final_states``
    the (trials, 2) spinors at stopping time.

    :func:`~hilbertbridge.stats_util.walk_ranges` walks the trials in
    ranges of at least ``MIN_TRIALS_PER_PROCESS``, one per process
    (``HB_THREADS`` caps them), and batches of up to ``_MAX_BATCH``; a start
    already inside the cap forks nothing.  Fields are drawn in blocks of
    about 2¹⁸ trial-steps, so memory stays bounded whatever ``max_steps`` is.
    Every trial is a pure function of its substream ``(seed, trial)``.
    """
    check_trials(trials)
    phi0 = _as_unit_spinor(phi0)
    walk = functools.partial(_walk_batch, phi0, params)
    if _start_code(phi0, params) is not None:
        codes, steps_out, finals = walk(trials, 0)
    else:
        codes, steps_out, finals = walk_ranges(walk, trials, MIN_TRIALS_PER_PROCESS,
                                               _MAX_BATCH)
    return _OUTCOMES[codes], steps_out, finals


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
    if field_sampler is None:
        # one draw of every field is the stream of one sample_field a kick
        fields = gen.normal(0.0, params.field_std, size=(n_steps, 3))
    else:
        fields = (_as_field(field_sampler(gen)) for _ in range(n_steps))
    out = np.empty((n_steps, 2))
    for i, b in enumerate(fields):
        moved = _kick(phi0, b, params)
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
    z0 = abs(_height(_as_unit_spinor(phi0)))
    if z0 >= 1 - 1e-9:
        raise ValueError("pick a start state away from the poles")
    disp = tangent_displacements(phi0, n_steps, params, stream_id, field_sampler)

    direction = direction_uniformity(disp, alpha=alpha)
    angles = np.arctan2(disp[:, 1], disp[:, 0])
    doubled = np.column_stack([np.cos(2 * angles), np.sin(2 * angles)])
    axial = direction_uniformity(doubled, alpha=alpha)

    # norm(0, scale).cdf's own kernel; scipy.stats is slow to import
    from scipy.special import ndtr

    normality = tuple(ks_test(ndtr(np.sort(disp[:, axis]) / params.step_angle), alpha)
                      for axis in range(2))
    return IsotropyReport(
        direction=direction,
        axial=axial,
        component_normality=normality,
        displacements=disp,
    )


# ---------------------------------------------------------------------------
# lattice ruin oracle


def lattice_ruin_probability(z0: float, delta: float = 0.01) -> float:
    """Exact P(hit −1 before +1) for the symmetric walk on a z-lattice.

    Solves the interior harmonic system of the chain −1, −1+δ, …, 1 with
    absorbing ends; ``z0`` must be a lattice point.  Linear algebra only —
    no sampling — so it serves as an independent reference for (1 − z)/2.
    """
    require_positive(delta=delta)
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
    # boundary u_0 = 1 (down pole hit), u_n = 0; ab is the banded (1, 1) form
    ab = np.array([[-1.0], [2.0], [-1.0]]) * np.ones(n - 1)
    ab[0, 0] = ab[2, -1] = 0.0
    rhs = np.zeros(n - 1)
    rhs[0] = 1.0
    from scipy.linalg import solve_banded

    u = solve_banded((1, 1), ab, rhs)
    return float(u[k - 1])
