"""Coherent Gaussian packets and their state-space kinematics.

A packet is labeled by a phase-space point (a, p) plus a fixed width σ; the
family of packets is an embedded copy of classical phase space inside the unit
sphere of L₂.  The state velocity of a driven packet splits into four
orthogonal pieces — phase rotation (mean energy), classical drift |v|/2σ,
momentum drift |∇V|σ/ħ, and free spreading √2ħ/8σ²m — and the squared H-speed
is the sum of their squares when the potential is linear across the packet.
The module also checks the Ehrenfest relations on arbitrary grid states and
reconstructs the Hamiltonian matrix from its commutators with x̂ and p̂
(unique up to an additive constant on the reliable band of the truncation).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hilbertbridge.hilbert_core import Grid, GridResolutionError, GridWaveFunction
from hilbertbridge.state_geometry import (fibre_decompose, fs_distance, require_positive,
                                          require_state)

__all__ = [
    "GaussianPacket",
    "PotentialField",
    "VelocityComponents",
    "commutator_design",
    "decomposition_check",
    "ehrenfest_check",
    "interior_slice",
    "packet_envelope",
    "packet_wavefunction",
    "phase_space_speed",
    "projective_evolution_speed",
    "reconstruct_hamiltonian",
    "velocity_components",
]


@dataclass(frozen=True)
class GaussianPacket:
    """Coherent Gaussian state: center a, momentum p, width σ, mass m."""

    center: np.ndarray
    momentum: np.ndarray
    sigma: float
    mass: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, float)))
        object.__setattr__(
            self, "momentum", np.atleast_1d(np.asarray(self.momentum, float))
        )
        if self.center.shape != self.momentum.shape:
            raise ValueError("center and momentum dimensions differ")
        if not (np.all(np.isfinite(self.center)) and np.all(np.isfinite(self.momentum))):
            raise ValueError("center and momentum must be finite")
        require_positive(sigma=self.sigma, mass=self.mass, hbar=self.hbar)

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class PotentialField:
    """Scalar potential with its gradient, both vectorized over (..., d) points."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def zero(cls) -> "PotentialField":
        return cls(lambda x: np.zeros(x.shape[:-1]), lambda x: np.zeros_like(x))

    @classmethod
    def linear(cls, force) -> "PotentialField":
        """V(x) = −F·x (constant force F)."""
        f = np.atleast_1d(np.asarray(force, dtype=float))
        return cls(
            lambda x: -(x @ f),
            lambda x: np.broadcast_to(-f, x.shape).copy(),
        )

    @classmethod
    def harmonic(cls, k: float) -> "PotentialField":
        """V(x) = ½ k |x|²."""
        return cls(lambda x: 0.5 * k * (x * x).sum(axis=-1), lambda x: k * x)


@dataclass(frozen=True)
class VelocityComponents:
    """The four orthogonal rates (1/time) of a driven packet's state velocity."""

    phase: float
    space: float
    momentum: float
    spread: float

    def total_squared(self) -> float:
        return self.phase**2 + self.space**2 + self.momentum**2 + self.spread**2


# ---------------------------------------------------------------------------
# packet states on grids


def packet_envelope(pkt: GaussianPacket, grid: Grid) -> Callable[..., np.ndarray]:
    """Sampler ``rows(start, stop=None)`` of the real envelope on axis-0 rows.

    It refuses the grids :func:`packet_wavefunction` refuses.  Offsets x_k − a_k
    are broadcast per axis and their squares summed as ((d₀² + d₁²) + d₂²)…, the
    order numpy sums a stacked (*extent, d) axis of d < 8, so any rows are bit
    for bit the stacked formula's at p = 0.
    """
    if grid.dim != pkt.dim:
        raise ValueError(f"grid is {grid.dim}-dimensional, packet is {pkt.dim}")
    if grid.spacing > pkt.sigma / 2:
        raise GridResolutionError(
            f"spacing {grid.spacing:g} does not resolve sigma {pkt.sigma:g}"
        )
    pmax = np.max(np.abs(pkt.momentum))
    if pmax > 0 and grid.spacing > np.pi * pkt.hbar / (4 * pmax):
        raise GridResolutionError(
            f"spacing {grid.spacing:g} does not resolve momentum {pmax:g}"
        )
    grid.require_coverage(pkt.center, 8 * pkt.sigma)

    def rows(start: int, stop: int | None = None) -> np.ndarray:
        first, *rest = grid.meshgrid()
        dx = [axis - c for axis, c in zip([first[start:stop], *rest], pkt.center)]
        envelope = -(dx[0] * dx[0])
        for d in dx[1:]:
            envelope = envelope - d * d  # (−u) − v is −(u + v) exactly
        envelope /= 4 * pkt.sigma**2
        np.exp(envelope, out=envelope)
        envelope *= (2 * np.pi * pkt.sigma**2) ** (-0.25 * pkt.dim)  # norm
        return envelope

    return rows


def packet_wavefunction(pkt: GaussianPacket, grid: Grid) -> GridWaveFunction:
    """Sample the packet ψ(x) ∝ exp(−(x−a)²/4σ² + i p·(x−a)/ħ) on the grid.

    Unit L₂ norm (the |ψ|² marginal is the normal density with standard
    deviation σ per axis).  The grid must cover a ± 8σ and resolve both the
    envelope and the momentum oscillation.  At p = 0 the stacked formula's
    plane wave is exactly 1 + 0j, so :func:`packet_envelope`, cast to complex,
    gives the samples bit for bit; only p ≠ 0 still builds the stacked formula.
    """
    envelope = packet_envelope(pkt, grid)(0)
    if not np.any(pkt.momentum):
        return grid.with_values(envelope)
    dx = grid.points() - pkt.center
    return grid.with_values(envelope * np.exp(1j * (dx @ pkt.momentum) / pkt.hbar))


# ---------------------------------------------------------------------------
# phase-space kinematics


def phase_space_speed(
    times, centers, momenta, sigma: float, hbar: float = 1.0
) -> np.ndarray:
    """State-space speed of a packet path (a(τ), p(τ)).

    √[ |da/dτ|²/4σ² + σ²|dp/dτ|²/ħ² ] per sample — the Fubini–Study line
    element of the coherent family.  Derivatives are second-order finite
    differences.
    """
    t = np.asarray(times, dtype=float)
    a = np.atleast_2d(np.asarray(centers, dtype=float).T).T
    p = np.atleast_2d(np.asarray(momenta, dtype=float).T).T
    if t.size < 3:
        raise ValueError("need at least 3 samples")
    if not np.all(np.diff(t) > 0):
        raise ValueError("times must be strictly increasing")
    da = np.gradient(a, t, axis=0, edge_order=2)
    dp = np.gradient(p, t, axis=0, edge_order=2)
    return np.sqrt(
        (da * da).sum(axis=1) / (4 * sigma**2)
        + (dp * dp).sum(axis=1) * sigma**2 / hbar**2
    )


def velocity_components(pkt: GaussianPacket, potential: PotentialField) -> VelocityComponents:
    """Split the packet's state velocity into its four orthogonal rates.

    phase = Ē/ħ with Ē = V(a) + p²/2m + ħ²/8mσ² (the last term is the width
    energy; at σ = ħ/2mc it equals half the rest energy), space = |p/m|/2σ,
    momentum = |∇V(a)|σ/ħ (from m·w = −∇V), spread = √2ħ/8σ²m.

    The split assumes V is linear across the packet; if the curvature of V at
    the center violates σ²·‖V″‖ ≤ 0.01·|∇V|, a warning is emitted and the
    returned components retain their linear-approximation meaning.
    """
    a, p = pkt.center, pkt.momentum
    sig, m, hbar = pkt.sigma, pkt.mass, pkt.hbar
    grad = np.asarray(potential.gradient(a), dtype=float)

    # curvature probe for the linearity premise
    hess = np.empty((pkt.dim, pkt.dim))
    eps = 1e-4 * sig
    for j in range(pkt.dim):
        e = np.zeros(pkt.dim)
        e[j] = eps
        hess[:, j] = (
            np.asarray(potential.gradient(a + e)) - np.asarray(potential.gradient(a - e))
        ) / (2 * eps)
    curv = np.linalg.norm(hess, 2)
    if sig**2 * curv > 0.01 * np.linalg.norm(grad) + 1e-300:
        warnings.warn(
            "potential is not locally linear across the packet; "
            "the four-component split is only a leading-order account",
            stacklevel=2,
        )

    mean_energy = (
        float(potential.value(a)) + (p @ p) / (2 * m) + hbar**2 / (8 * m * sig**2)
    )
    return VelocityComponents(
        phase=mean_energy / hbar,
        space=float(np.linalg.norm(p / m)) / (2 * sig),
        momentum=float(np.linalg.norm(grad)) * sig / hbar,
        spread=np.sqrt(2.0) * hbar / (8 * sig**2 * m),
    )


def _laplacian_fd2(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order central Laplacian with zero (decayed) boundary."""
    out = -2.0 * values.ndim * values.astype(complex)
    for ax in range(values.ndim):
        lo = [slice(None)] * values.ndim
        hi = [slice(None)] * values.ndim
        lo[ax] = slice(0, -1)
        hi[ax] = slice(1, None)
        out[tuple(lo)] += values[tuple(hi)]
        out[tuple(hi)] += values[tuple(lo)]
    return out / h**2


def decomposition_check(
    pkt: GaussianPacket, potential: PotentialField, grid: Grid
) -> float:
    """Relative deviation of ‖ĥψ‖²/ħ² from the sum of squared components.

    ĥ = −ħ²Δ/2m + V is applied on the grid with the second-order Laplacian, so
    the check carries an O((h/σ)²) discretization floor on top of whatever the
    potential's curvature contributes; for linear V and h ≈ 1e−3σ it sits
    below 1e−6.
    """
    psi = packet_wavefunction(pkt, grid)
    x = grid.points()
    vvals = np.asarray(potential.value(x))
    hpsi = (
        -(pkt.hbar**2) / (2 * pkt.mass) * _laplacian_fd2(psi.values, grid.spacing)
        + vvals * psi.values
    )
    w = grid.quadrature_weights()
    lhs = float((np.abs(hpsi) ** 2 * w).sum()) / pkt.hbar**2
    rhs = velocity_components(pkt, potential).total_squared()
    return abs(lhs - rhs) / rhs


def ehrenfest_check(
    psi: GridWaveFunction,
    potential: PotentialField,
    mass: float,
    hbar: float = 1.0,
):
    """Both sides of the two Ehrenfest relations for an arbitrary grid state.

    With dψ/dt = −(i/ħ)ĥψ, returns (lhs₁, rhs₁, lhs₂, rhs₂) per axis, where
    lhs₁ = 2Re⟨dψ/dt, x̂ψ⟩ against rhs₁ = ⟨ψ, (p̂/m)ψ⟩ and
    lhs₂ = 2Re⟨dψ/dt, p̂ψ⟩ against rhs₂ = ⟨ψ, −∇V ψ⟩.
    The same central-difference stencils build ĥ and p̂, which keeps the
    discrete sides consistent to O(h²) without any hidden cancellation tricks.
    """
    vals = psi.values
    h = psi.spacing
    w = psi.quadrature_weights()
    x = psi.points()
    vvals = np.asarray(potential.value(x))
    gvals = np.asarray(potential.gradient(x))
    hpsi = -(hbar**2) / (2 * mass) * _laplacian_fd2(vals, h) + vvals * vals
    dpsi_dt = -1j / hbar * hpsi

    lhs1 = np.empty(psi.dim)
    rhs1 = np.empty(psi.dim)
    lhs2 = np.empty(psi.dim)
    rhs2 = np.empty(psi.dim)
    for i in range(psi.dim):
        xi = x[..., i]
        p_psi = -1j * hbar * np.gradient(vals, h, axis=i, edge_order=2)
        lhs1[i] = 2 * np.real((np.conj(dpsi_dt) * xi * vals * w).sum())
        rhs1[i] = np.real((np.conj(vals) * p_psi * w).sum()) / mass
        lhs2[i] = 2 * np.real((np.conj(dpsi_dt) * p_psi * w).sum())
        rhs2[i] = -np.real((np.conj(vals) * gvals[..., i] * vals * w).sum())
    return lhs1, rhs1, lhs2, rhs2


def projective_evolution_speed(
    hamiltonian: np.ndarray, phi: np.ndarray, dt: float, hbar: float = 1.0
) -> tuple[float, float]:
    """(finite-difference FS speed, ΔE/ħ) for a matrix-model state.

    The projective speed of e^{−iHt/ħ}φ is the energy uncertainty over ħ; the
    first element is measured from the states at ±dt, the second computed from
    the fibre decomposition, so the pair quantifies the agreement directly.
    """
    from scipy.linalg import expm  # slow to import; only this check needs it

    phi = require_state(phi)
    u = expm(-1j * hamiltonian * dt / hbar)
    forward = u @ phi
    backward = u.conj().T @ phi
    fd_speed = fs_distance(forward, backward) / (2 * dt)
    _, orth = fibre_decompose(hamiltonian, phi)
    return fd_speed, float(np.linalg.norm(orth)) / hbar


# ---------------------------------------------------------------------------
# Hamiltonian reconstruction


def interior_slice(n: int, pad: int = 4) -> slice:
    """Index range of the truncation-safe leading block."""
    if n <= pad:
        raise ValueError(f"truncation {n} too small for pad {pad}")
    return slice(0, n - pad)


# smallest truncation whose interior band reconstruct_hamiltonian can pin
MIN_TRUNCATION = 8
# basis vectors reconstruct_hamiltonian turns into design-matrix columns at a
# time: as fast as 64 at 24 levels, and their complex stacks (0.4 MiB) are
# gone before lstsq copies the 8.5 MiB design matrix
_DESIGN_CHUNK = 16


def _from_params(theta: np.ndarray, n: int) -> np.ndarray:
    """The Hermitian n × n matrices of real parameters ``theta`` (leading axes broadcast).

    The parameters are the diagonal, then Re and Im of the upper triangle.
    """
    iu = np.triu_indices(n, k=1)
    h = np.zeros((*theta.shape[:-1], n, n), dtype=complex)
    h[..., np.arange(n), np.arange(n)] = theta[..., :n]
    re = theta[..., n : n + iu[0].size]
    im = theta[..., n + iu[0].size :]
    h[..., iu[0], iu[1]] = re + 1j * im
    h[..., iu[1], iu[0]] = re - 1j * im
    return h


def commutator_design(x_op: np.ndarray, p_op: np.ndarray) -> np.ndarray:
    """Design matrix of the map from Hermitian H to i[H, x̂] and i[H, p̂].

    Column j holds the real and imaginary parts of both commutators of the
    j-th parameter's basis matrix (see :func:`reconstruct_hamiltonian`), on
    the entries with both indices in the truncation-safe range.
    """
    n = x_op.shape[0]
    if n < MIN_TRUNCATION:
        raise ValueError(f"need truncation ≥ {MIN_TRUNCATION}, got {n}")
    keep = interior_slice(n, pad=2)  # equations valid for indices ≤ n−3
    n_params = n * n

    def equations(h: np.ndarray) -> np.ndarray:
        parts = []
        for op in (x_op, p_op):
            c = h @ op
            c -= op @ h
            c *= 1j  # i[H, op]
            block = c[..., keep, keep].reshape(*h.shape[:-2], -1)
            parts += [block.real, block.imag]
        return np.concatenate(parts, axis=-1)

    # the entries are exact, so building _DESIGN_CHUNK columns at a time from
    # rows of the identity is bit for bit the one-column build
    a_mat = np.empty((4 * (n - 2) ** 2, n_params))
    for j in range(0, n_params, _DESIGN_CHUNK):
        k = min(_DESIGN_CHUNK, n_params - j)
        a_mat[:, j : j + k] = equations(_from_params(np.eye(k, n_params, j), n)).T
    return a_mat


def reconstruct_hamiltonian(
    x_op: np.ndarray,
    p_op: np.ndarray,
    grad_v_op: np.ndarray,
    potential_op: np.ndarray | None = None,
    mass: float = 1.0,
    hbar: float = 1.0,
) -> tuple[np.ndarray, int, int]:
    """Solve i[H, x̂] = (ħ/m)p̂ and i[H, p̂] = −ħ·∇V for Hermitian H.

    The equations are imposed only on matrix entries with both indices in the
    truncation-safe range (the top band of the finite matrices is corrupted by
    the cutoff), and they determine H there up to an additive constant.  The
    constant is fixed by matching the mean diagonal of H to that of
    p̂²/2m + V̂ over the interior block — the trace condition restricted to the
    entries the equations actually determine.

    Returns (H, rank, n_params) of the least-squares system; a rank smaller
    than n_params is expected (the additive constant plus the untouched top
    band never enter the equations).
    """
    return _solve_hamiltonian(commutator_design(x_op, p_op), x_op, p_op, grad_v_op,
                              potential_op, mass, hbar)


def _solve_hamiltonian(design, x_op, p_op, grad_v_op, potential_op, mass, hbar):
    """:func:`reconstruct_hamiltonian` given ``design``, :func:`commutator_design` of x̂ and p̂.

    The design depends on neither potential, so solves for several share it.
    """
    n = x_op.shape[0]
    keep = interior_slice(n, pad=2)
    b = np.concatenate(
        [
            np.concatenate(
                [t[keep, keep].real.ravel(), t[keep, keep].imag.ravel()]
            )
            for t in ((hbar / mass) * p_op, -hbar * grad_v_op)
        ]
    )
    theta, _, rank, _ = np.linalg.lstsq(design, b, rcond=None)
    h_rec = _from_params(theta, n)

    reference = p_op @ p_op / (2 * mass)
    if potential_op is not None:
        reference = reference + potential_op
    band = interior_slice(n, pad=4)
    shift = np.mean(np.diag(reference)[band].real) - np.mean(np.diag(h_rec)[band].real)
    return h_rec + shift * np.eye(n), int(rank), n * n
