"""Geometry of finite-dimensional state space.

Unit state vectors live on the round sphere of C^N; physical states are rays
(the sphere modulo global phase).  A Hermitian observable A generates the
tangent vector field φ ↦ −iAφ, whose component along the phase fibre is the
mean of A and whose orthogonal norm is the uncertainty of A.  Commutators of
generators give sectional curvature; for spin-1/2 the Hopf fibration maps
states to Bloch vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "BlochPoint",
    "fibre_decompose",
    "fs_distance",
    "hopf_map",
    "killing_inner",
    "observable_field",
    "oscillator_matrices",
    "require_anti_hermitian",
    "require_hermitian",
    "require_positive",
    "require_state",
    "sectional_curvature",
    "state_sectional_curvature",
    "uncertainty_identity",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def require_positive(**scales: float) -> None:
    """Refuse the first scale that is not a finite number greater than zero.

    The message names the keyword: ``"<key> must be finite, got <v>"`` or
    ``"<key> must be positive, got <v>"``.
    """
    for key, value in scales.items():
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
        if value <= 0:
            raise ValueError(f"{key} must be positive, got {value}")


def require_state(phi, tol: float = 1e-12, size: int | None = None) -> np.ndarray:
    """Validate and return a finite unit state vector of dimension ``size`` (any ≥ 2)."""
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim != 1 or phi.size < 2 or size not in (None, phi.size):
        raise ValueError(
            f"state must be a vector of dimension {size or '≥ 2'}, got shape {phi.shape}"
        )
    if not np.isfinite(phi).all():
        raise ValueError("state must be finite")
    norm = np.linalg.norm(phi)
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
    return phi


def _require_square(a, what: str, sign: float, tol: float) -> np.ndarray:
    """``a`` as a finite square matrix with a† = sign·a to within ``tol``."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    scale = max(np.linalg.norm(a), 1.0)
    if np.linalg.norm(a - sign * a.conj().T) > tol * scale:
        raise ValueError(f"matrix is not {'' if sign > 0 else 'anti-'}Hermitian")
    return a


def require_hermitian(a, tol: float = 1e-12) -> np.ndarray:
    """Validate and return a finite Hermitian matrix."""
    return _require_square(a, "observable", 1.0, tol)


def require_anti_hermitian(x, tol: float = 1e-12) -> np.ndarray:
    """Validate and return a finite anti-Hermitian generator."""
    return _require_square(x, "generator", -1.0, tol)


@dataclass(frozen=True)
class BlochPoint:
    """Point on the unit two-sphere."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        r2 = self.x**2 + self.y**2 + self.z**2
        if not abs(r2 - 1.0) <= 1e-12:  # also refuses NaN and ∞
            raise ValueError(f"|r|² = {r2!r} is not 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


# ---------------------------------------------------------------------------
# observables as tangent fields


def observable_field(a, phi) -> np.ndarray:
    """Tangent vector −iAφ of the flow generated by observable A.

    Tangency to the unit sphere is automatic: Re⟨φ, −iAφ⟩ = 0 because ⟨φ, Aφ⟩
    is real for Hermitian A.
    """
    a = require_hermitian(a)
    phi = require_state(phi)
    if a.shape[0] != phi.size:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {phi.size}")
    return -1j * (a @ phi)


def fibre_decompose(a, phi) -> tuple[float, np.ndarray]:
    """Split −iAφ into its fibre component and the rest.

    The fibre direction at φ is −iφ (global phase).  The component along it is
    the mean ⟨A⟩; the orthogonal remainder −i(A − ⟨A⟩)φ has squared norm equal
    to the variance of A.  Returns (mean, orthogonal vector).
    """
    a = require_hermitian(a)
    phi = require_state(phi)
    if a.shape[0] != phi.size:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {phi.size}")
    mean = float(np.real(np.vdot(phi, a @ phi)))
    orthogonal = -1j * (a @ phi - mean * phi)
    return mean, orthogonal


def uncertainty_identity(a, b, phi) -> tuple[float, float, float]:
    """Exact decomposition ΔA²ΔB² = area² + inner².

    With X, Y the fibre-orthogonal field components of A and B at φ, the
    product of variances splits into the squared area of the (X, Y)
    parallelogram plus the squared real inner product:

        ΔA²ΔB² = (‖X‖²‖Y‖² − (Re⟨X,Y⟩)²) + (Re⟨X,Y⟩)².

    Since area² ≥ (Im⟨X,Y⟩)² = ¼|⟨φ,[A,B]φ⟩|², the textbook uncertainty
    inequality is the rectangle-vs-parallelogram comparison of areas.

    Returns (ΔA²ΔB², area², inner²).
    """
    _, x = fibre_decompose(a, phi)
    _, y = fibre_decompose(b, phi)
    nx2 = float(np.real(np.vdot(x, x)))
    ny2 = float(np.real(np.vdot(y, y)))
    inner = float(np.real(np.vdot(x, y)))
    lhs = nx2 * ny2
    return lhs, lhs - inner**2, inner**2


# ---------------------------------------------------------------------------
# metric and curvature


def killing_inner(x, y) -> float:
    """Killing-form inner product ½ Tr(X Y†) of anti-Hermitian generators."""
    x = require_anti_hermitian(x)
    y = require_anti_hermitian(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(np.real(0.5 * np.trace(x @ y.conj().T)))


def sectional_curvature(x, y) -> float:
    """Curvature of the plane spanned by two algebra generators.

    R = ¼‖[X,Y]‖²_K / (‖X‖²_K ‖Y‖²_K − (X,Y)²_K); invariant under rescaling
    either argument.  Raises on a degenerate (linearly dependent) plane.
    """
    x = require_anti_hermitian(x)
    y = require_anti_hermitian(y)
    bracket = x @ y - y @ x
    nx2 = killing_inner(x, x)
    ny2 = killing_inner(y, y)
    xy = killing_inner(x, y)
    denom = nx2 * ny2 - xy**2
    if denom <= 1e-14 * max(nx2 * ny2, 1e-300):
        raise ValueError("generators span a degenerate plane")
    return 0.25 * killing_inner(bracket, bracket) / denom


def state_sectional_curvature(a, b, phi) -> float:
    """Curvature of the state-sphere plane spanned by the A- and B-fields at φ.

    Same quotient as `sectional_curvature` but with the Gram data of the
    centered tangent vectors X = −i(A−⟨A⟩)φ, Y = −i(B−⟨B⟩)φ and the field
    bracket −i[A,B]φ in the state's own inner product.  The denominator is
    the area² of the (X, Y) parallelogram that `uncertainty_identity`
    returns.
    """
    product, area_sq, _ = uncertainty_identity(a, b, phi)
    a = require_hermitian(a)
    b = require_hermitian(b)
    bracket = -1j * ((a @ b - b @ a) @ phi)
    if area_sq <= 1e-14 * max(product, 1e-300):
        raise ValueError("fields span a degenerate plane")
    return 0.25 * float(np.real(np.vdot(bracket, bracket))) / area_sq


# ---------------------------------------------------------------------------
# truncated oscillator


def oscillator_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum of the harmonic oscillator, truncated to N levels.

    Tridiagonal in the number basis with entries √((k+1)/2) on the first
    off-diagonals (ħ = m = ω = 1).  The truncation corrupts only the top band:
    on vectors supported on the first N−2 levels the action is exact, e.g.
    [p̂, x̂] e₀ = −i e₀ holds to machine precision.
    """
    if n < 2:
        raise ValueError(f"levels must be at least 2, got {n}")
    off = np.sqrt(np.arange(1, n) / 2.0)
    x = np.diag(off, 1) + np.diag(off, -1)
    p = np.diag(-1j * off, 1) + np.diag(1j * off, -1)
    return x.astype(complex), p


# ---------------------------------------------------------------------------
# Hopf fibration and Fubini–Study distance


def hopf_map(phi) -> BlochPoint:
    """Bloch vector of a two-component state.

    x = 2 Re(φ₁ conj(φ₂)), y = −2 Im(φ₁ conj(φ₂)), z = |φ₂|² − |φ₁|²;
    phase-invariant, and (1, 0) maps to the south pole (0, 0, −1).
    """
    phi = require_state(phi, size=2)
    cross = phi[0] * np.conj(phi[1])
    n2 = abs(phi[0]) ** 2 + abs(phi[1]) ** 2
    return BlochPoint(
        x=float(2.0 * cross.real / n2),
        y=float(-2.0 * cross.imag / n2),
        z=float((abs(phi[1]) ** 2 - abs(phi[0]) ** 2) / n2),
    )


def fs_distance(phi, psi) -> float:
    """Fubini–Study distance arccos|⟨φ,ψ⟩| ∈ [0, π/2] between rays.

    Zero iff the states agree up to phase; π/2 for orthogonal states.  On the
    Bloch sphere the great-circle angle is twice this: |⟨φ,ψ⟩|² = (1 + x·x′)/2.
    """
    phi = require_state(phi)
    psi = require_state(psi)
    if phi.size != psi.size:
        raise ValueError(f"dimension mismatch: {phi.size} vs {psi.size}")
    overlap = min(abs(np.vdot(phi, psi)), 1.0)
    return float(np.arccos(overlap))
