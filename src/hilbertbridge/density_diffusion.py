"""Conservation-of-states checks: grid evolution, continuity, diffusion.

Two norm-preserving propagators (split-step spectral and Crank–Nicolson,
i.e. the implicit midpoint rule), the discrete continuity residual for
their snapshots, a Brownian reference ensemble against the heat kernel,
and the early-time mean-squared projective displacement of the
measurement walks.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from hilbertbridge import position_measurement, spin_measurement
from hilbertbridge.hilbert_core import GridResolutionError, GridWaveFunction
from hilbertbridge.packet_dynamics import PotentialField
from hilbertbridge.state_geometry import require_positive
from hilbertbridge.stats_util import RngStream

__all__ = [
    "EvolutionScheme",
    "EvolutionParams",
    "DiffusionParams",
    "BrownianResult",
    "StateMsd",
    "check_msd_trials",
    "check_msd_steps",
    "evolve_grid",
    "probability_current",
    "continuity_residual",
    "brownian_ensemble",
    "radial_shell_density",
    "state_density_msd",
]


class EvolutionScheme(enum.Enum):
    UNITARY_SPLIT = "UNITARY_SPLIT"
    IMPLICIT_MIDPOINT = "IMPLICIT_MIDPOINT"


@dataclasses.dataclass(frozen=True)
class EvolutionParams:
    dt: float
    steps: int
    hbar: float = 1.0
    mass: float = 1.0
    scheme: EvolutionScheme = EvolutionScheme.UNITARY_SPLIT

    def __post_init__(self) -> None:
        require_positive(dt=self.dt, hbar=self.hbar, mass=self.mass)
        if self.steps < 1:
            raise ValueError("steps must be at least 1")


@dataclasses.dataclass(frozen=True)
class DiffusionParams:
    diffusivity: float
    walkers: int
    dt: float
    t_final: float
    seed: int = 0

    def __post_init__(self) -> None:
        require_positive(diffusivity=self.diffusivity, dt=self.dt, t_final=self.t_final)
        if self.walkers < 10_000:
            raise ValueError("need at least 10^4 walkers")
        if self.t_final < self.dt:
            raise ValueError("t_final must cover at least one step")


def _check_time_step(grid: GridWaveFunction, params: EvolutionParams) -> None:
    # Nyquist kinetic phase per step must stay below π, otherwise the fastest
    # resolved mode aliases within a single step
    nyquist_phase = (
        params.hbar * (math.pi / grid.spacing) ** 2 * params.dt / (2 * params.mass)
    )
    if nyquist_phase > math.pi:
        raise GridResolutionError(
            f"dt {params.dt:g} too large for spacing {grid.spacing:g}: "
            f"Nyquist phase {nyquist_phase:.3g} per step"
        )


def _split_step_sequence(
    psi0: GridWaveFunction, potential: PotentialField, params: EvolutionParams
) -> list[GridWaveFunction]:
    v = np.asarray(potential.value(psi0.points()), dtype=float)
    half_phase = np.exp(-0.5j * params.dt * v / params.hbar)
    freqs = np.meshgrid(
        *(
            2 * np.pi * np.fft.fftfreq(n, d=psi0.spacing)
            for n in psi0.extent
        ),
        indexing="ij",
    )
    ksq = sum(f**2 for f in freqs)
    kinetic_phase = np.exp(
        -1j * params.hbar * ksq * params.dt / (2 * params.mass)
    )
    out = [psi0]
    values = psi0.values
    for _ in range(params.steps):
        stage = half_phase * values
        stage = np.fft.ifftn(kinetic_phase * np.fft.fftn(stage))
        values = half_phase * stage
        out.append(psi0.with_values(values))
    return out


def _midpoint_sequence(
    psi0: GridWaveFunction, potential: PotentialField, params: EvolutionParams
) -> list[GridWaveFunction]:
    from scipy.linalg import solve_banded  # slow to import; only this scheme needs it

    if psi0.dim != 1:
        raise ValueError("the implicit midpoint propagator is one-dimensional")
    n = psi0.extent[0]
    h = psi0.spacing
    v = np.asarray(potential.value(psi0.axis_coordinates(0)[:, None]), dtype=float)
    kin = params.hbar**2 / (2 * params.mass * h**2)
    diag = 2 * kin + v
    off = np.full(n - 1, -kin)
    alpha = 1j * params.dt / (2 * params.hbar)

    # banded storage of I + αiH for solve_banded
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = alpha * off
    ab[1] = 1.0 + alpha * diag
    ab[2, :-1] = alpha * off

    out = [psi0]
    values = psi0.values
    for _ in range(params.steps):
        rhs = (1.0 - alpha * diag) * values
        rhs[:-1] -= alpha * off * values[1:]
        rhs[1:] -= alpha * off * values[:-1]
        values = solve_banded((1, 1), ab, rhs)
        out.append(psi0.with_values(values))
    return out


def evolve_grid(
    psi0: GridWaveFunction, potential: PotentialField, params: EvolutionParams
) -> list[GridWaveFunction]:
    """Propagate ψ₀, returning steps+1 snapshots (initial state included).

    UNITARY_SPLIT is the Strang splitting with the kinetic factor applied
    spectrally (periodic boundaries); IMPLICIT_MIDPOINT is the Cayley form
    on the three-point Laplacian (Dirichlet boundaries).  Both preserve the
    l² norm to round-off and are second order in dt.
    """
    _check_time_step(psi0, params)
    if params.scheme is EvolutionScheme.UNITARY_SPLIT:
        return _split_step_sequence(psi0, potential, params)
    return _midpoint_sequence(psi0, potential, params)


# ---------------------------------------------------------------------------
# continuity


def probability_current(
    psi: GridWaveFunction, mass: float = 1.0, hbar: float = 1.0
) -> np.ndarray:
    """j = (iħ/2m)(ψ∇ψ̄ − ψ̄∇ψ) with central differences, shape (*grid, d)."""
    comps = []
    for axis in range(psi.dim):
        grad = np.gradient(psi.values, psi.spacing, axis=axis, edge_order=2)
        comps.append(
            (1j * hbar / (2 * mass))
            * (psi.values * np.conj(grad) - np.conj(psi.values) * grad)
        )
    return np.stack([c.real for c in comps], axis=-1)


def continuity_residual(
    before: GridWaveFunction, after: GridWaveFunction, params: EvolutionParams
) -> np.ndarray:
    """∂ρ/∂t + ∇·j evaluated between two consecutive snapshots.

    The time derivative is the first difference (centred on the midpoint);
    the divergence uses the average of the two currents, which is the
    midpoint current to O(dt²).
    """
    if before.extent != after.extent or before.spacing != after.spacing:
        raise ValueError("snapshots live on different grids")
    rho_dot = (np.abs(after.values) ** 2 - np.abs(before.values) ** 2) / params.dt
    j_mid = 0.5 * (
        probability_current(before, params.mass, params.hbar)
        + probability_current(after, params.mass, params.hbar)
    )
    div = np.zeros_like(rho_dot)
    for axis in range(before.dim):
        div += np.gradient(
            j_mid[..., axis], before.spacing, axis=axis, edge_order=2
        )
    return rho_dot + div


# ---------------------------------------------------------------------------
# Brownian reference ensemble


@dataclasses.dataclass(frozen=True)
class BrownianResult:
    times: np.ndarray
    mean_square_displacement: np.ndarray
    final_positions: np.ndarray
    params: DiffusionParams


def brownian_ensemble(params: DiffusionParams) -> BrownianResult:
    """Isotropic 3-d Gaussian walkers from the origin.

    Per-axis step variance is 2K·dt, so ⟨a²⟩(t) = 6Kt and the positions at
    time t are distributed by the heat kernel (4πKt)^{−3/2} e^{−a²/4Kt}.
    """
    gen = RngStream(params.seed).generator()
    n_steps = int(round(params.t_final / params.dt))
    step_std = math.sqrt(2 * params.diffusivity * params.dt)
    pos = np.zeros((params.walkers, 3))
    times = np.arange(n_steps + 1) * params.dt
    msd = np.zeros(n_steps + 1)
    sq = np.empty_like(pos)
    r2 = np.empty(params.walkers)
    for k in range(1, n_steps + 1):
        pos += gen.normal(0.0, step_std, size=pos.shape)
        # (x₀² + x₁²) + x₂², the order in which (pos**2).sum(axis=1) adds
        np.square(pos, out=sq)
        np.add(sq[:, 0], sq[:, 1], out=r2)
        r2 += sq[:, 2]
        msd[k] = float(r2.mean())
    return BrownianResult(
        times=times,
        mean_square_displacement=msd,
        final_positions=pos,
        params=params,
    )


def radial_shell_density(
    positions: np.ndarray, n_shells: int, r_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histogram density on equal-width radial shells.

    Returns (shell centers, density estimate, counts); the estimate is
    counts / (walkers · shell volume), directly comparable to an isotropic
    density evaluated at the shell center.
    """
    r = np.linalg.norm(positions, axis=1)
    edges = np.linspace(0.0, r_max, n_shells + 1)
    counts, _ = np.histogram(r, bins=edges)
    volumes = 4 * np.pi / 3 * (edges[1:] ** 3 - edges[:-1] ** 3)
    centers = 0.5 * (edges[1:] + edges[:-1])
    density = counts / (positions.shape[0] * volumes)
    return centers, density, counts


# ---------------------------------------------------------------------------
# projective mean-squared displacement of the walks


@dataclasses.dataclass(frozen=True)
class StateMsd:
    steps: np.ndarray
    mean_square_angle: np.ndarray


# fewest trials whose mean square angle state_density_msd estimates
MIN_MSD_TRIALS = 100


def check_msd_trials(trials: int) -> None:
    """Refuse fewer trials than :func:`state_density_msd` averages over."""
    if trials < MIN_MSD_TRIALS:
        raise ValueError(f"need at least {MIN_MSD_TRIALS} trials")


def check_msd_steps(n_steps: int) -> None:
    """Refuse a :func:`state_density_msd` series without a kick."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")


def state_density_msd(start, params, n_steps: int, trials: int) -> StateMsd:
    """Ensemble ⟨θ²⟩ against step count for the measurement walks.

    ``start``/``params`` select the walk: a 2-spinor with ``SpinWalkParams``,
    or a ``CellState`` with ``PositionWalkParams`` in ISOTROPIC mode, each
    kicked by its absorbing engine's block loop.  No absorption is
    applied — this probes the free early-time diffusion of the state.
    """
    check_msd_trials(trials)
    check_msd_steps(n_steps)
    if isinstance(params, spin_measurement.SpinWalkParams):
        walk = spin_measurement
    elif isinstance(params, position_measurement.PositionWalkParams):
        walk = position_measurement
    else:
        raise TypeError("params must be spin or position walk parameters")
    series = walk._free_walk_msd(start, trials, params, n_steps)
    return StateMsd(steps=np.arange(n_steps + 1), mean_square_angle=series)
