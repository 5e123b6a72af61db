"""Gaussian-kernel Hilbert space H on uniform grids.

The inner product is (f, g)_H = ∫∫ k(x, y) f(x) conj(g(y)) dx dy with the
positive-definite kernel k(x, y) = exp(−(x−y)²/8σ²).  The smoothing map ρ_σ
(convolution with a (2πσ²)^{-d/4}-normalized Gaussian of width parameter 2σ²
in the exponent) is an isometry onto a subspace of L₂: k = ρ_σ* ρ_σ, so H
contains delta functions and their derivatives with finite norm.  Classical
points embed as delta functions, classical paths become curves in H, and with
distance measured in units of 2σ the embedding is isometric: the H-speed of
t ↦ δ_{a(t)} equals |da/dt|.

Everything here is grid numerics: delta functions are narrow Gaussian
approximants (width σ/20, grid spacing ≤ width/4), integrals are tensor-product
trapezoid sums on grids extending at least 8σ beyond every center, and the
separable kernels are applied as one FFT convolution pass per axis.  Trapezoid
quadrature of smooth rapidly-decaying integrands converges faster than any
power of the spacing, so the quadrature floor sits near round-off for every
tolerance used in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hilbertbridge.state_geometry import require_positive

__all__ = [
    "ClassicalPath",
    "Grid",
    "GridResolutionError",
    "GridWaveFunction",
    "KernelSpec",
    "action_functional",
    "delta_approximant",
    "grid_covering",
    "inner_h",
    "inner_l2",
    "kernel_k",
    "newtonian_projection",
    "path_speed_h",
    "rho_sigma_apply",
    "trapezoid_inner",
]

#: Width of the Gaussian delta-approximant relative to sigma.
DELTA_WIDTH_FRACTION = 1.0 / 20.0

#: Quadrature grids must extend this many sigma beyond every center.
GRID_MARGIN_SIGMAS = 8.0


class GridResolutionError(ValueError):
    """Grid too coarse or too small for the requested operation."""


@dataclass(frozen=True)
class KernelSpec:
    """Width parameter and spatial dimension of the kernel space H.

    Attributes:
        sigma: Gaussian width σ > 0 of the smoothing map ρ_σ; the kernel of H
            is exp(−(x−y)²/8σ²).
        dim: spatial dimension, 1, 2 or 3.
    """

    sigma: float
    dim: int = 1

    def __post_init__(self) -> None:
        require_positive(sigma=self.sigma)
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")

    @property
    def delta_width(self) -> float:
        """Width σ_δ of the Gaussian delta-approximant (σ/20)."""
        return self.sigma * DELTA_WIDTH_FRACTION


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor grid, without samples.

    Attributes:
        origin: coordinates of the grid point with index (0, ..., 0).
        spacing: grid step h, finite and positive, identical along every axis.
        extent: points per axis.
    """

    origin: np.ndarray
    spacing: float
    extent: tuple[int, ...]

    def __post_init__(self) -> None:
        require_positive(spacing=self.spacing)
        origin = np.array(self.origin, dtype=float, ndmin=1)
        extent = tuple(int(n) for n in self.extent)
        if origin.shape != (len(extent),):
            raise ValueError(
                f"origin has {origin.size} components for a "
                f"{len(extent)}-dimensional grid"
            )
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "extent", extent)

    @property
    def dim(self) -> int:
        return len(self.extent)

    def axis_coordinates(self, i: int) -> np.ndarray:
        """Grid coordinates along axis i."""
        return self.origin[i] + self.spacing * np.arange(self.extent[i])

    def meshgrid(self) -> list[np.ndarray]:
        """Sparse (broadcastable) coordinate arrays for all axes."""
        return np.meshgrid(
            *(self.axis_coordinates(i) for i in range(self.dim)),
            indexing="ij",
            sparse=True,
        )

    def points(self) -> np.ndarray:
        """Stacked coordinates, shape (*extent, d)."""
        return np.stack(np.broadcast_arrays(*self.meshgrid()), axis=-1)

    def with_values(self, values: np.ndarray) -> "GridWaveFunction":
        """Same grid, new samples; ``values`` must have the grid's extent."""
        if np.shape(values) != self.extent:
            raise ValueError(
                f"samples of shape {np.shape(values)} on a grid of extent {self.extent}"
            )
        return GridWaveFunction(values, self.origin, self.spacing)

    def quadrature_weights(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Tensor-product trapezoid weights (includes h^d) on axis-0 rows start…stop−1."""
        factors = _end_factors(self.extent, start, stop)
        return math.prod((self.spacing * f for f in factors), start=np.ones(()))

    def require_coverage(self, center, margin: float) -> None:
        """Refuse a grid that does not span ``center ± margin`` on every axis.

        A slack of 1e-9·margin absorbs rounding when the grid fits exactly.
        """
        hi = self.origin + self.spacing * (np.asarray(self.extent) - 1)
        slack = 1e-9 * margin
        if np.any(center - margin < self.origin - slack) or np.any(
            center + margin > hi + slack
        ):
            raise GridResolutionError(
                f"grid [{self.origin}, {hi}] does not cover {center} ± {margin:g}"
            )


class GridWaveFunction(Grid):
    """Complex function sampled on a uniform tensor grid.

    ``values`` is a finite complex array with one axis per spatial dimension;
    its shape is the grid's extent.
    """

    values: np.ndarray

    def __init__(self, values, origin, spacing: float) -> None:
        values = np.asarray(values, dtype=complex)
        super().__init__(origin, spacing, values.shape)
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", values)

    def l2_norm(self) -> float:
        return float(
            np.sqrt((np.abs(self.values) ** 2 * self.quadrature_weights()).sum())
        )


@dataclass(frozen=True)
class ClassicalPath:
    """Sampled classical trajectory t ↦ a(t).

    ``times`` is strictly increasing with at least two samples; ``positions``
    has one row per sample (1-dimensional paths may be passed as a flat array).
    """

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        a = np.asarray(self.positions, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least two time samples")
        if a.shape[0] != t.size:
            raise ValueError("positions and times length mismatch")
        if not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", a)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def __len__(self) -> int:
        return self.times.size


# ---------------------------------------------------------------------------
# grids and delta approximants


def grid_covering(
    spec: KernelSpec,
    centers,
    spacing: float,
    margin: float | None = None,
) -> Grid:
    """Grid covering every center with the standard margin.

    The margin defaults to 8σ per axis, which pushes the Gaussian-tail
    truncation error of every quadrature in this module below ~e⁻³².
    """
    c = np.atleast_2d(np.asarray(centers, dtype=float))
    if c.shape[1] != spec.dim:
        raise ValueError(f"centers have dimension {c.shape[1]}, spec has {spec.dim}")
    if margin is None:
        margin = GRID_MARGIN_SIGMAS * spec.sigma
    require_positive(spacing=spacing)
    lo = c.min(axis=0) - margin
    hi = c.max(axis=0) + margin
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
        steps = np.ceil(span / spacing)
    if not np.isfinite(steps).all():
        raise ValueError(f"spacing {spacing} over the span {span} gives a non-finite extent")
    return Grid(lo, spacing, tuple(int(n) + 1 for n in steps))


def delta_approximant(
    center, grid: Grid, spec: KernelSpec
) -> GridWaveFunction:
    """Narrow Gaussian stand-in for the delta function at ``center``.

    Density-normalized (∫ = 1 in the continuum) with width σ_δ = σ/20; the
    grid must resolve it (spacing ≤ σ_δ/4) and extend 8σ beyond the center.
    Sifting against width-σ objects then carries a relative smearing bias of
    order σ_δ²/σ² ≈ 2.5e−3, the documented convergence knob.
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.shape != (spec.dim,):
        raise ValueError(f"center {c} does not match dimension {spec.dim}")
    if grid.dim != spec.dim:
        raise ValueError("grid dimension does not match spec")
    w = spec.delta_width
    if grid.spacing > w / 4:
        raise GridResolutionError(
            f"spacing {grid.spacing:g} too coarse for delta width {w:g}"
            f" (need ≤ {w / 4:g})"
        )
    grid.require_coverage(c, GRID_MARGIN_SIGMAS * spec.sigma)
    mesh = grid.meshgrid()
    norm = (2.0 * np.pi * w * w) ** (-0.5 * spec.dim)
    expo = sum((mesh[i] - c[i]) ** 2 for i in range(spec.dim)) / (2.0 * w * w)
    return grid.with_values(norm * np.exp(-expo))


# ---------------------------------------------------------------------------
# kernel, inner products, smoothing


def kernel_k(x, y, spec: KernelSpec) -> float | np.ndarray:
    """Reproducing kernel k(x, y) = exp(−(x−y)²/8σ²).

    Accepts scalars or arrays of position vectors (last axis = components);
    broadcasting applies.  Values lie in (0, 1], symmetric in x and y.
    """
    dx = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    if spec.dim == 1 and (np.ndim(dx) == 0 or dx.shape[-1] != 1):
        sq = dx * dx
    else:
        sq = (dx * dx).sum(axis=-1)
    out = np.exp(-sq / (8.0 * spec.sigma**2))
    return float(out) if np.ndim(out) == 0 else out


def _check_same_grid(f: GridWaveFunction, g: GridWaveFunction) -> None:
    if f.dim != g.dim:
        raise ValueError(f"grid dimensions differ: {f.dim} vs {g.dim}")
    if f.extent != g.extent:
        raise ValueError(f"grid extents differ: {f.extent} vs {g.extent}")
    if abs(f.spacing - g.spacing) > 1e-12 * f.spacing:
        raise ValueError("grid spacings differ")
    if np.any(np.abs(f.origin - g.origin) > 1e-9 * f.spacing):
        raise ValueError("grid origins differ")


def _axis_convolve(values: np.ndarray, kern1d: Callable[[np.ndarray], np.ndarray],
                   spacing: float) -> np.ndarray:
    """(K v)(x_i) = Σ_j K(x_i − x_j) v_j h, separably along every axis.

    The 1-D kernel is sampled on offsets spanning the whole axis, so the
    'same'-mode FFT convolution reproduces the full discrete sum exactly
    (up to FFT round-off), bit for bit as ``scipy.signal.fftconvolve`` does it.
    """
    # slow to import, and scipy.signal imports scipy.stats; only grids need it
    from scipy.fft import fftn, ifftn, next_fast_len

    out = values
    for ax in range(values.ndim):
        n = values.shape[ax]
        offsets = spacing * np.arange(-(n - 1), n)
        k = kern1d(offsets) * spacing
        k = k.reshape([k.size if a == ax else 1 for a in range(values.ndim)])
        if n == 1:  # a one-point axis: fftconvolve multiplies
            out = out * k
            continue
        size = next_fast_len(3 * n - 2, False)
        sp1, sp2 = fftn(out, [size], axes=[ax]), fftn(k, [size], axes=[ax])
        # the middle n of the full convolution's 3n − 2 points
        out = np.take(ifftn(sp1 * sp2, [size], axes=[ax]), range(n - 1, 2 * n - 1), axis=ax)
    return out


def _end_factors(extent, start: int = 0, stop: int | None = None) -> list[np.ndarray]:
    """Trapezoid end-point factors (1, ½, or ¼ on a one-point axis) per axis, broadcastable."""
    factors = []
    for i, n in enumerate(extent):
        k = np.arange(*slice(start, stop).indices(n)) if i == 0 else np.arange(n)
        halvings = (k == 0).astype(int) + (k == n - 1)
        factors.append((0.5**halvings).reshape([-1 if a == i else 1 for a in range(len(extent))]))
    return factors


#: Points of f·conj(g)·w that :func:`trapezoid_inner` sums at once (1 MiB).
_LEAF_POINTS = 1 << 16


def trapezoid_inner(grid: Grid, f_rows: Callable, g_rows: Callable) -> complex:
    """∫ f conj(g) by trapezoid quadrature: ``.sum()`` of the whole product, bit for bit.

    ``f_rows(i, j)`` and ``g_rows(i, j)`` give the samples on axis-0 rows i…j−1.
    The sum follows numpy's complex pairwise tree (a node of n points splits
    after (n − n mod 8)/2) to leaves of ``_LEAF_POINTS``, each formed from its rows.
    Two real samplers form the real product f·g·w, the complex product's bits
    when the samples are positive and finite.
    """
    row = math.prod(grid.extent[1:])
    # numpy evaluates a whole grid's ``f * np.conj(g)`` in conj(g), as conj(g)·f,
    # from 256 KiB on; fused multiply-adds round the two orders differently
    swap = row * grid.extent[0] >= 1 << 14

    def total(start: int, n: int) -> complex:
        if n > _LEAF_POINTS:
            return total(start, half := (n - n % 8) // 2) + total(start + half, n - half)
        i, j = start // row, -(-(start + n) // row)
        f, g = f_rows(i, j), g_rows(i, j)
        if np.iscomplexobj(f) or np.iscomplexobj(g):
            out = np.conj(g)
            np.multiply(*((out, f) if swap else (f, out)), out=out)
            out *= grid.quadrature_weights(i, j)
        else:
            # the complex tree over a zero imaginary part sums the real products
            out = np.zeros(f.shape, dtype=complex)
            np.multiply(f, g, out=out.real)
            out.real *= grid.quadrature_weights(i, j)
        return complex(out.reshape(-1)[start - i * row:][:n].sum())

    return total(0, row * grid.extent[0])


def inner_l2(f: GridWaveFunction, g: GridWaveFunction) -> complex:
    """Plain L₂ inner product ∫ f conj(g) by trapezoid quadrature."""
    _check_same_grid(f, g)
    return trapezoid_inner(f, lambda i, j: f.values[i:j], lambda i, j: g.values[i:j])


def inner_h(f: GridWaveFunction, g: GridWaveFunction, spec: KernelSpec) -> complex:
    """Kernel-space inner product ∫∫ k(x,y) f(x) conj(g(y)) dx dy.

    Evaluated as one separable convolution pass (the y integral) followed by
    a single quadrature (the x integral), so the cost is O(N log N) rather
    than O(N²).  Conjugate-symmetric; positive on f = g ≠ 0.
    """
    _check_same_grid(f, g)
    if f.dim != spec.dim:
        raise ValueError(f"grids are {f.dim}-dimensional, spec is {spec.dim}")
    s8 = 8.0 * spec.sigma**2
    smeared = _axis_convolve(
        np.conj(g.values) * math.prod(_end_factors(g.extent)), lambda u: np.exp(-u * u / s8),
        f.spacing
    )
    return complex((f.values * f.quadrature_weights() * smeared).sum())


def rho_sigma_apply(f: GridWaveFunction, spec: KernelSpec) -> GridWaveFunction:
    """Smoothing isometry ρ_σ: convolve with (2πσ²)^{-d/4} exp(−(x−y)²/4σ²).

    Maps delta approximants to unit-L₂ Gaussians and satisfies
    ⟨ρf, ρg⟩_{L₂} = (f, g)_H.  Linear in f.
    """
    if f.dim != spec.dim:
        raise ValueError(f"grid is {f.dim}-dimensional, spec is {spec.dim}")
    if f.spacing > spec.sigma / 2:
        raise GridResolutionError(
            f"spacing {f.spacing:g} too coarse to resolve the width-σ kernel"
            f" (need ≤ {spec.sigma / 2:g})"
        )
    amp = (2.0 * np.pi * spec.sigma**2) ** (-0.25)
    s4 = 4.0 * spec.sigma**2
    out = _axis_convolve(
        f.values * math.prod(_end_factors(f.extent)), lambda u: amp * np.exp(-u * u / s4),
        f.spacing
    )
    return f.with_values(out)


# ---------------------------------------------------------------------------
# embedded classical paths


def _coincidence_velocity_gram(spec: KernelSpec) -> np.ndarray:
    # Gram matrix of the tangent frame −∂_i δ_a in H: the mixed second
    # derivative ∂²k/∂x_i∂y_j of exp(−|x−y|²/8σ²) at x = y is δ_ij/4σ².
    return np.eye(spec.dim) / (4.0 * spec.sigma**2)


def path_speed_h(path: ClassicalPath, spec: KernelSpec) -> np.ndarray:
    """H-space speed ‖d/dt δ_{a(t)}‖_H at every sample.

    The velocity of the embedded curve is −ȧ·∇δ_a, whose squared H-norm is
    ȧᵀ G ȧ with G the coincidence Gram matrix above, i.e. |ȧ|/2σ.  Time
    derivatives use second-order finite differences (one-sided at the ends).
    """
    if len(path) < 3:
        raise ValueError("need at least 3 samples to differentiate")
    if path.dim != spec.dim:
        raise ValueError("path dimension does not match spec")
    vel = np.gradient(path.positions, path.times, axis=0, edge_order=2)
    gram = _coincidence_velocity_gram(spec)
    return np.sqrt(np.einsum("ki,ij,kj->k", vel, gram, vel))


# fewest samples newtonian_projection takes second differences over
MIN_PROJECTION_SAMPLES = 5


def newtonian_projection(
    path: ClassicalPath, spec: KernelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Velocity and acceleration read off the embedded curve in H.

    Projects d/dt δ_{a(t)} and d²/dt² δ_{a(t)} onto the moving frame
    −∂_i δ_{a(t)}.  Numerically this happens on the smoothed side: the states
    are the unit Gaussians ρ_σ δ_a, the frame vectors are their gradients, and
    every inner product is grid quadrature.  The second time derivative also
    carries a ∂_i∂_j-term, but that term is H-orthogonal to the frame (odd
    kernel derivatives vanish at coincidence), so the projections return
    da/dt and d²a/dt² componentwise — Newtonian kinematics, no corrections.

    Returns (velocity, acceleration), each of shape (n_samples, dim).
    """
    if len(path) < MIN_PROJECTION_SAMPLES:
        raise ValueError(f"need at least {MIN_PROJECTION_SAMPLES} samples for second differences")
    if path.dim != spec.dim:
        raise ValueError("path dimension does not match spec")
    sig = spec.sigma
    grid = grid_covering(spec, path.positions, spacing=sig / 4.0)
    mesh = grid.meshgrid()
    weights = grid.quadrature_weights()

    # smoothed representatives ρ_σ δ_{a(t_k)}: unit-L₂ Gaussians of width σ
    amp = (2.0 * np.pi * sig * sig) ** (-0.25 * spec.dim)
    states = np.empty((len(path),) + grid.extent, dtype=float)
    for k, a in enumerate(path.positions):
        expo = sum((mesh[i] - a[i]) ** 2 for i in range(spec.dim)) / (4.0 * sig * sig)
        states[k] = amp * np.exp(-expo)

    d_dt = np.gradient(states, path.times, axis=0, edge_order=2)
    d2_dt2 = np.gradient(d_dt, path.times, axis=0, edge_order=2)

    velocity = np.empty((len(path), spec.dim))
    acceleration = np.empty((len(path), spec.dim))
    for k, a in enumerate(path.positions):
        for i in range(spec.dim):
            frame = (mesh[i] - a[i]) / (2.0 * sig * sig) * states[k]
            norm_sq = (frame * frame * weights).sum()
            velocity[k, i] = (d_dt[k] * frame * weights).sum() / norm_sq
            acceleration[k, i] = (d2_dt2[k] * frame * weights).sum() / norm_sq
    return velocity, acceleration


def action_functional(
    path: ClassicalPath,
    potential: Callable[[np.ndarray], float],
    mass: float,
    spec: KernelSpec,
) -> float:
    """Classical action ∫ [½m |da/dt|² − V(a)] dt read from the embedded curve.

    The kinetic term is the squared H-speed of the state converted back to
    Euclidean units (×(2σ)²); the time integral is trapezoidal on the path's
    own samples.
    """
    require_positive(mass=mass)
    speed = path_speed_h(path, spec) * (2.0 * spec.sigma)
    v_of_t = np.array([float(potential(a)) for a in path.positions])
    return float(np.trapezoid(0.5 * mass * speed**2 - v_of_t, path.times))
