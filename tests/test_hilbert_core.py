"""Kernel space: inner products, smoothing isometry, embedded paths, action."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertbridge import hilbert_core as hc
from hilbertbridge.hilbert_core import (
    ClassicalPath,
    Grid,
    GridResolutionError,
    GridWaveFunction,
    KernelSpec,
    action_functional,
    delta_approximant,
    grid_covering,
    inner_h,
    inner_l2,
    kernel_k,
    newtonian_projection,
    path_speed_h,
    rho_sigma_apply,
    trapezoid_inner,
)

SPEC1 = KernelSpec(sigma=1.0, dim=1)


# ---------------------------------------------------------------------------
# oracles


def dense_inner_h_1d(f: GridWaveFunction, g: GridWaveFunction, spec: KernelSpec):
    """Brute-force O(N²) double trapezoid of ∫∫ k(x,y) f(x) conj(g(y))."""
    x = f.axis_coordinates(0)
    w = np.full(x.size, f.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    kmat = kernel_k(x[:, None], x[None, :], spec)
    return (w * f.values) @ kmat @ (w * np.conj(g.values))


def smeared_delta_overlap(a: float, b: float, spec: KernelSpec) -> float:
    """Closed form of (δ_a, δ_b)_H with width-σ_δ Gaussian approximants.

    Convolving the peak-1 kernel (variance 4σ² per axis) with the two
    approximant densities (variance σ_δ² each) gives a Gaussian of variance
    4σ² + 2σ_δ², rescaled to preserve the kernel's integral.
    """
    var = 4 * spec.sigma**2 + 2 * spec.delta_width**2
    amp = np.sqrt(4 * spec.sigma**2 / var)
    return amp * np.exp(-((a - b) ** 2) / (2 * var))


def unit_gaussian(center: float, grid: GridWaveFunction, sigma: float):
    """Unit-L₂ Gaussian whose |ψ|² has standard deviation sigma."""
    x = grid.axis_coordinates(0)
    psi = (2 * np.pi * sigma**2) ** -0.25 * np.exp(
        -((x - center) ** 2) / (4 * sigma**2)
    )
    return grid.with_values(psi)


# (f, g)_H for two unit Gaussians of width σ at centers a, b: all three
# Gaussians integrate in closed form to 2σ√π · exp(−(a−b)²/16σ²).
def gaussian_pair_inner_h(a: float, b: float, sigma: float) -> float:
    return 2 * sigma * np.sqrt(np.pi) * np.exp(-((a - b) ** 2) / (16 * sigma**2))


# ---------------------------------------------------------------------------
# kernel_k


def test_kernel_coincidence_is_one():
    assert kernel_k(0.3, 0.3, SPEC1) == pytest.approx(1.0, abs=0)


def test_kernel_at_8_sigma_sq_separation():
    # (x−y)² = 8σ² forces the exponent to −1
    x = np.sqrt(8.0)
    assert kernel_k(x, 0.0, SPEC1) == pytest.approx(0.36787944117144233, rel=1e-15)


def test_kernel_equals_smoothing_self_composition():
    # k(x,y) must equal ∫ ρ_σ(x,u) ρ_σ(u,y) du; dense trapezoid oracle.
    rng = np.random.default_rng(11)
    spec = KernelSpec(sigma=0.7, dim=1)
    for _ in range(5):
        x, y = rng.uniform(-1.0, 1.0, size=2)
        u = np.linspace(-10, 10, 4001)
        rho = lambda s, t: (2 * np.pi * spec.sigma**2) ** -0.25 * np.exp(
            -((s - t) ** 2) / (4 * spec.sigma**2)
        )
        oracle = np.trapezoid(rho(x, u) * rho(u, y), u)
        assert kernel_k(x, y, spec) == pytest.approx(oracle, rel=1e-12)


def test_kernel_3d_uses_squared_distance():
    spec = KernelSpec(sigma=0.5, dim=3)
    a = np.array([0.1, -0.2, 0.3])
    b = np.array([0.4, 0.0, -0.1])
    expected = np.exp(-np.sum((a - b) ** 2) / (8 * 0.25))
    assert kernel_k(a, b, spec) == pytest.approx(expected, rel=1e-15)


@given(
    x=st.floats(-10, 10),
    y=st.floats(-10, 10),
    sigma=st.floats(0.5, 10),
)
@settings(deadline=None)
def test_kernel_symmetric_and_bounded(x, y, sigma):
    spec = KernelSpec(sigma=sigma, dim=1)
    kxy = kernel_k(x, y, spec)
    assert kxy == kernel_k(y, x, spec)
    assert 0.0 < kxy <= 1.0


# ---------------------------------------------------------------------------
# delta approximants and inner_h


@pytest.fixture(scope="module")
def delta_grid():
    spec = SPEC1
    return grid_covering(spec, [[-1.0], [1.0]], spacing=spec.delta_width / 4)


def test_grid_covering_is_sample_free():
    grid = grid_covering(SPEC1, [[-0.5], [1.0]], spacing=0.25)
    assert type(grid) is Grid and not hasattr(grid, "values")
    # 8σ beyond both centers: [−8.5, 9] in 70 steps
    assert grid.extent == (71,)
    assert grid.axis_coordinates(0)[[0, -1]].tolist() == [-8.5, 9.0]
    assert grid.points().shape == (71, 1)


@pytest.mark.parametrize("spacing", [0.0, np.nan, -0.1, np.inf])
def test_grids_refuse_bad_spacing(spacing):
    with pytest.raises(ValueError, match="spacing"):
        grid_covering(SPEC1, [[0.0]], spacing=spacing)
    with pytest.raises(ValueError, match="spacing"):
        GridWaveFunction(np.zeros(5, dtype=complex), [0.0], spacing)


@pytest.mark.parametrize("centers, spacing", [([[0.0]], 5e-324), ([[-1e308], [1e308]], 1.0),
                                              ([[np.inf]], 0.1), ([[np.nan]], 0.1)])
def test_grid_covering_refuses_a_non_finite_extent(centers, spacing):
    with pytest.raises(ValueError, match="non-finite extent"):
        grid_covering(SPEC1, centers, spacing=spacing)


def test_wave_function_extent_is_its_shape():
    psi = GridWaveFunction(np.ones((3, 4)), [0.0, 1.0], 0.5)
    assert psi.extent == (3, 4) and psi.dim == 2
    assert psi.values.dtype == complex
    with pytest.raises(ValueError, match="origin"):
        GridWaveFunction(np.ones((3, 4)), [0.0], 0.5)
    with pytest.raises(ValueError, match="finite"):
        GridWaveFunction(np.array([1.0, np.nan]), [0.0], 0.5)


def test_with_values_refuses_samples_of_another_extent(delta_grid):
    grid = Grid([0.0], 0.5, (4,))
    for bad in (np.zeros(7), np.zeros((4, 1)), np.zeros(())):
        with pytest.raises(ValueError, match="extent"):
            grid.with_values(bad)
    psi = grid.with_values(np.ones(4))
    assert psi.extent == (4,)
    with pytest.raises(ValueError, match="extent"):
        psi.with_values(np.ones(3))
    # the library's own callers pass samples of their grid's extent
    delta = delta_approximant(0.25, delta_grid, SPEC1)
    assert delta.extent == delta_grid.extent
    assert rho_sigma_apply(delta, SPEC1).extent == delta_grid.extent


def test_coverage_slack_is_relative_to_the_margin():
    grid = Grid([-1.0], 0.1, (21,))
    grid.require_coverage(np.array([0.0]), 1.0 + 0.9e-9)
    with pytest.raises(GridResolutionError):
        grid.require_coverage(np.array([0.0]), 1.0 + 2e-9)


def test_delta_approximant_has_unit_mass(delta_grid):
    d = delta_approximant(0.25, delta_grid, SPEC1)
    mass = (d.values.real * d.quadrature_weights()).sum()
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_delta_approximant_rejects_coarse_grid():
    grid = grid_covering(SPEC1, [[0.0]], spacing=0.1)  # σ_δ/4 = 0.0125
    with pytest.raises(GridResolutionError):
        delta_approximant(0.0, grid, SPEC1)


def test_delta_approximant_rejects_uncovered_center(delta_grid):
    with pytest.raises(GridResolutionError):
        delta_approximant(4.0, delta_grid, SPEC1)  # margin would fall off-grid


def test_inner_h_delta_normalization(delta_grid):
    d = delta_approximant(0.0, delta_grid, SPEC1)
    val = inner_h(d, d, SPEC1)
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    # exact smeared value, then the idealized normalization within the
    # documented O(σ_δ²/σ²) smearing bias
    assert val.real == pytest.approx(smeared_delta_overlap(0, 0, SPEC1), rel=1e-10)
    assert val.real == pytest.approx(1.0, abs=1e-3)


def test_inner_h_delta_pair_sifts_kernel(delta_grid):
    a, b = -0.35, 0.55
    da = delta_approximant(a, delta_grid, SPEC1)
    db = delta_approximant(b, delta_grid, SPEC1)
    val = inner_h(da, db, SPEC1)
    assert val.real == pytest.approx(smeared_delta_overlap(a, b, SPEC1), rel=1e-10)
    assert val.real == pytest.approx(kernel_k(a, b, SPEC1), rel=2e-3)


def test_inner_h_gaussian_pair_against_oracles():
    spec = KernelSpec(sigma=0.8, dim=1)
    grid = grid_covering(spec, [[0.0], [0.8]], spacing=0.02)
    f = unit_gaussian(0.0, grid, spec.sigma)
    g = unit_gaussian(0.8, grid, spec.sigma)
    val = inner_h(f, g, spec)
    closed = gaussian_pair_inner_h(0.0, 0.8, 0.8)
    # frozen via adaptive double quadrature (dblquad, epsrel 1e-12)
    assert closed == pytest.approx(2.6641060812395048, rel=1e-12)
    assert val.real == pytest.approx(closed, rel=1e-10)
    assert val.real == pytest.approx(dense_inner_h_1d(f, g, spec).real, rel=1e-12)


def test_inner_h_conjugate_symmetric_and_positive():
    rng = np.random.default_rng(5)
    grid = grid_covering(SPEC1, [[0.0]], spacing=0.05)
    x = grid.axis_coordinates(0)
    env = np.exp(-(x**2) / 6)
    f = grid.with_values(env * (rng.normal(size=x.size) + 1j * rng.normal(size=x.size)))
    g = grid.with_values(env * (rng.normal(size=x.size) + 1j * rng.normal(size=x.size)))
    fg = inner_h(f, g, SPEC1)
    gf = inner_h(g, f, SPEC1)
    scale = abs(fg)
    assert fg == pytest.approx(np.conj(gf), abs=1e-12 * scale)
    ff = inner_h(f, f, SPEC1)
    assert ff.real > 0
    assert abs(ff.imag) <= 1e-12 * ff.real


def test_inner_h_rejects_mismatched_grids():
    g1 = grid_covering(SPEC1, [[0.0]], spacing=0.05)
    g2 = grid_covering(SPEC1, [[0.5]], spacing=0.05)
    f = unit_gaussian(0.0, g1, 1.0)
    g = unit_gaussian(0.0, g2, 1.0)
    with pytest.raises(ValueError):
        inner_h(f, g, SPEC1)


# ---------------------------------------------------------------------------
# trapezoid_inner: numpy's summation, bit for bit


def materialised_inner(f: GridWaveFunction, g: GridWaveFunction) -> complex:
    """The plain oracle: the whole product, summed by numpy."""
    return complex((f.values * np.conj(g.values) * f.quadrature_weights()).sum())


def random_wave(rng, shape, decades=True, points=None) -> GridWaveFunction:
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if decades:  # so that any change of summation order moves a bit
        values *= np.exp(rng.normal(scale=8.0, size=shape))
    if points is not None:  # so that the last bit of one product shows
        values.flat[rng.permutation(values.size)[points:]] = 0
    return GridWaveFunction(values, np.zeros(len(shape)), 0.37)


def same_bits(x: complex, y: complex) -> bool:
    return np.array([x]).tobytes() == np.array([y]).tobytes()


@pytest.mark.parametrize("leaf", [64, None])
@pytest.mark.parametrize("size", [1, 7, 8, 64, 65, 2**16 - 1, 2**16, 2**16 + 1, 10**6 + 1])
def test_tree_sum_equals_numpys_sum(monkeypatch, size, leaf):
    # a 64-point leaf is numpy's own, so every split of the tree is checked;
    # a numpy that sums in another order fails here first
    if leaf is not None:
        monkeypatch.setattr(hc, "_LEAF_POINTS", leaf)
    rng = np.random.default_rng(size)
    f, g = random_wave(rng, (size,)), random_wave(rng, (size,))
    rows = lambda w: lambda i, j: w.values[i:j]  # noqa: E731
    assert same_bits(trapezoid_inner(f, rows(f), rows(g)), materialised_inner(f, g))
    assert same_bits(inner_l2(f, g), materialised_inner(f, g))


@pytest.mark.parametrize("shape", [(3, 5, 7), (100, 104, 98), (1, 70_000), (700, 101),
                                   (2, 300, 300), (5, 1)])
def test_inner_l2_equals_the_materialised_product_on_any_grid(shape):
    # rows of the grid's first axis hold from 1 to 90 000 points, so blocks
    # of rows and leaves of the tree cut each other anywhere
    rng = np.random.default_rng(sum(shape))
    f, g = random_wave(rng, shape), random_wave(rng, shape)
    assert same_bits(inner_l2(f, g), materialised_inner(f, g))
    for _ in range(20):
        few = random_wave(rng, shape, decades=False, points=3)
        assert same_bits(inner_l2(few, g), materialised_inner(few, g))
    # every other row of a taller array: a view with a stride on axis 0
    tall = np.repeat(g.values, 2, axis=0)
    strided = GridWaveFunction(tall[::2], g.origin, g.spacing)
    assert same_bits(inner_l2(f, strided), materialised_inner(f, g))


def test_quadrature_weight_rows_are_rows_of_the_whole_array():
    for extent in [(1,), (2,), (9,), (1, 4), (6, 1, 3), (7, 5, 4)]:
        grid = Grid(np.zeros(len(extent)), 0.3, extent)
        whole = grid.quadrature_weights()
        # oracle: h per point, each end halved in place, a broadcast product
        oracle = np.ones(())
        for i, n in enumerate(extent):
            w = np.full(n, 0.3)
            w[0] *= 0.5
            w[-1] *= 0.5
            oracle = oracle * w.reshape([-1 if a == i else 1 for a in range(len(extent))])
        assert whole.tobytes() == oracle.tobytes()
        for start in range(extent[0] + 1):
            for stop in range(start, extent[0] + 2):
                rows = grid.quadrature_weights(start, stop)
                assert rows.tobytes() == whole[start:stop].tobytes()


@pytest.mark.memory
def test_inner_l2_peak_beyond_its_inputs_is_one_leafs_buffers():
    # about 10⁶ points (16 MiB a grid); the materialised product, its conj
    # copy and a weight grid took 23.5 MiB beyond the inputs; now one leaf's
    # rows of conj(g), multiplied in place, and their weights (1.8 MiB)
    rng = np.random.default_rng(11)
    f, g = random_wave(rng, (100, 104, 98)), random_wave(rng, (100, 104, 98))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inner_l2(f, g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * 16 * hc._LEAF_POINTS


# ---------------------------------------------------------------------------
# rho_sigma_apply


def test_smoothing_maps_delta_to_unit_gaussian(delta_grid):
    d = delta_approximant(-0.4, delta_grid, SPEC1)
    smooth = rho_sigma_apply(d, SPEC1)
    ideal = unit_gaussian(-0.4, delta_grid, SPEC1.sigma)
    peak = np.abs(ideal.values).max()
    assert np.max(np.abs(smooth.values - ideal.values)) <= 2e-3 * peak
    # exact closed form including the σ_δ smearing: amplitude-Gaussian
    # variances add (2σ² + σ_δ²)
    x = delta_grid.axis_coordinates(0)
    var = 2 * SPEC1.sigma**2 + SPEC1.delta_width**2
    exact = (
        (2 * np.pi * SPEC1.sigma**2) ** -0.25
        * np.sqrt(2 * SPEC1.sigma**2 / var)
        * np.exp(-((x + 0.4) ** 2) / (2 * var))
    )
    assert np.max(np.abs(smooth.values - exact)) <= 1e-10 * peak
    assert smooth.l2_norm() == pytest.approx(1.0, abs=1e-3)


def test_smoothing_of_zero_is_zero(delta_grid):
    z = delta_grid.with_values(np.zeros(delta_grid.extent))
    assert np.all(rho_sigma_apply(z, SPEC1).values == 0)


def test_smoothing_rejects_coarse_grid():
    grid = grid_covering(SPEC1, [[0.0]], spacing=0.6)
    with pytest.raises(GridResolutionError):
        rho_sigma_apply(grid, SPEC1)


@given(
    alpha=st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    beta=st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)
@settings(deadline=None, max_examples=25)
def test_smoothing_is_linear(alpha, beta):
    grid = grid_covering(SPEC1, [[0.0]], spacing=0.05)
    x = grid.axis_coordinates(0)
    rng = np.random.default_rng(17)
    f = grid.with_values(np.exp(-(x**2) / 4) * rng.normal(size=x.size))
    g = grid.with_values(np.exp(-((x - 0.7) ** 2) / 5) * rng.normal(size=x.size))
    combo = grid.with_values(alpha * f.values + beta * g.values)
    lhs = rho_sigma_apply(combo, SPEC1).values
    rhs = alpha * rho_sigma_apply(f, SPEC1).values + beta * rho_sigma_apply(g, SPEC1).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(rhs)))


def test_smoothing_composition_reproduces_inner_h(delta_grid):
    # ⟨ρf, ρg⟩_{L₂} = (f, g)_H on a random smooth pair
    rng = np.random.default_rng(23)
    x = delta_grid.axis_coordinates(0)

    def bump(seed_shift):
        vals = np.zeros(x.size, dtype=complex)
        for c, w, amp in zip(
            rng.uniform(-0.8, 0.8, 3),
            rng.uniform(0.5, 1.2, 3),
            rng.normal(size=3) + 1j * rng.normal(size=3),
        ):
            vals += amp * np.exp(-((x - c) ** 2) / (2 * w**2))
        return delta_grid.with_values(vals)

    f, g = bump(0), bump(1)
    direct = inner_h(f, g, SPEC1)
    composed = inner_l2(rho_sigma_apply(f, SPEC1), rho_sigma_apply(g, SPEC1))
    assert composed == pytest.approx(direct, rel=1e-8)


def test_delta_family_spans_smooth_functions(delta_grid):
    # density heuristic at finite resolution (not a completeness proof):
    # projecting a smooth field onto a σ/2-mesh delta family in the H inner
    # product leaves under 5% relative H-norm residual.
    rng = np.random.default_rng(41)
    x = delta_grid.axis_coordinates(0)
    vals = np.zeros(x.size, dtype=complex)
    for c, w, amp in zip(
        rng.uniform(-0.7, 0.7, 3),
        rng.uniform(1.0, 1.5, 3),
        rng.normal(size=3) + 1j * rng.normal(size=3),
    ):
        vals += amp * np.exp(-((x - c) ** 2) / (2 * w**2))
    f = delta_grid.with_values(vals)

    mesh = np.arange(-1.0, 1.0001, 0.5)
    family = [delta_approximant(c, delta_grid, SPEC1) for c in mesh]
    gram = np.array([[inner_h(dj, di, SPEC1) for dj in family] for di in family])
    b = np.array([inner_h(f, di, SPEC1) for di in family])
    coeff, *_ = np.linalg.lstsq(gram, b, rcond=None)
    f_norm_sq = inner_h(f, f, SPEC1).real
    residual_sq = f_norm_sq - (np.conj(coeff) @ b).real
    assert residual_sq / f_norm_sq < 0.05**2


# ---------------------------------------------------------------------------
# embedded paths


def test_path_requires_increasing_times():
    with pytest.raises(ValueError):
        ClassicalPath(np.array([0.0, 0.0, 1.0]), np.zeros(3))


def test_uniform_motion_speed_in_half_unit_sigma():
    # with 2σ = 1 the embedding is an isometry: H-speed equals |da/dt|
    spec = KernelSpec(sigma=0.5, dim=1)
    t = np.linspace(0, 2, 9)
    path = ClassicalPath(t, 0.3 + 1.7 * t)
    np.testing.assert_allclose(path_speed_h(path, spec), 1.7, rtol=1e-12)


def test_stationary_path_has_zero_speed():
    t = np.linspace(0, 1, 5)
    path = ClassicalPath(t, np.zeros_like(t))
    np.testing.assert_allclose(path_speed_h(ClassicalPath(t, np.zeros_like(t)), SPEC1), 0.0, atol=1e-15)
    assert path_speed_h(path, SPEC1).shape == (5,)


def test_circular_path_speed_scales_with_radius():
    spec = KernelSpec(sigma=1.0, dim=2)
    omega, radius = 1.0, 0.5
    t = np.linspace(0, 2 * np.pi, 101)
    xy = radius * np.stack([np.cos(omega * t), np.sin(omega * t)], axis=1)
    speeds = path_speed_h(ClassicalPath(t, xy), spec)
    np.testing.assert_allclose(
        speeds[1:-1], radius * omega / (2 * spec.sigma), rtol=1e-3
    )


def test_path_speed_matches_state_finite_difference():
    # H-norm of the finite-difference state velocity, via the full double
    # quadrature, against the closed-form frame computation
    spec = SPEC1
    amp, om = 0.6, 1.1
    a = lambda t: amp * np.sin(om * t)
    t0, dt = 0.4, 0.02
    grid = grid_covering(spec, [[a(t0 - dt)], [a(t0 + dt)]], spacing=spec.delta_width / 4)
    d_plus = delta_approximant(a(t0 + dt), grid, spec)
    d_minus = delta_approximant(a(t0 - dt), grid, spec)
    diff = grid.with_values((d_plus.values - d_minus.values) / (2 * dt))
    fd_norm = np.sqrt(inner_h(diff, diff, spec).real)

    t = np.array([t0 - 2 * dt, t0 - dt, t0, t0 + dt, t0 + 2 * dt])
    speed = path_speed_h(ClassicalPath(t, a(t)), spec)[2]
    assert fd_norm == pytest.approx(speed, rel=2e-2)


def test_newtonian_projection_uniform_motion():
    v = 0.7
    t = np.linspace(0, 1, 101)
    vel, acc = newtonian_projection(ClassicalPath(t, v * t), SPEC1)
    np.testing.assert_allclose(vel[2:-2, 0], v, rtol=1e-4)
    np.testing.assert_allclose(acc[2:-2, 0], 0.0, atol=1e-3 * v)


def test_newtonian_projection_quadratic_path():
    w = 0.6
    t = np.linspace(0, 1, 101)
    path = ClassicalPath(t, 0.5 * w * t**2)
    vel, acc = newtonian_projection(path, SPEC1)
    np.testing.assert_allclose(vel[2:-2, 0], (w * t)[2:-2], rtol=1e-3, atol=1e-5)
    np.testing.assert_allclose(acc[2:-2, 0], w, rtol=1e-3)


def test_newtonian_projection_sinusoidal_path():
    # chain-rule reference: a(t) = A sin Ωt → ȧ = AΩ cos Ωt, ä = −AΩ² sin Ωt
    amp, om = 0.5, 1.3
    t = np.linspace(0, 3, 301)
    path = ClassicalPath(t, amp * np.sin(om * t))
    vel, acc = newtonian_projection(path, SPEC1)
    np.testing.assert_allclose(
        vel[3:-3, 0], (amp * om * np.cos(om * t))[3:-3], rtol=0, atol=2e-3 * amp * om
    )
    np.testing.assert_allclose(
        acc[3:-3, 0],
        (-amp * om**2 * np.sin(om * t))[3:-3],
        rtol=0,
        atol=5e-3 * amp * om**2,
    )


def test_free_action_is_half_m_v_squared_T():
    spec = KernelSpec(sigma=0.5, dim=1)
    m, v, T = 1.3, 0.8, 2.0
    t = np.linspace(0, T, 41)
    s = action_functional(ClassicalPath(t, v * t), lambda x: 0.0, m, spec)
    assert s == pytest.approx(0.5 * m * v**2 * T, rel=1e-12)


def test_harmonic_action_matches_closed_form():
    # x(t) = A sin ωt with V = ½mω²x² gives S = m ω A² sin(2ωT) / 4
    spec = KernelSpec(sigma=0.5, dim=1)
    m, om, amp, T = 1.7, 1.3, 0.8, 1.0
    t = np.linspace(0, T, 4001)
    path = ClassicalPath(t, amp * np.sin(om * t))
    s = action_functional(path, lambda x: 0.5 * m * om**2 * float(x[0]) ** 2, m, spec)
    assert s == pytest.approx(m * om * amp**2 * np.sin(2 * om * T) / 4, rel=1e-6)


def test_constant_potential_shifts_action_additively():
    spec = KernelSpec(sigma=0.5, dim=1)
    t = np.linspace(0, 2, 101)
    path = ClassicalPath(t, 0.3 * t)
    c = 0.9
    s0 = action_functional(path, lambda x: 0.0, 1.0, spec)
    sc = action_functional(path, lambda x: c, 1.0, spec)
    assert sc == pytest.approx(s0 - c * 2.0, rel=1e-12)
