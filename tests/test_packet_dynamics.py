"""Packets, velocity decomposition, Ehrenfest sides, Hamiltonian recovery."""

import tracemalloc

import numpy as np
import pytest

from hilbertbridge.hilbert_core import (
    GridResolutionError,
    GridWaveFunction,
    grid_covering,
    inner_l2,
    KernelSpec,
)
from hilbertbridge.packet_dynamics import (
    GaussianPacket,
    PotentialField,
    decomposition_check,
    ehrenfest_check,
    interior_slice,
    packet_wavefunction,
    phase_space_speed,
    projective_evolution_speed,
    reconstruct_hamiltonian,
    velocity_components,
)
from hilbertbridge.state_geometry import oscillator_matrices


def packet_grid(pkt, spacing):
    spec = KernelSpec(sigma=pkt.sigma, dim=pkt.dim)
    return grid_covering(spec, [pkt.center], spacing=spacing, margin=10 * pkt.sigma)


# ---------------------------------------------------------------------------
# packet states


def test_rest_packet_is_real_positive():
    pkt = GaussianPacket(center=0.0, momentum=0.0, sigma=1.0, mass=1.0)
    psi = packet_wavefunction(pkt, packet_grid(pkt, 0.05))
    assert np.max(np.abs(psi.values.imag)) == 0.0
    assert np.all(psi.values.real > 0)


def test_packet_norm_is_one():
    rng = np.random.default_rng(8)
    for _ in range(5):
        pkt = GaussianPacket(
            center=rng.uniform(-1, 1),
            momentum=rng.uniform(-2, 2),
            sigma=rng.uniform(0.5, 2.0),
            mass=1.0,
        )
        psi = packet_wavefunction(pkt, packet_grid(pkt, pkt.sigma / 20))
        assert psi.l2_norm() == pytest.approx(1.0, abs=1e-10)


def test_packet_position_and_momentum_means():
    pkt = GaussianPacket(center=0.7, momentum=1.3, sigma=0.9, mass=1.0)
    psi = packet_wavefunction(pkt, packet_grid(pkt, pkt.sigma / 40))
    w = psi.quadrature_weights()
    x = psi.axis_coordinates(0)
    mean_x = np.real((np.conj(psi.values) * x * psi.values * w).sum())
    # spectral derivative: the packet decays to ~1e-11 at the grid edges, so
    # the periodic wrap-around is negligible
    freqs = 2 * np.pi * np.fft.fftfreq(x.size, d=psi.spacing)
    dpsi = np.fft.ifft(1j * freqs * np.fft.fft(psi.values))
    mean_p = np.real((np.conj(psi.values) * (-1j) * dpsi * w).sum())
    assert mean_x == pytest.approx(0.7, abs=1e-9)
    assert mean_p == pytest.approx(1.3, rel=1e-7)


def test_packet_density_is_normal_with_std_sigma():
    pkt = GaussianPacket(center=-0.3, momentum=0.8, sigma=1.2, mass=1.0)
    psi = packet_wavefunction(pkt, packet_grid(pkt, 0.05))
    x = psi.axis_coordinates(0)
    density = np.abs(psi.values) ** 2
    expected = np.exp(-((x + 0.3) ** 2) / (2 * 1.2**2)) / np.sqrt(2 * np.pi * 1.2**2)
    np.testing.assert_allclose(density, expected, atol=1e-12)


def test_packet_on_a_sample_free_grid():
    pkt = GaussianPacket(center=0.3, momentum=0.0, sigma=1.0, mass=1.0)
    grid = packet_grid(pkt, 0.05)
    assert not hasattr(grid, "values")
    psi = packet_wavefunction(pkt, grid)
    assert psi.extent == grid.extent and psi.spacing == grid.spacing
    assert psi.origin.tobytes() == grid.origin.tobytes()
    assert abs(psi.l2_norm() - 1.0) <= 1e-12


def test_packet_grid_coverage_and_resolution_errors():
    pkt = GaussianPacket(center=0.0, momentum=0.0, sigma=1.0, mass=1.0)
    small = grid_covering(KernelSpec(1.0), [[0.0]], spacing=0.05, margin=4.0)
    with pytest.raises(GridResolutionError):
        packet_wavefunction(pkt, small)
    coarse = packet_grid(pkt, 0.05)
    fast = GaussianPacket(center=0.0, momentum=40.0, sigma=1.0, mass=1.0)
    with pytest.raises(GridResolutionError):
        packet_wavefunction(fast, coarse)


def _stacked_packet_values(pkt, grid):
    """The packet from stacked (*extent, d) coordinates, term by term."""
    mesh = np.meshgrid(
        *(grid.axis_coordinates(i) for i in range(grid.dim)), indexing="ij"
    )
    dx = np.stack(mesh, axis=-1) - pkt.center
    envelope = np.exp(-(dx * dx).sum(axis=-1) / (4 * pkt.sigma**2))
    plane = np.exp(1j * (dx @ pkt.momentum) / pkt.hbar)
    norm = (2 * np.pi * pkt.sigma**2) ** (-0.25 * pkt.dim)
    return norm * envelope * plane


@pytest.mark.parametrize(
    "extent, center, momentum",
    [
        ((41,), (1.1,), (0.0,)),
        ((41,), (-0.2,), (-1.3,)),
        ((37, 43), (1.3, 0.4), (0.0, -0.0)),
        ((37, 43), (0.05, 1.6), (0.9, -1.1)),
        ((35, 37, 39), (0.6, 0.1, 1.7), (0.0, 0.0, 0.0)),
        ((35, 37, 39), (0.6, 0.1, 1.7), (0.0, 1.2, -0.4)),
    ],
)
def test_packet_matches_stacked_coordinate_formula_bitwise(extent, center, momentum):
    # odd extents, packets off the grid's centre; the grid spans
    # [-8.3, -8.3 + (n − 1)·0.5] per axis
    pkt = GaussianPacket(center=center, momentum=momentum, sigma=1.0, mass=1.0, hbar=1.25)
    grid = GridWaveFunction(np.zeros(extent, dtype=complex), [-8.3] * len(extent), 0.5)
    psi = packet_wavefunction(pkt, grid)
    assert psi.values.tobytes() == _stacked_packet_values(pkt, grid).tobytes()


def test_born_bridge_packets_match_stacked_coordinate_formula_bitwise():
    rng = np.random.default_rng(5)
    sigma = 0.7
    a = rng.normal(0.0, sigma, size=3)
    b = a + rng.normal(0.0, 1.2 * sigma, size=3)
    grid = grid_covering(KernelSpec(sigma=sigma, dim=3), [a, b], spacing=sigma / 3)
    for center in (a, b):
        pkt = GaussianPacket(center=center, momentum=np.zeros(3), sigma=sigma, mass=1.0)
        expected = _stacked_packet_values(pkt, grid)
        assert packet_wavefunction(pkt, grid).values.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "field, value",
    [
        ("sigma", np.nan),
        ("sigma", np.inf),
        ("center", (0.0, np.inf)),
        ("momentum", (np.nan, 0.0)),
        ("mass", np.nan),
        ("mass", np.inf),
        ("hbar", np.nan),
        ("hbar", np.inf),
    ],
)
def test_non_finite_packet_is_refused(field, value):
    kwargs = dict(center=(0.0, 0.0), momentum=(0.0, 0.0), sigma=1.0, mass=1.0, hbar=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError):
        GaussianPacket(**kwargs)


# ---------------------------------------------------------------------------
# phase-space speed


def test_speed_with_momentum_frozen():
    t = np.linspace(0, 1, 11)
    a = 0.4 + 1.1 * t
    p = np.full_like(t, 0.7)
    speeds = phase_space_speed(t, a, p, sigma=0.8)
    np.testing.assert_allclose(speeds, 1.1 / (2 * 0.8), rtol=1e-12)


def test_speed_with_position_frozen():
    t = np.linspace(0, 1, 11)
    a = np.zeros_like(t)
    p = 2.0 * t
    speeds = phase_space_speed(t, a, p, sigma=0.8, hbar=1.0)
    np.testing.assert_allclose(speeds, 0.8 * 2.0, rtol=1e-12)


def test_speed_matches_state_overlap_finite_difference():
    # circular phase-space loop; reference is the projective angle between
    # the actual packet states at ±dt
    sigma, m, hbar = 0.9, 1.0, 1.0
    om, ra, rp = 1.0, 0.6, 1.1
    a_of = lambda t: ra * np.cos(om * t)
    p_of = lambda t: rp * np.sin(om * t)
    t0, dt = 0.35, 5e-4

    grid = grid_covering(
        KernelSpec(sigma), [[a_of(t0 - dt)], [a_of(t0 + dt)]], spacing=sigma / 16
    )
    overlap_states = [
        packet_wavefunction(
            GaussianPacket(a_of(t0 + s), p_of(t0 + s), sigma, m, hbar), grid
        )
        for s in (-dt, +dt)
    ]
    ov = abs(inner_l2(overlap_states[0], overlap_states[1]))
    fd_speed = np.arccos(min(ov, 1.0)) / (2 * dt)

    t = t0 + dt * np.arange(-2, 3)
    speeds = phase_space_speed(t, a_of(t), p_of(t), sigma, hbar)
    assert speeds[2] == pytest.approx(fd_speed, rel=1e-4)


# ---------------------------------------------------------------------------
# velocity components


def test_free_packet_at_rest_components():
    pkt = GaussianPacket(center=0.0, momentum=0.0, sigma=0.7, mass=1.3, hbar=1.0)
    comps = velocity_components(pkt, PotentialField.zero())
    assert comps.space == 0.0
    assert comps.momentum == 0.0
    assert comps.spread == pytest.approx(np.sqrt(2) / (8 * 0.7**2 * 1.3), rel=1e-14)
    assert comps.phase == pytest.approx(1.0 / (8 * 1.3 * 0.7**2), rel=1e-14)


def test_linear_potential_momentum_component():
    f = 1.7
    pkt = GaussianPacket(center=0.4, momentum=0.2, sigma=0.6, mass=2.0, hbar=1.0)
    comps = velocity_components(pkt, PotentialField.linear(f))
    assert comps.momentum == pytest.approx(f * 0.6 / 1.0, rel=1e-14)
    assert comps.space == pytest.approx((0.2 / 2.0) / (2 * 0.6), rel=1e-14)


def test_width_energy_equals_half_rest_energy_at_compton_width():
    m, c, hbar = 1.4, 7.0, 1.0
    sigma = hbar / (2 * m * c)
    pkt = GaussianPacket(center=0.0, momentum=0.0, sigma=sigma, mass=m, hbar=hbar)
    comps = velocity_components(pkt, PotentialField.zero())
    width_energy = comps.phase * hbar  # V = p = 0 here
    assert width_energy == pytest.approx(0.5 * m * c**2, rel=1e-14)


def test_curved_potential_emits_linearity_warning():
    pkt = GaussianPacket(center=0.0, momentum=0.0, sigma=0.5, mass=1.0)
    with pytest.warns(UserWarning, match="not locally linear"):
        velocity_components(pkt, PotentialField.harmonic(1.0))


def test_gradient_consistency_check():
    good = PotentialField.harmonic(2.0)
    good.check_gradient([[0.3], [1.0], [-0.7]])
    bad = PotentialField(lambda x: (x * x).sum(axis=-1), lambda x: 3.0 * x)
    with pytest.raises(ValueError):
        bad.check_gradient([[1.0]])


# ---------------------------------------------------------------------------
# decomposition of the state velocity


def test_decomposition_linear_potential():
    pkt = GaussianPacket(center=0.2, momentum=0.9, sigma=1.0, mass=1.0)
    grid = packet_grid(pkt, 1e-3 * pkt.sigma)
    residual = decomposition_check(pkt, PotentialField.linear(0.8), grid)
    assert residual <= 1e-6


def test_decomposition_free_rest_packet_two_terms():
    pkt = GaussianPacket(center=0.0, momentum=0.0, sigma=0.8, mass=1.2, hbar=1.0)
    comps = velocity_components(pkt, PotentialField.zero())
    # only the phase and spread rates survive, and their squares add to
    # 3ħ²/64m²σ⁴ in closed form
    assert comps.space == comps.momentum == 0.0
    closed = 3.0 / (64 * 1.2**2 * 0.8**4)
    assert comps.total_squared() == pytest.approx(closed, rel=1e-12)
    grid = packet_grid(pkt, 1e-3 * pkt.sigma)
    assert decomposition_check(pkt, PotentialField.zero(), grid) <= 1e-6


def test_decomposition_harmonic_within_curvature_bound():
    k, sigma = 1.0, 0.05
    pkt = GaussianPacket(center=1.0, momentum=0.3, sigma=sigma, mass=1.0)
    grid = packet_grid(pkt, 1e-3 * sigma)
    residual = decomposition_check(pkt, PotentialField.harmonic(k), grid)
    comps = velocity_components(pkt, PotentialField.harmonic(k))
    s = np.sqrt(comps.total_squared())
    b = (np.sqrt(3) / 2) * k * sigma**2  # hbar = 1
    bound = (2 * s * b + b**2) / s**2
    assert residual <= bound
    assert bound < 0.05


# ---------------------------------------------------------------------------
# Ehrenfest relations


def test_ehrenfest_free_moving_packet():
    pkt = GaussianPacket(center=0.0, momentum=1.1, sigma=1.0, mass=1.4)
    psi = packet_wavefunction(pkt, packet_grid(pkt, 1e-3))
    lhs1, rhs1, lhs2, rhs2 = ehrenfest_check(psi, PotentialField.zero(), mass=1.4)
    # the discrete momentum mean sits O(h²) from the continuum p/m
    assert rhs1[0] == pytest.approx(1.1 / 1.4, rel=1e-6)
    assert rhs2[0] == pytest.approx(0.0, abs=1e-12)
    assert lhs1[0] == pytest.approx(rhs1[0], rel=1e-6)
    assert lhs2[0] == pytest.approx(0.0, abs=1e-8)


def test_ehrenfest_linear_potential_force():
    f = 0.9
    pkt = GaussianPacket(center=0.3, momentum=-0.5, sigma=1.0, mass=1.0)
    psi = packet_wavefunction(pkt, packet_grid(pkt, 1e-3))
    lhs1, rhs1, lhs2, rhs2 = ehrenfest_check(psi, PotentialField.linear(f), mass=1.0)
    assert rhs2[0] == pytest.approx(f, rel=1e-10)
    assert lhs2[0] == pytest.approx(f, rel=1e-6)
    assert lhs1[0] == pytest.approx(rhs1[0], rel=1e-6)


def test_ehrenfest_on_random_superposition():
    sigma = 1.0
    grid = grid_covering(KernelSpec(sigma), [[-0.5], [0.5]], spacing=1e-3)
    p1 = packet_wavefunction(GaussianPacket(-0.5, 0.8, sigma, 1.0), grid)
    p2 = packet_wavefunction(GaussianPacket(0.5, -0.4, sigma, 1.0), grid)
    combo = (0.8 + 0.1j) * p1.values + 0.55 * p2.values
    psi = grid.with_values(combo / np.sqrt((np.abs(combo) ** 2 * grid.quadrature_weights()).sum()))
    lhs1, rhs1, lhs2, rhs2 = ehrenfest_check(psi, PotentialField.harmonic(0.7), mass=1.0)
    assert lhs1[0] == pytest.approx(rhs1[0], rel=1e-6, abs=1e-9)
    assert lhs2[0] == pytest.approx(rhs2[0], rel=1e-6, abs=1e-9)


def test_projective_speed_equals_energy_uncertainty():
    rng = np.random.default_rng(16)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    hamiltonian = (m + m.conj().T) / 2
    phi = rng.normal(size=16) + 1j * rng.normal(size=16)
    phi /= np.linalg.norm(phi)
    fd, exact = projective_evolution_speed(hamiltonian, phi, dt=1e-4)
    assert fd == pytest.approx(exact, rel=1e-4)


# ---------------------------------------------------------------------------
# Hamiltonian reconstruction


def test_reconstruct_free_hamiltonian():
    n = 24
    x, p = oscillator_matrices(n)
    h, _, _ = reconstruct_hamiltonian(x, p, grad_v_op=np.zeros((n, n)), mass=1.0)
    ref = p @ p / 2
    band = interior_slice(n)
    err = np.linalg.norm(h[band, band] - ref[band, band]) / np.linalg.norm(
        ref[band, band]
    )
    assert err <= 1e-8
    assert np.linalg.norm(h - h.conj().T) <= 1e-10 * np.linalg.norm(h)


def test_reconstruct_harmonic_hamiltonian():
    n = 24
    x, p = oscillator_matrices(n)
    h, _, _ = reconstruct_hamiltonian(x, p, grad_v_op=x, potential_op=x @ x / 2)
    ref = p @ p / 2 + x @ x / 2
    band = interior_slice(n)
    err = np.linalg.norm(h[band, band] - ref[band, band]) / np.linalg.norm(
        ref[band, band]
    )
    assert err <= 1e-8


def test_additive_constant_is_unconstrained():
    n = 12
    x, p = oscillator_matrices(n)
    ref = p @ p / 2
    keep = interior_slice(n, pad=2)

    def residual(h):
        c1 = 1j * (h @ x - x @ h) - p
        c2 = 1j * (h @ p - p @ h)
        return np.linalg.norm(c1[keep, keep]) + np.linalg.norm(c2[keep, keep])

    assert residual(ref) == pytest.approx(residual(ref + 3.7 * np.eye(n)), abs=1e-12)


def test_reconstruction_reports_expected_rank_deficiency():
    n = 12
    x, p = oscillator_matrices(n)
    h, rank, n_params = reconstruct_hamiltonian(x, p, grad_v_op=np.zeros((n, n)))
    # constant shift + the untouched top band never enter the equations
    assert rank < n_params
    assert n_params - rank == 2 * n + 1


def test_reconstruction_rejects_tiny_truncation():
    x, p = oscillator_matrices(4)
    with pytest.raises(ValueError):
        reconstruct_hamiltonian(x, p, grad_v_op=np.zeros((4, 4)))


def _per_column_solve(x_op, p_op, grad_v_op, solve):
    """``solve(a, b, rcond=None)`` of reconstruct_hamiltonian's least-squares
    system at ħ = m = 1, its design matrix built one column at a time as
    ``equations(from_params(e_j))``, with the build's locals still held."""
    n = len(x_op)
    keep = interior_slice(n, pad=2)
    iu = np.triu_indices(n, k=1)
    n_params = n + 2 * iu[0].size

    def from_params(theta):
        h = np.zeros((n, n), dtype=complex)
        h[np.diag_indices(n)] = theta[:n]
        re = theta[n : n + iu[0].size]
        im = theta[n + iu[0].size :]
        h[iu] = re + 1j * im
        h[(iu[1], iu[0])] = re - 1j * im
        return h

    def equations(h):
        c1 = 1j * (h @ x_op - x_op @ h)
        c2 = 1j * (h @ p_op - p_op @ h)
        return np.concatenate([np.concatenate([c[keep, keep].real.ravel(),
                                               c[keep, keep].imag.ravel()])
                               for c in (c1, c2)])

    b = np.concatenate([np.concatenate([t[keep, keep].real.ravel(), t[keep, keep].imag.ravel()])
                        for t in (1.0 * p_op, -1.0 * grad_v_op)])
    a_mat = np.empty((b.size, n_params))
    basis = np.zeros(n_params)
    for j in range(n_params):
        basis[j] = 1.0
        a_mat[:, j] = equations(from_params(basis))
        basis[j] = 0.0
    return solve(a_mat, b, rcond=None)


@pytest.mark.parametrize("levels", [8, 13, 24])
def test_chunked_design_matrix_is_the_per_column_one_bit_for_bit(levels, monkeypatch):
    systems = []
    lstsq = np.linalg.lstsq

    def recording(a, b, rcond=None):
        systems.append((a, b))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", recording)
    x, p = oscillator_matrices(levels)
    reconstruct_hamiltonian(x, p, grad_v_op=x, potential_op=x @ x / 2)
    [(a_mat, b)] = systems
    oracle_a, oracle_b = _per_column_solve(x, p, x, lambda a, b, rcond: (a, b))
    # bytes, so a zero of the other sign would count too
    assert a_mat.shape == oracle_a.shape and a_mat.tobytes() == oracle_a.tobytes()
    assert b.tobytes() == oracle_b.tobytes()


@pytest.mark.memory
def test_chunked_design_matrix_keeps_the_per_column_peak(monkeypatch):
    """At 24 levels the run's peak stays the per-column build's.

    lstsq's LAPACK wrapper copies the 8.5 MiB design matrix with malloc,
    which tracemalloc does not see but the resident set does; a traced copy
    stands in for it, so both peaks count it.
    """
    lstsq = np.linalg.lstsq

    def with_traced_copy(a, b, rcond=None):
        copy = np.array(a, order="F")  # noqa: F841  (held through the solve)
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", with_traced_copy)
    x, p = oscillator_matrices(24)
    zero = np.zeros((24, 24), dtype=complex)

    def peak(solve):
        tracemalloc.start()
        try:
            solve()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    chunked = peak(lambda: reconstruct_hamiltonian(x, p, grad_v_op=zero))
    per_column = peak(lambda: _per_column_solve(x, p, zero, with_traced_copy))
    assert chunked <= per_column
