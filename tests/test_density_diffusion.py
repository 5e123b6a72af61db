"""Propagator accuracy, continuity residuals and diffusion references."""

import numpy as np
import pytest
from scipy import stats

from hilbertbridge import position_measurement, stats_util
from hilbertbridge.density_diffusion import (
    DiffusionParams,
    EvolutionParams,
    EvolutionScheme,
    brownian_ensemble,
    continuity_residual,
    evolve_grid,
    probability_current,
    radial_shell_density,
    state_density_msd,
)
from hilbertbridge.hilbert_core import (
    GridResolutionError,
    GridWaveFunction,
    KernelSpec,
    grid_covering,
)
from hilbertbridge.packet_dynamics import GaussianPacket, PotentialField, packet_wavefunction
from hilbertbridge.position_measurement import (
    CellState,
    GeneratorMode,
    PositionWalkParams,
    hermitian_generator,
)
from hilbertbridge.spin_measurement import SpinWalkParams
from hilbertbridge.stats_util import RngStream
from reference_walks import _step_batch


def _packet_on_grid(sigma, p, spacing, half_width, center=0.0, mass=1.0):
    spec = KernelSpec(sigma=sigma, dim=1)
    grid = grid_covering(spec, [[center]], spacing, margin=half_width)
    pkt = GaussianPacket(
        center=np.array([center]),
        momentum=np.array([p]),
        sigma=sigma,
        mass=mass,
    )
    return pkt, packet_wavefunction(pkt, grid)


def _free_packet_exact(pkt: GaussianPacket, grid: GridWaveFunction, t: float):
    """Spreading Gaussian under free evolution, same phase convention as
    packet_wavefunction (momentum phase referenced at the initial center)."""
    x = grid.axis_coordinates(0)
    a = float(pkt.center[0])
    p = float(pkt.momentum[0])
    v = p / pkt.mass
    beta = 1.0 + 1j * pkt.hbar * t / (2 * pkt.mass * pkt.sigma**2)
    env = -((x - a - v * t) ** 2) / (4 * pkt.sigma**2 * beta)
    phase = 1j * (p / pkt.hbar) * (x - a - v * t / 2)
    values = (
        (2 * np.pi * pkt.sigma**2) ** -0.25 / np.sqrt(beta) * np.exp(env + phase)
    )
    return grid.with_values(values)


def _one_shot_spectral(psi0: GridWaveFunction, t: float, mass=1.0, hbar=1.0):
    """Exact free propagator of the periodic grid problem in one application."""
    k = 2 * np.pi * np.fft.fftfreq(psi0.extent[0], d=psi0.spacing)
    return psi0.with_values(
        np.fft.ifft(np.exp(-1j * hbar * k**2 * t / (2 * mass)) * np.fft.fft(psi0.values))
    )


def _l2_diff(a: GridWaveFunction, b: GridWaveFunction) -> float:
    return a.with_values(a.values - b.values).l2_norm()


def _discrete_hamiltonian(grid: GridWaveFunction, potential, mass=1.0, hbar=1.0):
    n = grid.extent[0]
    h = grid.spacing
    v = np.asarray(potential.value(grid.axis_coordinates(0)[:, None]))
    kin = hbar**2 / (2 * mass * h**2)
    return np.diag(2 * kin + v) - kin * np.eye(n, k=1) - kin * np.eye(n, k=-1)


# ---------------------------------------------------------------------------
# parameter validation


class TestParams:
    def test_evolution_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EvolutionParams(dt=0.0, steps=5)
        with pytest.raises(ValueError):
            EvolutionParams(dt=0.01, steps=0)
        with pytest.raises(ValueError):
            EvolutionParams(dt=0.01, steps=5, mass=-1.0)

    def test_diffusion_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DiffusionParams(diffusivity=-1.0, walkers=20_000, dt=0.01, t_final=1.0)
        with pytest.raises(ValueError):
            DiffusionParams(diffusivity=1.0, walkers=500, dt=0.01, t_final=1.0)
        with pytest.raises(ValueError):
            DiffusionParams(diffusivity=1.0, walkers=20_000, dt=0.5, t_final=0.1)

    def test_time_step_cap(self):
        # Nyquist kinetic phase above π per step is refused
        _, psi0 = _packet_on_grid(1.0, 0.0, spacing=0.05, half_width=8.0)
        params = EvolutionParams(dt=0.05, steps=1)
        with pytest.raises(GridResolutionError):
            evolve_grid(psi0, PotentialField.zero(), params)

    def test_midpoint_is_one_dimensional(self):
        spec = KernelSpec(sigma=1.0, dim=2)
        grid = grid_covering(spec, [[0.0, 0.0]], 0.5, margin=4.0)
        psi0 = grid.with_values(np.ones(grid.extent, dtype=complex))
        params = EvolutionParams(
            dt=1e-4, steps=1, scheme=EvolutionScheme.IMPLICIT_MIDPOINT
        )
        with pytest.raises(ValueError):
            evolve_grid(psi0, PotentialField.zero(), params)


# ---------------------------------------------------------------------------
# grid evolution


class TestEvolveGrid:
    def test_exact_formula_matches_spectral_propagator(self):
        # independent check of the closed-form spreading packet before it is
        # used as the reference below
        pkt, psi0 = _packet_on_grid(1.0, 0.6, spacing=1 / 60, half_width=12.0)
        t = 0.4
        exact = _free_packet_exact(pkt, psi0, t)
        spectral = _one_shot_spectral(psi0, t)
        assert _l2_diff(exact, spectral) < 1e-11

    def test_split_free_packet_matches_analytic(self):
        pkt, psi0 = _packet_on_grid(1.0, 0.5, spacing=1 / 60, half_width=12.0)
        params = EvolutionParams(dt=1e-4, steps=800)
        final = evolve_grid(psi0, PotentialField.zero(), params)[-1]
        exact = _free_packet_exact(pkt, psi0, params.dt * params.steps)
        # splitting is exact for V = 0, so only round-off remains
        assert _l2_diff(final, exact) < 1e-10

    def test_midpoint_free_packet_matches_analytic(self):
        pkt, psi0 = _packet_on_grid(1.0, 0.0, spacing=1 / 60, half_width=12.0)
        params = EvolutionParams(
            dt=1e-4, steps=800, scheme=EvolutionScheme.IMPLICIT_MIDPOINT
        )
        final = evolve_grid(psi0, PotentialField.zero(), params)[-1]
        exact = _free_packet_exact(pkt, psi0, params.dt * params.steps)
        assert _l2_diff(final, exact) < 1e-4

    def test_split_moment_spreading(self):
        # ⟨x⟩ = a + pt/m and Var(x) = σ²(1 + (ħt/2mσ²)²) for free motion
        pkt, psi0 = _packet_on_grid(0.7, 0.9, spacing=0.7 / 40, half_width=10.0)
        params = EvolutionParams(dt=1e-4, steps=3000)
        final = evolve_grid(psi0, PotentialField.zero(), params)[-1]
        t = params.dt * params.steps
        x = final.axis_coordinates(0)
        rho = np.abs(final.values) ** 2 * final.quadrature_weights()
        mean = float((x * rho).sum())
        var = float(((x - mean) ** 2 * rho).sum())
        assert mean == pytest.approx(0.9 * t, abs=1e-6)
        expected_var = 0.7**2 * (1 + (t / (2 * 0.7**2)) ** 2)
        assert var == pytest.approx(expected_var, rel=1e-6)

    def test_snapshot_count_and_initial_state(self):
        _, psi0 = _packet_on_grid(1.0, 0.0, spacing=0.05, half_width=8.0)
        params = EvolutionParams(dt=1e-4, steps=7)
        seq = evolve_grid(psi0, PotentialField.zero(), params)
        assert len(seq) == 8
        assert seq[0] is psi0

    @pytest.mark.parametrize(
        "scheme", [EvolutionScheme.UNITARY_SPLIT, EvolutionScheme.IMPLICIT_MIDPOINT]
    )
    def test_norm_preserved_each_step(self, scheme):
        _, psi0 = _packet_on_grid(1.0, 0.8, spacing=0.05, half_width=10.0)
        params = EvolutionParams(dt=0.001, steps=200, scheme=scheme)
        seq = evolve_grid(psi0, PotentialField.harmonic(1.0), params)
        norms = np.array([s.l2_norm() for s in seq])
        assert np.max(np.abs(np.diff(norms))) < 1e-12
        assert abs(norms[-1] - norms[0]) < 1e-10

    @pytest.mark.parametrize(
        "scheme", [EvolutionScheme.UNITARY_SPLIT, EvolutionScheme.IMPLICIT_MIDPOINT]
    )
    def test_second_order_in_dt(self, scheme):
        # fixed grid, halved step; the reference uses the same grid at dt/8
        # so only the time-stepping error is measured
        _, psi0 = _packet_on_grid(1.0, 0.8, spacing=0.1, half_width=10.0)
        potential = PotentialField.harmonic(1.0)
        t_final = 0.32

        def final_state(dt):
            params = EvolutionParams(
                dt=dt, steps=int(round(t_final / dt)), scheme=scheme
            )
            return evolve_grid(psi0, potential, params)[-1]

        reference = final_state(5e-3 / 8)
        err_coarse = _l2_diff(final_state(5e-3), reference)
        err_fine = _l2_diff(final_state(2.5e-3), reference)
        ratio = err_coarse / err_fine
        assert 3.3 < ratio < 4.8

    def test_midpoint_eigenstate_rotates_in_phase_only(self):
        # an eigenvector of the discrete Hamiltonian picks up the Cayley
        # phase −2·arctan(dt·E/2ħ) per step and keeps its modulus exactly
        spec = KernelSpec(sigma=1.0, dim=1)
        grid = grid_covering(spec, [[0.0]], 0.05, margin=10.0)
        potential = PotentialField.harmonic(1.0)
        h_mat = _discrete_hamiltonian(grid, potential)
        energies, vecs = np.linalg.eigh(h_mat)
        ground = vecs[:, 0].astype(complex) / np.sqrt(grid.spacing)
        psi0 = grid.with_values(ground)

        params = EvolutionParams(
            dt=1e-3, steps=50, scheme=EvolutionScheme.IMPLICIT_MIDPOINT
        )
        seq = evolve_grid(psi0, potential, params)
        expected_phase = -2 * np.arctan(params.dt * energies[0] / 2)
        w = psi0.quadrature_weights()
        for k, snap in enumerate(seq):
            np.testing.assert_allclose(
                np.abs(snap.values), np.abs(psi0.values), atol=1e-12
            )
            overlap = (np.conj(psi0.values) * snap.values * w).sum()
            assert abs(abs(overlap) - 1.0) < 1e-10
            assert np.angle(overlap) == pytest.approx(
                (expected_phase * k + np.pi) % (2 * np.pi) - np.pi, abs=1e-10
            )


# ---------------------------------------------------------------------------
# continuity


class TestContinuity:
    def test_current_of_real_state_vanishes(self):
        spec = KernelSpec(sigma=1.0, dim=1)
        grid = grid_covering(spec, [[0.0]], 0.05, margin=8.0)
        x = grid.axis_coordinates(0)
        psi = grid.with_values((np.exp(-(x**2) / 4) * (1 + 0.3 * x)).astype(complex))
        j = probability_current(psi)
        assert np.max(np.abs(j)) == 0.0

    def test_packet_current_matches_classical_flux(self):
        # j = (p/m)|ψ|² for a Gaussian packet, to 1e-6 relative at h = σ/1000
        sigma, p, mass = 1.0, 1.0, 1.3
        pkt, psi0 = _packet_on_grid(sigma, p, spacing=1e-3, half_width=8.0, mass=mass)
        j = probability_current(psi0, mass=mass)[..., 0]
        rho = np.abs(psi0.values) ** 2
        expected = (p / mass) * rho
        assert np.max(np.abs(j - expected)) / np.max(np.abs(expected)) < 1e-6

    def test_stationary_state_residual_at_floor(self):
        spec = KernelSpec(sigma=1.0, dim=1)
        grid = grid_covering(spec, [[0.0]], 0.05, margin=10.0)
        potential = PotentialField.harmonic(1.0)
        h_mat = _discrete_hamiltonian(grid, potential)
        _, vecs = np.linalg.eigh(h_mat)
        psi0 = grid.with_values(vecs[:, 0].astype(complex) / np.sqrt(grid.spacing))
        params = EvolutionParams(
            dt=1e-3, steps=1, scheme=EvolutionScheme.IMPLICIT_MIDPOINT
        )
        before, after = evolve_grid(psi0, potential, params)
        residual = continuity_residual(before, after, params)
        assert np.max(np.abs(residual)) < 1e-10

    def test_moving_packet_residual_order(self):
        # halving h and dt together must shrink the max-norm residual by at
        # least 2^1.8
        def residual_norm(spacing, dt):
            _, psi0 = _packet_on_grid(1.0, 1.0, spacing=spacing, half_width=9.0)
            params = EvolutionParams(dt=dt, steps=1)
            before, after = evolve_grid(psi0, PotentialField.zero(), params)
            return np.max(np.abs(continuity_residual(before, after, params)))

        coarse = residual_norm(0.05, 3e-4)
        fine = residual_norm(0.025, 1.5e-4)
        assert coarse / fine > 2**1.8

    def test_grid_mismatch_rejected(self):
        _, a = _packet_on_grid(1.0, 0.0, spacing=0.05, half_width=8.0)
        _, b = _packet_on_grid(1.0, 0.0, spacing=0.025, half_width=8.0)
        with pytest.raises(ValueError):
            continuity_residual(a, b, EvolutionParams(dt=1e-3, steps=1))


# ---------------------------------------------------------------------------
# Brownian reference ensemble


@pytest.fixture(scope="module")
def large_run():
    params = DiffusionParams(
        diffusivity=0.7, walkers=100_000, dt=0.02, t_final=1.0, seed=42
    )
    return brownian_ensemble(params)


class TestBrownian:
    def test_msd_slope_and_linearity(self, large_run):
        res = stats.linregress(
            large_run.times, large_run.mean_square_displacement
        )
        assert res.slope == pytest.approx(6 * 0.7, rel=0.05)
        assert res.rvalue**2 > 0.999

    def test_radial_distribution_against_heat_kernel(self, large_run):
        # |a| at time t is chi(3) scaled by √(2Kt); a 4σ band on the KS
        # p-value flags any distributional mismatch
        scale = np.sqrt(2 * 0.7 * 1.0)
        r = np.linalg.norm(large_run.final_positions, axis=1)
        ks = stats.kstest(r, stats.chi(df=3, scale=scale).cdf)
        assert ks.pvalue > 6.3e-5

    def test_shell_density_tracks_kernel(self, large_run):
        kt = 0.7 * 1.0
        scale = np.sqrt(2 * kt)
        centers, density, counts = radial_shell_density(
            large_run.final_positions, n_shells=24, r_max=4 * scale
        )
        kernel = (4 * np.pi * kt) ** -1.5 * np.exp(-(centers**2) / (4 * kt))
        edges = np.linspace(0.0, 4 * scale, 25)
        expected_frac = np.diff(stats.chi(df=3, scale=scale).cdf(edges))
        expected_counts = expected_frac * large_run.final_positions.shape[0]
        band = expected_counts >= 500
        rel_err = np.abs(density[band] - kernel[band]) / kernel[band]
        # 4σ Poisson noise per shell plus a small finite-shell-width bias
        tol = 4 / np.sqrt(expected_counts[band]) + 0.01
        assert np.all(rel_err < tol)

    def test_counts_sum_to_walkers_inside_range(self, large_run):
        r = np.linalg.norm(large_run.final_positions, axis=1)
        r_max = float(r.max()) + 1e-9
        _, _, counts = radial_shell_density(large_run.final_positions, 10, r_max)
        assert counts.sum() == large_run.final_positions.shape[0]

    def test_short_time_concentrates_at_origin(self):
        params = DiffusionParams(
            diffusivity=1.0, walkers=20_000, dt=1e-4, t_final=4e-4, seed=3
        )
        out = brownian_ensemble(params)
        assert out.mean_square_displacement[0] == 0.0
        assert out.mean_square_displacement[-1] < 10 * 6 * params.t_final
        r = np.linalg.norm(out.final_positions, axis=1)
        assert np.percentile(r, 99) < 5 * np.sqrt(6 * params.t_final)

    def test_msd_equals_per_step_sum_of_squares(self):
        # the per-step walk with the mean of (pos**2).sum(axis=1), bit for bit
        params = DiffusionParams(
            diffusivity=0.7, walkers=10_000, dt=0.02, t_final=0.2, seed=19
        )
        gen = RngStream(params.seed).generator()
        step_std = np.sqrt(2 * params.diffusivity * params.dt)
        pos = np.zeros((params.walkers, 3))
        want = np.zeros(11)
        for k in range(1, 11):
            pos += gen.normal(0.0, step_std, size=pos.shape)
            want[k] = float((pos**2).sum(axis=1).mean())
        out = brownian_ensemble(params)
        assert out.mean_square_displacement.tobytes() == want.tobytes()
        assert out.final_positions.tobytes() == pos.tobytes()

    def test_seeded_reproducibility(self):
        params = DiffusionParams(
            diffusivity=0.5, walkers=10_000, dt=0.05, t_final=0.2, seed=11
        )
        a = brownian_ensemble(params)
        b = brownian_ensemble(params)
        np.testing.assert_array_equal(a.final_positions, b.final_positions)
        other = DiffusionParams(
            diffusivity=0.5, walkers=10_000, dt=0.05, t_final=0.2, seed=12
        )
        assert not np.array_equal(
            a.final_positions, brownian_ensemble(other).final_positions
        )


# ---------------------------------------------------------------------------
# projective MSD of the measurement walks


class TestStateMsd:
    def test_zero_coupling_control_is_static(self):
        params = PositionWalkParams(tau=0.0, v_std=1.0, seed=5)
        start = CellState(np.array([1.0, 0.0, 0.0], dtype=complex))
        out = state_density_msd(start, params, n_steps=6, trials=100)
        np.testing.assert_array_equal(out.mean_square_angle, np.zeros(7))

    def test_spin_early_slope_matches_step_angle_scale(self):
        params = SpinWalkParams(dt=0.05, field_std=1.0, seed=17)
        start = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        out = state_density_msd(start, params, n_steps=10, trials=4000)
        res = stats.linregress(out.steps, out.mean_square_angle)
        # each kick contributes 2λ² of mean squared projective angle where
        # λ = μ·s·dt/ħ is the step angle
        assert res.slope == pytest.approx(2 * params.step_angle**2, rel=0.10)
        assert res.rvalue**2 > 0.99

    def test_spin_slope_constant_over_first_decade(self):
        params = SpinWalkParams(dt=0.04, field_std=1.0, seed=23)
        start = np.array([1.0, 0.0], dtype=complex)
        out = state_density_msd(start, params, n_steps=10, trials=6000)
        early = stats.linregress(out.steps[:6], out.mean_square_angle[:6]).slope
        late = stats.linregress(out.steps[5:], out.mean_square_angle[5:]).slope
        assert late == pytest.approx(early, rel=0.10)

    def test_position_slope_independent_of_start(self):
        # the unitarily-invariant generator diffuses every start state at the
        # same early rate (N−1)(τv/ħ)²
        params = PositionWalkParams(tau=0.04, v_std=1.0, seed=31)
        basis = CellState(np.array([1, 0, 0, 0], dtype=complex))
        uniform = CellState(np.full(4, 0.5, dtype=complex))
        out_a = state_density_msd(basis, params, n_steps=8, trials=1500)
        out_b = state_density_msd(uniform, params, n_steps=8, trials=1500)
        slope_a = stats.linregress(out_a.steps, out_a.mean_square_angle).slope
        slope_b = stats.linregress(out_b.steps, out_b.mean_square_angle).slope
        assert slope_b == pytest.approx(slope_a, rel=0.10)
        predicted = 3 * (params.tau * params.v_std / params.hbar) ** 2
        assert slope_a == pytest.approx(predicted, rel=0.10)

    def test_input_validation(self):
        start = CellState(np.array([1.0, 0.0], dtype=complex))
        good = PositionWalkParams(tau=0.01, v_std=1.0)
        with pytest.raises(ValueError):
            state_density_msd(start, good, n_steps=4, trials=50)
        with pytest.raises(TypeError):
            state_density_msd(start, object(), n_steps=4, trials=200)
        diag = PositionWalkParams(
            tau=0.01, v_std=1.0, generator_mode=GeneratorMode.DIAGONAL
        )
        with pytest.raises(ValueError):
            state_density_msd(start, diag, n_steps=4, trials=200)


def _msd_per_step_reference(start, params, n_steps, trials):
    """The MSD walks with every step drawing from every generator in turn."""
    spin = isinstance(params, SpinWalkParams)
    start = np.asarray(start if spin else start.amplitudes, dtype=complex)
    n = start.size
    gens = [RngStream(params.seed, t).generator() for t in range(trials)]
    states = np.tile(start, (trials, 1))
    out = np.zeros(n_steps + 1)
    for k in range(1, n_steps + 1):
        if spin:
            fields = np.stack([g.normal(0.0, params.field_std, size=3) for g in gens])
            _step_batch(states, fields, params)
        elif params.tau > 0:
            raw = np.stack([g.normal(size=(2, n, n)) for g in gens])
            hams = hermitian_generator(raw[:, 0], raw[:, 1], params.v_std)
            states = position_measurement._apply_unitary_batch(states, hams, params)
        ov = np.abs(states @ start.conj())
        out[k] = float((np.arccos(np.minimum(ov, 1.0)) ** 2).mean())
    return out


@pytest.mark.parametrize("budget", [None, 3 * 100 * 8 * 3, 1])
@pytest.mark.parametrize(
    "start, params, n_steps",
    [
        pytest.param(
            np.array([0.6, 0.8j], dtype=complex),
            SpinWalkParams(dt=0.05, field_std=0.7, seed=9), 11,
            id="start0-params0",
        ),
        pytest.param(
            CellState(np.array([1, 0, 0], dtype=complex)),
            PositionWalkParams(tau=0.05, v_std=1.0, seed=9), 11,
            id="start1-params1",
        ),
        pytest.param(
            CellState(np.array([0.6, 0, 0.8], dtype=complex)),
            PositionWalkParams(tau=0.0, v_std=1.0, seed=9), 11,
            id="start2-params2",
        ),
        # 300 spin kicks cross 16-kick scan windows and a 256-kick block
        pytest.param(
            np.array([0.8, 0.6], dtype=complex),
            SpinWalkParams(dt=0.04, field_std=1.0, seed=10), 300,
            id="spin-300-steps",
        ),
    ],
)
def test_msd_block_draws_match_per_step_draws(monkeypatch, start, params, n_steps,
                                              budget):
    # cell walks: the engine's budget (one block of 11 kicks) and budgets
    # below one kick (blocks of 8, then 3); the spin walk draws in its
    # engine's blocks whatever the budget (300 kicks: 256, then 44)
    if budget is not None:
        monkeypatch.setattr(position_measurement, "_BLOCK_BYTES", budget)
    out = state_density_msd(start, params, n_steps=n_steps, trials=100)
    ref = _msd_per_step_reference(start, params, n_steps=n_steps, trials=100)
    assert out.mean_square_angle.tobytes() == ref.tobytes()


# 300 trials of 3 or 4 cells; a budget below one kick draws blocks of 8
# kicks, so 11 steps cross a block edge, batches of 64 split each range, a
# 76 800-byte window hands the states over 4 or 5 steps at a time, so the
# windows cut blocks and the last window is shorter, and a 64-element
# mat-vec takes the overlaps 20 or 14 rows at a time
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kw", [{}, {"_BLOCK_BYTES": 1, "_BATCH": 64},
                                {"_BLOCK_BYTES": 1, "_BATCH": 64, "_WINDOW_BYTES": 76_800,
                                 "_GEMV_ONE_THREAD": 64}])
def test_forked_cell_msd_equals_one_process_and_per_step_reference(monkeypatch, n, kw):
    processes = []

    def recorded(trials, min_trials):
        processes.append(real_processes(trials, min_trials))
        return processes[-1]

    real_processes = stats_util.range_processes
    for name, value in kw.items():
        monkeypatch.setattr(position_measurement, name, value)
    monkeypatch.setattr(stats_util, "cpu_count", lambda: 2)
    monkeypatch.setattr(stats_util, "range_processes", recorded)
    start = CellState(np.array([0.6, 0, 0.8, 0][:n], dtype=complex))
    params = PositionWalkParams(tau=0.05, v_std=1.0, seed=21)
    runs = {}
    for workers in ("2", "1"):
        monkeypatch.setenv("HB_THREADS", workers)
        runs[workers] = position_measurement._free_walk_msd(start, 300, params, 11)
    # the 3300 trial-kicks fork nothing until the minimum is lowered
    assert processes == [1, 1]
    monkeypatch.setattr(position_measurement, "_MIN_MSD_KICKS_PER_PROCESS", 1500)
    monkeypatch.setenv("HB_THREADS", "2")
    forked = position_measurement._free_walk_msd(start, 300, params, 11)
    assert processes[2:] == [2]
    ref = _msd_per_step_reference(start, params, n_steps=11, trials=300)
    assert forked.tobytes() == runs["1"].tobytes() == runs["2"].tobytes() == ref.tobytes()


# eigh divides and conquers from 26 cells on, with calls OpenBLAS threads
@pytest.mark.parametrize("n, processes", [(25, 2), (26, 1)])
def test_cell_msd_forks_only_up_to_25_cells(monkeypatch, n, processes):
    made = []
    real_processes = stats_util.range_processes
    monkeypatch.setattr(stats_util, "range_processes",
                        lambda *args: made.append(real_processes(*args)) or made[-1])
    monkeypatch.setattr(stats_util, "cpu_count", lambda: 2)
    monkeypatch.setattr(position_measurement, "_MIN_MSD_KICKS_PER_PROCESS", 1)
    monkeypatch.setenv("HB_THREADS", "2")
    start = CellState(np.eye(1, n, dtype=complex)[0])
    params = PositionWalkParams(tau=0.05, v_std=1.0, seed=8)
    out = position_measurement._free_walk_msd(start, 40, params, 3)
    assert made == [processes]
    ref = _msd_per_step_reference(start, params, n_steps=3, trials=40)
    assert out.tobytes() == ref.tobytes()
