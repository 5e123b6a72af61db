"""Cell states, walk modes, Gabor-frame packets, magnitude estimates."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import constants, stats
from scipy.linalg import expm

import reference_walks
from hilbertbridge import position_measurement as pm
from hilbertbridge import stats_util
from hilbertbridge.hilbert_core import GridResolutionError, KernelSpec, grid_covering, inner_l2
from hilbertbridge.packet_dynamics import GaussianPacket, packet_wavefunction
from hilbertbridge.position_measurement import (
    _TaylorKick,
    CellState,
    GeneratorMode,
    MeasurementOutcome,
    PositionWalkParams,
    run_diagonal_walk,
    hermitian_generator,
    isotropic_step,
    magnitude_estimates,
    run_measurement,
    run_position_ensemble,
    velocity_isotropy_diagnostic,
)
from hilbertbridge.spin_measurement import SpinWalkParams, WalkResult, run_ensemble
from hilbertbridge.stats_util import RngStream, chi_square_gof, two_proportion_z


def iso_params(**kw):
    base = dict(tau=0.05, v_std=1.0, max_steps=4000, seed=909)
    base.update(kw)
    return PositionWalkParams(**base)


def diag_params(**kw):
    kw.setdefault("generator_mode", GeneratorMode.DIAGONAL)
    return iso_params(**kw)


def fixed_profile(n, seed=5150):
    gen = RngStream(seed).generator()
    amps = gen.normal(size=n) + 1j * gen.normal(size=n)
    return CellState(amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# state types


def test_cell_state_must_be_normalized():
    with pytest.raises(ValueError):
        CellState(np.array([1.0, 1.0]))
    CellState(np.array([1.0, 1.0]) / math.sqrt(2))


def test_params_enforce_step_phase():
    with pytest.raises(ValueError):
        iso_params(tau=0.2)
    assert iso_params(tau=0.0).step_phase == 0.0


@pytest.mark.parametrize(
    "field, value",
    [("tau", math.nan), ("v_std", math.inf), ("hbar", math.nan), ("tau", -math.inf)],
)
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        iso_params(**{field: value})


def test_cell_state_rejects_non_finite_amplitudes():
    with pytest.raises(ValueError, match="finite"):
        CellState(np.array([math.nan, 1.0], dtype=complex))
    with pytest.raises(ValueError, match="finite"):
        CellState(np.array([1.0, complex(0.0, math.inf)]))


# ---------------------------------------------------------------------------
# diagonal steps


def test_diagonal_step_preserves_moduli_exactly():
    state = fixed_profile(6)
    gen = RngStream(4).generator()
    p = diag_params()
    out = state
    for _ in range(50):
        out = run_diagonal_walk(out, 1, gen, p)
    np.testing.assert_allclose(
        np.abs(out.amplitudes), np.abs(state.amplitudes), atol=1e-15
    )


def test_diagonal_walk_matches_iterated_steps():
    state = fixed_profile(6)
    p = diag_params()
    composed = run_diagonal_walk(state, 50, RngStream(4).generator(), p)
    iterated = state
    gen = RngStream(4).generator()
    for _ in range(50):
        iterated = run_diagonal_walk(iterated, 1, gen, p)
    np.testing.assert_allclose(
        composed.amplitudes, iterated.amplitudes, atol=1e-12
    )


def test_diagonal_walk_moduli_stay_put_over_long_runs():
    state = fixed_profile(8)
    out = run_diagonal_walk(state, 10_000, RngStream(11).generator(),
                            diag_params())
    drift = np.max(np.abs(np.abs(out.amplitudes) - np.abs(state.amplitudes)))
    assert drift <= 1e-15


def test_diagonal_walk_rejects_zero_steps():
    with pytest.raises(ValueError, match="steps"):
        run_diagonal_walk(fixed_profile(4), 0, RngStream(0).generator(),
                          diag_params())


def test_diagonal_step_is_fibre_orthogonal():
    state = fixed_profile(5)
    p = diag_params()
    gen = RngStream(9).generator()
    v = gen.normal(0.0, p.v_std, size=5)
    vbar = float(np.dot(v, state.probabilities))
    tangent = -1j * (v - vbar) * state.amplitudes / p.hbar
    assert abs(np.vdot(state.amplitudes, tangent).real) <= 1e-14
    # and the ensemble mean of the centred potential is zero
    draws = gen.normal(0.0, p.v_std, size=(200_000, 5))
    centred = draws - (draws @ state.probabilities)[:, None]
    assert np.abs(centred.mean(axis=0)).max() <= 4 * p.v_std / math.sqrt(200_000)


# ---------------------------------------------------------------------------
# velocity diagnostic


def test_diagnostic_on_single_cell_support():
    state = CellState(np.eye(4)[1].astype(complex))
    report = velocity_isotropy_diagnostic(
        state, 10_000, RngStream(2).generator(), diag_params()
    )
    assert report.rank == 0
    assert report.mean_zero.passed
    assert np.allclose(report.covariance_eigenvalues, 0.0)


def test_diagnostic_uniform_state_diagonal_mode():
    state = CellState(np.full(4, 0.5, dtype=complex))
    report = velocity_isotropy_diagnostic(
        state, 20_000, RngStream(3).generator(), diag_params()
    )
    assert report.mean_zero.passed
    assert report.coordinate_means.size == 6
    # phases alone reach at most N−1 of the 2(N−1) tangent directions
    assert report.rank <= 3


def test_diagnostic_isotropic_mode_fills_tangent_space():
    state = CellState(np.full(4, 0.5, dtype=complex))
    report = velocity_isotropy_diagnostic(
        state, 20_000, RngStream(4).generator(), iso_params()
    )
    assert report.mean_zero.passed
    assert report.rank == 6
    eigs = report.covariance_eigenvalues
    assert eigs[0] <= 1.6 * eigs[-1]  # no dominant direction


def test_diagnostic_input_validation():
    state = CellState(np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        velocity_isotropy_diagnostic(state, 10_000, RngStream(1).generator(), iso_params())
    with pytest.raises(ValueError):
        velocity_isotropy_diagnostic(
            CellState(np.eye(3)[0].astype(complex)),
            100,
            RngStream(1).generator(),
            iso_params(),
        )


# ---------------------------------------------------------------------------
# isotropic steps


def test_zero_time_step_is_identity():
    state = fixed_profile(4)
    out = isotropic_step(state, RngStream(6).generator(), iso_params(tau=0.0))
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def test_isotropic_steps_preserve_norm_over_many_compositions():
    state = fixed_profile(4)
    gen = RngStream(7).generator()
    p = iso_params()
    for _ in range(10_000):
        state = isotropic_step(state, gen, p)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


def test_isotropic_increment_is_rotation_invariant():
    # the projective step size distribution must not depend on the state
    p = iso_params(seed=17)
    state = fixed_profile(5, seed=1)
    gen_u = RngStream(81).generator()
    m = gen_u.normal(size=(5, 5)) + 1j * gen_u.normal(size=(5, 5))
    q, _ = np.linalg.qr(m)
    rotated = CellState(q @ state.amplitudes)

    def step_sizes(start, stream):
        gen = RngStream(p.seed, stream).generator()
        out = np.empty(3000)
        for i in range(3000):
            moved = isotropic_step(start, gen, p)
            ov = abs(np.vdot(start.amplitudes, moved.amplitudes))
            out[i] = math.acos(min(ov, 1.0))
        return out

    a = step_sizes(state, 1)
    b = step_sizes(rotated, 2)
    assert stats.ks_2samp(a, b).pvalue >= 0.01


# ---------------------------------------------------------------------------
# the Taylor kick


def kick_once(kick, raw):
    """One kick of every trial of ``kick`` by the planes ``raw`` (k, 2, n, n)."""
    (operands,) = kick.prepare(
        hermitian_generator(raw[None, :, 0], raw[None, :, 1], kick.scale)
    )
    kick.apply(operands)


def kick_batch(states, raw, params):
    """exp(−iτH/ħ)ψ row by row through the ensemble's propagator."""
    kick = _TaylorKick(states, params)
    kick_once(kick, raw)
    return kick.states.copy()


def random_batch(n, trials, seed):
    gen = RngStream(seed, n).generator()
    raw = gen.normal(size=(trials, 2, n, n))
    states = gen.normal(size=(trials, n)) + 1j * gen.normal(size=(trials, n))
    return states / np.linalg.norm(states, axis=1, keepdims=True), raw


# at N = 30 the step phase 0.05 makes each kick two parts
@pytest.mark.parametrize("n", [2, 3, 8, 30])
def test_taylor_kick_matches_expm(n):
    p = iso_params()
    assert _TaylorKick(np.ones((1, n)), p).substeps == (2 if n == 30 else 1)
    states, raw = random_batch(n, 64, seed=404)
    got = kick_batch(states, raw, p)
    hams = hermitian_generator(raw[:, 0], raw[:, 1], p.v_std)
    want = np.array(
        [expm(-1j * p.tau * h / p.hbar) @ s for h, s in zip(hams, states)]
    )
    assert np.abs(got - want).max() <= 1e-15


def test_taylor_kick_one_trial_equals_its_batch_row():
    p = iso_params()
    states, raw = random_batch(5, 64, seed=405)
    batch = kick_batch(states, raw, p)
    for t in range(64):
        alone = kick_batch(states[t : t + 1], raw[t : t + 1], p)
        assert alone.tobytes() == batch[t].tobytes()


def test_taylor_kicks_do_not_drift_the_norm():
    # rounding that shrank ‖ψ‖² by ~1.2e-17 every kick would move the mean
    # by ~2.4e-14 over 2000 kicks; unbiased rounding leaves ~1e-15
    p = iso_params()
    states, _ = random_batch(8, 64, seed=407)
    kick = _TaylorKick(states, p)
    gen = RngStream(408).generator()
    for _ in range(2000):
        kick_once(kick, gen.normal(size=(64, 2, 8, 8)))
    norm2 = (np.abs(kick.states) ** 2).sum(axis=1)
    assert abs(norm2.mean() - 1.0) <= 5e-15


def test_taylor_kick_at_zero_tau_returns_state_bit_for_bit():
    states, raw = random_batch(4, 16, seed=406)
    out = kick_batch(states, raw, iso_params(tau=0.0))
    assert out.tobytes() == states.tobytes()
    state = fixed_profile(4)
    moved = isotropic_step(state, RngStream(6).generator(), iso_params(tau=0.0))
    assert moved.amplitudes.tobytes() == state.amplitudes.tobytes()


def test_taylor_kick_refuses_non_finite_generators():
    with pytest.raises(FloatingPointError):
        _TaylorKick.prepare(np.full((1, 1, 2, 2), complex(math.nan, 0.0)))


@pytest.mark.parametrize(
    "masses",
    [(0.7, 0.3), (0.8, 0.15, 0.05), (0.8, 0.1, 0.06, 0.04)],
    ids=["N2", "N3", "N4"],
)
def test_ensemble_matches_eigh_walk(masses, monkeypatch):
    monkeypatch.setattr(pm, "_BATCH", 16)
    n = len(masses)
    amps = np.sqrt(np.array(masses)) * np.exp(1j * np.arange(n))
    state = CellState(amps / np.linalg.norm(amps))
    p = iso_params(absorb_eps=0.1, max_steps=300, seed=77)
    cells, steps = run_position_ensemble(state, 48, p)
    want = [reference_walks.eigh_walk(state, p, t) for t in range(48)]
    assert list(zip(cells.tolist(), steps.tolist())) == want
    # absorbed trials and trials still unresolved at max_steps are compared
    assert (cells >= 0).any() and (cells < 0).any()


@pytest.fixture
def forked_ranges(monkeypatch, forks):
    """Three CPUs, forks from 8 trials a process; records every forked range."""
    monkeypatch.setattr(stats_util, "cpu_count", lambda: 3)
    monkeypatch.setattr(pm, "MIN_TRIALS_PER_PROCESS", 8)
    return forks


def assert_same_run(a, b):
    for x, y in zip(a, b, strict=True):
        assert x.tobytes() == y.tobytes()


def walk_with_finals(state, trials, p):
    """``(cells, steps, finals)``: the engine's ranges fanned out as it does."""
    walk = functools.partial(pm._walk_batch, state, p)
    return stats_util.walk_ranges(walk, trials, pm.MIN_TRIALS_PER_PROCESS, pm._BATCH)


# the HB_THREADS cap (None: unset, every CPU)
@pytest.mark.parametrize("threads, children", [(2, 1), (None, 2)])
# a batch width of 5 or 3 splits every range
@pytest.mark.parametrize("batch", [None, 5, 3])
def test_forked_run_equals_one_process(forked_ranges, monkeypatch, threads, children, batch):
    if batch is not None:
        monkeypatch.setattr(pm, "_BATCH", batch)
    # 0.899 of the mass just outside the 0.9 cap: within 40 kicks some walks
    # absorb and some do not
    masses = np.r_[0.899, np.full(3, 0.101 / 3)]
    amps = np.sqrt(masses) * np.exp(1j * np.arange(4))
    state = CellState(amps / np.linalg.norm(amps))
    p = iso_params(absorb_eps=0.1, max_steps=40, seed=413)
    if threads is not None:
        monkeypatch.setenv("HB_THREADS", str(threads))
    forked = run_position_ensemble(state, 40, p)
    forked_finals = walk_with_finals(state, 40, p)
    assert forked_ranges == stats_util._trial_ranges(40, children + 1)[1:] * 2
    monkeypatch.setenv("HB_THREADS", "1")
    one = run_position_ensemble(state, 40, p)
    assert forked_ranges == stats_util._trial_ranges(40, children + 1)[1:] * 2
    assert_same_run(forked, one)
    assert (one[0] >= 0).any() and (one[0] < 0).any()
    assert_same_run(forked_finals, walk_with_finals(state, 40, p))


def test_forked_run_from_inside_the_cap(forked_ranges):
    # three CPUs and 30 trials would fork two processes, but a start that has
    # already absorbed has nothing to walk
    state = CellState(np.eye(5)[2] + 0j)
    p = iso_params(seed=414)
    cells, steps = run_position_ensemble(state, 30, p)
    assert not forked_ranges
    assert (cells == 2).all() and not steps.any()
    assert (pm._walk_batch(state, p, 30, 0)[2] == state.amplitudes).all()


def test_no_pool_below_the_trial_threshold(monkeypatch, forks):
    monkeypatch.setattr(stats_util, "cpu_count", lambda: 2)
    p = iso_params(max_steps=1, seed=415)
    # too few trials for two ranges, and HB_THREADS=1 above the threshold
    for threads, trials in ((None, 2 * pm.MIN_TRIALS_PER_PROCESS - 1),
                            ("1", 4 * pm.MIN_TRIALS_PER_PROCESS)):
        if threads is not None:
            monkeypatch.setenv("HB_THREADS", threads)
        assert stats_util.range_processes(trials, pm.MIN_TRIALS_PER_PROCESS) == 1
        cells, steps = run_position_ensemble(fixed_profile(3), trials, p)
        assert len(cells) == trials and (steps == 1).all()
    assert not forks


# from N² = 4096 elements on, threaded OpenBLAS would run the Taylor kick's
# mat-vec and stall a forked range; the stream keeps it on one thread
@pytest.mark.parametrize("n, processes", [(63, 2), (64, 2)])
def test_cell_walk_forks_at_every_cell_count(monkeypatch, forks, n, processes):
    monkeypatch.setattr(stats_util, "cpu_count", lambda: 2)
    monkeypatch.setattr(pm, "MIN_TRIALS_PER_PROCESS", 4)
    monkeypatch.setenv("HB_THREADS", "1")
    state, p = fixed_profile(n), iso_params(max_steps=1, seed=416)
    one, one_bytes = run_position_ensemble(state, 8, p), pm.ensemble_bytes(8, n)
    monkeypatch.setenv("HB_THREADS", "2")
    assert_same_run(run_position_ensemble(state, 8, p), one)
    assert len(forks) == processes - 1
    # the estimate counts the processes that walk: at these sizes each
    # process holds at least a block of _BLOCK_BYTES
    assert (pm.ensemble_bytes(8, n) > one_bytes) == (processes == 2)


@pytest.mark.memory
@pytest.mark.parametrize("trials, n, kicks", [(2048, 8, 16), (4096, 3, 64)])
def test_walk_peak_memory_is_within_the_estimate(monkeypatch, trials, n, kicks):
    # blocks of 8 kicks in this process: a block's draws, generators and
    # weights, the two power buffers and the generators; the previous
    # block's generators and weights and a squared copy of the generators
    # took about a third more
    monkeypatch.setenv("HB_THREADS", "1")
    tracemalloc.start()
    try:
        run_position_ensemble(fixed_profile(n), trials, iso_params(max_steps=kicks, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pm.ensemble_bytes(trials, n)


def test_walks_start_from_a_strided_state():
    gen = RngStream(409).generator()
    cols = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    cols /= np.linalg.norm(cols, axis=0)
    column = cols[:, 0]
    assert not column.flags.c_contiguous
    state = CellState(column)
    p = iso_params(absorb_eps=0.1, max_steps=300, seed=78)
    cells, steps = run_position_ensemble(state, 8, p)
    for t in range(8):
        out = reference_walks.run_measurement(state, p, stream_id=t)
        got = -1 if out.cell is None else out.cell
        assert (got, out.steps) == (cells[t], steps[t])
        solo = run_measurement(state, p, stream_id=t)
        assert solo.final_state.amplitudes.tobytes() == out.final_state.amplitudes.tobytes()
    stepped = isotropic_step(state, RngStream(7).generator(), p)
    assert abs(np.linalg.norm(stepped.amplitudes) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# measurement walks


def test_basis_state_absorbs_immediately():
    state = CellState(np.eye(6)[4].astype(complex))
    out = run_measurement(state, iso_params())
    assert out.cell == 4
    assert out.steps == 0
    # the engine walks ISOTROPIC kicks only, even where no kick is needed
    for walk in (lambda p: run_measurement(state, p),
                 lambda p: run_position_ensemble(state, 4, p)):
        with pytest.raises(ValueError, match="ISOTROPIC mode only"):
            walk(diag_params())


def test_ensemble_matches_scalar_measurements(monkeypatch):
    monkeypatch.setattr(pm, "_BATCH", 8)
    state = fixed_profile(3)
    p = iso_params(max_steps=200, seed=31)
    cells, steps = run_position_ensemble(state, 25, p)
    for t in range(25):
        solo = reference_walks.run_measurement(state, p, stream_id=t)
        assert (solo.cell if solo.cell is not None else -1) == cells[t]
        assert solo.steps == steps[t]


@pytest.mark.parametrize("n", [2, 3, 8, 30])
def test_run_measurement_equals_reference(n):
    # one-trial ensembles against the per-kick walk, final states bitwise:
    # 0.899 of the mass sits just outside the 0.9 cap, so some walks absorb
    # within 60 kicks and some do not; a basis state absorbs at once
    masses = np.r_[0.899, np.full(n - 1, 0.101 / (n - 1))]
    amps = np.sqrt(masses) * np.exp(1j * np.arange(n))
    p = iso_params(absorb_eps=0.1, max_steps=60, seed=79)
    outcomes = []
    for state in (CellState(amps / np.linalg.norm(amps)), CellState(np.eye(n)[1] + 0j)):
        for t in range(10):
            got = run_measurement(state, p, stream_id=t)
            want = reference_walks.run_measurement(state, p, stream_id=t)
            assert (got.cell, got.steps) == (want.cell, want.steps), t
            assert got.final_state.amplitudes.tobytes() == want.final_state.amplitudes.tobytes()
            outcomes.append(got.cell)
    assert None in outcomes and 0 in outcomes and outcomes[-1] == 1


def test_balanced_two_cell_walk_splits_evenly():
    state = CellState(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2))
    p = iso_params(seed=2222, max_steps=6000)
    cells, _ = run_position_ensemble(state, 4000, p)
    resolved = cells >= 0
    assert resolved.mean() >= 0.97
    p_zero = (cells[resolved] == 0).mean()
    band = 3 * math.sqrt(0.25 / resolved.sum())
    assert abs(p_zero - 0.5) <= band + 0.01


def test_two_cell_walk_agrees_with_spin_walk_when_matched():
    # N=2 isotropic generators are a Bloch walk: H = c₀I + a·σ with a
    # isotropic normal of per-axis std v_std/√2.  Matching the step-angle
    # scale and the absorption band makes the two modules' outcome
    # statistics indistinguishable (including their shared bias away from
    # the height rule at tilted starts).
    tilt = math.sqrt(0.7)
    pos_state = CellState(np.array([tilt, math.sqrt(0.3)], dtype=complex))
    p_pos = iso_params(tau=0.05, v_std=1.0, absorb_eps=0.02, seed=5, max_steps=6000)
    cells, _ = run_position_ensemble(pos_state, 3000, p_pos)
    resolved = cells >= 0
    n_zero = int((cells[resolved] == 0).sum())

    spin_phi = np.array([tilt, math.sqrt(0.3)], dtype=complex)
    p_spin = SpinWalkParams(
        dt=0.05,
        field_std=1.0 / math.sqrt(2),
        absorb_eps=0.02,
        seed=6,
        max_steps=6000,
    )
    results, _, _ = run_ensemble(spin_phi, 3000, p_spin)
    assert np.mean(results == WalkResult.UNRESOLVED) <= 0.03
    n_down = int(np.sum(results == WalkResult.DOWN))
    n_resolved = int(np.sum(results != WalkResult.UNRESOLVED))

    report = two_proportion_z(n_zero, int(resolved.sum()), n_down, n_resolved)
    assert report.passed


@pytest.mark.xfail(
    reason="unitarily-invariant kicks drive |C_n|² toward the uniform profile"
    " at rate N·(step phase)² per step instead of conserving it",
    strict=True,
)
def test_cell_mass_mean_is_conserved():
    state = fixed_profile(8)
    p = iso_params(max_steps=30, seed=13)
    cells, _ = run_position_ensemble(state, 2000, p)
    assert (cells < 0).all()  # nothing absorbs in 30 steps here
    # re-walk to collect final masses
    totals = np.zeros(8)
    for t in range(2000):
        out = run_measurement(state, p, stream_id=t)
        totals += out.final_state.probabilities
    mean_mass = totals / 2000
    sem = 1.0 / math.sqrt(2000)  # generous per-cell Monte Carlo scale
    np.testing.assert_allclose(
        mean_mass, state.probabilities, atol=4 * sem * 0.25
    )


def test_cell_mass_decays_toward_uniform_at_predicted_rate():
    # quantitative form of the xfail above
    state = fixed_profile(8)
    k = 30
    p = iso_params(max_steps=k, seed=13)
    totals = np.zeros(8)
    trials = 1500
    for t in range(trials):
        out = run_measurement(state, p, stream_id=t)
        totals += out.final_state.probabilities
    mean_mass = totals / trials
    n = 8
    rate = 1 - n * p.step_phase**2
    predicted = 1 / n + (state.probabilities - 1 / n) * rate**k
    np.testing.assert_allclose(mean_mass, predicted, atol=0.02)


@pytest.mark.xfail(
    reason="on CP^7 the absorbing caps have measure ~(absorb_eps)^7, so the"
    " uniformizing walk essentially never resolves and the histogram cannot"
    " reproduce the initial masses",
    strict=True,
)
def test_eight_cell_histogram_matches_initial_masses():
    state = fixed_profile(8)
    p = iso_params(seed=99, max_steps=400)
    cells, _ = run_position_ensemble(state, 2000, p)
    resolved = cells >= 0
    assert resolved.mean() >= 0.5
    counts = np.bincount(cells[resolved], minlength=8)
    report = chi_square_gof(counts, state.probabilities, alpha=0.001)
    assert report.passed


# ---------------------------------------------------------------------------
# Gabor-frame packets: the width-σ packet at lattice site (m, n) sits at αn
# with momentum βm, α = √(2π)σ and β = 2π/α, the critical frame density (ħ = 1)


def test_gabor_origin_state_is_plain_packet():
    sigma = 0.8
    grid = grid_covering(KernelSpec(sigma), [[0.0]], spacing=sigma / 12)
    phi = packet_wavefunction(GaussianPacket(0.0, 0.0, sigma, 1.0), grid)
    x = grid.axis_coordinates(0)
    plain = (2 * math.pi * sigma**2) ** -0.25 * np.exp(-(x**2) / (4 * sigma**2))
    np.testing.assert_allclose(phi.values, plain, rtol=1e-13, atol=1e-14)


def test_gabor_position_mean_sits_on_lattice():
    sigma = 0.6
    alpha = math.sqrt(2 * math.pi) * sigma
    grid = grid_covering(KernelSpec(sigma), [[2 * alpha]], spacing=sigma / 12)
    phi = packet_wavefunction(GaussianPacket(2 * alpha, 3 * 2 * math.pi / alpha, sigma, 1.0),
                              grid)
    w = phi.quadrature_weights()
    x = phi.axis_coordinates(0)
    mean_x = float(np.real((np.conj(phi.values) * x * phi.values * w).sum()))
    assert mean_x == pytest.approx(2 * alpha, abs=1e-9)
    assert phi.l2_norm() == pytest.approx(1.0, abs=1e-10)


def test_gabor_momentum_mean_sits_on_lattice():
    sigma = 0.6
    alpha = math.sqrt(2 * math.pi) * sigma
    beta = 2 * math.pi / alpha
    grid = grid_covering(KernelSpec(sigma), [[2 * alpha]], spacing=sigma / 12)
    phi = packet_wavefunction(GaussianPacket(2 * alpha, 3 * beta, sigma, 1.0), grid)
    k = 2 * math.pi * np.fft.fftfreq(phi.extent[0], d=phi.spacing)
    weight = np.abs(np.fft.fft(phi.values)) ** 2
    assert float((k * weight).sum() / weight.sum()) == pytest.approx(3 * beta, abs=1e-9)


def test_gabor_neighbor_overlap():
    sigma = 0.9
    alpha = math.sqrt(2 * math.pi) * sigma
    grid = grid_covering(KernelSpec(sigma), [[0.0], [alpha]], spacing=sigma / 12)
    a = packet_wavefunction(GaussianPacket(0.0, 0.0, sigma, 1.0), grid)
    b = packet_wavefunction(GaussianPacket(alpha, 0.0, sigma, 1.0), grid)
    overlap = abs(inner_l2(a, b))
    assert overlap == pytest.approx(math.exp(-math.pi / 4), abs=1e-8)
    # closed form: rest packets a distance α apart overlap at e^{−α²/8σ²}
    assert math.exp(-(alpha**2) / (8 * sigma**2)) == pytest.approx(
        math.exp(-math.pi / 4), rel=1e-12
    )


def test_gabor_modulated_neighbor_overlap():
    # packets at one centre whose momenta differ by β overlap at
    # e^{−σ²β²/2} = e^{−π}: one modulation step is as far as four shifts
    sigma = 0.9
    beta = 2 * math.pi / (math.sqrt(2 * math.pi) * sigma)
    grid = grid_covering(KernelSpec(sigma), [[0.0]], spacing=sigma / 12)
    a = packet_wavefunction(GaussianPacket(0.0, 0.0, sigma, 1.0), grid)
    b = packet_wavefunction(GaussianPacket(0.0, beta, sigma, 1.0), grid)
    assert abs(inner_l2(a, b)) == pytest.approx(math.exp(-math.pi), abs=1e-12)


def test_gabor_needs_covering_grid():
    sigma = 0.5
    alpha = math.sqrt(2 * math.pi) * sigma
    grid = grid_covering(KernelSpec(sigma), [[0.0]], spacing=sigma / 12)
    with pytest.raises(GridResolutionError):
        packet_wavefunction(GaussianPacket(5 * alpha, 0.0, sigma, 1.0), grid)


# ---------------------------------------------------------------------------
# magnitude estimates


def test_estimates_nanometre_probe():
    rep = magnitude_estimates(1e-9, constants.m_e, 300.0)
    assert rep.compton_shift == pytest.approx(2.43e-12, rel=0.01)
    assert math.log10(rep.energy_transfer) == pytest.approx(
        math.log10(4.8e-19), abs=0.1
    )
    assert math.log10(rep.speed) == pytest.approx(6.0, abs=0.1)
    assert math.log10(rep.velocity_term) == pytest.approx(14.71, abs=0.05)
    assert math.log10(rep.acceleration_term) == pytest.approx(18.43, abs=0.05)
    assert math.log10(rep.spreading_term) == pytest.approx(13.31, abs=0.05)


def test_estimates_visible_light_probe():
    rep = magnitude_estimates(1e-5, constants.m_e, 300.0)
    assert math.log10(rep.velocity_term) == pytest.approx(6.71, abs=0.05)
    assert math.log10(rep.acceleration_term) == pytest.approx(14.43, abs=0.05)
    assert math.log10(rep.spreading_term) == pytest.approx(5.31, abs=0.05)


def test_estimates_thermal_census():
    rep = magnitude_estimates(1e-5, constants.m_e, 500.0)
    assert rep.photon_density == pytest.approx(2.02e7 * 500**3, rel=1e-12)
    assert math.log10(rep.photon_density) == pytest.approx(15.4, abs=0.1)
    assert rep.thermal_peak_wavelength == pytest.approx(5.8e-6, rel=0.01)


@pytest.mark.xfail(
    reason="with σ = λ the Compton chain gives velocity term ∝ σ^-2 and"
    " acceleration term ∝ σ^-1; the claimed -3/2 and -1/2 exponents do not"
    " follow from the chain (only the spreading exponent -2 does)",
    strict=True,
)
def test_estimate_scaling_exponents_as_claimed():
    sweep = np.geomspace(1e-9, 1e-5, 9)
    reps = [magnitude_estimates(s, constants.m_e, 300.0) for s in sweep]
    logs = np.log(sweep)

    def slope(values):
        return np.polyfit(logs, np.log(values), 1)[0]

    assert slope([r.velocity_term for r in reps]) == pytest.approx(-1.5, abs=0.1)
    assert slope([r.acceleration_term for r in reps]) == pytest.approx(-0.5, abs=0.1)
    assert slope([r.spreading_term for r in reps]) == pytest.approx(-2.0, abs=0.1)


def test_estimate_scaling_exponents_as_computed():
    sweep = np.geomspace(1e-9, 1e-5, 9)
    reps = [magnitude_estimates(s, constants.m_e, 300.0) for s in sweep]
    logs = np.log(sweep)

    def slope(values):
        return np.polyfit(logs, np.log(values), 1)[0]

    assert slope([r.velocity_term for r in reps]) == pytest.approx(-2.0, abs=0.01)
    assert slope([r.acceleration_term for r in reps]) == pytest.approx(-1.0, abs=0.01)
    assert slope([r.spreading_term for r in reps]) == pytest.approx(-2.0, abs=1e-6)
