"""Bloch-sphere walk: kicks, absorption statistics, isotropy diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import reference_walks
from hilbertbridge import density_diffusion
from hilbertbridge import spin_measurement as sm
from hilbertbridge import stats_util
from hilbertbridge.spin_measurement import (
    SpinWalkParams,
    WalkResult,
    isotropy_test,
    lattice_ruin_probability,
    pauli_step,
    run_ensemble,
    run_walk,
    sample_field,
    tangent_displacements,
)
from hilbertbridge.state_geometry import hopf_map
from hilbertbridge.stats_util import RngStream, direction_uniformity

UP_STATE = np.array([0.0, 1.0], dtype=complex)  # Hopf height z = +1
DOWN_STATE = np.array([1.0, 0.0], dtype=complex)  # z = −1
EQUAL = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)


def params(**kw):
    base = dict(dt=0.05, field_std=1.0, max_steps=4000, seed=711)
    base.update(kw)
    return SpinWalkParams(**base)


def state_with_height(z):
    return np.array([math.sqrt((1 - z) / 2), math.sqrt((1 + z) / 2)], dtype=complex)


# ---------------------------------------------------------------------------
# parameters


def test_params_reject_bad_values():
    with pytest.raises(ValueError):
        params(dt=-1.0)
    with pytest.raises(ValueError):
        params(absorb_eps=0.2)
    with pytest.raises(ValueError):
        params(max_steps=0)
    with pytest.raises(ValueError):
        params(dt=0.2)  # step angle 0.2 > 0.05


@pytest.mark.parametrize("field", ["dt", "field_std", "mu", "hbar"])
def test_params_reject_non_finite(field):
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            params(**{field: value})


def test_non_finite_spinor_is_rejected():
    with pytest.raises(ValueError, match="finite"):
        pauli_step(np.array([math.nan, 1.0]), np.ones(3), params())


def test_step_angle_and_absorb_height():
    p = params(dt=0.03, field_std=1.5)
    assert p.step_angle == pytest.approx(0.045)
    assert p.absorb_z == pytest.approx(0.99)


# ---------------------------------------------------------------------------
# single kicks


def test_zero_field_is_identity():
    p = params()
    phi = state_with_height(0.3)
    np.testing.assert_array_equal(pauli_step(phi, np.zeros(3), p), phi)


def test_axial_field_on_pole_only_changes_phase():
    p = params()
    moved = pauli_step(DOWN_STATE, np.array([0.0, 0.0, 2.3]), p)
    after = hopf_map(moved)
    assert after.as_array() == pytest.approx(hopf_map(DOWN_STATE).as_array(), abs=1e-12)
    # the state picked up a pure phase relative to where it started
    assert abs(abs(np.vdot(DOWN_STATE, moved)) - 1.0) <= 1e-14
    assert abs(np.vdot(DOWN_STATE, moved).imag) > 0.1


def test_kick_is_exactly_unitary():
    p = params()
    gen = np.random.default_rng(5)
    phi = EQUAL
    for _ in range(200):
        phi = pauli_step(phi, gen.normal(0, 1, 3) * gen.uniform(0.1, 40), p)
        assert abs(np.linalg.norm(phi) - 1.0) <= 1e-14


def test_small_time_displacement_rate():
    b = np.array([0.7, -0.2, 0.4])
    p = params(dt=1e-4, field_std=1.0)
    moved = pauli_step(EQUAL, b, p)
    rate = np.linalg.norm(moved - EQUAL) / p.dt
    assert rate == pytest.approx(np.linalg.norm(b) * p.mu / p.hbar, rel=1e-4)


def test_half_steps_compose_to_full_step():
    b = np.array([0.3, 1.1, -0.8])
    full = params(dt=0.04)
    half = params(dt=0.02)
    twice = pauli_step(pauli_step(EQUAL, b, half), b, half)
    np.testing.assert_allclose(twice, pauli_step(EQUAL, b, full), atol=1e-15)


# ---------------------------------------------------------------------------
# field sampling


def test_field_moments():
    p = params()
    gen = RngStream(p.seed).generator()
    draws = np.array([sample_field(gen, p) for _ in range(3000)])
    big = gen.normal(0, p.field_std, (10**6, 3))
    assert np.all(np.abs(big.mean(axis=0)) <= 4 * p.field_std / 1000)
    q = (big**2).sum(axis=1) / p.field_std**2
    assert q.mean() == pytest.approx(3.0, abs=0.01)
    assert q.var() == pytest.approx(6.0, abs=0.08)
    assert draws.shape == (3000, 3)


def test_field_direction_is_uniform():
    p = params(seed=21)
    gen = RngStream(p.seed).generator()
    draws = np.array([sample_field(gen, p) for _ in range(10_000)])
    assert direction_uniformity(draws, alpha=0.01).passed


# ---------------------------------------------------------------------------
# single walks


def test_polar_states_absorb_immediately():
    p = params()
    down = run_walk(DOWN_STATE, p)
    up = run_walk(UP_STATE, p)
    assert down.result is WalkResult.DOWN and down.steps == 0
    assert up.result is WalkResult.UP and up.steps == 0


def test_walk_preserves_norm_without_renormalizing():
    p = params(max_steps=500, seed=3)
    out = run_walk(EQUAL, p)
    assert abs(np.linalg.norm(out.final_state) - 1.0) <= 1e-12


def test_walk_is_phase_equivariant():
    p = params(max_steps=800, seed=97)
    a = run_walk(EQUAL, p)
    b = run_walk(np.exp(0.7j) * EQUAL, p)
    assert a.result is b.result
    assert a.steps == b.steps
    np.testing.assert_allclose(b.final_state, np.exp(0.7j) * a.final_state, atol=1e-12)


def test_unresolved_returned_when_budget_too_small():
    p = params(max_steps=3, seed=5)
    out = run_walk(EQUAL, p)
    assert out.result is WalkResult.UNRESOLVED
    assert out.steps == 3


def test_ensemble_matches_scalar_walks(monkeypatch):
    monkeypatch.setattr(sm, "_MAX_BATCH", 16)
    p = params(max_steps=600, seed=40)
    results, steps, finals = run_ensemble(EQUAL, 40, p)
    for t in range(40):
        solo = reference_walks.run_walk(EQUAL, p, stream_id=t)
        assert results[t] is solo.result
        assert steps[t] == solo.steps
        np.testing.assert_array_equal(finals[t], solo.final_state)


@pytest.mark.parametrize("z0, max_steps", [(0.0, 4000), (0.6, 4000), (0.0, 40),
                                           (0.995, 4000), (-0.995, 4000)])
def test_run_walk_equals_reference(z0, max_steps):
    # absorbed, unresolved and inside-the-cap walks, final states bitwise
    p = params(max_steps=max_steps, seed=41)
    phi0 = state_with_height(z0)
    for t in range(12):
        got = run_walk(phi0, p, stream_id=t)
        want = reference_walks.run_walk(phi0, p, stream_id=t)
        assert (got.result, got.steps) == (want.result, want.steps), t
        assert got.final_state.tobytes() == want.final_state.tobytes(), t
    assert isinstance(got.steps, int)


def assert_matches_run_walk(phi0, trials, p):
    """run_ensemble equals the per-kick reference walk trial by trial,
    final states bitwise."""
    results, steps, finals = run_ensemble(phi0, trials, p)
    for t in range(trials):
        solo = reference_walks.run_walk(phi0, p, stream_id=t)
        assert results[t] is solo.result, t
        assert steps[t] == solo.steps, t
        assert finals[t].tobytes() == solo.final_state.tobytes(), t
    return results, steps, finals


# shorter walks than params(): cap at |z| >= 0.9, about 200 kicks from z = 0
def short_walks(**kw):
    return params(absorb_eps=0.05, **kw)


@pytest.mark.parametrize("z0, result", [(0.95, WalkResult.UP), (-0.95, WalkResult.DOWN)])
def test_ensemble_start_inside_cap_takes_no_steps(z0, result):
    phi0 = state_with_height(z0)
    results, steps, finals = assert_matches_run_walk(phi0, 5, short_walks(seed=3))
    assert all(r is result for r in results)
    assert not steps.any()
    assert finals.tobytes() == np.tile(phi0, (5, 1)).tobytes()


def test_ensemble_absorption_on_first_kick():
    _, steps, _ = assert_matches_run_walk(state_with_height(0.895), 60, short_walks(seed=4))
    assert (steps == 1).any()


def test_ensemble_absorption_on_scan_window_and_block_edges():
    from hilbertbridge.spin_measurement import _MAX_BLOCK, _SCAN

    # 300 walks fit in blocks of _MAX_BLOCK kicks; seed 5 has walks that
    # end on the last and the first kick of a scan window and of a block
    _, steps, _ = assert_matches_run_walk(state_with_height(0.0), 300, short_walks(seed=5))
    assert (steps % _SCAN == 0).any() and (steps % _SCAN == 1).any()
    assert (steps == _MAX_BLOCK).any() and (steps == _MAX_BLOCK + 1).any()


@pytest.mark.parametrize("max_steps", [20, 300])
def test_ensemble_step_budget_off_the_block_grid(max_steps):
    # 20 kicks end inside the second scan window; 300 = one block of 256
    # plus partial windows; both leave survivors UNRESOLVED
    p = short_walks(max_steps=max_steps, seed=6)
    results, steps, _ = assert_matches_run_walk(state_with_height(0.75), 120, p)
    unresolved = results == WalkResult.UNRESOLVED
    assert unresolved.any() and (~unresolved).any()
    assert (steps[unresolved] == max_steps).all()


def test_ensemble_matches_scalar_walks_at_other_field_std():
    p = short_walks(dt=0.05, field_std=0.7, seed=8)
    results, _, _ = assert_matches_run_walk(state_with_height(0.3), 80, p)
    assert (results != WalkResult.UNRESOLVED).all()


def test_free_walk_msd_equals_per_kick_reference():
    # 40 kicks cross the edges of the first two 16-kick scan windows
    p, trials, n_steps = params(seed=12), 50, 40
    phi0 = state_with_height(0.3)
    gens = [RngStream(p.seed, t).generator() for t in range(trials)]
    states = np.tile(phi0, (trials, 1))
    want = np.zeros(n_steps + 1)
    for k in range(1, n_steps + 1):
        reference_walks._step_batch(states, np.stack([sample_field(g, p) for g in gens]), p)
        overlap = np.abs(states @ phi0.conj())
        want[k] = (np.arccos(np.minimum(overlap, 1.0)) ** 2).mean()
    got = density_diffusion._mean_square_angles(phi0, p, n_steps, trials)
    assert got.tobytes() == want.tobytes()


@pytest.mark.memory
def test_walk_peak_memory_is_one_field_block_and_scan_windows(monkeypatch):
    # 4096 trials walk four blocks of 64 kicks in this process: a 6 MiB
    # block of fields, 16-kick windows of planes and states, and generators
    # (coefficient planes for a whole 256-kick block took about 130 MiB)
    monkeypatch.setenv("HB_THREADS", "1")
    tracemalloc.start()
    try:
        run_ensemble(EQUAL, 4096, params(max_steps=256, seed=9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert peak <= sm.ensemble_bytes(4096)


def test_ensemble_batches_concatenate_to_unsplit_run(monkeypatch):
    # at _MAX_BATCH = 16, 40 trials walk as the batches 0–15, 16–31, 32–39
    p = short_walks(max_steps=6, seed=9)
    phi0 = state_with_height(0.86)
    whole = run_ensemble(phi0, 40, p)
    monkeypatch.setattr(sm, "_MAX_BATCH", 16)
    split = run_ensemble(phi0, 40, p)
    assert_same_run(split, whole)
    for t in range(14, 19):  # straddles the first batch split
        solo = reference_walks.run_walk(phi0, p, stream_id=t)
        assert split[0][t] is solo.result
        assert split[1][t] == solo.steps
        assert split[2][t].tobytes() == solo.final_state.tobytes()


def test_block_and_window_lengths_leave_the_bytes_unchanged(monkeypatch):
    # 2000 trials start in blocks of 256, 131 and 32 kicks at these budgets,
    # scanned in windows of 32, 16 and 5 kicks; 300 kicks leave some walks
    # UNRESOLVED
    monkeypatch.setenv("HB_THREADS", "1")
    p = short_walks(max_steps=300, seed=13)
    phi0 = state_with_height(0.2)
    runs = []
    for budget in (1 << 20, 1 << 18, 1 << 12):
        for scan in (32, 16, 5):
            monkeypatch.setattr(sm, "_BLOCK_BUDGET", budget)
            monkeypatch.setattr(sm, "_SCAN", scan)
            runs.append(run_ensemble(phi0, 2000, p))
    for run in runs[1:]:
        assert_same_run(run, runs[0])
    unresolved = runs[0][0] == WalkResult.UNRESOLVED
    assert unresolved.any() and (~unresolved).any()


@pytest.fixture
def forked_ranges(monkeypatch, forks):
    """Three CPUs, forks from 8 trials a process; records every forked range."""
    monkeypatch.setattr(stats_util, "cpu_count", lambda: 3)
    monkeypatch.setattr(sm, "MIN_TRIALS_PER_PROCESS", 8)
    return forks


def assert_same_run(a, b):
    assert all(x is y for x, y in zip(a[0], b[0], strict=True))
    assert a[1].tobytes() == b[1].tobytes()
    assert a[2].tobytes() == b[2].tobytes()


# the HB_THREADS cap (None: unset, every CPU)
@pytest.mark.parametrize("threads, children", [(2, 1), (None, 2)])
# module constants patched; a batch width of 5 or 3 splits every range
@pytest.mark.parametrize("kw", [{}, {"_MAX_BATCH": 5}, {"_MAX_BATCH": 3}])
def test_forked_run_equals_one_process(forked_ranges, monkeypatch, threads, children, kw):
    # 40 kicks leave some walks UNRESOLVED
    for name, value in kw.items():
        monkeypatch.setattr(sm, name, value)
    p = short_walks(max_steps=40, seed=12)
    phi0 = state_with_height(0.75)
    if threads is not None:
        monkeypatch.setenv("HB_THREADS", str(threads))
    forked = run_ensemble(phi0, 50, p)
    assert forked_ranges == stats_util._trial_ranges(50, children + 1)[1:]
    monkeypatch.setenv("HB_THREADS", "1")
    one = run_ensemble(phi0, 50, p)
    assert forked_ranges == stats_util._trial_ranges(50, children + 1)[1:]
    assert_same_run(forked, one)
    unresolved = one[0] == WalkResult.UNRESOLVED
    assert unresolved.any() and (~unresolved).any()


def test_forked_run_from_inside_the_cap(forked_ranges):
    # three CPUs and 30 trials would fork two processes, but a start that has
    # already absorbed has nothing to walk
    p = short_walks(seed=3)
    phi0 = state_with_height(-0.95)
    results, steps, finals = run_ensemble(phi0, 30, p)
    assert not forked_ranges
    assert all(r is WalkResult.DOWN for r in results)
    assert not steps.any()
    assert (finals == phi0).all()


def test_no_pool_below_the_trial_threshold(monkeypatch, forks):
    monkeypatch.setattr(stats_util, "cpu_count", lambda: 2)
    p = short_walks(max_steps=1, seed=13)
    # too few trials for two ranges, and HB_THREADS=1 above the threshold
    for threads, trials in ((None, 2 * sm.MIN_TRIALS_PER_PROCESS - 1),
                            ("1", 4 * sm.MIN_TRIALS_PER_PROCESS)):
        if threads is not None:
            monkeypatch.setenv("HB_THREADS", threads)
        assert stats_util.range_processes(trials, sm.MIN_TRIALS_PER_PROCESS) == 1
        results, steps, _ = run_ensemble(state_with_height(0.2), trials, p)
        assert len(results) == trials and (steps == 1).all()
    assert not forks


def test_process_count_is_capped_and_validated(monkeypatch):
    monkeypatch.setattr(stats_util, "cpu_count", lambda: 4)
    least = sm.MIN_TRIALS_PER_PROCESS
    trials = 10 * least
    assert stats_util.range_processes(trials, least) == 4
    monkeypatch.setenv("HB_THREADS", "3")
    assert stats_util.range_processes(trials, least) == 3
    monkeypatch.setenv("HB_THREADS", "16")
    assert stats_util.range_processes(trials, least) == 4
    assert stats_util.range_processes(3 * least, least) == 3
    assert stats_util.range_processes(0, least) == 1
    for bad in ("0", "-2"):
        monkeypatch.setenv("HB_THREADS", bad)
        with pytest.raises(ValueError, match="HB_THREADS"):
            run_ensemble(EQUAL, 10, params())


def test_componentwise_norm_equals_linalg_norm_bitwise():
    # the ensemble sums squared field components as (f0² + f1²) + f2²,
    # which must be the order np.linalg.norm uses for 3-vectors
    rng = np.random.default_rng(2718)
    fields = rng.normal(size=(1_000_000, 3)) * rng.uniform(0.1, 10.0, size=(1_000_000, 1))
    f0, f1, f2 = np.ascontiguousarray(fields.T)
    ours = np.sqrt((f0 * f0 + f1 * f1) + f2 * f2)
    assert ours.tobytes() == np.linalg.norm(fields, axis=-1).tobytes()


# ---------------------------------------------------------------------------
# ensemble statistics


def test_balanced_state_splits_evenly():
    p = params(seed=123)
    results, _, _ = run_ensemble(EQUAL, 10_000, p)
    assert np.mean(results == WalkResult.UNRESOLVED) <= 0.01
    band = 3 * math.sqrt(0.25 / 10_000)
    assert np.mean(results == WalkResult.UP) == pytest.approx(0.5, abs=band + 0.01)
    assert hopf_map(EQUAL).z == pytest.approx(0.0)


def test_unresolved_fraction_shrinks_with_budget():
    short = params(max_steps=50, seed=77)
    long = params(max_steps=400, seed=77)
    r_short, _, _ = run_ensemble(EQUAL, 400, short)
    r_long, _, _ = run_ensemble(EQUAL, 400, long)
    n_short = int(np.sum(r_short == WalkResult.UNRESOLVED))
    n_long = int(np.sum(r_long == WalkResult.UNRESOLVED))
    assert n_short >= n_long
    # walks resolved under the short budget keep their outcome verbatim
    done = r_short != WalkResult.UNRESOLVED
    assert all(a is b for a, b in zip(r_short[done], r_long[done]))


def test_lattice_ruin_solve_reproduces_linear_law():
    for z in (-0.8, -0.4, 0.0, 0.4, 0.8):
        assert lattice_ruin_probability(z, delta=0.01) == pytest.approx(
            (1 - z) / 2, abs=1e-10
        )
    assert lattice_ruin_probability(-1.0) == 1.0
    assert lattice_ruin_probability(1.0) == 0.0


@pytest.mark.xfail(
    reason="isotropic kicks contract the Bloch vector toward the centre, so the"
    " walk lands on the nearer pole more often than the height rule predicts",
    strict=True,
)
def test_tilted_state_matches_height_rule():
    # start with weight 0.7 on the z = −1 component
    phi0 = np.array([math.sqrt(0.7), math.sqrt(0.3)], dtype=complex)
    p = params(seed=2024)
    results, _, _ = run_ensemble(phi0, 10_000, p)
    assert np.mean(results == WalkResult.UNRESOLVED) <= 0.01
    band = 3 * math.sqrt(0.7 * 0.3 / 10_000)
    assert np.mean(results == WalkResult.DOWN) == pytest.approx(0.7, abs=band + 0.01)


@pytest.mark.xfail(
    reason="the sampled height is not a martingale: its mean decays toward 0"
    " at rate ~4·(step angle)² per kick",
    strict=True,
)
def test_height_mean_is_conserved_off_centre():
    z0 = 0.6
    p = params(dt=0.02, max_steps=30, seed=3111)
    _, _, finals = run_ensemble(state_with_height(z0), 20_000, p)
    z = np.abs(finals[:, 1]) ** 2 - np.abs(finals[:, 0]) ** 2
    sem = z.std() / math.sqrt(z.size)
    assert z.mean() == pytest.approx(z0, abs=4 * sem)


def test_height_mean_decay_rate_matches_depolarization():
    # quantitative form of the failure above: E[z_k] = z0 · m^k with
    # m = 1 − 4·(step angle)² to leading order
    z0, k = 0.6, 30
    p = params(dt=0.02, max_steps=k, seed=3111)
    _, _, finals = run_ensemble(state_with_height(z0), 20_000, p)
    z = np.abs(finals[:, 1]) ** 2 - np.abs(finals[:, 0]) ** 2
    predicted = z0 * (1 - 4 * p.step_angle**2) ** k
    sem = z.std() / math.sqrt(z.size)
    assert z.mean() == pytest.approx(predicted, abs=4 * sem + 2e-4)


# ---------------------------------------------------------------------------
# isotropy of one-step displacements


def test_isotropy_accepts_the_normal_field():
    p = params(seed=88)
    report = isotropy_test(EQUAL, 2000, p)
    assert report.direction.passed
    assert report.axial.passed
    assert all(r.passed for r in report.component_normality)
    assert report.passed


def test_isotropy_rejects_a_pinned_axis():
    p = params(seed=89)
    pinned = lambda gen: np.array([0.0, 0.0, gen.normal(0.0, p.field_std)])
    report = isotropy_test(EQUAL, 2000, p, field_sampler=pinned)
    assert not report.passed
    assert not report.axial.passed  # ± pairs hide from the plain direction test


def test_isotropy_rejects_poles():
    with pytest.raises(ValueError):
        isotropy_test(DOWN_STATE, 100, params())


def test_displacement_distribution_is_state_independent():
    p = params(seed=90)
    a = tangent_displacements(EQUAL, 4000, p, stream_id=1)
    b = tangent_displacements(state_with_height(0.6), 4000, p, stream_id=2)
    for axis in range(2):
        assert stats.ks_2samp(a[:, axis], b[:, axis]).pvalue >= 0.01
    mag_a = np.hypot(a[:, 0], a[:, 1])
    mag_b = np.hypot(b[:, 0], b[:, 1])
    assert stats.ks_2samp(mag_a, mag_b).pvalue >= 0.01


def test_displacement_second_moment():
    # mean squared projective displacement per kick is 2·(step angle)²
    p = params(seed=91)
    disp = tangent_displacements(EQUAL, 20_000, p)
    msd = (disp**2).sum(axis=1).mean()
    assert msd == pytest.approx(2 * p.step_angle**2, rel=0.05)


def _tangent_displacements_per_kick(phi0, n_steps, p, stream_id=0, field_sampler=None):
    """One field draw, one checked ``pauli_step`` and one projection a kick."""
    gen = RngStream(p.seed, stream_id).generator()
    tangent = np.array([-np.conj(phi0[1]), np.conj(phi0[0])])
    out = np.empty((n_steps, 2))
    for i in range(n_steps):
        b = field_sampler(gen) if field_sampler else sample_field(gen, p)
        moved = pauli_step(phi0, b, p)
        comp = complex(np.vdot(tangent, moved - phi0 * np.vdot(phi0, moved)))
        out[i] = comp.real, comp.imag
    return out


@pytest.mark.parametrize("sampler", [None, "pinned", "zero-or-list"])
def test_tangent_displacements_equal_the_per_kick_loop(sampler):
    p = params(seed=92)
    samplers = {
        None: None,
        "pinned": lambda gen: np.array([0.0, 0.0, gen.normal(0.0, p.field_std)]),
        # a zero field (the identity kick) and a plain list of floats
        "zero-or-list": lambda gen: ([0.0, 0.0, 0.0] if gen.random() < 0.2
                                     else list(gen.normal(size=3))),
    }
    phi0 = state_with_height(0.35)
    want = _tangent_displacements_per_kick(phi0, 500, p, 3, samplers[sampler])
    got = tangent_displacements(phi0, 500, p, 3, samplers[sampler])
    assert got.tobytes() == want.tobytes()


def test_tangent_displacements_refuse_a_field_that_is_no_3_vector():
    with pytest.raises(ValueError, match="3-vector"):
        tangent_displacements(EQUAL, 4, params(), field_sampler=lambda gen: np.zeros(2))
