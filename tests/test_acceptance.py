"""Acceptance suite: one printed verdict line per numbered criterion.

Each test prints ``criterion NN name: PASS/FAIL …`` with the measured
values, references, and tolerances, then asserts.  Criteria that the
implemented dynamics genuinely cannot meet are asserted as stated and left
red; the printed line carries the measured numbers so the failure is
self-documenting.  The walk criteria (01, 09) dominate the runtime — the
whole module takes several minutes.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from hilbertbridge import born_bridge as bb
from hilbertbridge import density_diffusion as dd
from hilbertbridge import experiments as ex
from hilbertbridge import hilbert_core as hc
from hilbertbridge import packet_dynamics as pd
from hilbertbridge import position_measurement as pm
from hilbertbridge import spin_measurement as sm
from hilbertbridge import state_geometry as sg
from hilbertbridge.stats_util import RngStream, chi_square_gof, two_proportion_z

SEED = 20260813


def _report(capsys, line: str) -> None:
    with capsys.disabled():
        print(f"\n{line}")


def _spinor(z: float) -> np.ndarray:
    return np.array([math.sqrt((1 - z) / 2), math.sqrt((1 + z) / 2)], dtype=complex)


def test_c01_spin_born_rule(capsys):
    params = sm.SpinWalkParams(
        dt=0.02, field_std=1.0, absorb_eps=0.005, max_steps=50_000, seed=SEED
    )
    trials = 100_000
    heights = (-0.8, -0.4, 0.0, 0.4, 0.8)
    failures = []
    pieces = []
    start = time.perf_counter()
    for z0 in heights:
        results, _, _ = sm.run_ensemble(_spinor(z0), trials, params)
        p_down = float(np.mean(results == sm.WalkResult.DOWN))
        ref = (1 - z0) / 2
        band = 3 * math.sqrt(ref * (1 - ref) / trials) + 0.01
        ok = abs(p_down - ref) <= band
        pieces.append(f"z0={z0:+.1f}: {p_down:.4f} vs {ref:.2f}±{band:.4f}"
                      f" {'ok' if ok else 'OUT'}")
        if not ok:
            failures.append(f"z0={z0:+.1f} p_down={p_down:.4f} ref={ref:.2f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.0f}s over 60s target")
    verdict = "PASS" if not failures else "FAIL"
    _report(capsys, f"criterion 01 spin-born-rule: {verdict}  "
            + "; ".join(pieces) + f"; runtime={elapsed:.0f}s (target <60s)")
    assert not failures, "; ".join(failures)


def test_c02_ruin_oracle(capsys):
    zs = [-1.0 + k * 0.01 for k in range(1, 200)]
    worst = max(
        abs(sm.lattice_ruin_probability(z, delta=0.01) - (1 - z) / 2) for z in zs
    )
    ok = worst <= 1e-10
    _report(capsys, f"criterion 02 ruin-oracle: {'PASS' if ok else 'FAIL'}  "
            f"max |P - (1-z)/2| = {worst:.2e} over 199 lattice points (tol 1e-10)")
    assert ok, f"lattice ruin deviates from linear law by {worst:.2e}"


def test_c03_curvature(capsys):
    phi = np.array([1.0, 0.0], dtype=complex)
    spin = sg.state_sectional_curvature(sg.PAULI_X, sg.PAULI_Y, phi)
    x_op, p_op = sg.oscillator_matrices(16)
    vacuum = np.zeros(16, dtype=complex)
    vacuum[0] = 1.0
    osc = sg.state_sectional_curvature(x_op, p_op, vacuum)
    gx, gy = -0.5j * sg.PAULI_X, -0.5j * sg.PAULI_Y
    rescale = abs(
        sg.sectional_curvature(1.7 * gx, 0.41 * gy) - sg.sectional_curvature(gx, gy)
    )
    ok = abs(spin - 1) <= 1e-12 and abs(osc - 1) <= 1e-10 and rescale <= 1e-12
    _report(capsys, f"criterion 03 curvature: {'PASS' if ok else 'FAIL'}  "
            f"spin={spin:.15f} (tol 1e-12), oscillator N=16 vacuum={osc:.12f} "
            f"(tol 1e-10), rescale dev={rescale:.2e} (tol 1e-12)")
    assert ok, f"spin={spin!r} osc={osc!r} rescale={rescale!r}"


def test_c04_distance_bridge(capsys):
    worst_rel = 0.0
    worst_density = 0.0
    for k in range(50):
        g = RngStream(SEED, 400 + k).generator()
        dim = 1 if k % 2 == 0 else 3
        sigma = float(g.uniform(0.6, 1.5))
        a = g.normal(0.0, sigma, size=dim)
        b = a + g.normal(0.0, 1.2 * sigma, size=dim)
        lhs, rhs = bb.fs_euclid_relation(a, b, sigma)
        prob, density = bb.born_normal_equivalence(a, b, sigma)
        worst_rel = max(worst_rel, abs(lhs - rhs))
        worst_density = max(worst_density, abs(prob - density))
    ok = worst_rel <= 1e-8 and worst_density <= 1e-10
    _report(capsys, f"criterion 04 distance-bridge: {'PASS' if ok else 'FAIL'}  "
            f"max |gaussian - cos²θ| = {worst_rel:.2e} over 50 pairs (tol 1e-8), "
            f"max born/normal dev = {worst_density:.2e} (tol 1e-10)")
    assert ok, f"relation={worst_rel:.2e} density={worst_density:.2e}"


def test_c05_velocity_decomposition(capsys):
    cases = [
        dict(sigma=0.8, momentum=0.9, mass=1.2, w=0.5),
        dict(sigma=1.1, momentum=-0.5, mass=0.7, w=-0.5),
    ]
    worst_quad = 0.0
    worst_comp = 0.0
    for case in cases:
        sigma, momentum, mass, w = (
            case["sigma"], case["momentum"], case["mass"], case["w"],
        )
        pkt = pd.GaussianPacket(
            center=np.array([0.0]), momentum=np.array([momentum]),
            sigma=sigma, mass=mass,
        )
        potential = pd.PotentialField.linear(np.array([mass * w]))
        spec = hc.KernelSpec(sigma=sigma, dim=1)
        grid = hc.grid_covering(spec, [[0.0]], spacing=1e-3 * sigma,
                                margin=10 * sigma)
        worst_quad = max(worst_quad, pd.decomposition_check(pkt, potential, grid))
        comps = pd.velocity_components(pkt, potential)
        refs = (
            abs(momentum / mass) / (2 * sigma),
            abs(mass * w) * sigma,
            math.sqrt(2) / (8 * sigma**2 * mass),
        )
        for measured, reference in zip(
            (comps.space, comps.momentum, comps.spread), refs
        ):
            worst_comp = max(worst_comp, abs(measured - reference))
    ok = worst_quad <= 1e-6 and worst_comp <= 1e-8
    _report(capsys, f"criterion 05 velocity-decomposition: "
            f"{'PASS' if ok else 'FAIL'}  quadrature identity dev = "
            f"{worst_quad:.2e} rel (tol 1e-6), component dev = {worst_comp:.2e} "
            f"(tol 1e-8), 2 linear potentials")
    assert ok, f"quad={worst_quad:.2e} comp={worst_comp:.2e}"


def test_c06_projective_speed(capsys):
    worst = 0.0
    for k in range(20):
        g = RngStream(SEED, 600 + k).generator()
        m = g.normal(size=(16, 16)) + 1j * g.normal(size=(16, 16))
        h = (m + m.conj().T) / 2
        phi = g.normal(size=16) + 1j * g.normal(size=16)
        phi /= np.linalg.norm(phi)
        fd, exact = pd.projective_evolution_speed(h, phi, dt=1e-3)
        worst = max(worst, abs(fd - exact) / exact)
    ok = worst <= 1e-4
    _report(capsys, f"criterion 06 projective-speed: {'PASS' if ok else 'FAIL'}  "
            f"max |fd/ΔE - 1| = {worst:.2e} over 20 random N=16 states (tol 1e-4)")
    assert ok, f"worst rel deviation {worst:.2e}"


def test_c07_uncertainty_identity(capsys):
    worst_rel = 0.0
    min_slack = math.inf
    for k in range(100):
        g = RngStream(SEED, 700 + k).generator()
        n = int(g.integers(2, 17))
        a = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
        a = (a + a.conj().T) / 2
        b = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
        b = (b + b.conj().T) / 2
        phi = g.normal(size=n) + 1j * g.normal(size=n)
        phi /= np.linalg.norm(phi)
        product, area_sq, inner_sq = sg.uncertainty_identity(a, b, phi)
        worst_rel = max(worst_rel, abs(product - (area_sq + inner_sq)) / product)
        commutator = 0.25 * abs(np.vdot(phi, (a @ b - b @ a) @ phi)) ** 2
        min_slack = min(min_slack, product - commutator)
    ok = worst_rel <= 1e-10 and min_slack >= -1e-12
    _report(capsys, f"criterion 07 uncertainty-identity: "
            f"{'PASS' if ok else 'FAIL'}  max identity dev = {worst_rel:.2e} rel "
            f"over 100 instances N≤16 (tol 1e-10), min inequality slack = "
            f"{min_slack:.3e}")
    assert ok, f"rel={worst_rel:.2e} slack={min_slack:.2e}"


def test_c08_hamiltonian_uniqueness(capsys):
    n = 24
    x_op, p_op = sg.oscillator_matrices(n)
    zero = np.zeros((n, n), dtype=complex)
    keep = pd.interior_slice(n)
    worst = 0.0
    for grad_v, v_op in ((zero, zero), (x_op, 0.5 * (x_op @ x_op))):
        h_rec = pd.reconstruct_hamiltonian(x_op, p_op, grad_v, potential_op=v_op)
        h_true = (p_op @ p_op) / 2 + v_op
        rel = np.linalg.norm(h_rec[keep, keep] - h_true[keep, keep]) / np.linalg.norm(
            h_true[keep, keep]
        )
        worst = max(worst, float(rel))
    ok = worst <= 1e-6
    _report(capsys, f"criterion 08 hamiltonian-uniqueness: "
            f"{'PASS' if ok else 'FAIL'}  interior-band error = {worst:.2e} rel "
            f"for V in {{0, x²/2}} at N=24 (tol 1e-6)")
    assert ok, f"interior reconstruction error {worst:.2e}"


def test_c09_position_born_rule(capsys):
    start = time.perf_counter()
    n = 8
    gen = RngStream(SEED, 900).generator()
    raw = gen.normal(size=n) + 1j * gen.normal(size=n)
    state0 = pm.CellState(raw / np.linalg.norm(raw))
    params = pm.PositionWalkParams(
        tau=0.05, v_std=1.0, absorb_eps=0.02, max_steps=400, seed=SEED
    )
    trials = 20_000
    cells, _ = pm.run_position_ensemble(state0, trials, params)
    resolved = cells >= 0
    n_resolved = int(resolved.sum())
    if n_resolved >= 5 * n:
        report = chi_square_gof(
            np.bincount(cells[resolved], minlength=n), state0.probabilities,
            alpha=0.001,
        )
        chi_ok = report.passed
        chi_note = f"chi2 p={report.p_value:.4f} (alpha 0.001)"
    else:
        chi_ok = False
        chi_note = f"chi2 untestable: {n_resolved}/{trials} trials resolved"

    # N = 2 cross-check against the spin walk at the same height and kick
    # scale: tau*v_std = sqrt(2)*step_angle matches the per-kick mean square
    # displacement, absorb_eps matches the absorption threshold
    z0 = 0.4
    spin_params = sm.SpinWalkParams(
        dt=0.02, field_std=1.0, absorb_eps=0.005, max_steps=50_000, seed=SEED + 1
    )
    pos_params = pm.PositionWalkParams(
        tau=math.sqrt(2) * 0.02, v_std=1.0, absorb_eps=0.005,
        max_steps=50_000, seed=SEED + 2,
    )
    cross_trials = 4000
    spin_results, _, _ = sm.run_ensemble(_spinor(z0), cross_trials, spin_params)
    k_spin = int(np.sum(spin_results == sm.WalkResult.DOWN))
    cells2, _ = pm.run_position_ensemble(
        pm.CellState(_spinor(z0)), cross_trials, pos_params
    )
    k_pos = int(np.sum(cells2 == 0))
    cross = two_proportion_z(k_spin, cross_trials, k_pos, cross_trials)
    elapsed = time.perf_counter() - start

    ok = chi_ok and cross.passed and elapsed < 300.0
    _report(capsys, f"criterion 09 position-born-rule: "
            f"{'PASS' if ok else 'FAIL'}  N=8: {chi_note}; N=2 cross-check: "
            f"p_spin={k_spin / cross_trials:.4f} vs p_cell={k_pos / cross_trials:.4f} "
            f"z={cross.statistic:+.2f} (within 3σ: {cross.passed}); "
            f"runtime={elapsed:.0f}s (target <300s)")
    assert ok, f"{chi_note}; cross z={cross.statistic:+.2f}; {elapsed:.0f}s"


def test_c10_diagonal_model(capsys):
    gen = RngStream(SEED, 1000).generator()
    raw = gen.normal(size=8) + 1j * gen.normal(size=8)
    state0 = pm.CellState(raw / np.linalg.norm(raw))
    params = pm.PositionWalkParams(
        tau=0.05, v_std=1.0, seed=0, generator_mode=pm.GeneratorMode.DIAGONAL
    )
    mod0 = np.abs(state0.amplitudes)
    # the 1e4-step product of diagonal kicks, phases summed in real
    # arithmetic so the single complex multiply is the only rounding
    final = pm.run_diagonal_walk(state0, 10_000, gen, params)
    drift = float(np.max(np.abs(np.abs(final.amplitudes) - mod0)))
    # naive per-step iteration for comparison: ~1 ulp of modulus rounding
    # per multiply random-walks up to ~sqrt(steps) ulps
    state = state0
    gen2 = RngStream(SEED, 1000).generator()
    gen2.normal(size=8), gen2.normal(size=8)  # consume the state draw
    naive = 0.0
    for _ in range(100):
        state = pm.diag_potential_step(state, gen2, params)
        naive = max(naive, float(np.max(np.abs(np.abs(state.amplitudes) - mod0))))
    ok = drift <= 1e-15 and naive <= 1e-14
    _report(capsys, f"criterion 10 diagonal-model: {'PASS' if ok else 'FAIL'}  "
            f"composed 1e4-step modulus drift = {drift:.2e} (tol 1e-15); "
            f"per-step iteration drift = {naive:.2e} over 100 steps (tol 1e-14)")
    assert ok, f"composed drift {drift:.2e}, per-step drift {naive:.2e}"


def test_c11_estimates(capsys):
    from scipy import constants

    failures = []
    pieces = []
    for wavelength, refs in ((1e-9, (14, 17, 13)), (1e-5, (8, 15, 5))):
        report = pm.magnitude_estimates(
            wavelength=wavelength, mass=constants.m_e, temperature=500.0
        )
        terms = (report.velocity_term, report.acceleration_term,
                 report.spreading_term)
        logs = [math.log10(t) for t in terms]
        for log_value, ref in zip(logs, refs):
            if abs(log_value - ref) > 0.7:
                failures.append(
                    f"lambda={wavelength:g}: log10={log_value:.2f} ref={ref}"
                )
        pieces.append(f"lambda={wavelength:g}: logs=({logs[0]:.2f}, "
                      f"{logs[1]:.2f}, {logs[2]:.2f}) vs {refs}±0.7")
    photon = math.log10(
        pm.magnitude_estimates(1e-9, constants.m_e, 500.0).photon_density
    )
    pieces.append(f"photon density log10={photon:.2f} vs 15±0.5")
    if abs(photon - 15) > 0.5:
        failures.append(f"photon log10={photon:.2f}")
    verdict = "PASS" if not failures else "FAIL"
    _report(capsys, f"criterion 11 estimates: {verdict}  " + "; ".join(pieces))
    assert not failures, "; ".join(failures)


def test_c12_continuity(capsys):
    def residual_norm(spacing_frac, dt):
        pkt = pd.GaussianPacket(
            center=np.array([0.0]), momentum=np.array([1.0]), sigma=1.0, mass=1.0
        )
        spec = hc.KernelSpec(sigma=1.0, dim=1)
        grid = hc.grid_covering(spec, [[0.0]], spacing=spacing_frac,
                                margin=9.0)
        psi0 = pd.packet_wavefunction(pkt, grid)
        params = dd.EvolutionParams(dt=dt, steps=1)
        before, after = dd.evolve_grid(psi0, pd.PotentialField.zero(), params)
        return float(np.max(np.abs(dd.continuity_residual(before, after, params))))

    coarse = residual_norm(0.05, 3e-4)
    fine = residual_norm(0.025, 1.5e-4)
    order = math.log2(coarse / fine)

    pkt = pd.GaussianPacket(
        center=np.array([0.0]), momentum=np.array([1.0]), sigma=1.0, mass=1.3
    )
    spec = hc.KernelSpec(sigma=1.0, dim=1)
    grid = hc.grid_covering(spec, [[0.0]], spacing=1e-3, margin=8.0)
    psi = pd.packet_wavefunction(pkt, grid)
    j = dd.probability_current(psi, mass=1.3)[..., 0]
    expected = (1.0 / 1.3) * np.abs(psi.values) ** 2
    current_dev = float(np.max(np.abs(j - expected)) / np.max(np.abs(expected)))

    ok = order >= 1.8 and current_dev <= 1e-6
    _report(capsys, f"criterion 12 continuity: {'PASS' if ok else 'FAIL'}  "
            f"residual order = {order:.3f} under (h,dt) halving (need ≥1.8), "
            f"packet current dev = {current_dev:.2e} rel (tol 1e-6)")
    assert ok, f"order={order:.3f} current={current_dev:.2e}"


def test_c13_diffusion(capsys):
    params = dd.DiffusionParams(
        diffusivity=0.7, walkers=100_000, dt=0.02, t_final=1.0, seed=SEED
    )
    out = dd.brownian_ensemble(params)
    fit = stats.linregress(out.times, out.mean_square_displacement)
    slope_dev = abs(fit.slope - 4.2) / 4.2
    r = np.linalg.norm(out.final_positions, axis=1)
    ks = stats.kstest(r, stats.chi(df=3, scale=math.sqrt(1.4)).cdf)
    ok = slope_dev <= 0.05 and ks.pvalue >= 6.3e-5
    _report(capsys, f"criterion 13 diffusion: {'PASS' if ok else 'FAIL'}  "
            f"MSD slope = {fit.slope:.4f} vs 6K = 4.2 ({slope_dev:.2%} dev, "
            f"tol 5%), heat-kernel KS p = {ks.pvalue:.4f} (4σ floor 6.3e-5), "
            f"1e5 walkers")
    assert ok, f"slope={fit.slope:.4f} ks_p={ks.pvalue:.2e}"


def test_c14_determinism(capsys, tmp_path, monkeypatch):
    blobs = {}
    for workers in (1, 8):
        monkeypatch.setenv("HB_THREADS", str(workers))
        out = tmp_path / f"w{workers}"
        cfg = ex.ExperimentConfig(
            experiment="spin-born", parameters={"z0": 0.4}, seed=11,
            trials=600, output_dir=str(out),
        )
        ex.run(cfg)
        blobs[workers] = tuple(
            (out / name).read_bytes()
            for name in ("spin-born-trials.csv", "spin-born-summary.json")
        )
    rerun_dir = tmp_path / "rerun"
    cfg = ex.ExperimentConfig(
        experiment="spin-born", parameters={"z0": 0.4}, seed=11,
        trials=600, output_dir=str(rerun_dir),
    )
    ex.run(cfg)
    rerun = tuple(
        (rerun_dir / name).read_bytes()
        for name in ("spin-born-trials.csv", "spin-born-summary.json")
    )
    ok = blobs[1] == blobs[8] == rerun
    _report(capsys, f"criterion 14 determinism: {'PASS' if ok else 'FAIL'}  "
            f"spin-born seed=11 trials=600: trials.csv and summary.json "
            f"byte-identical at 1 and 8 workers and across reruns: {ok}")
    assert ok
