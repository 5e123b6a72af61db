"""Overlap probabilities, the Gaussian distance relation, and extensions."""

import math
import tracemalloc

import numpy as np
import pytest

from hilbertbridge.born_bridge import (
    ExtensionReport,
    TransitionPair,
    born_normal_equivalence,
    fs_euclid_relation,
    isotropic_extension_check,
    packet_overlap,
    transition_probability,
)
from hilbertbridge.hilbert_core import (
    GridResolutionError,
    KernelSpec,
    grid_covering,
    inner_l2,
)
from hilbertbridge.packet_dynamics import GaussianPacket, packet_wavefunction


def rest_packet(center, sigma):
    center = np.atleast_1d(np.asarray(center, dtype=float))
    return GaussianPacket(center, np.zeros_like(center), sigma, mass=1.0)


def random_unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# pair validation


def test_pair_rejects_mixed_representations():
    with pytest.raises(TypeError):
        TransitionPair(rest_packet(0.0, 1.0), np.array([1.0, 0.0]))


def test_pair_rejects_non_unit_vectors():
    with pytest.raises(ValueError):
        TransitionPair(np.array([1.0, 1.0]), np.array([0.0, 1.0]))


def test_pair_rejects_width_mismatch():
    with pytest.raises(ValueError):
        TransitionPair(rest_packet(0.0, 1.0), rest_packet(0.0, 1.5))


# ---------------------------------------------------------------------------
# transition probabilities


def test_identical_and_orthogonal_states():
    up = np.array([1.0, 0.0], dtype=complex)
    down = np.array([0.0, 1.0], dtype=complex)
    assert transition_probability(TransitionPair(up, up)) == pytest.approx(1.0)
    assert transition_probability(TransitionPair(up, down)) == pytest.approx(0.0)


def test_packets_two_sigma_apart():
    sigma = 0.8
    pair = TransitionPair(rest_packet(0.0, sigma), rest_packet(2 * sigma, sigma))
    assert transition_probability(pair) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_packet_overlap_matches_quadrature():
    # oracle: sampled overlap on a fine grid, including the momentum phase
    sigma = 1.0
    p1 = GaussianPacket(-0.4, 0.9, sigma, mass=1.0)
    p2 = GaussianPacket(0.7, -1.3, sigma, mass=1.0)
    grid = grid_covering(KernelSpec(sigma), [[-0.4], [0.7]], spacing=sigma / 16)
    sampled = inner_l2(
        packet_wavefunction(p1, grid), packet_wavefunction(p2, grid)
    )
    closed = packet_overlap(p1, p2)
    assert abs(closed - sampled) <= 1e-12


def test_probability_is_symmetric_and_gauge_invariant():
    rng = np.random.default_rng(3)
    for _ in range(10):
        phi, psi = random_unit(rng, 5), random_unit(rng, 5)
        fwd = transition_probability(TransitionPair(phi, psi))
        rev = transition_probability(TransitionPair(psi, phi))
        spun = transition_probability(
            TransitionPair(phi * np.exp(1.9j), psi * np.exp(-0.4j))
        )
        assert fwd == pytest.approx(rev, rel=1e-14)
        assert fwd == pytest.approx(spun, rel=1e-12)


def test_probability_decreases_with_separation():
    sigma = 1.0
    seps = np.linspace(0.0, 4.0, 9)
    probs = [
        transition_probability(
            TransitionPair(rest_packet(0.0, sigma), rest_packet(s, sigma))
        )
        for s in seps
    ]
    assert all(a > b for a, b in zip(probs, probs[1:]))


# ---------------------------------------------------------------------------
# distance relation


def test_relation_at_coincident_points():
    lhs, rhs = fs_euclid_relation(0.3, 0.3, sigma=0.9)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-10)


def test_relation_at_half_probability_separation():
    sigma = 0.7
    sep = math.sqrt(4 * sigma**2 * math.log(2))
    lhs, rhs = fs_euclid_relation(0.0, sep, sigma=sigma)
    assert lhs == pytest.approx(0.5, rel=1e-12)
    assert rhs == pytest.approx(0.5, rel=1e-8)
    # the angle itself sits at 45 degrees
    assert math.acos(math.sqrt(rhs)) == pytest.approx(math.pi / 4, rel=1e-8)


def test_relation_for_random_3d_pair():
    rng = np.random.default_rng(11)
    sigma = 0.7
    a = rng.uniform(-0.5, 0.5, size=3)
    b = a + rng.uniform(-0.8, 0.8, size=3)
    lhs, rhs = fs_euclid_relation(a, b, sigma=sigma)
    assert abs(lhs - rhs) <= 1e-8


def test_relation_quadrature_convergence():
    sigma = 1.0
    sep = 1.3
    spacings = [sigma / 2, sigma / 3, sigma / 4, sigma / 6]
    errors = []
    for h in spacings:
        lhs, rhs = fs_euclid_relation(0.0, sep, sigma=sigma, spacing=h)
        errors.append(abs(lhs - rhs))
    # the sampled overlap converges faster than any power of the spacing for
    # these integrands, so each refinement must sit under the quadratic
    # envelope of the coarsest error — or at the round-off floor
    for h, err in zip(spacings[1:], errors[1:]):
        envelope = errors[0] * (h / spacings[0]) ** 2
        assert err <= max(envelope, 5e-15)
    assert errors[-1] <= 1e-12


def test_relation_rejects_unresolvable_spacing():
    with pytest.raises(GridResolutionError):
        fs_euclid_relation(0.0, 1.0, sigma=1.0, spacing=0.6)


def materialised_rhs(a, b, sigma):
    """The plain oracle: both packets sampled whole, their product summed by numpy."""
    grid = grid_covering(KernelSpec(sigma, a.size), [a, b], spacing=sigma / 6)
    f, g = (packet_wavefunction(rest_packet(c, sigma), grid) for c in (a, b))
    inner = complex((f.values * np.conj(g.values) * f.quadrature_weights()).sum())
    return math.cos(math.acos(min(abs(inner), 1.0))) ** 2


def test_relation_and_inner_l2_equal_the_materialised_oracle():
    # 60 seeded pairs in 1–3 D, widths over three decades; the inner_l2 pair
    # carries momenta, so its samples have imaginary parts
    rng = np.random.default_rng(2024)
    for k in range(60):
        dim = 1 + k % 3
        sigma = float(np.exp(rng.uniform(np.log(1e-3), np.log(2.3))))
        a = rng.normal(0.0, sigma, size=dim)
        b = a + rng.normal(0.0, 1.2 * sigma, size=dim)
        assert fs_euclid_relation(a, b, sigma)[1] == materialised_rhs(a, b, sigma)

        grid = grid_covering(KernelSpec(sigma, dim), [a, b], spacing=sigma / 6)
        f, g = (packet_wavefunction(GaussianPacket(c, rng.normal(size=dim) / sigma,
                                                   sigma, 1.0), grid) for c in (a, b))
        oracle = complex((f.values * np.conj(g.values) * f.quadrature_weights()).sum())
        assert np.array([inner_l2(f, g)]).tobytes() == np.array([oracle]).tobytes()


@pytest.mark.memory
def test_relation_peak_on_a_3d_pair_is_a_few_leaves():
    # a 100 × 104 × 98 grid: two 16 MiB packets, their conj copy, a weight
    # grid and the product made a 54.6 MiB peak; now leaves of 2¹⁶ points
    sigma = 0.7
    a, b = np.array([0.0, 0.1, -0.2]), np.array([0.3, 0.9, -0.1])
    extent = grid_covering(KernelSpec(sigma, 3), [a, b], spacing=sigma / 6).extent
    assert 95 <= min(extent) and max(extent) <= 105
    tracemalloc.start()
    try:
        lhs, rhs = fs_euclid_relation(a, b, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert rhs == materialised_rhs(a, b, sigma) and abs(lhs - rhs) <= 1e-8


# ---------------------------------------------------------------------------
# normal-density form


def test_equivalence_at_coincidence():
    prob, density_form = born_normal_equivalence(0.0, 0.0, sigma=1.1)
    assert prob == pytest.approx(1.0, rel=1e-12)
    assert density_form == pytest.approx(1.0, rel=1e-12)


def test_equivalence_at_sqrt2_sigma():
    sigma = 0.9
    prob, density_form = born_normal_equivalence(0.0, math.sqrt(2) * sigma, sigma)
    assert prob == pytest.approx(math.exp(-0.5), rel=1e-10)
    assert density_form == pytest.approx(prob, rel=1e-10)


def test_equivalence_in_three_dimensions():
    rng = np.random.default_rng(23)
    for _ in range(5):
        a = rng.uniform(-1, 1, size=3)
        b = rng.uniform(-1, 1, size=3)
        prob, density_form = born_normal_equivalence(a, b, sigma=0.8)
        assert density_form == pytest.approx(prob, rel=1e-10)


def test_point_state_density_is_normal():
    # |ψ(b)|² for the width-σ representative of a is the N(a, σ²) density
    sigma, a = 0.75, 0.2
    pkt = rest_packet(a, sigma)
    grid = grid_covering(KernelSpec(sigma), [[a]], spacing=sigma / 10)
    psi = packet_wavefunction(pkt, grid)
    x = psi.axis_coordinates(0)
    density = np.abs(psi.values) ** 2
    expected = np.exp(-((x - a) ** 2) / (2 * sigma**2)) / math.sqrt(
        2 * math.pi * sigma**2
    )
    np.testing.assert_allclose(density, expected, atol=1e-13)


# ---------------------------------------------------------------------------
# distance-only rules extend uniquely


def test_matched_angle_pairs_agree():
    sigma = 1.0
    sep = 1.7
    packet_pair = TransitionPair(rest_packet(0.0, sigma), rest_packet(sep, sigma))
    theta = math.acos(math.exp(-(sep**2) / (8 * sigma**2)))
    spin_pair = TransitionPair(
        np.array([1.0, 0.0], dtype=complex),
        np.array([math.cos(theta), math.sin(theta)], dtype=complex),
    )
    p1 = transition_probability(packet_pair)
    p2 = transition_probability(spin_pair)
    assert p1 == pytest.approx(p2, rel=1e-12)


def test_extension_report_over_mixed_sample():
    rng = np.random.default_rng(7)
    sigma = 1.0
    pairs = []
    for _ in range(50):
        theta = rng.uniform(0.05, math.pi / 2 - 0.05)
        sep = math.sqrt(-8 * sigma**2 * math.log(math.cos(theta)))
        pairs.append(
            TransitionPair(rest_packet(0.0, sigma), rest_packet(sep, sigma))
        )
        # a generic finite-dimensional pair at the same angle
        phi = random_unit(rng, 6)
        other = random_unit(rng, 6)
        other = other - np.vdot(phi, other) * phi
        other /= np.linalg.norm(other)
        psi = math.cos(theta) * phi + math.sin(theta) * other
        pairs.append(TransitionPair(phi, psi / np.linalg.norm(psi)))
    report = isotropic_extension_check(pairs)
    assert isinstance(report, ExtensionReport)
    assert report.n_pairs == 100
    assert report.max_deviation <= 1e-10
    assert report.passed


def test_orthogonal_pair_probability_vanishes():
    up = np.array([1.0, 0.0], dtype=complex)
    down = np.array([0.0, 1.0], dtype=complex)
    report = isotropic_extension_check([TransitionPair(up, down)])
    assert transition_probability(TransitionPair(up, down)) == 0.0
    assert report.max_deviation <= 1e-15
