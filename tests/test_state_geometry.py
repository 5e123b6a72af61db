"""State-space geometry: fields, fibre split, curvature, Hopf map, FS distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertbridge.state_geometry import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    fibre_decompose,
    fs_distance,
    hopf_map,
    killing_inner,
    observable_field,
    oscillator_matrices,
    sectional_curvature,
    state_sectional_curvature,
    uncertainty_identity,
)


def random_state(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------------------
# observable fields and fibre decomposition


def test_identity_field_is_fibre_direction():
    phi = np.array([0.6, 0.8j])
    np.testing.assert_allclose(observable_field(np.eye(2), phi), -1j * phi, atol=1e-15)


def test_sigma_z_field_on_basis_state():
    field = observable_field(PAULI_Z, np.array([1.0, 0.0]))
    np.testing.assert_allclose(field, np.array([-1j, 0.0]), atol=1e-15)


def test_field_bracket_is_commutator_field():
    # Lie bracket of the linear fields of A and B = the field of −i[A, B]
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        phi = random_state(rng, 4)
        # bracket of linear vector fields v(φ)=Mφ, w(φ)=Nφ is (MN−NM)φ
        lhs = (-1j * a) @ (-1j * b) @ phi - (-1j * b) @ (-1j * a) @ phi
        c = -1j * (a @ b - b @ a)  # Hermitian
        np.testing.assert_allclose(lhs, observable_field(c, phi), atol=1e-12)


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=30)
def test_fields_are_tangent_to_sphere(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    a = random_hermitian(rng, n)
    phi = random_state(rng, n)
    assert abs(np.real(np.vdot(phi, observable_field(a, phi)))) <= 1e-12 * np.linalg.norm(a)


def test_fibre_decompose_eigenstate():
    a = np.diag([3.0, -1.0, 4.0]).astype(complex)
    mean, orth = fibre_decompose(a, np.array([0, 1.0, 0]))
    assert mean == pytest.approx(-1.0, abs=1e-14)
    np.testing.assert_allclose(orth, 0, atol=1e-14)


def test_fibre_decompose_balanced_superposition():
    phi = np.array([1.0, 1.0]) / np.sqrt(2)
    mean, orth = fibre_decompose(PAULI_Z, phi)
    assert mean == pytest.approx(0.0, abs=1e-15)
    assert np.linalg.norm(orth) == pytest.approx(1.0, rel=1e-14)


def test_vacuum_position_variance_is_half():
    x, _ = oscillator_matrices(10)
    vac = np.zeros(10, dtype=complex)
    vac[0] = 1.0
    mean, orth = fibre_decompose(x, vac)
    assert mean == pytest.approx(0.0, abs=1e-15)
    assert np.vdot(orth, orth).real == pytest.approx(0.5, rel=1e-14)


@given(st.integers(0, 10**6), st.floats(0, 2 * np.pi))
@settings(deadline=None, max_examples=30)
def test_gauge_invariance_of_decomposition_and_distance(seed, alpha):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    a = random_hermitian(rng, n)
    phi = random_state(rng, n)
    psi = random_state(rng, n)
    rotated = np.exp(1j * alpha) * phi
    m1, o1 = fibre_decompose(a, phi)
    m2, o2 = fibre_decompose(a, rotated)
    assert m2 == pytest.approx(m1, abs=1e-12 * (1 + abs(m1)))
    assert np.linalg.norm(o2) == pytest.approx(np.linalg.norm(o1), abs=1e-12)
    assert fs_distance(rotated, psi) == pytest.approx(fs_distance(phi, psi), abs=1e-9)


# ---------------------------------------------------------------------------
# uncertainty identity


def test_uncertainty_identity_same_observable():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 4)
    phi = random_state(rng, 4)
    lhs, area2, inner2 = uncertainty_identity(a, a, phi)
    var = fibre_decompose(a, phi)[1]
    var = np.vdot(var, var).real
    assert area2 == pytest.approx(0.0, abs=1e-12 * lhs)
    assert inner2 == pytest.approx(var**2, rel=1e-12)


def test_uncertainty_saturated_spin_pair():
    phi = np.array([1.0, 0.0])
    lhs, area2, inner2 = uncertainty_identity(PAULI_X, PAULI_Y, phi)
    assert lhs == pytest.approx(1.0, rel=1e-14)
    assert area2 == pytest.approx(1.0, rel=1e-14)
    assert inner2 == pytest.approx(0.0, abs=1e-14)
    # commutator bound ½|⟨[A,B]⟩| = 1 is met with equality here
    comm = PAULI_X @ PAULI_Y - PAULI_Y @ PAULI_X
    bound = 0.5 * abs(np.vdot(phi, comm @ phi))
    assert lhs == pytest.approx(bound**2, rel=1e-14)


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=100)
def test_uncertainty_identity_and_inequality_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 17))
    a = random_hermitian(rng, n)
    b = random_hermitian(rng, n)
    phi = random_state(rng, n)
    lhs, area2, inner2 = uncertainty_identity(a, b, phi)
    assert lhs == pytest.approx(area2 + inner2, rel=1e-10, abs=1e-300)
    comm = a @ b - b @ a
    bound_sq = (0.5 * abs(np.vdot(phi, comm @ phi))) ** 2
    assert lhs >= bound_sq - 1e-10 * max(lhs, 1.0)


# ---------------------------------------------------------------------------
# Killing metric and curvature


def spin_generator(k):
    return 0.5j * (PAULI_X, PAULI_Y, PAULI_Z)[k]


def test_spin_generators_have_norm_half():
    for k in range(3):
        s = spin_generator(k)
        assert np.sqrt(killing_inner(s, s)) == pytest.approx(0.5, rel=1e-15)


def test_spin_generators_are_orthogonal():
    assert killing_inner(spin_generator(0), spin_generator(1)) == pytest.approx(
        0.0, abs=1e-15
    )


def test_killing_inner_i_sigma_z():
    assert killing_inner(1j * PAULI_Z, 1j * PAULI_Z) == pytest.approx(1.0, rel=1e-15)


def test_sectional_curvature_of_spin_plane_is_one():
    assert sectional_curvature(spin_generator(0), spin_generator(1)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_curvature_scaling_invariance():
    rng = np.random.default_rng(19)
    x, y = spin_generator(0), spin_generator(1)
    base = sectional_curvature(x, y)
    for c, d in rng.uniform(0.1, 10.0, size=(5, 2)):
        assert sectional_curvature(c * x, d * y) == pytest.approx(base, abs=1e-12)


def test_curvature_in_hbar_metric():
    # with the metric carrying a factor ħ², the same plane has curvature 1/ħ²
    # (metric scale λ divides the curvature quotient by λ)
    x, y = spin_generator(0), spin_generator(1)
    bracket = x @ y - y @ x
    for hbar in (1.0, 0.3, 2.5):
        lam = hbar**2
        num = 0.25 * lam * killing_inner(bracket, bracket)
        den = (lam * killing_inner(x, x)) * (lam * killing_inner(y, y)) - (
            lam * killing_inner(x, y)
        ) ** 2
        assert num / den == pytest.approx(1.0 / hbar**2, rel=1e-12)


def test_curvature_rejects_degenerate_plane():
    x = spin_generator(2)
    with pytest.raises(ValueError):
        sectional_curvature(x, 3.0 * x)


def test_pauli_plane_through_simplified_formula():
    # orthogonal equal-norm generators: R = ¼‖[X,Y]‖²/(‖X‖²‖Y‖²)
    x, y = 1j * PAULI_X, 1j * PAULI_Y
    bracket = x @ y - y @ x
    simplified = 0.25 * killing_inner(bracket, bracket) / (
        killing_inner(x, x) * killing_inner(y, y)
    )
    assert sectional_curvature(x, y) == pytest.approx(simplified, rel=1e-14)


# ---------------------------------------------------------------------------
# truncated oscillator


def test_oscillator_two_level_blocks_are_pauli():
    x, p = oscillator_matrices(2)
    np.testing.assert_allclose(x, PAULI_X / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(p, PAULI_Y / np.sqrt(2), atol=1e-15)


def test_oscillator_commutator_on_vacuum():
    x, p = oscillator_matrices(12)
    vac = np.zeros(12, dtype=complex)
    vac[0] = 1.0
    out = (p @ x - x @ p) @ vac
    np.testing.assert_allclose(out, -1j * vac, atol=1e-15)
    assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-14)


def test_oscillator_action_exact_below_truncation_band():
    big_x, big_p = oscillator_matrices(24)
    small_x, small_p = oscillator_matrices(12)
    rng = np.random.default_rng(2)
    v = np.zeros(24, dtype=complex)
    v[:10] = rng.normal(size=10) + 1j * rng.normal(size=10)
    np.testing.assert_allclose((big_x @ v)[:12], small_x @ v[:12], atol=1e-14)
    np.testing.assert_allclose((big_p @ v)[:12], small_p @ v[:12], atol=1e-14)


def test_vacuum_plane_curvature_is_one():
    x, p = oscillator_matrices(16)
    vac = np.zeros(16, dtype=complex)
    vac[0] = 1.0
    assert state_sectional_curvature(x, p, vac) == pytest.approx(1.0, abs=1e-10)


def test_oscillator_rejects_tiny_truncation():
    with pytest.raises(ValueError):
        oscillator_matrices(1)


# ---------------------------------------------------------------------------
# Hopf map and Fubini–Study distance


def test_hopf_south_pole():
    pt = hopf_map(np.array([1.0, 0.0]))
    assert (pt.x, pt.y, pt.z) == pytest.approx((0.0, 0.0, -1.0), abs=1e-15)


def test_hopf_equator():
    pt = hopf_map(np.array([1.0, 1.0]) / np.sqrt(2))
    assert (pt.x, pt.y, pt.z) == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)


def test_hopf_amplitude_relations():
    rng = np.random.default_rng(21)
    for _ in range(20):
        phi = random_state(rng, 2)
        z = hopf_map(phi).z
        assert abs(phi[0]) ** 2 == pytest.approx((1 - z) / 2, abs=1e-13)
        assert abs(phi[1]) ** 2 == pytest.approx((1 + z) / 2, abs=1e-13)


@given(st.floats(0, 2 * np.pi), st.integers(0, 10**6))
@settings(deadline=None, max_examples=30)
def test_hopf_phase_invariance(alpha, seed):
    phi = random_state(np.random.default_rng(seed), 2)
    a = hopf_map(phi).as_array()
    b = hopf_map(np.exp(1j * alpha) * phi).as_array()
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_hopf_rejects_non_unit():
    with pytest.raises(ValueError):
        hopf_map(np.array([1.0, 1.0]))


def test_fs_distance_phase_equivalent_states():
    phi = random_state(np.random.default_rng(4), 5)
    assert fs_distance(np.exp(0.7j) * phi, phi) == pytest.approx(0.0, abs=1e-7)


def test_fs_distance_orthogonal_states():
    assert fs_distance(np.array([1.0, 0]), np.array([0, 1.0])) == pytest.approx(
        np.pi / 2, rel=1e-15
    )


def test_fs_distance_mismatched_dims():
    with pytest.raises(ValueError):
        fs_distance(np.array([1.0, 0]), np.array([1.0, 0, 0]))


def test_overlap_against_bloch_inner_product():
    # |⟨φ,ψ⟩|² = (1 + x·x′)/2 for two-level states
    rng = np.random.default_rng(9)
    for _ in range(25):
        phi, psi = random_state(rng, 2), random_state(rng, 2)
        lhs = abs(np.vdot(phi, psi)) ** 2
        rhs = 0.5 * (1 + hopf_map(phi).as_array() @ hopf_map(psi).as_array())
        assert lhs == pytest.approx(rhs, abs=1e-12)
