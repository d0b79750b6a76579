"""Tests for states, rotations, validators and the trace distance."""

import numpy as np
import pytest
import scipy.linalg

from envarsim import linalg
from helpers import random_density_matrix, random_unitary


class TestSinglet:
    def test_amplitudes(self):
        np.testing.assert_allclose(
            linalg.singlet(),
            np.array([0, 1, -1, 0]) / np.sqrt(2),
            atol=1e-15,
        )

    def test_normalized(self):
        psi = linalg.singlet()
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)

    def test_xx_expectation(self):
        # oracle: direct 4x4 matrix-vector evaluation
        psi = linalg.singlet()
        xx = np.kron(linalg.SIGMA_X, linalg.SIGMA_X)
        assert np.real(np.vdot(psi, xx @ psi)) == pytest.approx(-1.0, abs=1e-12)


class TestValidators:
    def test_axis_vector_normalizes(self):
        v = linalg.axis_vector(3, 0, 4)
        np.testing.assert_allclose(v, [0.6, 0.0, 0.8], atol=1e-15)
        with pytest.raises(ValueError):
            linalg.axis_vector(0, 0, 0)

    def test_density_matrix_validation(self):
        linalg.validate_density_matrix(linalg.werner(0.5))
        with pytest.raises(ValueError):
            linalg.validate_density_matrix(np.eye(4, dtype=complex))  # trace 4
        bad = linalg.werner(0.5).copy()
        bad[0, 1] = 0.3  # not Hermitian
        with pytest.raises(ValueError):
            linalg.validate_density_matrix(bad)


class TestSu2Rotation:
    def test_zero_angle_is_identity(self):
        u = linalg.su2_rotation(linalg.axis_vector(0, 0, 1), 0.0)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-15)

    def test_full_turn_is_minus_identity(self):
        u = linalg.su2_rotation(linalg.axis_vector(1, 0, 0), 2 * np.pi)
        np.testing.assert_allclose(u, -np.eye(2), atol=1e-12)

    def test_diagonal_axis_half_turn(self):
        m = linalg.axis_vector(1, 1, 1)
        expected = -1j * (linalg.SIGMA_X + linalg.SIGMA_Y + linalg.SIGMA_Z) / np.sqrt(3)
        np.testing.assert_allclose(linalg.su2_rotation(m, np.pi), expected, atol=1e-12)

    def test_matches_matrix_exponential(self):
        # oracle: scipy expm of -i theta/2 n.sigma
        rng = np.random.default_rng(11)
        for _ in range(25):
            axis = linalg.axis_vector(*rng.normal(size=3))
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            gen = axis[0] * linalg.SIGMA_X + axis[1] * linalg.SIGMA_Y + axis[2] * linalg.SIGMA_Z
            expected = scipy.linalg.expm(-1j * theta / 2 * gen)
            np.testing.assert_allclose(linalg.su2_rotation(axis, theta), expected, atol=1e-12)

    def test_unitary_and_unit_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = linalg.su2_rotation(linalg.axis_vector(*rng.normal(size=3)), rng.uniform(0, 7))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
            assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            linalg.su2_rotation(np.array([1.0, 1.0, 0.0]), 0.3)


class TestApplyLocal:
    def test_identity_leaves_state(self):
        rho = linalg.werner(0.7)
        out = linalg.apply_local(np.eye(2), np.eye(2), rho)
        np.testing.assert_allclose(out, rho, atol=1e-14)

    def test_singlet_invariant_under_identical_unitaries(self):
        rng = np.random.default_rng(5)
        rho = linalg.projector(linalg.singlet())
        for _ in range(100):
            u = random_unitary(2, rng)
            out = linalg.apply_local(u, u, rho)
            np.testing.assert_allclose(out, rho, atol=1e-10)

    def test_half_rotation_overlap(self):
        # overlap cos^2(theta/2) = 0.5 at theta = pi/2
        rho = linalg.projector(linalg.singlet())
        u = linalg.su2_rotation(linalg.axis_vector(1, 0, 0), np.pi / 2)
        out = linalg.apply_local(u, np.eye(2), rho)
        overlap = np.real(np.vdot(linalg.singlet(), out @ linalg.singlet()))
        assert overlap == pytest.approx(0.5, abs=1e-12)

    def test_preserves_trace_hermiticity_spectrum(self):
        rng = np.random.default_rng(17)
        rho = linalg.werner(0.9)
        base_spec = np.linalg.eigvalsh(rho)
        for _ in range(100):
            u1 = linalg.su2_rotation(linalg.axis_vector(*rng.normal(size=3)), rng.uniform(0, 2 * np.pi))
            u2 = linalg.su2_rotation(linalg.axis_vector(*rng.normal(size=3)), rng.uniform(0, 2 * np.pi))
            out = linalg.apply_local(u1, u2, rho)
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert np.max(np.abs(out - out.conj().T)) < 1e-10
            np.testing.assert_allclose(np.linalg.eigvalsh(out), base_spec, atol=1e-10)

    def test_envariance_identity_on_singlet(self):
        rng = np.random.default_rng(23)
        rho = linalg.projector(linalg.singlet())
        for _ in range(25):
            u = random_unitary(2, rng)
            restored = linalg.apply_local(np.eye(2), u, linalg.apply_local(u, np.eye(2), rho))
            np.testing.assert_allclose(restored, rho, atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            linalg.apply_local(np.array([[1, 1], [0, 1]]), np.eye(2), linalg.werner(1.0))


class TestWerner:
    def test_pure_limit(self):
        np.testing.assert_allclose(linalg.werner(1.0), linalg.projector(linalg.singlet()), atol=1e-15)

    def test_mixed_limit(self):
        np.testing.assert_allclose(linalg.werner(0.0), np.eye(4) / 4, atol=1e-15)

    def test_singlet_overlap_formula(self):
        # <psi-|W(v)|psi-> = (1+3v)/4; v = 0.98267 gives 0.987
        psi = linalg.singlet()
        for v in (0.0, 0.5, 0.98267, 1.0):
            overlap = np.real(np.vdot(psi, linalg.werner(v) @ psi))
            assert overlap == pytest.approx((1 + 3 * v) / 4, abs=1e-12)
        assert np.real(np.vdot(psi, linalg.werner(0.98267) @ psi)) == pytest.approx(0.987, abs=1e-5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            linalg.werner(1.2)
        with pytest.raises(ValueError):
            linalg.werner(-0.1)


class TestTraceDistance:
    def test_known_values(self):
        rho = linalg.projector(linalg.singlet())
        assert linalg.trace_distance(rho, rho) == 0.0
        assert linalg.trace_distance(rho, np.eye(4) / 4) == pytest.approx(0.75, abs=1e-15)
        assert isinstance(linalg.trace_distance(rho, rho), float)

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(21)
        a = np.stack([random_density_matrix(4, rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        b = np.stack([random_density_matrix(4, rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        dist = linalg.trace_distance(a, b)
        assert dist.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert dist[i, j] == linalg.trace_distance(a[i, j], b[i, j])
        # a stack against one matrix broadcasts like numpy arithmetic
        expected = [linalg.trace_distance(m, b[0, 0]) for m in a[0]]
        np.testing.assert_array_equal(linalg.trace_distance(a[0], b[0, 0]), expected)
