"""Tests for states, rotations and the small Hermitian toolbox."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestEigHermitian:
    def test_identity(self):
        w, _ = linalg.eig_hermitian(np.eye(4, dtype=complex))
        np.testing.assert_allclose(w, np.ones(4), atol=1e-12)

    def test_pauli_z_spectrum(self):
        w, _ = linalg.eig_hermitian(linalg.SIGMA_Z)
        np.testing.assert_allclose(np.sort(w), [-1, 1], atol=1e-12)

    def test_rank_one_projector_spectrum(self):
        w, _ = linalg.eig_hermitian(linalg.projector(linalg.singlet()))
        np.testing.assert_allclose(np.sort(w), [0, 0, 0, 1], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            m = random_density_matrix(4, rng)
            w, v = linalg.eig_hermitian(m)
            np.testing.assert_allclose((v * w) @ v.conj().T, m, atol=1e-9)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-10)

    def test_rejects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            linalg.eig_hermitian(m)


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(linalg.psd_sqrt(np.eye(4, dtype=complex)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        m = np.diag([4.0, 1.0, 0.0, 0.0]).astype(complex)
        np.testing.assert_allclose(linalg.psd_sqrt(m), np.diag([2.0, 1.0, 0.0, 0.0]), atol=1e-12)

    def test_werner_square(self):
        m = linalg.werner(0.5)
        root = linalg.psd_sqrt(m)
        np.testing.assert_allclose(root @ root, m, atol=1e-8)

    def test_random_psd_roundtrip(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            m = random_density_matrix(4, rng)
            root = linalg.psd_sqrt(m)
            np.testing.assert_allclose(root @ root, m, atol=1e-8)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            linalg.psd_sqrt(np.diag([1.0, -0.5, 0.2, 0.3]).astype(complex))


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


def _unit_step(rng: np.random.Generator, shape: str) -> np.ndarray:
    """A 4x4 Hermitian step of unit Frobenius norm whose trace norm is 1, 2 or in between."""
    u = random_unitary(4, rng)
    spectrum = {"rank1": [1.0, 0, 0, 0], "flat": [0.5, -0.5, 0.5, -0.5], "random": rng.normal(size=4)}[shape]
    d = (u * np.asarray(spectrum, dtype=float)) @ u.conj().T
    return d / np.linalg.norm(d)


# trace distance ||d||_1 / 2 equals ||d||_F / 2 for rank 1 and ||d||_F for the flat spectrum,
# so these scales put rows on both sides of tol, at it and next to it
step_scales = st.one_of(
    st.sampled_from([1 + e for e in (0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8)]),
    st.sampled_from([2 + e for e in (0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8)]),
    st.floats(0.4, 2.5),
)
step_rows = st.lists(
    st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(["rank1", "flat", "random"]), step_scales),
    min_size=1,
    max_size=8,
)


class TestTraceDistanceBelow:
    @settings(max_examples=200, deadline=None)
    @given(rows=step_rows, tol=st.sampled_from([1e-3, 1e-6]))
    def test_equals_trace_distance_below_tol(self, rows, tol):
        a, b = [], []
        for seed, shape, scale in rows:
            rng = np.random.default_rng(seed)
            base = random_density_matrix(4, rng)
            b.append(base)
            a.append(base + scale * tol * _unit_step(rng, shape))
        a, b = np.stack(a), np.stack(b)
        np.testing.assert_array_equal(linalg.trace_distance_below(a, b, tol), linalg.trace_distance(a, b) < tol)

    def test_decides_far_rows_without_eigenvalues(self, monkeypatch):
        rng = np.random.default_rng(4)
        b = np.stack([random_density_matrix(4, rng) for _ in range(3)])
        steps = np.stack([_unit_step(rng, "random") for _ in range(3)])
        a = b + np.array([0.5, 1.5, 3.0])[:, None, None] * 1e-6 * steps
        seen = []
        original = linalg.trace_distance
        monkeypatch.setattr(linalg, "trace_distance", lambda x, y: seen.append(len(x)) or original(x, y))
        np.testing.assert_array_equal(linalg.trace_distance_below(a, b, 1e-6), original(a, b) < 1e-6)
        assert seen == [1]

    def test_two_matrices_give_one_bool(self):
        # each row of a 4x4 matrix was taken for a matrix, and 4 bools came back
        rng = np.random.default_rng(5)
        a = random_density_matrix(4, rng)
        assert linalg.trace_distance_below(a, a, 1e-6) is True
        b = a + 3e-6 * _unit_step(rng, "random")
        assert linalg.trace_distance_below(a, b, 1e-6) is (linalg.trace_distance(a, b) < 1e-6) is False

    def test_broadcasts_over_leading_axes_as_trace_distance_does(self):
        rng = np.random.default_rng(6)
        b = random_density_matrix(4, rng)
        scales = np.array([[0.5, 1.5, 3.0], [1.2, 1.9, 0.1]])[..., None, None]
        a = b + scales * 1e-6 * np.stack([_unit_step(rng, "random") for _ in range(6)]).reshape(2, 3, 4, 4)
        below = linalg.trace_distance_below(a, b, 1e-6)
        assert below.shape == (2, 3)
        np.testing.assert_array_equal(below, linalg.trace_distance(a, b) < 1e-6)

    def test_empty_stack_gives_an_empty_array(self):
        empty = np.zeros((0, 4, 4), dtype=complex)
        assert linalg.trace_distance_below(empty, empty, 1e-6).shape == linalg.trace_distance(empty, empty).shape == (0,)


def _rank2_step(rng: np.random.Generator, eps: float) -> np.ndarray:
    """A 4x4 Hermitian step of unit Frobenius norm with spectrum proportional to (1, -1, eps, -eps)."""
    u = random_unitary(4, rng)
    d = (u * np.array([1.0, -1.0, eps, -eps])) @ u.conj().T
    return d / np.linalg.norm(d)


def _rank2_trace_norm(eps: float) -> float:
    """||d||_1 of the unit-Frobenius ``_rank2_step``."""
    return (2 + 2 * eps) / np.sqrt(2 + 2 * eps**2)


# near-flat spectra, where the Hölder bound ||d||_1 >= ||d||_F^3 / ||d^2||_F is tight or nearly so;
# each row's Frobenius norm is scale * tol with scale in [1, 2], on both sides of the trace-distance
# threshold 2 / _rank2_trace_norm(eps), at it and next to it
rank2_rows = st.lists(
    st.tuples(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e-9, 1e-4, 0.05, 0.3]),
        st.one_of(
            st.sampled_from([1 + e for e in (0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8, 1e-3, -1e-3)]),
            st.floats(0.7, 1.4),
        ),
    ),
    min_size=1,
    max_size=8,
)


class TestTraceDistanceBelowHolder:
    @settings(max_examples=200, deadline=None)
    @given(rows=rank2_rows, tol=st.sampled_from([1e-3, 1e-6]))
    def test_rank2_steps_equal_trace_distance_below_tol(self, rows, tol):
        a, b = [], []
        for seed, eps, offset in rows:
            rng = np.random.default_rng(seed)
            base = random_density_matrix(4, rng)
            scale = np.clip(offset * 2 / _rank2_trace_norm(eps), 1.0, 2.0)
            b.append(base)
            a.append(base + scale * tol * _rank2_step(rng, eps))
        a, b = np.stack(a), np.stack(b)
        np.testing.assert_array_equal(linalg.trace_distance_below(a, b, tol), linalg.trace_distance(a, b) < tol)

    @pytest.mark.parametrize("tol", [1e-6, 1e-80])
    def test_rank2_step_is_decided_without_eigenvalues(self, monkeypatch, tol):
        # F = 1.9 tol lies inside the Frobenius bound's open interval [tol / 2, 2 tol] of ||d||_F / 2 ...
        rng = np.random.default_rng(8)
        a = 1.9 * tol * np.stack([_rank2_step(rng, 0.0), _rank2_step(rng, 1e-3)])
        b = np.zeros_like(a)
        seen = []
        original = linalg.trace_distance
        monkeypatch.setattr(linalg, "trace_distance", lambda x, y: seen.append(len(x)) or original(x, y))
        # ... and its trace distance, 1.9 tol / sqrt(2) or more, is above tol by the Hölder bound
        np.testing.assert_array_equal(linalg.trace_distance_below(a, b, tol), [False, False])
        assert seen == []
        assert np.all(original(a, b) >= tol)
