"""Tests for fidelity and Bhattacharyya overlap measures."""

import numpy as np
import pytest

from envarsim import linalg
from envarsim.measurement import CountRecord, NoiseModel, born_probability, simulate_counts, tomography_projectors
from envarsim.metrics import bhattacharyya, fidelity, normalize_counts
from helpers import random_density_matrix, random_unitary


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            rho = random_density_matrix(4, rng)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_werner_closed_form(self):
        singlet_rho = linalg.projector(linalg.singlet())
        for v in (0.0, 0.5, 0.98267, 1.0):
            assert fidelity(singlet_rho, linalg.werner(v)) == pytest.approx(
                (1 + 3 * v) / 4, abs=1e-10
            )

    def test_rotated_singlet_half(self):
        # reference ideal 0.5 for the quarter-turn about x
        singlet_rho = linalg.projector(linalg.singlet())
        u = linalg.su2_rotation(linalg.axis_vector(1, 0, 0), np.pi / 2)
        rotated = linalg.apply_local(u, np.eye(2), singlet_rho)
        assert fidelity(singlet_rho, rotated) == pytest.approx(0.5, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = random_density_matrix(4, rng)
            b = random_density_matrix(4, rng)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_bounds_and_distinctness(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = random_density_matrix(4, rng)
            b = random_density_matrix(4, rng)
            f = fidelity(a, b)
            assert 0.0 <= f <= 1.0
            assert f < 1 - 1e-6

    def test_unitary_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_density_matrix(4, rng)
            b = random_density_matrix(4, rng)
            u = random_unitary(4, rng)
            ua = u @ a @ u.conj().T
            ub = u @ b @ u.conj().T
            assert fidelity(ua, ub) == pytest.approx(fidelity(a, b), abs=1e-9)

    def test_pure_state_shortcut(self):
        # general path must agree with <psi|rho|psi> for pure first argument
        rng = np.random.default_rng(5)
        psi = linalg.singlet()
        pure = linalg.projector(psi)
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            direct = float(np.real(np.vdot(psi, rho @ psi)))
            assert fidelity(pure, rho) == pytest.approx(direct, abs=1e-10)

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError):
            fidelity(np.eye(4, dtype=complex), linalg.werner(1.0))  # trace 4


class TestBhattacharyya:
    def test_self_overlap(self):
        rng = np.random.default_rng(6)
        p = rng.random(36)
        p /= p.sum()
        assert bhattacharyya(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_uniform(self):
        u = np.full(36, 1 / 36)
        assert bhattacharyya(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_self_overlap_is_clipped_to_one(self):
        # the float sum of these 36 quotients rounds to 1 + 2**-52 unclipped
        counts = np.arange(1, 37) * 7 % 97 + 1
        p = counts / counts.sum()
        assert np.sum(np.sqrt(p * p)) > 1.0
        assert bhattacharyya(p, p) == 1.0
        assert np.all(bhattacharyya(np.stack([p, p]), p) == 1.0)

    def test_orthogonal_bell_states_seven_ninths(self):
        flat = tomography_projectors().flat_projectors
        dists = []
        for psi in (linalg.singlet(), linalg.triplet_psi_plus()):
            rho = linalg.projector(psi)
            p = np.array([born_probability(rho, proj) for proj in flat])
            dists.append(p / p.sum())
        bc = bhattacharyya(dists[0], dists[1])
        assert bc == pytest.approx(7 / 9, abs=1e-10)
        assert bc > 0.5  # never 0 for orthogonal quantum states on this set

    def test_equality_iff_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.random(36)
            p /= p.sum()
            q = rng.random(36)
            q /= q.sum()
            assert bhattacharyya(p, q) < 1 - 1e-9
            assert 0.0 <= bhattacharyya(p, q) <= 1.0

    def test_rejects_unnormalized(self):
        p = np.full(36, 1 / 36)
        with pytest.raises(ValueError):
            bhattacharyya(p, p * 2)
        with pytest.raises(ValueError):
            bhattacharyya(p * 0.5, p)


class TestNormalizeCounts:
    def test_uniform_counts(self):
        rec = CountRecord(counts=np.full(36, 7), duration_s=1.0)
        np.testing.assert_allclose(normalize_counts(rec), np.full(36, 1 / 36), atol=1e-15)

    def test_single_nonzero(self):
        counts = np.zeros(36, dtype=int)
        counts[0] = 5
        rec = CountRecord(counts=counts, duration_s=1.0)
        expected = np.zeros(36)
        expected[0] = 1.0
        np.testing.assert_allclose(normalize_counts(rec), expected, atol=1e-15)

    def test_noiseless_singlet_matches_born_over_nine(self):
        rho = linalg.projector(linalg.singlet())
        rec = simulate_counts(rho, 1e6, 1.0, NoiseModel.noiseless())
        flat = tomography_projectors().flat_projectors
        probs = np.array([born_probability(rho, p) for p in flat])
        np.testing.assert_allclose(normalize_counts(rec), probs / 9, atol=1e-9)

    def test_rejects_zero_total(self):
        rec = CountRecord(counts=np.zeros(36, dtype=int), duration_s=1.0)
        with pytest.raises(ValueError):
            normalize_counts(rec)
