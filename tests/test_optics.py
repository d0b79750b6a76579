"""Tests for wave-plate Jones matrices and rotation decomposition."""

import numpy as np
import pytest

from envarsim import linalg, optics
from helpers import random_unitary


def _ket(vec):
    return np.asarray(vec, dtype=complex)


class TestWavePlates:
    def test_qwp_at_zero_is_quarter_retarder(self):
        np.testing.assert_allclose(optics.qwp(0.0), np.diag([1, 1j]), atol=1e-14)

    def test_two_quarter_waves_make_a_half_wave(self):
        for angle in np.linspace(0, np.pi, 13):
            q = optics.qwp(angle)
            np.testing.assert_allclose(q @ q, optics.hwp(angle), atol=1e-12)

    def test_qwp_makes_circular_from_horizontal(self):
        out = optics.qwp(np.pi / 4) @ linalg.KET_H
        np.testing.assert_allclose(np.abs(out), [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_hwp_at_zero_flips_vertical(self):
        np.testing.assert_allclose(optics.hwp(0.0) @ linalg.KET_V, -linalg.KET_V, atol=1e-14)

    def test_hwp_rotates_h_to_d(self):
        np.testing.assert_allclose(optics.hwp(np.pi / 8) @ linalg.KET_H, linalg.KET_D, atol=1e-12)

    def test_hwp_squares_to_identity(self):
        for angle in np.linspace(0, np.pi, 7):
            h = optics.hwp(angle)
            np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-12)

    def test_qwp_closed_form_equals_the_plate_product_bit_for_bit(self):
        # R(t) diag(1, i) R(-t) as two complex products, R(-t) = R(t)^T; the draw-order
        # oracle builds its analyzers from optics.qwp itself, so only this pins its bits
        t = np.concatenate([[0.0, np.pi / 4, np.pi / 2, np.pi], np.linspace(-2 * np.pi, 2 * np.pi, 100_001)])
        c, s = np.cos(t), np.sin(t)
        r = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2).astype(complex)
        product = r @ np.diag([1.0, 1.0j]) @ r.swapaxes(-1, -2)
        assert np.array_equal(optics.qwp(t), product)
        for k in range(4):
            assert np.array_equal(optics.qwp(t[k]), product[k])

    def test_plates_are_unitary(self):
        for angle in np.linspace(0, np.pi, 19):
            for plate in (optics.qwp(angle), optics.hwp(angle)):
                np.testing.assert_allclose(plate.conj().T @ plate, np.eye(2), atol=1e-12)


class TestNamedAxes:
    def test_m_is_diagonal_unit_vector(self):
        np.testing.assert_allclose(
            optics.named_axis_vector("m"), np.ones(3) / np.sqrt(3), atol=1e-15
        )

    def test_cardinal_axes(self):
        np.testing.assert_allclose(optics.named_axis_vector("x"), [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(optics.named_axis_vector("y"), [0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(optics.named_axis_vector("z"), [0, 0, 1], atol=1e-15)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            optics.named_axis_vector("w")


class TestRotationSetting:
    def test_x_axis_values(self):
        theta = 0.8
        s = optics.rotation_setting("x", theta)
        assert s.alpha == pytest.approx(np.pi / 2)
        assert (s.beta - (-theta / 4)) % np.pi == pytest.approx(0.0, abs=1e-12)
        assert s.gamma == pytest.approx(np.pi / 2)

    def test_y_axis_values(self):
        theta = 1.1
        s = optics.rotation_setting("y", theta)
        assert (s.alpha - (np.pi / 2 + theta / 2)) % np.pi == pytest.approx(0.0, abs=1e-12)
        assert (s.beta - theta / 4) % np.pi == pytest.approx(0.0, abs=1e-12)
        assert s.gamma == pytest.approx(np.pi / 2)

    def test_z_axis_values(self):
        theta = 2.3
        s = optics.rotation_setting("z", theta)
        assert s.alpha == pytest.approx(np.pi / 4)
        assert (s.beta - (-np.pi / 4 - theta / 4)) % np.pi == pytest.approx(0.0, abs=1e-12)
        assert s.gamma == pytest.approx(np.pi / 4)

    def test_m_axis_has_no_closed_form(self):
        with pytest.raises(ValueError):
            optics.rotation_setting("m", 0.5)


class TestStack:
    def test_x_zero_angle_is_identity_up_to_phase(self):
        u = optics.stack(optics.rotation_setting("x", 0.0))
        assert optics.phase_distance(u, np.eye(2, dtype=complex)) < 1e-8

    def test_x_quarter_turn(self):
        u = optics.stack(optics.rotation_setting("x", np.pi / 2))
        target = linalg.su2_rotation(
            linalg.axis_vector(1, 0, 0), optics.STACK_ROTATION_SIGN * np.pi / 2
        )
        assert optics.phase_distance(u, target) < 1e-8

    def test_z_half_turn(self):
        u = optics.stack(optics.rotation_setting("z", np.pi))
        target = linalg.su2_rotation(
            linalg.axis_vector(0, 0, 1), optics.STACK_ROTATION_SIGN * np.pi
        )
        assert optics.phase_distance(u, target) < 1e-8

    def test_uniform_sign_across_axes_and_angles(self):
        # one shared sign for all 39 (axis, angle) pairs
        distances = {sign: 0.0 for sign in (+1.0, -1.0)}
        for sign in distances:
            for axis in ("x", "y", "z"):
                vec = optics.named_axis_vector(axis)
                for deg in range(0, 361, 30):
                    theta = np.deg2rad(deg)
                    d = optics.phase_distance(
                        optics.stack(optics.rotation_setting(axis, theta)),
                        linalg.su2_rotation(vec, sign * theta),
                    )
                    distances[sign] = max(distances[sign], d)
        assert distances[optics.STACK_ROTATION_SIGN] < 1e-8
        assert distances[-optics.STACK_ROTATION_SIGN] > 0.1

    def test_stack_output_unitary(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            setting = optics.WavePlateSetting(*rng.uniform(0, np.pi, size=3))
            u = optics.stack(setting)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


class TestWavePlateSetting:
    def test_canonicalizes_to_half_turn_range(self):
        s = optics.WavePlateSetting(-0.3, np.pi + 0.2, 3 * np.pi)
        for angle in (s.alpha, s.beta, s.gamma):
            assert 0.0 <= angle < np.pi

    def test_canonicalization_preserves_stack(self):
        raw = (-0.7, 4.0, 2.5)
        canonical = optics.WavePlateSetting(*raw)
        direct = optics.qwp(raw[2]) @ optics.hwp(raw[1]) @ optics.qwp(raw[0])
        np.testing.assert_allclose(optics.stack(canonical), direct, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            optics.WavePlateSetting(np.nan, 0.0, 0.0)


class TestDecomposeRotation:
    def test_identity(self):
        setting = optics.decompose_rotation(np.eye(2, dtype=complex))
        assert optics.phase_distance(optics.stack(setting), np.eye(2)) <= 1e-8
        # degenerate targets, which keep every linear input linear
        y_axis = linalg.axis_vector(0, 1, 0)
        targets = [np.eye(2), -np.eye(2)]
        targets += [linalg.su2_rotation(y_axis, theta) for theta in np.linspace(-2 * np.pi, 2 * np.pi, 9)]
        targets += [optics.hwp(beta) for beta in np.linspace(0.0, np.pi, 7)]
        for target in targets:
            setting = optics.decompose_rotation(np.asarray(target, dtype=complex))
            assert optics.phase_distance(optics.stack(setting), target) <= 1e-12

    def test_diagonal_axis_rotation(self):
        target = linalg.su2_rotation(linalg.axis_vector(1, 1, 1), np.pi / 3)
        setting = optics.decompose_rotation(target)
        assert optics.phase_distance(optics.stack(setting), target) <= 1e-8
        # the m-axis targets of the default grid; no state carries between calls
        m_axis = optics.named_axis_vector("m")
        for angle_deg in range(0, 361, 30):
            target = linalg.su2_rotation(m_axis, optics.STACK_ROTATION_SIGN * np.deg2rad(angle_deg))
            setting = optics.decompose_rotation(target)
            assert optics.phase_distance(optics.stack(setting), target) <= 1e-12
            assert optics.decompose_rotation(target) == setting

    def test_x_rotation_recomposes(self):
        target = linalg.su2_rotation(linalg.axis_vector(1, 0, 0), np.pi / 2)
        setting = optics.decompose_rotation(target)
        assert optics.phase_distance(optics.stack(setting), target) <= 1e-8

    def test_haar_random_roundtrip(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            target = random_unitary(2, rng)
            setting = optics.decompose_rotation(target)
            assert optics.phase_distance(optics.stack(setting), target) <= 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            optics.decompose_rotation(np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex))


class TestPhaseDistance:
    def test_zero_for_global_phase(self):
        u = linalg.su2_rotation(linalg.axis_vector(0, 1, 0), 0.7)
        assert optics.phase_distance(u, np.exp(1.234j) * u) < 1e-12

    def test_positive_for_distinct(self):
        u = np.eye(2, dtype=complex)
        v = linalg.su2_rotation(linalg.axis_vector(1, 0, 0), np.pi / 2)
        assert optics.phase_distance(u, v) > 0.3
