"""Stacked builders: every broadcast rotation or plate call equals its one-element calls bit for bit.

The grid simulation builds its drift unitaries, drifted sources and
wave-plate stacks in a few broadcast calls, while ``drift_state``, ``stack``
and the draw-order oracle make one-element calls; each element of a stack
must equal the one-element call exactly, for every broadcast shape.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envarsim.linalg import apply_local, axis_vector, su2_rotation, validate_density_matrix, werner
from envarsim.measurement import NoiseModel, drift_state, drift_states
from envarsim.optics import WavePlateSetting, hwp, qwp, stack
from helpers import random_density_matrix


@st.composite
def shaped_normals(draw, last: int):
    """A random (..., last) float stack of 1 to 3 leading axes, and its leading shape."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=shape + (last,)) * draw(st.sampled_from([1e-3, 1.0, 40.0]))


class TestStackEqualsEachElement:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(normals=shaped_normals(4))
    def test_su2_rotation(self, normals):
        axes = normals[..., :3] / np.linalg.norm(normals[..., :3], axis=-1, keepdims=True)
        thetas = normals[..., 3]
        stacked = su2_rotation(axes, thetas)
        assert stacked.shape == thetas.shape + (2, 2)
        for idx in np.ndindex(*thetas.shape):
            np.testing.assert_array_equal(stacked[idx], su2_rotation(axes[idx], float(thetas[idx])))
        # one axis against a stack of angles broadcasts as well
        flat = thetas.ravel()
        np.testing.assert_array_equal(su2_rotation(axes.reshape(-1, 3)[0], flat)[-1], su2_rotation(axes.reshape(-1, 3)[0], flat[-1]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(angles=shaped_normals(3))
    def test_plates_and_stack(self, angles):
        stacked = stack(angles)
        assert stacked.shape == angles.shape[:-1] + (2, 2)
        q, h = qwp(angles[..., 0]), hwp(angles[..., 1])
        for idx in np.ndindex(*angles.shape[:-1]):
            alpha, beta, gamma = (float(a) for a in angles[idx])
            np.testing.assert_array_equal(stacked[idx], stack(WavePlateSetting(alpha, beta, gamma)))
            np.testing.assert_array_equal(q[idx], qwp(alpha))
            np.testing.assert_array_equal(h[idx], hwp(beta))

    def test_stack_checks_its_angles(self):
        with pytest.raises(ValueError, match="finite"):
            stack(np.array([[0.1, np.nan, 0.2]]))
        with pytest.raises(ValueError, match="triples"):
            stack(np.zeros((2, 4)))


def _reference_drift(rho, sigma, rng):
    """One drifted copy, built from ``axis_vector``, one-matrix ``su2_rotation`` and ``np.kron``."""
    unitaries = []
    for _ in range(2):
        axis = axis_vector(*rng.normal(size=3))
        unitaries.append(su2_rotation(axis, rng.normal(0.0, sigma)))
    u = np.kron(*unitaries)
    out = u @ rho @ u.conj().T
    return (out + out.conj().T) / 2


class TestDrift:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), sigma=st.sampled_from([0.025, 0.3, 2.0]), v=st.floats(0.0, 1.0))
    def test_drift_state_equals_per_record_reference(self, seed, sigma, v):
        noise = NoiseModel(werner_v=v, drift_sigma=sigma)
        for rho in (werner(v), random_density_matrix(4, np.random.default_rng(seed))):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            drifted = drift_state(rho, noise, rng)
            np.testing.assert_array_equal(drifted, _reference_drift(rho, sigma, reference_rng))
            # both streams have drawn the same eight normals
            assert rng.standard_normal() == reference_rng.standard_normal()

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(normals=shaped_normals(8))
    def test_drift_states_equals_each_block(self, normals):
        noise = NoiseModel(drift_sigma=0.1)
        blocks = normals.reshape(*normals.shape[:-1], 2, 4)
        rho = werner(0.9)
        stacked = drift_states(rho, noise, blocks)
        assert stacked.shape == normals.shape[:-1] + (4, 4)
        validate_density_matrix(stacked)
        for idx in np.ndindex(*normals.shape[:-1]):
            np.testing.assert_array_equal(stacked[idx], drift_states(rho, noise, blocks[idx]))

    def test_drift_states_checks_its_inputs(self):
        noise = NoiseModel(drift_sigma=0.1)
        with pytest.raises(ValueError, match="nonzero"):
            drift_states(werner(0.9), noise, np.zeros((3, 2, 4)))
        with pytest.raises(ValueError, match="eigenvalue"):
            drift_states(np.diag([1.5, -0.5, 0, 0]).astype(complex), noise, np.ones((2, 4)))
        # the identity rotation of both qubits leaves the state as apply_local does
        still = np.tile([1.0, 0.0, 0.0, 0.0], (2, 1))
        np.testing.assert_array_equal(drift_states(werner(0.9), noise, still), apply_local(np.eye(2), np.eye(2), werner(0.9)))
