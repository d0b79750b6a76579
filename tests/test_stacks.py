"""Stacked scoring: every broadcast call equals its per-pair calls bit for bit.

The report scores the whole grid in one ``fidelity`` and one
``bhattacharyya`` call over (cells, 4) stacks, so a stack must give each
pair exactly the value the one-pair call gives, for every broadcast shape
and for rank-deficient states as well.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envarsim import harness, linalg
from envarsim.harness import (
    ExperimentPlan,
    _distribution_from_rho,
    assemble_report,
    calibrated_noise,
    run_experiment,
    simulate_grid,
)
from envarsim.measurement import NoiseModel, born_probabilities, simulate_counts_many, tomography_projectors
from envarsim.metrics import bhattacharyya, fidelity, normalize_counts
from envarsim.tomography import mle_reconstruct_many
from helpers import random_unitary, source_stability


def _random_state(rng: np.random.Generator, rank: int) -> np.ndarray:
    """A 4x4 density matrix of the given rank; rank 1 is a pure state."""
    a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = a @ a.conj().T
    m = m / np.trace(m).real
    return (m + m.conj().T) / 2


@st.composite
def state_stacks(draw):
    """A (K, 1, 4, 4) stack of states and a (K, 4, 4, 4) one, of ranks 1 to 4."""
    k = draw(st.integers(1, 3))
    ranks = draw(st.lists(st.integers(1, 4), min_size=5 * k, max_size=5 * k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = np.stack([_random_state(rng, rank) for rank in ranks])
    return states[:k, None], states[k:].reshape(k, 4, 4, 4)


def _pairwise(metric, a, b):
    """``metric`` called once per pair of the broadcast (K, 1) against (K, 4) stacks."""
    return np.array([[metric(a[i, 0], b[i, j]) for j in range(b.shape[1])] for i in range(len(b))])


class TestStackEqualsEachPair:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(pair=state_stacks())
    def test_fidelity(self, pair):
        a, b = pair
        stacked = fidelity(a, b)
        assert stacked.shape == b.shape[:2]
        np.testing.assert_array_equal(stacked, _pairwise(fidelity, a, b))
        np.testing.assert_array_equal(fidelity(b, a), _pairwise(lambda x, y: fidelity(y, x), a, b))
        # consecutive pairs of one flat stack, as the stability summary takes them
        flat = b.reshape(-1, 4, 4)
        consecutive = [fidelity(x, y) for x, y in zip(flat[:-1], flat[1:])]
        np.testing.assert_array_equal(fidelity(flat[:-1], flat[1:]), consecutive)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(pair=state_stacks())
    def test_born_probabilities_and_distributions(self, pair):
        _, b = pair
        projs = tomography_projectors().flat_projectors
        probs, dists = born_probabilities(b, projs), _distribution_from_rho(b)
        assert probs.shape == dists.shape == b.shape[:2] + (36,)
        for i, j in np.ndindex(*b.shape[:2]):
            np.testing.assert_array_equal(probs[i, j], born_probabilities(b[i, j], projs))
            np.testing.assert_array_equal(dists[i, j], _distribution_from_rho(b[i, j]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(pair=state_stacks())
    def test_bhattacharyya(self, pair):
        a, b = pair
        p, q = _distribution_from_rho(a), _distribution_from_rho(b)
        stacked = bhattacharyya(p, q)
        assert stacked.shape == b.shape[:2]
        np.testing.assert_array_equal(stacked, _pairwise(bhattacharyya, p, q))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(pair=state_stacks(), seed=st.integers(0, 2**32 - 1))
    def test_apply_local_equals_kron(self, pair, seed):
        _, b = pair
        rng = np.random.default_rng(seed)
        u_s = np.stack([random_unitary(2, rng) for _ in range(len(b))])[:, None]
        u_e = np.stack([random_unitary(2, rng) for _ in range(b.shape[1])])
        for other in (u_e, np.eye(2)):
            stacked = linalg.apply_local(u_s, other, b)
            assert stacked.shape == b.shape
            for i, j in np.ndindex(*b.shape[:2]):
                u_ej = other if other.ndim == 2 else other[j]
                u = np.kron(u_s[i, 0], u_ej)
                expected = u @ b[i, j] @ u.conj().T
                np.testing.assert_array_equal(stacked[i, j], (expected + expected.conj().T) / 2)
                np.testing.assert_array_equal(stacked[i, j], linalg.apply_local(u_s[i, 0], u_ej, b[i, j]))


def _small_calibrated_report():
    return run_experiment(ExperimentPlan(axes=("m",), angles_deg=(0.0, 60.0, 120.0, 180.0), noise=calibrated_noise()))


def test_fidelity_is_symmetric_on_reconstructed_states():
    # summing square roots of the eigenvalues of sqrt(a) b sqrt(a) left
    # |F(a, b) - F(b, a)| at 7e-10 on these states
    for rhos in _small_calibrated_report().states.values():
        for a in rhos:
            for b in rhos:
                assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-13


def test_report_scores_every_cell_in_one_call(monkeypatch):
    calls = {"fidelity": 0, "bhattacharyya": 0}

    def counted(name, metric):
        def wrapper(*args):
            calls[name] += 1
            return metric(*args)

        return wrapper

    monkeypatch.setattr(harness, "fidelity", counted("fidelity", fidelity))
    monkeypatch.setattr(harness, "bhattacharyya", counted("bhattacharyya", bhattacharyya))
    report = _small_calibrated_report()
    assert len(report.cells) == 4
    # the cells, then the grid's consecutive stage-I pairs, which every summary slices
    assert calls == {"fidelity": 2, "bhattacharyya": 2}


def test_axis_stability_is_its_slice_of_the_grid_pair_series():
    plan = ExperimentPlan(axes=("x", "m"), angles_deg=(0.0, 60.0, 120.0, 180.0), noise=calibrated_noise())
    counts = {key: tuple(s.counts for s in stages) for key, stages in simulate_grid(plan).items()}
    report = assemble_report(plan, counts)

    def stability(keys):
        """The stage-I stability of one group of cells, scored on its own."""
        dists = np.stack([normalize_counts(counts[key][0]) for key in keys])
        bc = float(np.std(bhattacharyya(dists[:-1], dists[1:]), ddof=1))
        return source_stability([report.states[key][0] for key in keys]), bc

    for summary in report.per_axis:
        keys = [(summary.axis, a) for a in plan.angles_deg]
        assert (summary.stability_fidelity, summary.stability_bc) == stability(keys)
    assert (report.overall.stability_fidelity, report.overall.stability_bc) == stability(list(counts))
    # the overall series holds the pair from x at 180 degrees to m at 0 degrees as well
    x_run, m_run = np.split(np.stack([rhos[0] for rhos in report.states.values()]), 2)
    within = np.concatenate([fidelity(run[:-1], run[1:]) for run in (x_run, m_run)])
    assert report.overall.stability_fidelity != float(np.std(within, ddof=1))


def test_every_stacked_call_maps_an_empty_stack_to_an_empty_result():
    # each validator reduces over the whole stack, and an empty one must pass its checks
    states, unitaries = np.zeros((0, 4, 4), dtype=complex), np.zeros((0, 2, 2), dtype=complex)
    projectors = tomography_projectors().flat_projectors.reshape(36, 4, 4)
    assert fidelity(states, states).shape == (0,)
    assert bhattacharyya(np.zeros((0, 36)), np.zeros((0, 36))).shape == (0,)
    assert linalg.apply_local(unitaries, unitaries, states).shape == (0, 4, 4)
    assert born_probabilities(states, projectors).shape == (0, 36)
    assert linalg.trace_distance(states, states).shape == (0,)
    assert simulate_counts_many(states, 100.0, 1.0, NoiseModel.noiseless(), []) == []
    assert mle_reconstruct_many([], tomography_projectors()) == []


@pytest.mark.parametrize(
    "axes, angles_deg",
    [(("m",), (0.0,)), (("m",), (0.0, 90.0)), (("x", "m"), (0.0,))],
    ids=["one-cell", "two-cells", "one-angle-on-two-axes"],
)
def test_a_grid_below_three_cells_reports_nan_stability(axes, angles_deg):
    report = run_experiment(ExperimentPlan(axes=axes, angles_deg=angles_deg, noise=calibrated_noise()))
    for summary in (*report.per_axis, report.overall):
        assert math.isnan(summary.stability_fidelity) and math.isnan(summary.stability_bc)
