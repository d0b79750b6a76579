"""Tests for the 36-projector set, count synthesis and source drift."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envarsim import linalg, measurement
from envarsim.measurement import (
    ANALYZER_PLATES,
    DEFAULT_DRIFT_SIGMA,
    CountRecord,
    NoiseModel,
    born_probabilities,
    born_probability,
    drift_state,
    simulate_counts,
    simulate_counts_many,
    tomography_projectors,
)
from envarsim.optics import hwp, qwp
from envarsim.metrics import fidelity


class TestProjectorSet:
    def test_36_projectors_in_9_settings(self):
        ps = tomography_projectors()
        assert len(ps.settings) == 9
        assert ps.flat_projectors.shape == (36, 4, 4)

    def test_set_and_stack_are_built_once_and_read_only(self):
        ps = tomography_projectors()
        assert tomography_projectors() is ps
        assert ps.flat_projectors is ps.flat_projectors
        with pytest.raises(ValueError):
            ps.flat_projectors[0, 0, 0] = 1.0

    def test_each_setting_completes_to_identity(self):
        for setting in tomography_projectors().settings:
            total = sum(setting.projectors)
            np.testing.assert_allclose(total, np.eye(4), atol=1e-12)

    def test_setting_projectors_mutually_orthogonal(self):
        for setting in tomography_projectors().settings:
            for i, p in enumerate(setting.projectors):
                for j, q in enumerate(setting.projectors):
                    expected = p if i == j else np.zeros((4, 4))
                    np.testing.assert_allclose(p @ q, expected, atol=1e-12)

    def test_singlet_cross_polarized_probability(self):
        ps = tomography_projectors()
        rho = linalg.projector(linalg.singlet())
        labels = ps.flat_labels
        flat = ps.flat_projectors
        idx_hv = labels.index(("HV-HV", "HV"))
        idx_hh = labels.index(("HV-HV", "HH"))
        assert born_probability(rho, flat[idx_hv]) == pytest.approx(0.5, abs=1e-12)
        assert born_probability(rho, flat[idx_hh]) == pytest.approx(0.0, abs=1e-12)


class TestBornProbability:
    def test_maximally_mixed_gives_quarter(self):
        rho = np.eye(4, dtype=complex) / 4
        for proj in tomography_projectors().flat_projectors:
            assert born_probability(rho, proj) == pytest.approx(0.25, abs=1e-12)

    def test_setting_probabilities_sum_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            rho = linalg.random_density_matrix(4, rng)
            for setting in tomography_projectors().settings:
                total = sum(born_probability(rho, p) for p in setting.projectors)
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_projector(self):
        rho = linalg.werner(1.0)
        with pytest.raises(ValueError):
            born_probability(rho, np.eye(4, dtype=complex))  # rank 4
        with pytest.raises(ValueError):
            born_probability(rho, 0.5 * linalg.projector(np.kron(linalg.KET_H, linalg.KET_H)))


class TestBornProbabilities:
    def test_matches_per_projector_loop(self):
        from envarsim.harness import _distribution_from_rho

        rng = np.random.default_rng(17)
        flat = tomography_projectors().flat_projectors
        for _ in range(20):
            rho = linalg.random_density_matrix(4, rng)
            loop = np.array([born_probability(rho, p) for p in flat])
            np.testing.assert_allclose(born_probabilities(rho, flat), loop, rtol=0, atol=1e-15)
            np.testing.assert_allclose(_distribution_from_rho(rho), loop / loop.sum(), rtol=0, atol=1e-15)

    def test_rejects_non_projector_in_stack(self):
        rho = linalg.werner(1.0)
        flat = tomography_projectors().flat_projectors
        for bad in (np.eye(4, dtype=complex), 0.5 * flat[0]):
            stack = flat.copy()
            stack[7] = bad
            with pytest.raises(ValueError, match="rank-1 projector within 1e-10"):
                born_probabilities(rho, stack)

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            born_probabilities(2 * linalg.werner(1.0), tomography_projectors().flat_projectors)


class TestSimulateCounts:
    def test_noiseless_singlet_expectations(self):
        rho = linalg.projector(linalg.singlet())
        rec = simulate_counts(rho, 5400.0, 5.0, NoiseModel.noiseless())
        np.testing.assert_array_equal(rec.counts[:4], [0, 13500, 13500, 0])

    def test_noiseless_mixed_uniform(self):
        rec = simulate_counts(np.eye(4, dtype=complex) / 4, 5400.0, 5.0, NoiseModel.noiseless())
        np.testing.assert_array_equal(rec.counts, np.full(36, 6750))

    def test_seeded_determinism(self):
        rho = linalg.werner(0.9)
        noise = NoiseModel(werner_v=0.9, poisson=True, seed=31)
        a = simulate_counts(rho, 5400.0, 5.0, noise)
        b = simulate_counts(rho, 5400.0, 5.0, noise)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_counts_scale_with_flux_and_duration(self):
        rho = linalg.werner(0.8)
        base = simulate_counts(rho, 1000.0, 2.0, NoiseModel.noiseless())
        scaled = simulate_counts(rho, 4000.0, 4.0, NoiseModel.noiseless())
        ratio = scaled.total() / base.total()
        assert ratio == pytest.approx(8.0, rel=1e-3)

    def test_empirical_frequencies_converge(self):
        # Poisson 3-sigma bound at flux*duration = 1e7
        rho = linalg.werner(0.98267)
        noise = NoiseModel(werner_v=0.98267, poisson=True, seed=8)
        rec = simulate_counts(rho, 1e7, 1.0, noise)
        flat = tomography_projectors().flat_projectors
        probs = np.array([born_probability(rho, p) for p in flat])
        freqs = rec.counts.reshape(9, 4) / rec.counts.reshape(9, 4).sum(axis=1, keepdims=True)
        assert np.max(np.abs(freqs.reshape(36) - probs)) < 5e-4

    def test_rejects_nonpositive_flux(self):
        with pytest.raises(ValueError):
            simulate_counts(linalg.werner(1.0), 0.0, 5.0, NoiseModel.noiseless())


def _state(seed: int, pure: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if pure:
        return linalg.projector(linalg.random_unitary(4, rng)[:, 0])
    return linalg.random_density_matrix(4, rng)


class TestSimulateCountsMany:
    @settings(max_examples=40, deadline=None)
    @given(
        states=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.booleans()), min_size=1, max_size=6),
        plate_errors=st.booleans(),
        poisson=st.booleans(),
    )
    def test_batch_equals_each_record_alone(self, states, plate_errors, poisson):
        noise = NoiseModel(waveplate_error_sigma=np.deg2rad(0.2) if plate_errors else 0.0, poisson=poisson)
        rhos = [_state(seed, pure) for seed, pure in states]
        streams = [np.random.default_rng(seed) for seed, _ in states]
        many = simulate_counts_many(rhos, 5400.0, 5.0, noise, streams)
        assert len(many) == len(rhos)
        for (seed, _), rho, record in zip(states, rhos, many):
            alone = simulate_counts(rho, 5400.0, 5.0, noise, np.random.default_rng(seed))
            np.testing.assert_array_equal(record.counts, alone.counts)
            assert (record.duration_s, record.flux_hz) == (5.0, 5400.0)

    def test_analyzers_match_plate_products(self):
        errors = np.random.default_rng(3).normal(0.0, 0.05, size=(7, 2))
        for basis, (q, h) in ANALYZER_PLATES.items():
            expected = np.stack([hwp(h + dh) @ qwp(q + dq) for dq, dh in errors])
            np.testing.assert_allclose(measurement._analyzers(basis, errors), expected, rtol=0, atol=1e-15)

    def test_argument_checks_and_empty_batch(self):
        rho = linalg.werner(1.0)
        with pytest.raises(ValueError):
            simulate_counts_many([rho, rho], 5400.0, 5.0, NoiseModel(), [np.random.default_rng(0)])
        with pytest.raises(ValueError):
            simulate_counts_many([2 * rho], 5400.0, 5.0, NoiseModel(), [np.random.default_rng(0)])
        assert simulate_counts_many([], 5400.0, 5.0, NoiseModel(), []) == []


class TestCountRecord:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            CountRecord(counts=np.full(36, -1), duration_s=5.0, flux_hz=5400.0)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            CountRecord(counts=np.zeros(35, dtype=int), duration_s=5.0, flux_hz=5400.0)


class TestNoiseModel:
    def test_rejects_bad_werner(self):
        with pytest.raises(ValueError):
            NoiseModel(werner_v=1.5)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseModel(drift_sigma=-0.1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_sigma(self, value):
        with pytest.raises(ValueError):
            NoiseModel(drift_sigma=value)
        with pytest.raises(ValueError):
            NoiseModel(waveplate_error_sigma=value)


class TestDriftState:
    def test_zero_sigma_is_identity(self):
        rho = linalg.werner(0.9)
        out = drift_state(rho, NoiseModel(werner_v=0.9, drift_sigma=0.0))
        np.testing.assert_array_equal(out, rho)

    def test_output_is_valid_state(self):
        noise = NoiseModel(werner_v=0.9, drift_sigma=0.1)
        rng = np.random.default_rng(4)
        rho = linalg.werner(0.9)
        for _ in range(20):
            out = drift_state(rho, noise, rng)
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            np.testing.assert_allclose(
                np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-10
            )

    def test_calibrated_stability_level(self):
        # consecutive drifted copies of werner(0.98267): fidelity std should
        # sit within a factor 2 of the reference 8e-4
        base = linalg.werner(0.98267)
        noise = NoiseModel(werner_v=0.98267, drift_sigma=DEFAULT_DRIFT_SIGMA)
        rng = np.random.default_rng(1234)
        states = [drift_state(base, noise, rng) for _ in range(400)]
        fids = [fidelity(states[i], states[i + 1]) for i in range(len(states) - 1)]
        sigma = float(np.std(fids, ddof=1))
        assert 0.0004 <= sigma <= 0.0016
