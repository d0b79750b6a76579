"""Tests for iterative maximum-likelihood reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from envarsim import linalg
from envarsim.harness import ExperimentPlan, calibrated_noise, simulate_grid
from envarsim.measurement import (
    CountRecord,
    NoiseModel,
    simulate_counts,
    tomography_projectors,
)
from envarsim.metrics import fidelity
from envarsim.tomography import mle_reconstruct, mle_reconstruct_many


def _noiseless_counts(rho, pairs_per_setting=1e6):
    return simulate_counts(rho, pairs_per_setting, 1.0, NoiseModel.noiseless())


class TestMleReconstruct:
    def test_noiseless_singlet(self):
        rho = linalg.projector(linalg.singlet())
        res = mle_reconstruct(_noiseless_counts(rho), tomography_projectors())
        assert fidelity(res.rho, rho) >= 0.9999

    def test_uniform_counts_fixed_point(self):
        rec = CountRecord(counts=np.full(36, 5000), duration_s=1.0, flux_hz=180000.0)
        res = mle_reconstruct(rec, tomography_projectors())
        np.testing.assert_allclose(res.rho, np.eye(4) / 4, atol=1e-6)
        assert res.converged

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(2)
        noise = NoiseModel(werner_v=0.98267, poisson=True)
        for _ in range(5):
            counts = simulate_counts(linalg.werner(0.98267), 5400.0, 5.0, noise, rng)
            res = mle_reconstruct(counts, tomography_projectors())
            ll = np.array(res.log_likelihood_history)
            slack = 1e-12 * (1 + np.abs(ll[:-1]))
            assert np.all(np.diff(ll) >= -slack)

    def test_result_is_physical(self):
        rng = np.random.default_rng(3)
        counts = simulate_counts(linalg.werner(0.9), 5400.0, 5.0, NoiseModel(werner_v=0.9), rng)
        res = mle_reconstruct(counts, tomography_projectors())
        assert abs(np.trace(res.rho).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(res.rho).min() >= -1e-10
        assert np.isfinite(res.log_likelihood)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        counts = simulate_counts(linalg.werner(0.95), 5400.0, 5.0, NoiseModel(werner_v=0.95), rng)
        projs = tomography_projectors()
        base = mle_reconstruct(counts, projs).rho

        perm = np.random.default_rng(0).permutation(9)
        blocks = counts.counts.reshape(9, 4)[perm].reshape(36)
        rec_p = CountRecord(counts=blocks, duration_s=counts.duration_s, flux_hz=counts.flux_hz)
        from envarsim.measurement import ProjectorSet

        projs_p = ProjectorSet(settings=tuple(projs.settings[i] for i in perm))
        permuted = mle_reconstruct(rec_p, projs_p).rho
        np.testing.assert_allclose(permuted, base, atol=1e-10)

    def test_poisson_reconstruction_quality(self):
        # lighter companion of the acceptance-gate Monte Carlo
        base = linalg.werner(0.98267)
        noise = NoiseModel(werner_v=0.98267, poisson=True)
        fids = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            counts = simulate_counts(base, 5400.0, 5.0, noise, rng)
            fids.append(fidelity(mle_reconstruct(counts, tomography_projectors()).rho, base))
        assert np.median(fids) >= 0.995

    def test_error_decreases_with_flux(self):
        base = linalg.werner(0.98267)
        noise = NoiseModel(werner_v=0.98267, poisson=True)
        medians = []
        for pairs in (1e4, 1e5, 1e6):
            errs = []
            for seed in range(8):
                rng = np.random.default_rng(seed)
                counts = simulate_counts(base, pairs, 1.0, noise, rng)
                errs.append(1 - fidelity(mle_reconstruct(counts, tomography_projectors()).rho, base))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]

    def test_rejects_bad_arguments(self):
        rec = CountRecord(counts=np.full(36, 10), duration_s=1.0, flux_hz=100.0)
        with pytest.raises(ValueError):
            mle_reconstruct(rec, tomography_projectors(), max_iter=0)
        with pytest.raises(ValueError):
            mle_reconstruct(rec, tomography_projectors(), tol=0.0)


def _records(batch: np.ndarray) -> list[CountRecord]:
    counts = batch.reshape(-1, 9, 4).copy()
    counts[counts.sum(axis=2) == 0, 0] = 1  # every setting needs a count
    return [CountRecord(counts=c.reshape(36), duration_s=1.0, flux_hz=float(c.sum())) for c in counts]


# B from 1 to 8 records of 36 counts, many outcomes at zero
count_batches = st.integers(1, 8).flatmap(
    lambda b: arrays(np.int64, (b, 36), elements=st.one_of(st.just(0), st.integers(1, 20000)))
)
# short runs keep the examples fast and reach max_iter as well as convergence
run_lengths = st.integers(1, 300)
tolerances = st.sampled_from([1e-2, 1e-4, 1e-6])


class TestMleReconstructMany:
    @settings(max_examples=40, deadline=None)
    @given(batch=count_batches, max_iter=run_lengths, tol=tolerances)
    def test_batch_equals_each_record_alone(self, batch, max_iter, tol):
        records = _records(batch)
        projs = tomography_projectors()
        many = mle_reconstruct_many(records, projs, max_iter=max_iter, tol=tol)
        assert len(many) == len(records)
        for record, res in zip(records, many):
            alone = mle_reconstruct(record, projs, max_iter=max_iter, tol=tol)
            np.testing.assert_array_equal(res.rho, alone.rho)
            assert res.iterations == alone.iterations
            assert res.converged == alone.converged
            np.testing.assert_array_equal(res.log_likelihood_history, alone.log_likelihood_history)
            assert len(res.log_likelihood_history) == res.iterations + 1

    @settings(max_examples=40, deadline=None)
    @given(batch=count_batches, max_iter=run_lengths, tol=tolerances)
    def test_every_result_is_physical(self, batch, max_iter, tol):
        for res in mle_reconstruct_many(_records(batch), tomography_projectors(), max_iter=max_iter, tol=tol):
            assert np.max(np.abs(res.rho - res.rho.conj().T)) <= 1e-10
            assert abs(np.trace(res.rho).real - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(res.rho).min() >= -1e-10

    def test_records_retire_at_their_own_iteration(self):
        # a near-pure and a strongly mixed state stop many iterations apart
        rng = np.random.default_rng(6)
        singlet = _noiseless_counts(linalg.projector(linalg.singlet()))
        mixed = simulate_counts(linalg.werner(0.5), 5400.0, 5.0, NoiseModel(werner_v=0.5), rng)
        projs = tomography_projectors()
        many = mle_reconstruct_many([singlet, mixed, singlet], projs)
        alone = [mle_reconstruct(r, projs) for r in (singlet, mixed)]
        assert many[0].iterations != many[1].iterations
        assert [r.iterations for r in many] == [alone[0].iterations, alone[1].iterations, alone[0].iterations]
        assert all(r.converged for r in many)

    def test_empty_batch(self):
        assert mle_reconstruct_many([], tomography_projectors()) == []


def _einsum_mle(records, projectors, max_iter=5000, tol=1e-6):
    """Oracle: the R-rho-R loop with ``einsum`` contractions, a Hermitize-then-divide
    normalization and the eigenvalue trace distance at every step.

    Returns the final states (eigenvalues clipped at 0), iterations, convergence
    flags and log-likelihood histories (one entry per iteration, then the final state's).
    """
    flat_re = projectors.flat_projectors.view(float).reshape(36, 32)
    raw = np.stack([r.counts for r in records]).astype(float)
    freqs = (raw.reshape(-1, 9, 4) / raw.reshape(-1, 9, 4).sum(-1, keepdims=True)).reshape(-1, 36)

    def log_likelihood(rows, rho):
        probs = np.clip(np.einsum("ak,bk->ba", flat_re, rho.view(float).reshape(-1, 32)), 1e-12, None)
        return probs, (raw[rows] * np.log(probs)).sum(-1)

    rho = np.tile(np.eye(4, dtype=complex) / 4, (len(records), 1, 1))
    iterations = np.full(len(records), max_iter)
    histories = [[] for _ in records]
    active = np.arange(len(records))
    for it in range(1, max_iter + 1):
        probs, ll = log_likelihood(active, rho[active])
        for b, value in zip(active, ll):
            histories[b].append(value)
        r_op = np.einsum("ba,ak->bk", freqs[active] / probs, flat_re).view(complex).reshape(-1, 4, 4)
        nxt = r_op @ rho[active] @ r_op
        nxt = (nxt + nxt.transpose(0, 2, 1).conj()) / 2
        nxt = nxt / np.trace(nxt, axis1=1, axis2=2).real[:, None, None]
        done = linalg.trace_distance(nxt, rho[active]) < tol
        rho[active] = nxt
        iterations[active[done]] = it
        active = active[~done]
        if not active.size:
            break
    for b, value in enumerate(log_likelihood(np.arange(len(records)), rho)[1]):
        histories[b].append(value)
    w, v = np.linalg.eigh(rho)
    rho = (v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2
    rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return rho, iterations, ~np.isin(np.arange(len(records)), active), histories


def test_kernel_matches_einsum_oracle_on_the_calibrated_grid():
    plan = ExperimentPlan(noise=calibrated_noise())
    records = [stage.counts for stages in simulate_grid(plan).values() for stage in stages]
    assert len(records) == 156
    projs = tomography_projectors()
    rho, iterations, converged, histories = _einsum_mle(records, projs)
    results = mle_reconstruct_many(records, projs)
    assert [r.iterations for r in results] == iterations.tolist()
    assert [r.converged for r in results] == converged.tolist()
    assert np.max(np.abs(np.stack([r.rho for r in results]) - rho)) <= 1e-14
    for res, history in zip(results, histories):
        np.testing.assert_allclose(res.log_likelihood_history, history, rtol=1e-12, atol=0)
