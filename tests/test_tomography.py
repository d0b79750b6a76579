"""Tests for iterative maximum-likelihood reconstruction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from envarsim import linalg, tomography
from envarsim.harness import ExperimentPlan, calibrated_noise, simulate_grid
from envarsim.measurement import (
    CountRecord,
    NoiseModel,
    simulate_counts,
    tomography_projectors,
)
from envarsim.metrics import fidelity
from envarsim.tomography import mle_reconstruct, mle_reconstruct_many
from helpers import random_density_matrix, random_unitary


def _noiseless_counts(rho, pairs_per_setting=1e6):
    return simulate_counts(rho, pairs_per_setting, 1.0, NoiseModel.noiseless())


class TestMleReconstruct:
    def test_noiseless_singlet(self):
        rho = linalg.projector(linalg.singlet())
        res = mle_reconstruct(_noiseless_counts(rho), tomography_projectors())
        assert fidelity(res.rho, rho) >= 0.9999

    def test_uniform_counts_fixed_point(self):
        rec = CountRecord(counts=np.full(36, 5000), duration_s=1.0)
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
        rec_p = CountRecord(counts=blocks, duration_s=counts.duration_s)
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
        rec = CountRecord(counts=np.full(36, 10), duration_s=1.0)
        with pytest.raises(ValueError):
            mle_reconstruct(rec, tomography_projectors(), max_iter=0)
        with pytest.raises(ValueError):
            mle_reconstruct(rec, tomography_projectors(), tol=0.0)

    # nan ran all 5000 iterations and inf stopped every record at the first;
    # True and 2.5 failed inside the loop with IndexError and TypeError
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-6])
    def test_rejects_a_tol_that_is_not_finite_and_positive(self, tol):
        rec = CountRecord(counts=np.full(36, 10), duration_s=1.0)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            mle_reconstruct_many([rec], tomography_projectors(), tol=tol)

    @pytest.mark.parametrize("max_iter", [True, False, 2.5, 3.0, "10", -2, np.int64(0)])
    def test_rejects_a_max_iter_that_is_not_a_positive_integer(self, max_iter):
        rec = CountRecord(counts=np.full(36, 10), duration_s=1.0)
        with pytest.raises(ValueError, match="max_iter must be a positive integer"):
            mle_reconstruct_many([rec], tomography_projectors(), max_iter=max_iter)

    def test_takes_a_numpy_integer_max_iter(self):
        rec = CountRecord(counts=np.arange(1, 37), duration_s=1.0)
        projs = tomography_projectors()
        result = mle_reconstruct(rec, projs, max_iter=np.int64(7))
        assert result.iterations == mle_reconstruct(rec, projs, max_iter=7).iterations <= 7
        np.testing.assert_array_equal(result.rho, mle_reconstruct(rec, projs, max_iter=7).rho)


def _records(batch: np.ndarray) -> list[CountRecord]:
    counts = batch.reshape(-1, 9, 4).copy()
    counts[counts.sum(axis=2) == 0, 0] = 1  # every setting needs a count
    return [CountRecord(counts=c.reshape(36), duration_s=1.0) for c in counts]


# B from 1 to 8 records of 36 counts, many outcomes at zero
count_batches = st.integers(1, 8).flatmap(
    lambda b: arrays(np.int64, (b, 36), elements=st.one_of(st.just(0), st.integers(1, 20000)))
)
# the same batches, or rows of a drawn batch picked with repetition: equal records in one batch
batches_with_repeats = st.one_of(
    count_batches,
    count_batches.flatmap(lambda batch: st.lists(st.integers(0, len(batch) - 1), min_size=1, max_size=8).map(batch.__getitem__)),
)
# short runs keep the examples fast and reach max_iter as well as convergence
run_lengths = st.integers(1, 300)
tolerances = st.sampled_from([1e-2, 1e-4, 1e-6])


class TestMleReconstructMany:
    @settings(max_examples=40, deadline=None)
    @given(batch=batches_with_repeats, max_iter=run_lengths, tol=tolerances)
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

    def test_the_history_is_computed_on_first_read_and_kept(self):
        rng = np.random.default_rng(9)
        record = simulate_counts(linalg.werner(0.9), 5400.0, 5.0, NoiseModel(werner_v=0.9), rng)
        res = mle_reconstruct(record, tomography_projectors())
        assert "log_likelihood_history" not in vars(res)
        history = res.log_likelihood_history
        assert res.log_likelihood_history is history
        assert not history.flags.writeable
        assert len(history) == res.iterations + 1
        assert history[-1].tobytes() == np.float64(res.log_likelihood).tobytes()

    def test_empty_batch(self):
        assert mle_reconstruct_many([], tomography_projectors()) == []

    def test_distinct_records_get_their_one_record_results(self):
        rng = np.random.default_rng(8)
        records = [simulate_counts(linalg.werner(v), 5400.0, 5.0, NoiseModel(werner_v=v), rng) for v in (0.9, 0.6, 0.75)]
        projs = tomography_projectors()
        many = mle_reconstruct_many(records, projs)
        for record, res in zip(records, many):
            alone = mle_reconstruct(record, projs)
            np.testing.assert_array_equal(res.rho, alone.rho)
            assert (res.iterations, res.converged) == (alone.iterations, alone.converged)
            np.testing.assert_array_equal(res.log_likelihood_history, alone.log_likelihood_history)
        assert not any(np.shares_memory(x.rho, y.rho) for i, x in enumerate(many) for y in many[i + 1 :])

    @pytest.mark.parametrize("empty", [slice(8, 12), slice(None)], ids=["one-empty-setting", "all-36-zero"])
    def test_rejects_a_record_with_an_empty_setting(self, empty):
        # with R built from counts, an all-zero record would make R 0 and the step's normalization 0/0
        counts = np.full(36, 50)
        counts[empty] = 0
        good = CountRecord(counts=np.full(36, 50), duration_s=1.0)
        with pytest.raises(ValueError, match="every setting needs at least one positive count"):
            mle_reconstruct_many([good, CountRecord(counts=counts, duration_s=1.0)], tomography_projectors())

    def test_equal_records_are_reconstructed_once(self, monkeypatch):
        calls = []

        steps_below = tomography._steps_below

        def counting(blk, tol):
            calls.append((len(blk) - 1, blk.shape[1]))
            return steps_below(blk, tol)

        monkeypatch.setattr(tomography, "_steps_below", counting)
        rng = np.random.default_rng(7)
        a, b = (simulate_counts(linalg.werner(v), 5400.0, 5.0, NoiseModel(werner_v=v), rng) for v in (0.9, 0.6))
        projs = tomography_projectors()
        many = mle_reconstruct_many([a, b, a, a], projs)
        assert calls[0][1] == 2
        for record, res in zip([a, b, a, a], many):
            alone = mle_reconstruct(record, projs)
            np.testing.assert_array_equal(res.rho, alone.rho)
            assert (res.iterations, res.converged) == (alone.iterations, alone.converged)
            np.testing.assert_array_equal(res.log_likelihood_history, alone.log_likelihood_history)
        assert not any(np.shares_memory(x.rho, y.rho) for i, x in enumerate(many) for y in many[i + 1 :])


# entries of magnitude 1e-3 to 4 or zero: no product underflows, so a rounding error stays relative
_entries = st.one_of(st.just(0.0), st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))
# B from 1 to 8: a Hermitian R, a density matrix rho and the 36 weights w of an R = sum_a w_a P_a per record
r_rho_batches = st.integers(1, 8).flatmap(
    lambda b: st.tuples(
        arrays(np.float64, (b, 4, 4, 2), elements=_entries),
        arrays(np.float64, (b, 4, 4, 2), elements=_entries),
        arrays(np.float64, (b, 1, 36), elements=st.floats(0.0, 1e3)),
    )
)


@settings(max_examples=60, deadline=None)
@given(batch=r_rho_batches)
def test_real_r_rho_r_equals_the_complex_product(batch):
    """The step's R rho R in real arithmetic: y = rho R on E(R), then y^dag R."""
    r_parts, m_parts, weights = batch
    r = r_parts[..., 0] + 1j * r_parts[..., 1]
    r = (r + r.conj().transpose(0, 2, 1)) / 2
    m = m_parts[..., 0] + 1j * m_parts[..., 1]
    rho = m @ m.conj().transpose(0, 2, 1) + np.eye(4)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]

    e_r = tomography._mult_matrices(r)
    got = tomography._r_rho_r(e_r, rho, np.empty_like(rho))
    want = r @ rho @ r
    # rounding is relative to |R| |rho| |R|, the size of the terms each entry sums
    scale = (np.abs(r) @ np.abs(rho) @ np.abs(r)).max(axis=(1, 2))
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-14 * scale)

    # E(R) from the weights through the (36, 64) map: its (k, re) rows are the R the step used to build
    flat = tomography_projectors().flat_projectors
    flat_re = flat.view(float).reshape(36, 32)
    mult = tomography._mult_matrices(flat).reshape(36, 64)
    e_w = (weights @ mult).reshape(-1, 8, 8)
    r_w = weights @ flat_re
    np.testing.assert_array_equal(e_w[:, 0::2], r_w.reshape(-1, 4, 8))
    np.testing.assert_array_equal(e_w, tomography._mult_matrices(r_w.view(complex).reshape(-1, 4, 4)))

    # every row is its one-row call, bit for bit
    for b in range(len(rho)):
        np.testing.assert_array_equal(weights[b : b + 1] @ mult, (weights @ mult)[b : b + 1])
        alone = tomography._r_rho_r(e_r[b : b + 1], rho[b : b + 1], np.empty_like(rho[b : b + 1]))
        np.testing.assert_array_equal(alone[0], got[b])


def _einsum_mle(records, projectors, max_iter=5000, tol=1e-6):
    """Oracle: the R-rho-R loop with ``einsum`` contractions, a Hermitize-then-divide
    normalization and the eigenvalue trace distance at every step.

    Returns the final states (eigenvalues clipped at 0), iterations, convergence
    flags, log-likelihood histories (one entry per iteration, then the final state's),
    which final iterates had an eigenvalue below 0 to clip, and each record's trace
    distance at every step.
    """
    flat_re = projectors.flat_projectors.view(float).reshape(36, 32)
    raw = np.stack([r.counts for r in records]).astype(float)

    def log_likelihood(rows, rho):
        probs = np.clip(np.einsum("ak,bk->ba", flat_re, rho.view(float).reshape(-1, 32)), 1e-12, None)
        return probs, (raw[rows] * np.log(probs)).sum(-1)

    rho = np.tile(np.eye(4, dtype=complex) / 4, (len(records), 1, 1))
    iterations = np.full(len(records), max_iter)
    histories = [[] for _ in records]
    distances = [[] for _ in records]
    active = np.arange(len(records))
    for it in range(1, max_iter + 1):
        probs, ll = log_likelihood(active, rho[active])
        for b, value in zip(active, ll):
            histories[b].append(value)
        r_op = np.einsum("ba,ak->bk", raw[active] / probs, flat_re).view(complex).reshape(-1, 4, 4)
        nxt = r_op @ rho[active] @ r_op
        nxt = (nxt + nxt.transpose(0, 2, 1).conj()) / 2
        nxt = nxt / np.trace(nxt, axis1=1, axis2=2).real[:, None, None]
        dist = linalg.trace_distance(nxt, rho[active])
        for b, value in zip(active, dist):
            distances[b].append(value)
        done = dist < tol
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
    return rho, iterations, ~np.isin(np.arange(len(records)), active), histories, w.min(axis=1) < 0, distances


def test_kernel_matches_einsum_oracle_on_the_calibrated_grid():
    _assert_kernel_matches_einsum_oracle(ExperimentPlan(noise=calibrated_noise()))


def test_kernel_matches_einsum_oracle_on_the_noiseless_grid():
    # criterion 1's grid: near-pure states, a tail of runs past 700 iterations, and
    # about 20 records whose final iterate has an eigenvalue below 0 to clip, which
    # the calibrated grid never reaches
    plan = ExperimentPlan(flux_hz=2e5, duration_s=5.0, noise=NoiseModel.noiseless(), seed=1)
    iterations, clipped = _assert_kernel_matches_einsum_oracle(plan)
    assert max(iterations) > 700
    assert clipped.any()


def _assert_kernel_matches_einsum_oracle(plan):
    records = [stage.counts for stages in simulate_grid(plan).values() for stage in stages]
    assert len(records) == 156
    projs = tomography_projectors()
    rho, iterations, converged, histories, clipped, _ = _einsum_mle(records, projs)
    results = mle_reconstruct_many(records, projs)
    assert [r.iterations for r in results] == iterations.tolist()
    assert [r.converged for r in results] == converged.tolist()
    assert np.max(np.abs(np.stack([r.rho for r in results]) - rho)) <= 1e-14
    for res, history in zip(results, histories):
        np.testing.assert_allclose(res.log_likelihood_history, history, rtol=1e-12, atol=0)
    return iterations.tolist(), clipped


# The MLE decides stops once per block of K steps: runs that end on either side of a block edge
K = tomography._BLOCK
EDGE_MAX_ITERS = (1, K - 1, K, K + 1, 2 * K + 3)
# a block's last step, the next block's first, and the last step of a last block cut to 3 steps
EDGE_STOPS = (K, K + 1, 2 * K, 2 * K + 1, 2 * K + 3)


def _edge_records(stop):
    """Uniform counts (I/4 is the fixed point: a stop at iteration 1, a block's first step),
    a noisy Werner record and a tol under which the Werner record stops at iteration ``stop``.

    The tol lies between the record's trace-distance step at ``stop`` and the smallest step
    before it, by the oracle, so it stops there in both implementations.
    """
    rng = np.random.default_rng(11)
    werner = simulate_counts(linalg.werner(0.9), 5400.0, 5.0, NoiseModel(werner_v=0.9, poisson=True), rng)
    uniform = CountRecord(counts=np.full(36, 5000), duration_s=1.0)
    steps = np.array(_einsum_mle([werner], tomography_projectors(), max_iter=max(EDGE_STOPS), tol=1e-300)[5][0])
    assert steps[stop - 1] < steps[: stop - 1].min()
    return [uniform, werner, uniform], float(np.sqrt(steps[stop - 1] * steps[: stop - 1].min()))


@pytest.mark.parametrize("stop", EDGE_STOPS)
@pytest.mark.parametrize("max_iter", EDGE_MAX_ITERS)
def test_block_edges_match_the_oracle_and_each_record_alone(max_iter, stop):
    records, tol = _edge_records(stop)
    projs = tomography_projectors()
    rho, iterations, converged, histories, _, _ = _einsum_mle(records, projs, max_iter=max_iter, tol=tol)
    assert iterations.tolist() == [1, min(stop, max_iter), 1]
    assert converged[1] == (stop <= max_iter)
    many = mle_reconstruct_many(records, projs, max_iter=max_iter, tol=tol)
    assert [r.iterations for r in many] == iterations.tolist()
    assert [r.converged for r in many] == converged.tolist()
    for b, (res, record) in enumerate(zip(many, records)):
        assert np.max(np.abs(res.rho - rho[b])) <= 1e-14
        assert len(res.log_likelihood_history) == res.iterations + 1
        np.testing.assert_allclose(res.log_likelihood_history, histories[b], rtol=1e-12, atol=0)
        alone = mle_reconstruct(record, projs, max_iter=max_iter, tol=tol)
        assert (alone.iterations, alone.converged) == (res.iterations, res.converged)
        np.testing.assert_array_equal(alone.rho, res.rho)
        np.testing.assert_array_equal(alone.log_likelihood_history, res.log_likelihood_history)


@pytest.mark.parametrize("max_iter", EDGE_MAX_ITERS)
def test_stops_are_tested_once_per_block(monkeypatch, max_iter):
    calls = []

    steps_below = tomography._steps_below

    def counting(blk, tol):
        calls.append((len(blk) - 1, blk.shape[1]))
        return steps_below(blk, tol)

    monkeypatch.setattr(tomography, "_steps_below", counting)
    records, tol = _edge_records(2 * K + 1)
    many = mle_reconstruct_many(records, tomography_projectors(), max_iter=max_iter, tol=tol)
    last = max(r.iterations for r in many)
    # both distinct records in the first block (the two uniform records are one), then the Werner
    # record alone; the last block is cut to max_iter, and the block where the Werner record stops runs in full
    blocks = [(min(K, max_iter - it0), 2 if it0 == 0 else 1) for it0 in range(0, last, K)]
    assert calls == blocks


def test_the_likelihood_gap_bound_closes_at_a_tight_tol():
    """L(rho) = sum_a n_a log Tr(P_a rho) is concave, so no state beats the reconstruction's L by
    more than lambda_max(R_n) - N, with R_n = sum_a n_a P_a / Tr(P_a rho) and N the total count.
    Run to tol 1e-8, the step's fixed point is L's maximum, so that bound falls to near 0."""
    records = [stage.counts for stages in simulate_grid(ExperimentPlan(noise=calibrated_noise())).values() for stage in stages]
    assert len(records) == 156
    projs = tomography_projectors()
    results = mle_reconstruct_many(records, projs, max_iter=10_000, tol=1e-8)
    assert all(r.converged for r in results)
    projectors = projs.flat_projectors.reshape(36, 4, 4)
    counts = np.stack([r.counts for r in records]).astype(float)
    probs = np.einsum("aij,bji->ba", projectors, np.stack([r.rho for r in results])).real
    r_n = np.einsum("ba,aij->bij", counts / probs, projectors)
    gap = np.linalg.eigvalsh(r_n)[:, -1] - counts.sum(axis=1)
    assert gap.min() >= -1e-9
    assert gap.max() < 0.3


def test_one_grid_call_stays_within_its_memory_bounds():
    """One warm call over the default grid's 156 records, traced by tracemalloc: the loop
    keeps no likelihood history and its stop test no stack of a block's differences, so its
    peak and the results it returns stay small (0.92 and 0.16 MiB on numpy 2.4; a 0.95 MiB
    peak when the block's norm arrays were held across its steps, 1.37 MiB when the stop test
    formed the (12, 156) difference stack, and 1.83 and 0.73 MiB when the loop also kept the
    histories)."""
    records = [stage.counts for stages in simulate_grid(ExperimentPlan(noise=calibrated_noise())).values() for stage in stages]
    assert len(records) == 156
    projs = tomography_projectors()
    mle_reconstruct_many(records, projs)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        results = mle_reconstruct_many(records, projs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == 156
    assert (peak - entry) / 2**20 < 1.2
    assert (held - entry) / 2**20 < 0.3


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


def _below(a, b, tol):
    """``trace_distance(a, b) < tol`` by the MLE's stop rule ``tomography._steps_below``, in the
    leading shape of d = a - b. The rule gets each d as one step of a (1, N) block whose iterates
    step from 0 to d: d - 0 is d, the same matrices trace_distance(a, b) takes apart."""
    d = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    stack = d.reshape(-1, 4, 4)
    below = tomography._steps_below(np.stack([np.zeros_like(stack), stack]), tol)
    return below.reshape(d.shape[:-2])


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
        np.testing.assert_array_equal(_below(a, b, tol), linalg.trace_distance(a, b) < tol)

    def test_decides_far_rows_without_eigenvalues(self, monkeypatch):
        rng = np.random.default_rng(4)
        b = np.stack([random_density_matrix(4, rng) for _ in range(3)])
        steps = np.stack([_unit_step(rng, "random") for _ in range(3)])
        a = b + np.array([0.5, 1.5, 3.0])[:, None, None] * 1e-6 * steps
        seen = []
        original = linalg.trace_distance
        monkeypatch.setattr(tomography, "trace_distance", lambda x, y: seen.append(len(x)) or original(x, y))
        np.testing.assert_array_equal(_below(a, b, 1e-6), original(a, b) < 1e-6)
        assert seen == []

    def test_two_matrices_give_one_bool(self):
        # each row of a 4x4 matrix was taken for a matrix, and 4 bools came back
        rng = np.random.default_rng(5)
        a = random_density_matrix(4, rng)
        below = _below(a, a, 1e-6)
        assert below.shape == () and bool(below) is True
        b = a + 3e-6 * _unit_step(rng, "random")
        below = _below(a, b, 1e-6)
        assert below.shape == () and bool(below) is (linalg.trace_distance(a, b) < 1e-6) is False

    def test_broadcasts_over_leading_axes_as_trace_distance_does(self):
        rng = np.random.default_rng(6)
        b = random_density_matrix(4, rng)
        scales = np.array([[0.5, 1.5, 3.0], [1.2, 1.9, 0.1]])[..., None, None]
        a = b + scales * 1e-6 * np.stack([_unit_step(rng, "random") for _ in range(6)]).reshape(2, 3, 4, 4)
        below = _below(a, b, 1e-6)
        assert below.shape == (2, 3)
        np.testing.assert_array_equal(below, linalg.trace_distance(a, b) < 1e-6)

    def test_empty_stack_gives_an_empty_array(self):
        empty = np.zeros((0, 4, 4), dtype=complex)
        assert _below(empty, empty, 1e-6).shape == linalg.trace_distance(empty, empty).shape == (0,)


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
@pytest.mark.parametrize("b", [1, 43, 100, 171, 600])
@pytest.mark.parametrize("k", [1, 5, 12])
def test_the_block_rule_equals_trace_distance_across_norm_chunks(k, b, tol):
    """``_steps_below`` takes a block's norms max(1, 512 // B) steps per call, so B = 43, 100 and
    171 end a block of 12 or 5 steps in a partial chunk, and B = 600 takes one step per call.
    Every step's trace distance sits at a factor of tol: near 1 the norm bounds leave it open."""
    rng = np.random.default_rng([k, b, round(-np.log10(tol))])
    a = rng.normal(size=(k, b, 4, 4)) + 1j * rng.normal(size=(k, b, 4, 4))
    steps = a + np.conj(np.swapaxes(a, -1, -2))
    # the MLE's steps join unit-trace iterates, so most are traceless; about one in four keeps its trace
    steps[..., np.arange(4), np.arange(4)] -= (np.trace(steps, axis1=-2, axis2=-1) / 4)[..., None] * (rng.random((k, b, 1)) < 0.75)
    # far below and above tol first, so that even a block of one row and 5 steps straddles it
    factors = [0.5, 2.5, 1 - 1e-12, 1 + 1e-12, 1 - 1e-9, 1 + 1e-9, 1 - 1e-6, 1 + 1e-6, 0.9, 1.1]
    factors = rng.permutation(np.resize(factors, k * b)).reshape(k, b)
    steps *= (tol * factors / linalg.trace_distance(steps, np.zeros_like(steps)))[..., None, None]
    blk = np.concatenate([np.stack([random_density_matrix(4, rng) for _ in range(b)])[None], steps]).cumsum(axis=0)
    below = tomography._steps_below(blk, tol)
    expected = linalg.trace_distance(blk[1:], blk[:-1]) < tol
    assert below.shape == (k, b) and (0 < expected.sum() < expected.size or k * b == 1)
    np.testing.assert_array_equal(below, expected)


def _rank2_step(rng: np.random.Generator, eps: float) -> np.ndarray:
    """A 4x4 Hermitian step of unit Frobenius norm with spectrum proportional to (1, -1, eps, -eps)."""
    u = random_unitary(4, rng)
    d = (u * np.array([1.0, -1.0, eps, -eps])) @ u.conj().T
    return d / np.linalg.norm(d)


def _rank2_trace_norm(eps: float) -> float:
    """||d||_1 of the unit-Frobenius ``_rank2_step``."""
    return (2 + 2 * eps) / np.sqrt(2 + 2 * eps**2)


# traceless near-flat spectra, where the trace-corrected bound ||d||_1^2 >= 2 ||d||_F^2 - (Tr d)^2
# is tight (eps = 0) or nearly so;
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


def _traceless_step(rng: np.random.Generator, rank: int | None) -> np.ndarray:
    """A 4x4 Hermitian step of unit Frobenius norm with a random zero-sum spectrum of ``rank``
    nonzero eigenvalues, or with the spectrum (3, -1, -1, -1) for ``rank=None``."""
    if rank is None:
        spectrum = np.array([3.0, -1.0, -1.0, -1.0])
    else:
        spectrum = np.zeros(4)
        spectrum[:rank] = rng.normal(size=rank)
        spectrum[:rank] -= spectrum[:rank].mean()
    u = random_unitary(4, rng)
    d = (u * spectrum) @ u.conj().T
    return d / np.linalg.norm(d)


# traceless steps of Frobenius norm scale * tol, scale in [sqrt(2) (1 + 1e-8), 2]: the Frobenius
# bound leaves each open, and ||d||_1 >= sqrt(2) ||d||_F puts its trace distance above tol; the
# first row of every example has the spectrum (3, -1, -1, -1), where Hölder's lower bound
# ||d||_F^3 / ||d^2||_F reaches only 1.31 ||d||_F
_SQRT2_UP = np.sqrt(2) * (1 + 1e-8)
traceless_rows = st.lists(
    st.tuples(
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, 2, 3, 4]),
        st.one_of(st.sampled_from([_SQRT2_UP, 1.45, 2.0]), st.floats(_SQRT2_UP, 2.0)),
    ),
    min_size=1,
    max_size=8,
).map(lambda rows: [(rows[0][0], None, rows[0][2])] + rows[1:])


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
        np.testing.assert_array_equal(_below(a, b, tol), linalg.trace_distance(a, b) < tol)

    @pytest.mark.parametrize("tol", [1e-6, 1e-80])
    def test_rank2_step_is_decided_without_eigenvalues(self, monkeypatch, tol):
        # F = 1.9 tol lies inside the Frobenius bound's open interval [tol / 2, 2 tol] of ||d||_F / 2 ...
        rng = np.random.default_rng(8)
        a = 1.9 * tol * np.stack([_rank2_step(rng, 0.0), _rank2_step(rng, 1e-3)])
        b = np.zeros_like(a)
        seen = []
        original = linalg.trace_distance
        monkeypatch.setattr(tomography, "trace_distance", lambda x, y: seen.append(len(x)) or original(x, y))
        # ... and its trace distance, 1.9 tol / sqrt(2) or more, is above tol by the trace-corrected bound
        np.testing.assert_array_equal(_below(a, b, tol), [False, False])
        assert seen == []
        assert np.all(original(a, b) >= tol)

    @settings(max_examples=100, deadline=None)
    @given(rows=traceless_rows, tol=st.sampled_from([1e-3, 1e-6, 1e-80]))
    def test_traceless_steps_are_decided_without_eigenvalues(self, rows, tol):
        a, b = [], []
        for seed, rank, scale in rows:
            rng = np.random.default_rng(seed)
            # a 1e-80 step vanishes when added to a density matrix, so it is taken from zero
            base = np.zeros((4, 4), dtype=complex) if tol < 1e-20 else random_density_matrix(4, rng)
            b.append(base)
            a.append(base + scale * tol * _traceless_step(rng, rank))
        a, b = np.stack(a), np.stack(b)
        seen = []
        original = linalg.trace_distance
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tomography, "trace_distance", lambda x, y: seen.append(len(x)) or original(x, y))
            below = _below(a, b, tol)
        np.testing.assert_array_equal(below, original(a, b) < tol)
        assert seen == []
