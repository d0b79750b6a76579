"""Two-qubit state reconstruction from 36-projector coincidence counts.

``mle_reconstruct_many`` is the iterative maximum-likelihood R-rho-R
scheme run on a stack of count records at once: with per-setting
frequencies f_j and R(rho) = sum_j f_j/Tr(P_j rho) P_j, the update
rho -> N[R rho R] never decreases the log-likelihood for this measurement
structure and converges to the physical (PSD, unit-trace) maximum. Every
record starts at I/4 and leaves the stack at the iteration where its own
trace-distance step drops below ``tol``. The stops are decided once per block
of ``_BLOCK`` steps, in one ``trace_distance_below`` call over the block's
steps, which decides most of them from norm bounds (Frobenius, then Hölder)
and takes eigenvalues only of the rest; a record keeps the iterate and the
iteration of its first step below ``tol``, and the steps it ran past that are
dropped.
Its result does not depend on the other records in the batch, bit for bit:
every step works on each matrix alone (a per-record BLAS product on a
``(B, 1, k)`` stack, stacked ``@`` and ``eigvalsh``), never as one 2-D BLAS
product across records, whose rounding of a row can change with its place
in the batch. So equal count records are reconstructed once: the loop runs
on one row per distinct record, keyed by the bytes of its counts, and every
record gets its own copy of its row's state, the bits of its one-record call.
``mle_reconstruct`` is the one-record call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import trace_distance_below
from .measurement import CountRecord, ProjectorSet

__all__ = ["TomographyResult", "mle_reconstruct", "mle_reconstruct_many"]

_PROB_FLOOR = 1e-12
_BLOCK = 12  # R-rho-R steps between two stopping tests


@dataclass(frozen=True)
class TomographyResult:
    rho: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    log_likelihood_history: np.ndarray  # read-only: one entry per iteration, then the final state's


def _distinct_rows(records: Sequence[CountRecord]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Each distinct record's counts and frequencies (each setting's 4 sum to 1) as (B, 1, 36)
    rows, the shape of the probabilities, in first-occurrence order; and each input record's row."""
    index: dict[bytes, int] = {}
    owner = [index.setdefault(r.counts.tobytes(), len(index)) for r in records]
    counts = np.frombuffer(b"".join(index), dtype=np.int64).reshape(len(index), 36)
    settings = counts.reshape(-1, 9, 4).astype(float)
    totals = settings.sum(axis=2, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("every setting needs at least one positive count")
    return settings.reshape(-1, 1, 36), (settings / totals).reshape(-1, 1, 36), owner


def _probabilities(flat_re: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Floored Tr(P_a rho) for a (B, 4, 4) stack of Hermitian matrices: (B, 1, 36).

    For Hermitian rho, Tr(P rho) = sum_ij Re P_ij Re rho_ij + Im P_ij Im rho_ij,
    a dot product of the matrices' float views: one (1, 32) x (32, 36) product per record.
    """
    probs = rho.view(float).reshape(-1, 1, 32) @ flat_re.T
    return np.maximum(probs, _PROB_FLOOR, out=probs)


def _run_blocks(
    flat_re: np.ndarray, raw: np.ndarray, freqs: np.ndarray, max_iter: int, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, np.ndarray, np.ndarray]]]:
    """R-rho-R from I/4 on every (1, 36) row of counts ``raw`` and frequencies ``freqs``, in blocks
    of ``_BLOCK`` steps: each row's final iterate, iterations and convergence, and per block its
    first iteration, active rows and (steps, rows) log-likelihoods."""
    batch = len(raw)
    # row k of raw, freqs and rho belongs to input row active[k]; its rows leave when it stops
    active = np.arange(batch)
    rho = np.tile(np.eye(4, dtype=complex) / 4, (batch, 1, 1))
    final = np.empty((batch, 4, 4), dtype=complex)
    iterations = np.full(batch, max_iter)
    converged = np.zeros(batch, dtype=bool)
    blocks: list[tuple[int, np.ndarray, np.ndarray]] = []  # (it0, active, (k, B) log-likelihoods) per block
    # a block runs k steps on the B active rows; traj[j, :B] is iterate it0 + j, the block starts at traj[0]
    traj = np.empty((min(_BLOCK, max_iter) + 1, batch, 4, 4), dtype=complex)
    it0 = 0
    while active.size and it0 < max_iter:
        k, b = min(_BLOCK, max_iter - it0), active.size
        traj[0, :b], ll = rho, np.empty((k, b))
        blocks.append((it0, active, ll))
        for j in range(k):
            rho = traj[j, :b]
            probs = _probabilities(flat_re, rho)
            ll[j] = (raw * np.log(probs)).sum(-1)[:, 0]
            r_op = ((freqs / probs) @ flat_re).view(complex).reshape(-1, 4, 4)
            nxt = np.matmul(r_op @ rho, r_op, out=traj[j + 1, :b])
            # Hermitize and normalize in one pass: the real diagonal, so the trace, is already
            # Hermitian; its entries 0, 5, 10 and 15 are summed in the order trace() takes
            re = nxt.real.reshape(-1, 16)
            scale = 0.5 / (((re[:, 0] + re[:, 5]) + re[:, 10]) + re[:, 15])
            nxt += nxt.conj().transpose(0, 2, 1)
            nxt *= scale[:, None, None]
        # one stopping test per block: a row stops at its first step below tol, and the
        # steps it ran past that, on its own data alone, are dropped
        done = trace_distance_below(traj[1 : k + 1, :b], traj[:k, :b], tol)
        keep, first = ~done.any(axis=0), done.argmax(axis=0)
        rows = np.flatnonzero(~keep)
        final[active[rows]] = traj[first[rows] + 1, rows]
        iterations[active[rows]] = it0 + first[rows] + 1
        converged[active[rows]] = True
        active, raw, freqs, rho = active[keep], raw[keep], freqs[keep], traj[k, :b][keep]
        it0 += k
    final[active] = rho
    return final, iterations, converged, blocks


def mle_reconstruct_many(
    records: Sequence[CountRecord],
    projectors: ProjectorSet,
    max_iter: int = 5000,
    tol: float = 1e-6,
) -> list[TomographyResult]:
    """Iterative maximum-likelihood reconstruction of every record, one result each.

    A record stops when the trace distance between its successive iterates
    drops below ``tol``; it gets converged=False (with the last iterate) if
    ``max_iter`` is exhausted first. The default tolerance deliberately
    stops short of machine convergence: iterating the R-rho-R map to its
    exact fixed point truncates small eigenvalues to zero and measurably
    degrades fidelity to the true state at realistic count levels.
    """
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError(f"max_iter must be a positive integer, not {max_iter!r}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, not {tol!r}")
    if not records:
        return []
    # the projectors as (36, 32) floats: real and imaginary parts interleaved
    flat_re = projectors.flat_projectors.view(float).reshape(36, 32)
    # one row per distinct record; input record b gets the result of row owner[b]
    all_raw, all_freqs, owner = _distinct_rows(records)
    # the block loop's trajectory buffer is freed here, before the histories are assembled
    final, iterations, converged, blocks = _run_blocks(flat_re, all_raw, all_freqs, max_iter, tol)

    final_ll = (all_raw * np.log(_probabilities(flat_re, final))).sum(-1)[:, 0]
    # the histories end to end: from start[b], record b's log-likelihood at each of its
    # iterations, then at its final state
    start = np.cumsum(iterations + 1) - (iterations + 1)
    history = np.empty(start[-1] + iterations[-1] + 1)
    for t0, recs, ll in blocks:
        t = t0 + np.arange(len(ll))[:, None]
        kept = t < iterations[recs]
        history[(start[recs] + t)[kept]] = ll[kept]
    history[start + iterations] = final_ll
    history.setflags(write=False)

    # Numerical floor: eigenvalues of the iterate can sit a hair below 0.
    w, v = np.linalg.eigh(final)
    clip = w.min(axis=1) < 0
    if clip.any():
        w, v = np.clip(w[clip], 0.0, None), v[clip]
        fixed = (v * w[:, None, :]) @ v.transpose(0, 2, 1).conj()
        fixed = (fixed + fixed.transpose(0, 2, 1).conj()) / 2
        final[clip] = fixed / np.trace(fixed, axis1=1, axis2=2).real[:, None, None]
    final = final[owner]  # every input record gets its own state
    return [
        TomographyResult(
            rho=final[b],
            log_likelihood=float(final_ll[u]),
            iterations=int(iterations[u]),
            converged=bool(converged[u]),
            log_likelihood_history=history[start[u] : start[u] + iterations[u] + 1],
        )
        for b, u in enumerate(owner)
    ]


def mle_reconstruct(
    counts: CountRecord,
    projectors: ProjectorSet,
    max_iter: int = 5000,
    tol: float = 1e-6,
) -> TomographyResult:
    """Iterative maximum-likelihood reconstruction of one record; see ``mle_reconstruct_many``."""
    return mle_reconstruct_many([counts], projectors, max_iter=max_iter, tol=tol)[0]
