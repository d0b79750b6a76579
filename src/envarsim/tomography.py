"""Two-qubit state reconstruction from 36-projector coincidence counts.

``mle_reconstruct_many`` is the iterative maximum-likelihood R-rho-R
scheme run on a stack of count records at once: with per-setting
frequencies f_j and R(rho) = sum_j f_j/Tr(P_j rho) P_j, the update
rho -> N[R rho R] never decreases the log-likelihood for this measurement
structure and converges to the physical (PSD, unit-trace) maximum. Every
record starts at I/4 and leaves the stack at the iteration where its own
trace-distance step drops below ``tol``; ``trace_distance_below`` decides
most steps from norm bounds (Frobenius, then Hölder) and takes eigenvalues
only of the rest.
Its result does not depend on the other records in the batch, bit for bit:
every step works on each matrix alone (a per-record BLAS product on a
``(B, 1, k)`` stack, stacked ``@`` and ``eigvalsh``), never as one 2-D BLAS
product across records, whose rounding of a row can change with its place
in the batch. ``mle_reconstruct`` is the one-record call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import trace_distance_below
from .measurement import CountRecord, ProjectorSet

__all__ = ["TomographyResult", "mle_reconstruct", "mle_reconstruct_many"]

_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class TomographyResult:
    rho: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    log_likelihood_history: np.ndarray  # read-only: one entry per iteration, then the final state's


def _setting_frequencies(counts: CountRecord) -> np.ndarray:
    """Counts normalized per setting (each block of 4 sums to 1)."""
    blocks = counts.counts.reshape(9, 4).astype(float)
    totals = blocks.sum(axis=1)
    if np.any(totals <= 0):
        raise ValueError("every setting needs at least one positive count")
    return (blocks / totals[:, None]).reshape(36)


def _probabilities(flat_re: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Floored Tr(P_a rho) for a (B, 4, 4) stack of Hermitian matrices: (B, 1, 36).

    For Hermitian rho, Tr(P rho) = sum_ij Re P_ij Re rho_ij + Im P_ij Im rho_ij,
    a dot product of the matrices' float views: one (1, 32) x (32, 36) product per record.
    """
    probs = rho.view(float).reshape(-1, 1, 32) @ flat_re.T
    return np.maximum(probs, _PROB_FLOOR, out=probs)


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
    # counts and frequencies as (B, 1, 36) rows, the shape of the probabilities
    all_raw = np.stack([r.counts for r in records]).astype(float)[:, None, :]
    all_freqs = np.stack([_setting_frequencies(r) for r in records])[:, None, :]
    batch = len(records)

    # row k of raw, freqs and rho belongs to record active[k]; a record's rows leave when it stops
    active = np.arange(batch)
    raw, freqs = all_raw, all_freqs
    rho = np.tile(np.eye(4, dtype=complex) / 4, (batch, 1, 1))
    final = np.empty((batch, 4, 4), dtype=complex)
    iterations = np.full(batch, max_iter)
    converged = np.zeros(batch, dtype=bool)
    steps: list[tuple[np.ndarray, np.ndarray]] = []  # (active records, their (B, 1) log-likelihoods) per iteration
    for it in range(1, max_iter + 1):
        probs = _probabilities(flat_re, rho)
        steps.append((active, (raw * np.log(probs)).sum(-1)))
        r_op = ((freqs / probs) @ flat_re).view(complex).reshape(-1, 4, 4)
        nxt = r_op @ rho @ r_op
        # Hermitize and normalize in one pass: the real diagonal, so the trace, is already
        # Hermitian; its entries 0, 5, 10 and 15 are summed in the order trace() takes
        re = nxt.real.reshape(-1, 16)
        scale = 0.5 / (((re[:, 0] + re[:, 5]) + re[:, 10]) + re[:, 15])
        nxt += nxt.conj().transpose(0, 2, 1)
        nxt *= scale[:, None, None]
        done = trace_distance_below(nxt, rho, tol)
        rho = nxt
        if done.any():
            final[active[done]] = rho[done]
            iterations[active[done]] = it
            converged[active[done]] = True
            keep = ~done
            active, raw, freqs, rho = active[keep], raw[keep], freqs[keep], rho[keep]
            if not active.size:
                break
    final[active] = rho

    final_ll = (all_raw * np.log(_probabilities(flat_re, final))).sum(-1)[:, 0]
    # row b: record b's log-likelihood at each of its iterations, then at its final state
    history = np.empty((batch, len(steps) + 1))
    for t, (rows, ll) in enumerate(steps):
        history[rows, t] = ll[:, 0]
    history[np.arange(batch), iterations] = final_ll
    history.setflags(write=False)

    # Numerical floor: eigenvalues of the iterate can sit a hair below 0.
    w, v = np.linalg.eigh(final)
    clip = w.min(axis=1) < 0
    if clip.any():
        w, v = np.clip(w[clip], 0.0, None), v[clip]
        fixed = (v * w[:, None, :]) @ v.transpose(0, 2, 1).conj()
        fixed = (fixed + fixed.transpose(0, 2, 1).conj()) / 2
        final[clip] = fixed / np.trace(fixed, axis1=1, axis2=2).real[:, None, None]
    return [
        TomographyResult(
            rho=final[b],
            log_likelihood=float(final_ll[b]),
            iterations=int(iterations[b]),
            converged=bool(converged[b]),
            log_likelihood_history=history[b, : iterations[b] + 1],
        )
        for b in range(batch)
    ]


def mle_reconstruct(
    counts: CountRecord,
    projectors: ProjectorSet,
    max_iter: int = 5000,
    tol: float = 1e-6,
) -> TomographyResult:
    """Iterative maximum-likelihood reconstruction of one record; see ``mle_reconstruct_many``."""
    return mle_reconstruct_many([counts], projectors, max_iter=max_iter, tol=tol)[0]
