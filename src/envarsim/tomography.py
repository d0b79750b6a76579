"""Two-qubit state reconstruction from 36-projector coincidence counts.

``mle_reconstruct_many`` is the iterative maximum-likelihood R-rho-R
scheme run on a stack of count records at once: with counts n_j and
R(rho) = sum_j n_j/Tr(P_j rho) P_j, the update rho -> N[R rho R] never
decreases the log-likelihood L(rho) = sum_j n_j log Tr(P_j rho) for this
measurement structure and converges to its physical (PSD, unit-trace)
maximum; R's scale cancels in the normalization N. Every record starts at
I/4 and leaves the stack at the iteration where its own trace-distance step
drops below ``tol``. The stops are decided once per block of ``_BLOCK``
steps, by the stop rule ``_steps_below``: its norm bounds on ||d||_F^2 and Tr d
of each step d decide most steps, and eigenvalues are taken only of the steps
they leave open. A record keeps the iterate and the iteration of its first step
below ``tol``, and the steps it ran past that are dropped.
Each step takes R rho R in real arithmetic. A complex product a @ m equals
a.view(float) @ E(m), with E(m) the real 8x8 matrix of right-multiplication
by m. So a step builds E(R) from R's 36 weights through one (36, 64) map,
takes y = rho R as a real (4, 8) x (8, 8) product, and R rho R as y^dag R,
since y^dag = R rho. Numpy runs such a real product several times faster
than a complex 4x4 ``matmul``; the state stays a complex (B, 4, 4) stack.
Its result does not depend on the other records in the batch, bit for bit:
every step works on each matrix alone (a per-record BLAS product on a
``(B, 1, k)`` or ``(B, 4, 8)`` stack, and stacked ``eigvalsh``), never as one
2-D BLAS product across records, whose rounding of a row can change with its
place in the batch. So equal count records are reconstructed once: the loop
runs on one row per distinct record, keyed by the bytes of its counts, and
every record gets its own copy of its row's state, the bits of its one-record
call.
``mle_reconstruct`` is the one-record call.
The loop keeps no likelihood history. A result's ``log_likelihood_history``
(L at each iterate, then at the final state) is computed when it is first read:
the record alone is replayed from I/4 for its ``iterations`` steps through the
loop's own step, which by the batch independence above gives the loop's
iterates bit for bit. A first read costs about the record's iterations x 20-30 us
(2-core x86 box, numpy 2.4).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import check_instance, check_integer, check_real
from .linalg import trace_distance
from .measurement import CountRecord, ProjectorSet

__all__ = ["TomographyResult", "mle_reconstruct", "mle_reconstruct_many"]

_PROB_FLOOR = 1e-12
_BLOCK = 12  # R-rho-R steps between two stopping tests
# matrices per norm call: the stop rule takes the norms of max(1, 512 // B) steps of B rows
# at once, so a small batch pays few calls and no difference stack passes 128 kB unless one step does
_NORM_MATRICES = 512


@dataclass(frozen=True)
class TomographyResult:
    """One record's reconstruction. ``log_likelihood_history`` is computed on first read, by
    replaying the record alone (about ``iterations`` x 20-30 us), and kept."""

    rho: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    # the step's inputs for the replay: the projectors' (36, 32) and (36, 64) maps and the (1, 1, 36) counts
    _replay: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False, compare=False)

    @functools.cached_property
    def log_likelihood_history(self) -> np.ndarray:
        """Read-only: L at each of the ``iterations`` iterates from I/4, then at the final state's."""
        flat_re, mult, raw = self._replay
        history = np.empty(self.iterations + 1)
        rho, nxt = np.eye(4, dtype=complex)[None] / 4, np.empty((1, 4, 4), dtype=complex)
        for i in range(self.iterations):
            history[i] = _log_likelihoods(raw, _step(flat_re, mult, raw, rho, nxt))[0]
            rho, nxt = nxt, rho
        history[-1] = _log_likelihoods(raw, _probabilities(flat_re, rho))[0]
        history.setflags(write=False)
        return history


def _distinct_rows(records: Sequence[CountRecord]) -> tuple[np.ndarray, list[int]]:
    """Each distinct record's counts as (B, 1, 36) rows, the shape of the probabilities, in
    first-occurrence order; and each input record's row."""
    index: dict[bytes, int] = {}
    owner = [index.setdefault(r.counts.tobytes(), len(index)) for r in records]
    counts = np.frombuffer(b"".join(index), dtype=np.int64).reshape(len(index), 1, 36)
    # the 36 projectors span the 16 real dimensions of the 4x4 Hermitian matrices, but without one
    # setting's 4 only 15: an empty setting leaves its two-body correlator unmeasured, so the counts
    # do not fix the record's ML state (and an all-zero record would make R 0, a 0/0 normalization)
    if np.any(counts.reshape(-1, 9, 4).sum(axis=2) <= 0):
        raise ValueError("every setting needs at least one positive count")
    return counts.astype(float), owner


def _probabilities(flat_re: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Floored Tr(P_a rho) for a (B, 4, 4) stack of Hermitian matrices: (B, 1, 36).

    For Hermitian rho, Tr(P rho) = sum_ij Re P_ij Re rho_ij + Im P_ij Im rho_ij,
    a dot product of the matrices' float views: one (1, 32) x (32, 36) product per record.
    """
    probs = rho.view(float).reshape(-1, 1, 32) @ flat_re.T
    return np.maximum(probs, _PROB_FLOOR, out=probs)


def _log_likelihoods(raw: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """sum_a n_a log p_a of each (1, 36) row: (B,)."""
    return (raw * np.log(probs)).sum(-1)[:, 0]


def _mult_matrices(m: np.ndarray) -> np.ndarray:
    """The real (8, 8) matrix E(m) of each complex 4x4 matrix of a stack, the matrix for which
    (a @ m).view(float) is a.view(float) @ E(m): row 2k is m's float-view row k, row 2k + 1 the
    same row of i*m."""
    return np.stack([m, 1j * m], axis=-2).view(float).reshape(*m.shape[:-2], 8, 8)


def _r_rho_r(e_r: np.ndarray, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
    """R rho R into ``out`` for a (B, 4, 4) stack of Hermitian rho and their Hermitian R given as
    E(R): y = rho R, then y^dag R, since y^dag = R rho; each a per-record real (4, 8) x (8, 8) product."""
    y = (rho.view(float).reshape(-1, 4, 8) @ e_r).view(complex)
    y_dag = np.conjugate(y.transpose(0, 2, 1), order="C")
    np.matmul(y_dag.view(float).reshape(-1, 4, 8), e_r, out=out.view(float).reshape(-1, 4, 8))
    return out


def _step(flat_re: np.ndarray, mult: np.ndarray, raw: np.ndarray, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One R-rho-R step of each (B, 4, 4) iterate into ``out``, for its (1, 36) row of counts
    ``raw``; returns the iterates' floored probabilities. E(R) is built from the (36, 64) map
    ``mult`` (row a is E(P_a)) as R is built from ``flat_re``."""
    probs = _probabilities(flat_re, rho)
    nxt = _r_rho_r(((raw / probs) @ mult).reshape(-1, 8, 8), rho, out)
    # Hermitize and normalize in one pass: the real diagonal, so the trace, is already
    # Hermitian; its entries 0, 5, 10 and 15 are summed in the order trace() takes
    re = nxt.real.reshape(-1, 16)
    scale = 0.5 / (((re[:, 0] + re[:, 5]) + re[:, 10]) + re[:, 15])
    nxt += nxt.conj().transpose(0, 2, 1)
    nxt *= scale[:, None, None]
    return probs


def _difference_norms(seg: np.ndarray, frob_sq: np.ndarray, trace: np.ndarray) -> None:
    """||d||_F^2 and Tr d of each step d of a (g + 1, B, 4, 4) stack of Hermitian iterates, into
    the contiguous (g, B) arrays ``frob_sq`` and ``trace``."""
    f = (seg[1:] - seg[:-1]).view(float).reshape(-1, 32)
    np.einsum("bk,bk->b", f, f, out=frob_sq.reshape(-1))
    # the real diagonal is float entries 0, 10, 20 and 30, paired as np.trace pairs a complex diagonal
    tr = np.add(f[:, 0], f[:, 10], out=trace.reshape(-1))
    tr += f[:, 20] + f[:, 30]


def _steps_below(blk: np.ndarray, tol: float) -> np.ndarray:
    """Whether each of the k steps of a (k + 1, B, 4, 4) block of iterates has trace distance
    below ``tol``: (k, B), step j of row r running from ``blk[j, r]`` to ``blk[j + 1, r]``.

    Each step d is first read as two numbers, ||d||_F^2 and Tr d, taken for about
    ``_NORM_MATRICES`` matrices per call. For Hermitian 4x4 d with t = Tr d,
    max(||d||_F^2, 2 ||d||_F^2 - t^2) <= ||d||_1^2 <= 4 ||d||_F^2,
    and the trace distance is ||d||_1 / 2. The middle term: with P the sum of d's positive
    eigenvalues and N that of the moduli of its negative ones, ||d||_1 = P + N, t = P - N and
    ||d||_F^2 <= P^2 + N^2 = (||d||_1^2 + t^2) / 2. For the step between two unit-trace iterates
    (t = 0) it is sqrt(2) tighter than ||d||_F; the max keeps it never weaker. Both take only
    squares of d's entries, so they underflow no sooner than ||d||_F^2. Each bound is applied
    with a 1e-9 relative margin for rounding. So two numbers per step decide most steps, with
    no eigenvalues; only the steps they leave open are taken apart."""
    k, b = len(blk) - 1, blk.shape[1]
    frob_sq, trace = np.empty((2, k, b))
    g = max(1, _NORM_MATRICES // max(1, b))  # a block of no rows is one call
    for j in range(0, k, g):
        _difference_norms(blk[j : j + g + 1], frob_sq[j : j + g], trace[j : j + g])
    below = frob_sq < (tol * (1 - 1e-9)) ** 2
    lower_sq = np.maximum(frob_sq, 2 * frob_sq - trace * trace)
    open_ = (lower_sq <= (2 * tol * (1 + 1e-9)) ** 2) & ~below
    if open_.any():
        below[open_] = trace_distance(blk[1:][open_], blk[:-1][open_]) < tol
    return below


def _run_blocks(
    flat_re: np.ndarray, mult: np.ndarray, raw: np.ndarray, max_iter: int, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R-rho-R from I/4 on every (1, 36) row of counts ``raw``, in blocks of ``_BLOCK`` steps: each
    row's final iterate, iterations and convergence. A block runs its steps, then asks
    ``_steps_below`` once which of them stop."""
    batch = len(raw)
    # row k of raw and rho belongs to input row active[k]; its rows leave when it stops
    active = np.arange(batch)
    rho = np.tile(np.eye(4, dtype=complex) / 4, (batch, 1, 1))
    final = np.empty((batch, 4, 4), dtype=complex)
    iterations = np.full(batch, max_iter)
    converged = np.zeros(batch, dtype=bool)
    traj = np.empty(((min(_BLOCK, max_iter) + 1) * batch, 4, 4), dtype=complex)
    it0 = 0
    while active.size and it0 < max_iter:
        k, b = min(_BLOCK, max_iter - it0), active.size
        # a block runs k steps on the B active rows; blk[j] is iterate it0 + j
        blk = traj[: (k + 1) * b].reshape(k + 1, b, 4, 4)
        blk[0] = rho
        for j in range(k):
            _step(flat_re, mult, raw, blk[j], blk[j + 1])
        # one stopping test per block: a row stops at its first step below tol, and the
        # steps it ran past that, on its own data alone, are dropped
        done = _steps_below(blk, tol)
        keep, first = ~done.any(axis=0), done.argmax(axis=0)
        rows = np.flatnonzero(~keep)
        final[active[rows]] = blk[first[rows] + 1, rows]
        iterations[active[rows]] = it0 + first[rows] + 1
        converged[active[rows]] = True
        active, raw, rho = active[keep], raw[keep], blk[k][keep]
        it0 += k
    final[active] = rho
    return final, iterations, converged


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
    check_integer(max_iter, "max_iter must be a positive integer", 1)
    check_real(tol, "tol must be finite and positive", gt=0)
    check_instance(projectors, ProjectorSet, "projectors must be a ProjectorSet")
    check_instance(records, Sequence, "records must be a sequence")
    for record in records:
        check_instance(record, CountRecord, "records must hold CountRecords")
    if not records:
        return []
    # the projectors as (36, 32) floats: real and imaginary parts interleaved
    flat_re = projectors.flat_projectors.view(float).reshape(36, 32)
    # and as the (36, 64) map from the weights w of R = sum_a w_a P_a to E(R)
    mult = _mult_matrices(projectors.flat_projectors).reshape(36, 64)
    # one row per distinct record; input record b gets the result of row owner[b]
    all_raw, owner = _distinct_rows(records)
    final, iterations, converged = _run_blocks(flat_re, mult, all_raw, max_iter, tol)
    final_ll = _log_likelihoods(all_raw, _probabilities(flat_re, final))

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
            _replay=(flat_re, mult, all_raw[u : u + 1]),
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
