"""State and distribution overlap measures.

Fidelity is the Uhlmann-Jozsa overlap {Tr[(sqrt(rho) sigma sqrt(rho))^(1/2)]}^2
(Jozsa, J. Mod. Opt. 41, 2315, 1994), computed as the squared nuclear norm
||sqrt(rho) sqrt(sigma)||_1^2, the squared sum of the singular values of the
product of the two square roots, which takes no square root of an eigenvalue
at the rounding level. Each square root is taken here, by ``_sqrt_psd``, from
``eigh`` of the Hermitized matrix with its eigenvalues clipped at 0: the MLE's
states are positive semidefinite only to rounding, and ``fidelity`` validates
both inputs to 1e-10 first. The Bhattacharyya coefficient sum_i sqrt(p_i q_i)
compares the normalized 36-outcome count distributions directly, with no
quantum assumptions. Count distributions are normalized by the grand total
over all 36 entries, so each of the 9 settings weighs its share of the
record's total, 1/9 only when the setting totals are equal. Both
measures are clipped to [0, 1]: rounding can carry an exact 1, such as the
overlap of a distribution with itself, to 1 + 2**-52. Both broadcast over
leading axes, and a stack gives each pair's one-pair result bit for bit.
"""

from __future__ import annotations

import numpy as np

from .linalg import validate_density_matrix
from .measurement import CountRecord

__all__ = ["fidelity", "bhattacharyya", "normalize_counts", "validate_distribution"]


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of each validated density matrix of a stack: ``eigh`` of the
    Hermitized matrix, eigenvalues clipped at 0, the root Hermitized."""
    w, v = np.linalg.eigh((m + np.swapaxes(m, -1, -2).conj()) / 2)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v, -1, -2).conj()
    return (root + np.swapaxes(root, -1, -2).conj()) / 2


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """Uhlmann-Jozsa fidelity ||sqrt(rho) sqrt(sigma)||_1^2, clipped to [0, 1].

    Broadcasts over leading axes: a float for two density matrices, an array
    of fidelities for stacks of them. Each stack is validated once.
    """
    product = _sqrt_psd(validate_density_matrix(rho)) @ _sqrt_psd(validate_density_matrix(sigma))
    # np.square multiplies; a scalar's ** 2 would go through pow and may differ in the last bit
    value = np.clip(np.square(np.linalg.svd(product, compute_uv=False).sum(axis=-1)), 0.0, 1.0)
    return float(value) if value.ndim == 0 else value


def validate_distribution(p: np.ndarray) -> np.ndarray:
    """Check a 36-entry probability distribution, or a stack of them (non-negative, sums to 1)."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (36,):
        raise ValueError("distribution must have exactly 36 entries")
    if np.any(p < 0):
        raise ValueError("distribution entries must be non-negative")
    if np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-9):
        raise ValueError("distribution must sum to 1 within 1e-9")
    return p


def bhattacharyya(p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """Bhattacharyya coefficient sum_i sqrt(p_i q_i) of two distributions, clipped to [0, 1].

    Broadcasts over leading axes: a float for two distributions, an array
    of coefficients for stacks of them.
    """
    value = np.clip(np.sum(np.sqrt(validate_distribution(p) * validate_distribution(q)), axis=-1), 0.0, 1.0)
    return float(value) if value.ndim == 0 else value


def normalize_counts(record: CountRecord) -> np.ndarray:
    """Counts divided by the grand total across all 36 entries."""
    total = record.total()
    if total <= 0:
        raise ValueError("cannot normalize a record with zero total counts")
    return record.counts.astype(float) / total
