"""Random states, closed forms and oracles that only the tests use."""

import tracemalloc

import numpy as np

from envarsim.metrics import fidelity


def traced_peak_mib(call) -> float:
    """tracemalloc's peak over one warm call of ``call`` (it runs once untraced first), above
    what was traced at the call's entry, in MiB."""
    call()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - entry) / 2**20
    finally:
        tracemalloc.stop()


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix A A^dag / Tr(A A^dag)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def e_qm(theta: float) -> float:
    """Singlet correlation -cos(2*theta) of standard quantum mechanics."""
    return -float(np.cos(2 * np.asarray(theta, dtype=float)))


def value_at(curve, theta) -> np.ndarray:
    """A ``CorrelationCurve``'s E at arbitrary theta in [0, pi/2] (exact on grid nodes)."""
    return np.interp(np.asarray(theta, dtype=float), curve.theta_grid, curve.values)


def source_stability(stage1_states: list[np.ndarray]) -> float:
    """Std of fidelities between consecutive source characterizations."""
    if len(stage1_states) < 3:
        raise ValueError("need at least 3 source states for a stability estimate")
    return float(np.std(fidelity(stage1_states[:-1], stage1_states[1:]), ddof=1))
