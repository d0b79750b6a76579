"""Small dense complex linear algebra and two-qubit polarization states.

Everything operates on plain numpy arrays: pure states are complex vectors
of length 2 or 4 (basis order HH, HV, VH, VV for two qubits) and density
matrices are 4x4 complex Hermitian arrays. Validation helpers raise
``ValueError`` when a contract is violated; numerical tolerances follow the
conventions used throughout the package. This module holds the algebra that
several modules share; a rule with one caller lives beside it: the
fidelity's square roots in ``metrics``, the MLE's stop rule in ``tomography``.
"""

from __future__ import annotations

import numpy as np

from .errors import check_real

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "KET_H",
    "KET_V",
    "KET_D",
    "KET_A",
    "KET_R",
    "KET_L",
    "singlet",
    "triplet_psi_plus",
    "projector",
    "axis_vector",
    "su2_rotation",
    "apply_local",
    "werner",
    "trace_distance",
    "validate_unitary",
    "validate_density_matrix",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Single-qubit polarization kets: |H>=(1,0), |V>=(0,1).
KET_H = np.array([1, 0], dtype=complex)
KET_V = np.array([0, 1], dtype=complex)
KET_D = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_A = np.array([1, -1], dtype=complex) / np.sqrt(2)
KET_R = np.array([1, 1j], dtype=complex) / np.sqrt(2)
KET_L = np.array([1, -1j], dtype=complex) / np.sqrt(2)


def singlet() -> np.ndarray:
    """Two-photon singlet (|HV> - |VH>)/sqrt(2) as a length-4 vector."""
    return np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def triplet_psi_plus() -> np.ndarray:
    """The orthogonal Bell state (|HV> + |VH>)/sqrt(2)."""
    return np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a normalized state vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def axis_vector(x: float, y: float, z: float) -> np.ndarray:
    """Unit Bloch-sphere axis from raw components.

    Raises ValueError for the zero vector; otherwise normalizes exactly.
    """
    v = np.array([x, y, z], dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("axis vector must be nonzero")
    return v / n


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2).conj()


def _check_axis(axis: np.ndarray) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    if axis.ndim < 1 or axis.shape[-1] != 3:
        raise ValueError("axis must be a 3-vector")
    if not np.all(np.abs(np.linalg.norm(axis, axis=-1) - 1.0) <= 1e-12):
        raise ValueError("axis must be a unit vector (norm within 1e-12)")
    return axis


def su2_rotation(axis: np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    """Bloch rotation exp(-i*theta/2 * axis.sigma) as a 2x2 unitary.

    ``axis`` must be a unit 3-vector, or a (..., 3) stack that ``theta`` broadcasts
    against; each matrix has determinant 1 and equals its one-matrix call bit for bit.
    """
    n = _check_axis(axis)[..., None, None, :]
    half = np.asarray(theta, dtype=float)[..., None, None] / 2
    ns = n[..., 0] * SIGMA_X + n[..., 1] * SIGMA_Y + n[..., 2] * SIGMA_Z
    return np.cos(half) * np.eye(2, dtype=complex) - 1j * np.sin(half) * ns


def validate_unitary(u: np.ndarray) -> np.ndarray:
    """Return ``u`` as a complex array, or raise if it (or any matrix of a stack) is not unitary within 1e-10."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-2] != u.shape[-1]:
        raise ValueError("unitary must be a square matrix")
    dev = np.max(np.abs(_dagger(u) @ u - np.eye(u.shape[-1])), initial=0.0)
    if dev > 1e-10:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e} > 1e-10)")
    return u


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check the two-qubit density matrix invariants.

    Hermitian within 1e-10 entrywise, unit trace within 1e-10, and minimum
    eigenvalue >= -1e-10; a stack of 4x4 matrices is checked at once.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("density matrix must be 4x4")
    if not np.all(np.isfinite(rho.view(float))):
        raise ValueError("density matrix has non-finite entries")
    if np.any(np.abs(rho - _dagger(rho)) > 1e-10):
        raise ValueError("density matrix is not Hermitian within 1e-10")
    if np.any(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0) > 1e-10):
        raise ValueError("density matrix trace differs from 1 by more than 1e-10")
    if np.any(np.linalg.eigvalsh((rho + _dagger(rho)) / 2) < -1e-10):
        raise ValueError("density matrix has eigenvalue below -1e-10")
    return rho


def apply_local(u_s: np.ndarray, u_e: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Conjugate two-qubit states by local unitaries: (u_s (x) u_e) rho (.)^dag.

    Broadcasts over leading axes; the entrywise Kronecker product equals ``np.kron`` bit for bit.
    """
    u_s = validate_unitary(u_s)
    u_e = validate_unitary(u_e)
    if u_s.shape[-2:] != (2, 2) or u_e.shape[-2:] != (2, 2):
        raise ValueError("local unitaries must be 2x2")
    rho = np.asarray(rho, dtype=complex)
    u = u_s[..., :, None, :, None] * u_e[..., None, :, None, :]
    u = u.reshape(*u.shape[:-4], 4, 4)
    out = u @ rho @ _dagger(u)
    return (out + _dagger(out)) / 2


def werner(v: float) -> np.ndarray:
    """Werner state v*|psi-><psi-| + (1-v)*I/4.

    Its fidelity with the singlet is (1+3v)/4 exactly.
    """
    check_real(v, "Werner parameter v must lie in [0, 1]", ge=0, le=1)
    return v * projector(singlet()) + (1 - v) * np.eye(4, dtype=complex) / 4


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Trace distance (1/2)*||a - b||_1 between Hermitian matrices.

    Broadcasts over leading axes: a float for two matrices, an array of
    distances for stacks of them.
    """
    d = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh((d + _dagger(d)) / 2)), axis=-1)
    return float(dist) if dist.ndim == 0 else dist

