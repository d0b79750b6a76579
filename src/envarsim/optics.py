"""Jones calculus for wave plates and the QWP-HWP-QWP rotation gadget.

Conventions: qwp(t) = R(t) diag(1, i) R(-t) and hwp(t) = R(t) diag(1, -1)
R(-t) with R the real 2D rotation by the plate angle t (fast axis measured
from horizontal); qwp is built entrywise in closed form, bit for bit that
product, and hwp from cos 2t and sin 2t. Global phases are ignored
throughout; wave-plate angles are period pi and stored canonicalized to
[0, pi). These are the only plates: the rotation stacks here and the
QWP-HWP tomography analyzers of ``measurement`` (James, Kwiat, Munro &
White, PRA 64, 052312, 2001), hwp(h) @ qwp(q) per arm, are built from them.

A stack of three plates realizes an arbitrary polarization rotation, and
its plate angles have closed forms: ``rotation_setting`` for rotations
about the x, y and z Bloch axes, ``decompose_rotation`` for any 2x2
unitary (the m axis among them). The settings of ``rotation_setting`` realize
``su2_rotation(axis, STACK_ROTATION_SIGN * theta)`` up to global phase,
with one uniform sign for all axes and angles (asserted by the test suite).
``qwp``, ``hwp`` and ``stack`` broadcast over arrays of angles, so a grid's
perturbed stacks are built in one call, each equal to its one-plate call.
A ``WavePlateSetting`` checks each angle by the shared real-number rule of
``errors``, so a bool, a string, None or an integer past the float range is
refused by name; ``stack`` checks angles given as a tuple or an array by the
same rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_real
from .linalg import axis_vector, validate_unitary

__all__ = [
    "STACK_ROTATION_SIGN",
    "NAMED_AXES",
    "WavePlateSetting",
    "named_axis_vector",
    "qwp",
    "hwp",
    "stack",
    "rotation_setting",
    "decompose_rotation",
    "phase_distance",
]

# Bloch rotation sense realized by stack(rotation_setting(axis, theta))
# relative to su2_rotation's exp(-i*theta/2 n.sigma) convention.
STACK_ROTATION_SIGN = -1.0

NAMED_AXES = ("x", "y", "z", "m")
_ANGLES = ("alpha", "beta", "gamma")

_AXIS_VECTORS = {
    "x": axis_vector(1, 0, 0),
    "y": axis_vector(0, 1, 0),
    "z": axis_vector(0, 0, 1),
    "m": axis_vector(1, 1, 1),
}


def named_axis_vector(tag: str) -> np.ndarray:
    """Unit vector for an axis tag in {x, y, z, m}; m = (x+y+z)/sqrt(3)."""
    try:
        return _AXIS_VECTORS[tag]
    except (KeyError, TypeError):  # a TypeError for an unhashable tag, a list say
        raise ValueError(f"unknown axis tag {tag!r}; expected one of {NAMED_AXES}") from None


@dataclass(frozen=True)
class WavePlateSetting:
    """Plate angles (radians) for the QWP-HWP-QWP stack, in traversal order.

    ``alpha`` is the first quarter-wave plate the photon meets, ``beta`` the
    half-wave plate, ``gamma`` the final quarter-wave plate. Angles are
    canonicalized to [0, pi), which leaves every Jones matrix unchanged.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name in _ANGLES:
            value = getattr(self, name)
            check_real(value, f"{name} must be a finite number of radians")
            object.__setattr__(self, name, float(value) % np.pi)


def _2x2(a, b, c, d) -> np.ndarray:
    return np.stack([a, b, c, d], axis=-1).reshape(*np.shape(a), 2, 2).astype(complex)


def qwp(angle: float | np.ndarray) -> np.ndarray:
    """Jones matrix of a quarter-wave plate with fast axis at ``angle``; (..., 2, 2) for an array of angles.

    R(t) diag(1, i) R(-t) in closed form, with c, s the cosine and sine of t.
    """
    c, s = np.cos(angle), np.sin(angle)
    cs = c * s
    return _2x2(c * c + 1j * s * s, cs - 1j * cs, cs - 1j * cs, s * s + 1j * c * c)


def hwp(angle: float | np.ndarray) -> np.ndarray:
    """Jones matrix of a half-wave plate with fast axis at ``angle``; (..., 2, 2) for an array of angles."""
    c2, s2 = np.cos(2 * angle), np.sin(2 * angle)
    return _2x2(c2, s2, s2, -c2)


def stack(setting: WavePlateSetting | np.ndarray) -> np.ndarray:
    """Composite unitary of the three-plate stack, alpha-plate first.

    Also takes (alpha, beta, gamma) angles as a tuple or a (..., 3) array, checked and
    canonicalized as ``WavePlateSetting`` does, for (..., 2, 2) stacks equal to their
    one-setting calls. An integer or float array is checked at once; any other array, and a
    tuple or list, angle by angle, so a bool, a string, None or an integer past the float
    range is refused by the name of its angle.
    """
    if isinstance(setting, WavePlateSetting):
        setting = np.array([setting.alpha, setting.beta, setting.gamma])
    angles = setting if isinstance(setting, np.ndarray) else np.asarray(setting, dtype=object)
    if angles.shape[-1:] != (3,):
        raise ValueError("plate angles must be (alpha, beta, gamma) triples")
    if angles.dtype.kind not in "fiu" or not np.all(np.isfinite(angles)):
        for index in np.ndindex(angles.shape):
            check_real(angles[index], f"{_ANGLES[index[-1]]} must be a finite number of radians")
    alpha, beta, gamma = np.moveaxis(np.asarray(angles, dtype=float) % np.pi, -1, 0)
    return qwp(gamma) @ hwp(beta) @ qwp(alpha)


def rotation_setting(axis: str, theta: float) -> WavePlateSetting:
    """Closed-form plate angles realizing a rotation by ``theta`` about x, y or z.

    For the m axis, or any other target, use ``decompose_rotation``.
    """
    if axis == "x":
        return WavePlateSetting(np.pi / 2, -theta / 4, np.pi / 2)
    if axis == "y":
        return WavePlateSetting(np.pi / 2 + theta / 2, theta / 4, np.pi / 2)
    if axis == "z":
        return WavePlateSetting(np.pi / 4, -np.pi / 4 - theta / 4, np.pi / 4)
    raise ValueError(f"no closed-form setting for axis {axis!r}; use decompose_rotation")


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant distance sqrt(1 - |Tr(u^dag v)|/2) for 2x2 unitaries.

    Computed through the traceless part of w = u^dag v, which avoids the
    sqrt(eps) floor of the naive subtraction: for unitary w with trace 2t,
    1 - |t|^2 = ||w - t I||_F^2 / 2.
    """
    w = np.asarray(u, dtype=complex).conj().T @ np.asarray(v, dtype=complex)
    t = np.trace(w) / 2
    resid = np.linalg.norm(w - t * np.eye(2))
    return float(resid / np.sqrt(2 * (1 + min(abs(t), 1.0))))


def _linear_angle(v: np.ndarray) -> float:
    """Angle s of the real direction (cos s, sin s) of a 2-vector that is real up to phase."""
    w = v / np.sqrt(v[0] ** 2 + v[1] ** 2)
    return float(np.arctan2(w[1].real, w[0].real))


def decompose_rotation(target: np.ndarray) -> WavePlateSetting:
    """Plate angles whose stack equals ``target`` up to global phase, in closed form.

    With l(t) = (cos t, sin t): qwp(alpha) turns l(alpha + pi/4) circular,
    the half-wave plate flips the handedness, and qwp(gamma) makes it linear
    again (Simon & Mukunda, Phys. Lett. A 143, 165, 1990). So the stack
    needs an input l(t) that ``target`` = [[a, b], [c, d]] keeps linear:
    B cos 2t + C sin 2t = 0 with B = Im(a* c - b* d)/2, C = Im(a* d + b* c)/2.
    The branch taken is 2t = arctan2(-B, C); every t works when B = C = 0.
    Then alpha = t - pi/4, gamma = s - pi/4 with l(s) the direction of
    target l(t), and beta is read off qwp(gamma)^dag target qwp(alpha)^dag,
    a half-wave plate up to phase.
    """
    target = validate_unitary(target)
    if target.shape != (2, 2):
        raise ValueError("target must be a 2x2 unitary")
    (a, b), (c, d) = target
    big_b = np.imag(np.conj(a) * c - np.conj(b) * d) / 2
    big_c = np.imag(np.conj(a) * d + np.conj(b) * c) / 2
    t = np.arctan2(-big_b, big_c) / 2
    alpha = t - np.pi / 4
    gamma = _linear_angle(target @ np.array([np.cos(t), np.sin(t)])) - np.pi / 4
    half_wave = qwp(gamma).conj().T @ target @ qwp(alpha).conj().T
    return WavePlateSetting(alpha, _linear_angle(half_wave[:, 0]) / 2, gamma)
