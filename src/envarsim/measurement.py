"""Tomographic measurement set and coincidence-count synthesis.

The analyzers project each photon onto one of H, V, D, A, R, L. Grouping
the six states into the three bases {H/V, D/A, R/L} per arm gives 9
analyzer settings of 4 outcomes each: 36 two-qubit projectors, an
overcomplete tomographic set. Counts are drawn per setting as independent
Poisson variables with mean flux*duration*p; optional imperfections are
Werner admixture of the source (handled upstream), slow source drift and
wave-plate setting errors on the analyzers. The simulation draws first and
builds stacks after: ``drift_states`` drifts a source once per block of
normals a stream has drawn (``drift_state`` draws and drifts one), and
``simulate_counts_many`` synthesizes a stack of records setting by setting,
each perturbed analyzer built as hwp(h) @ qwp(q) from ``optics``' plates,
its outcome probabilities the diagonal of ``apply_local`` of the two arms'
analyzers, and each Poisson count drawn as a scalar. Each record draws from
its own stream, so it does not depend on the rest of the stack;
``simulate_counts`` is the one-record call.
Each input value type owns its field rules and checks them through the
shared rules of ``errors``: ``check_real`` for a finite real number in a range,
which takes no bool and no nan, ``check_integer`` for an integer such as a seed,
and ``check_instance`` for a type, such as a noise model's ``poisson`` bool.
A count record's counts must be an integer array of 36 counts in int64 whose
exact total is at most ``INT64_MAX``, so ``total()`` cannot wrap; floats,
integral or not, are refused rather than truncated. The count-file reader
leaves these rules to the record. ``simulate_counts_many`` checks its noise
model by type, takes ``rhos`` as a sequence or an array and ``rngs`` as a
sequence of generators or None, and tests a stream's type only when it is not
None, so a noise-free run never loads ``numpy.random``.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import check_instance, check_integer, check_real
from .linalg import (
    KET_A,
    KET_D,
    KET_H,
    KET_L,
    KET_R,
    KET_V,
    apply_local,
    projector,
    su2_rotation,
    validate_density_matrix,
)
from .optics import hwp, qwp

__all__ = [
    "BASES",
    "ANALYZER_PLATES",
    "DEFAULT_DRIFT_SIGMA",
    "MeasurementSetting",
    "ProjectorSet",
    "CountRecord",
    "NoiseModel",
    "tomography_projectors",
    "born_probability",
    "born_probabilities",
    "simulate_counts",
    "simulate_counts_many",
    "drift_state",
    "drift_states",
]

_KETS = {"H": KET_H, "V": KET_V, "D": KET_D, "A": KET_A, "R": KET_R, "L": KET_L}

# Basis pairs per arm, in the canonical setting order.
BASES = (("H", "V"), ("D", "A"), ("R", "L"))

# Nominal (qwp, hwp) analyzer plate angles mapping the first basis state to
# |H> ahead of the polarizing beam splitter.
ANALYZER_PLATES = {
    ("H", "V"): (0.0, 0.0),
    ("D", "A"): (np.pi / 4, np.pi / 8),
    ("R", "L"): (0.0, -np.pi / 8),
}

# Per-qubit drift rotation std (radians), Monte Carlo calibrated so that
# consecutive drifted copies of werner(0.98267) show a fidelity std in the
# few-1e-4 range (measured 5.8e-4 at 0.025, 8.3e-4 at 0.030).
DEFAULT_DRIFT_SIGMA = 0.025

# Expected pairs per setting stay below this, so that every Poisson draw and
# the 9-setting total of a count record fit in int64.
_MAX_PAIRS_PER_SETTING = 1e18


def check_acquisition(flux_hz: float, duration_s: float) -> None:
    """A ValueError unless flux_hz and duration_s are positive and give at most
    ``_MAX_PAIRS_PER_SETTING`` expected pairs per setting; nan and inf fail too."""
    for name, value in (("flux_hz", flux_hz), ("duration_s", duration_s)):
        check_real(value, "flux_hz and duration_s must be positive numbers", gt=0, name=name)
    if not flux_hz * duration_s <= _MAX_PAIRS_PER_SETTING:
        raise ValueError(f"flux_hz * duration_s must not exceed {_MAX_PAIRS_PER_SETTING:.0e} pairs")


@dataclass(frozen=True)
class MeasurementSetting:
    """One analyzer configuration: a basis pair and its four projectors."""

    label: str
    basis_s: tuple[str, str]
    basis_e: tuple[str, str]
    outcome_labels: tuple[str, str, str, str]
    projectors: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ProjectorSet:
    """The 36 tomographic projectors grouped as 9 settings of 4 outcomes."""

    settings: tuple[MeasurementSetting, ...]

    @functools.cached_property
    def flat_projectors(self) -> np.ndarray:
        """All 36 projectors stacked as a read-only (36, 4, 4) array in index order."""
        flat = np.stack([p for s in self.settings for p in s.projectors])
        flat.setflags(write=False)
        return flat

    @functools.cached_property
    def flat_labels(self) -> tuple[tuple[str, str], ...]:
        """(setting_label, outcome_label) pairs in index order."""
        return tuple(
            (s.label, out) for s in self.settings for out in s.outcome_labels
        )


@functools.cache
def tomography_projectors() -> ProjectorSet:
    """The canonical 36-projector set |a><a| (x) |b><b|, a,b in {H,V,D,A,R,L}."""
    settings = []
    for basis_s in BASES:
        for basis_e in BASES:
            outs = []
            projs = []
            for a in basis_s:
                for b in basis_e:
                    outs.append(f"{a}{b}")
                    proj = np.kron(projector(_KETS[a]), projector(_KETS[b]))
                    proj.setflags(write=False)
                    projs.append(proj)
            settings.append(
                MeasurementSetting(
                    label=f"{basis_s[0]}{basis_s[1]}-{basis_e[0]}{basis_e[1]}",
                    basis_s=basis_s,
                    basis_e=basis_e,
                    outcome_labels=tuple(outs),
                    projectors=tuple(projs),
                )
            )
    return ProjectorSet(settings=tuple(settings))


def _rank1_projectors(projs: np.ndarray) -> np.ndarray:
    """A (K, 4, 4) complex stack, checked to hold rank-1 projectors within 1e-10."""
    projs = np.asarray(projs, dtype=complex)
    if projs.ndim != 3 or projs.shape[1:] != (4, 4):
        raise ValueError("projector must be 4x4")
    if (
        np.max(np.abs(projs - projs.transpose(0, 2, 1).conj())) > 1e-10
        or np.max(np.abs(projs @ projs - projs)) > 1e-10
        or np.max(np.abs(np.trace(projs, axis1=1, axis2=2).real - 1.0)) > 1e-10
    ):
        raise ValueError("operator is not a rank-1 projector within 1e-10")
    return projs


def born_probability(rho: np.ndarray, proj: np.ndarray) -> float:
    """Tr(proj rho) for a rank-1 projector, clamped to [0, 1]."""
    return float(born_probabilities(rho, np.asarray(proj)[None])[0])


def born_probabilities(rho: np.ndarray, projs: np.ndarray) -> np.ndarray:
    """``born_probability`` for each of a (K, 4, 4) stack of projectors, checked at once.

    Broadcasts over the leading axes of ``rho`` (projectors last); one contraction
    per projector keeps each state's one-state result bit for bit.
    """
    projs = _rank1_projectors(projs)
    rho = validate_density_matrix(rho)
    probs = np.stack([np.einsum("ij,...ji->...", proj, rho) for proj in projs], axis=-1)
    return np.clip(probs.real, 0.0, 1.0)


# the largest count, and count total, a record holds: the int64 range
INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts over the 36 projectors, index-aligned with ProjectorSet."""

    counts: np.ndarray
    duration_s: float

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        # a float, string, bool or object array, or a Python int past uint64, holds no counts
        if counts.shape != (36,) or counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be 36 integers, not an array of shape {counts.shape} and dtype {counts.dtype}")
        counts = counts.astype(np.int64)  # an unsigned count past 2**63 - 1 turns negative
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if (total := sum(counts.tolist())) > INT64_MAX:  # summed exactly: numpy's int64 sum wraps
            raise ValueError(f"counts total {total} exceeds 2**63 - 1")
        check_real(self.duration_s, "duration_s must be finite and positive", gt=0)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    def setting_totals(self) -> np.ndarray:
        return self.counts.reshape(9, 4).sum(axis=1)

    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class NoiseModel:
    """Imperfection knobs for the synthetic source and analyzers.

    werner_v mixes the singlet with white noise; drift_sigma is the std of
    the per-qubit random rotation angle applied by ``drift_state``;
    waveplate_error_sigma is the std of each plate-angle setting error
    (applied both to analyzer plates and, by the experiment harness, to the
    rotation stacks); poisson toggles shot noise. Each sigma lies in
    [0, 2 pi] rad: a Gaussian angle error wider than one full turn carries
    no physics.
    """

    werner_v: float = 1.0
    drift_sigma: float = 0.0
    waveplate_error_sigma: float = 0.0
    poisson: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        check_instance(self.poisson, (bool, np.bool_), "poisson must be a bool")
        check_real(self.werner_v, "werner_v must lie in [0, 1]", ge=0, le=1)
        for name in ("drift_sigma", "waveplate_error_sigma"):
            check_real(getattr(self, name), "noise sigmas must lie in [0, 2 pi] rad", ge=0, le=2 * np.pi, name=name)
        check_integer(self.seed, "seed must be a non-negative integer", 0)

    @property
    def draws(self) -> bool:
        """Whether the model draws any random number: shot noise, drift or plate-angle errors."""
        return bool(self.poisson) or self.drift_sigma > 0 or self.waveplate_error_sigma > 0

    @classmethod
    def noiseless(cls, werner_v: float = 1.0) -> "NoiseModel":
        return cls(werner_v=werner_v, drift_sigma=0.0, waveplate_error_sigma=0.0, poisson=False)


def simulate_counts_many(
    rhos: Sequence[np.ndarray],
    flux_hz: float,
    duration_s: float,
    noise: NoiseModel,
    rngs: Sequence[np.random.Generator | None],
) -> list[CountRecord]:
    """Synthesize one 36-projector acquisition per density matrix, all at once.

    Record b draws from its own stream ``rngs[b]``, per setting in order: the
    4 analyzer plate-angle errors (dq, dh for the system arm, then for the
    environment arm) when ``noise.waveplate_error_sigma`` > 0, then its 4
    Poisson counts. With plate errors the outcome probabilities are the
    diagonal of ``apply_local(A_s, A_e, rho)``, A_s and A_e the two perturbed
    analyzers, whose rows pull the PBS ports back to the measured kets;
    without them they are Tr(P rho) on the ideal projectors. Record b depends
    on no other record, bit for bit. Shot noise and plate errors are its only
    draws; a model without them reads no stream, so its streams may be None.
    """
    check_acquisition(flux_hz, duration_s)
    check_instance(noise, NoiseModel, "noise must be a NoiseModel")
    check_instance(rhos, (Sequence, np.ndarray), "rhos must be a sequence or an array")
    streams = "rngs must be a sequence whose entries are each a numpy.random.Generator or None"
    check_instance(rngs, Sequence, streams)
    for rng in (rng for rng in rngs if rng is not None):  # so a noise-free run never loads numpy.random
        check_instance(rng, np.random.Generator, streams)
    if len(rngs) != len(rhos):
        raise ValueError("need one random stream per density matrix")
    if (noise.poisson or noise.waveplate_error_sigma > 0) and any(rng is None for rng in rngs):
        raise ValueError("rngs needs a random stream, not None, for a model with shot noise or plate errors")
    if not len(rhos):
        return []
    rhos = validate_density_matrix(np.stack(rhos))
    sigma = noise.waveplate_error_sigma
    pairs = flux_hz * duration_s
    counts = np.empty((len(rhos), 36), dtype=np.int64)
    for k, setting in enumerate(tomography_projectors().settings):
        if sigma > 0:
            # each arm's analyzer is hwp(h) @ qwp(q), at the nominal (q_s, h_s, q_e, h_e) plus the record's errors
            nominal = ANALYZER_PLATES[setting.basis_s] + ANALYZER_PLATES[setting.basis_e]
            angles = nominal + np.stack([rng.normal(0.0, sigma, size=4) for rng in rngs])
            a = hwp(angles[:, 1::2]) @ qwp(angles[:, ::2])
            probs = np.diagonal(apply_local(a[:, 0], a[:, 1], rhos), axis1=1, axis2=2).real
        else:
            # Tr(P rho) on the ideal projectors keeps exact zeros exact: a
            # Poisson draw of mean 0 takes nothing from the stream
            probs = np.trace(np.stack(setting.projectors) @ rhos[:, None], axis1=2, axis2=3).real
        if probs.min() < -1e-12:
            raise ValueError("negative outcome probability beyond tolerance")
        expected = pairs * np.clip(probs, 0.0, None)
        if noise.poisson:
            counts[:, 4 * k : 4 * k + 4] = [[rng.poisson(lam) for lam in row] for rng, row in zip(rngs, expected.tolist())]
        else:
            counts[:, 4 * k : 4 * k + 4] = np.rint(expected).astype(np.int64)
    return [CountRecord(counts=row, duration_s=float(duration_s)) for row in counts]


def simulate_counts(
    rho: np.ndarray,
    flux_hz: float,
    duration_s: float,
    noise: NoiseModel,
    rng: np.random.Generator | None = None,
) -> CountRecord:
    """Synthesize one 36-projector acquisition from a density matrix.

    Each of the 9 settings is an independent acquisition of
    flux_hz*duration_s expected pairs split over its 4 outcomes. With
    ``noise.poisson`` off, counts are rounded expectations. Without ``rng``
    the draws come from ``default_rng(noise.seed)``, made only if
    ``noise.draws``. The one-record call of ``simulate_counts_many``.
    """
    if rng is None and noise.draws:
        rng = np.random.default_rng(noise.seed)
    return simulate_counts_many([rho], flux_hz, duration_s, noise, [rng])[0]


def drift_state(
    rho: np.ndarray,
    noise: NoiseModel,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Apply independent small random local rotations to both qubits.

    Each qubit gets a rotation about a Haar-random axis by an angle drawn
    from Normal(0, drift_sigma), modeling slow source drift between
    acquisitions; the one-record call of ``drift_states``.
    """
    if noise.drift_sigma == 0.0:
        return validate_density_matrix(rho)
    rng = np.random.default_rng(noise.seed) if rng is None else rng
    return drift_states(rho, noise, rng.standard_normal((2, 4)))


def drift_states(rho: np.ndarray, noise: NoiseModel, normals: np.ndarray) -> np.ndarray:
    """Drifted copies of ``rho``, one per (..., 2, 4) block of standard normals.

    Row q of a block turns qubit q about the axis along its first three normals by
    drift_sigma times the fourth, the axis normalized by the BLAS dot ``axis_vector`` takes.
    """
    raw = normals[..., :3]
    norms = np.sqrt(raw[..., None, :] @ raw[..., :, None])[..., 0]
    if not np.all(norms > 0):
        raise ValueError("axis vector must be nonzero")
    u = su2_rotation(raw / norms, noise.drift_sigma * normals[..., 3])
    return apply_local(u[..., 0, :, :], u[..., 1, :, :], validate_density_matrix(rho))
