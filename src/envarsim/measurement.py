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
with the perturbed analyzers in closed form and each Poisson count drawn
as a scalar. Each record draws from its own stream, so it does not depend
on the rest of the stack; ``simulate_counts`` is the one-record call.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts over the 36 projectors, index-aligned with ProjectorSet."""

    counts: np.ndarray
    duration_s: float

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (36,):
            raise ValueError("counts must have exactly 36 entries")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
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
    rotation stacks); poisson toggles shot noise.
    """

    werner_v: float = 1.0
    drift_sigma: float = 0.0
    waveplate_error_sigma: float = 0.0
    poisson: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.poisson, (bool, np.bool_)):
            raise ValueError(f"poisson must be a bool, not {self.poisson!r}")
        if not 0.0 <= self.werner_v <= 1.0:
            raise ValueError("werner_v must lie in [0, 1]")
        for sigma in (self.drift_sigma, self.waveplate_error_sigma):
            if not 0 <= sigma < np.inf:
                raise ValueError("noise sigmas must be finite and non-negative")

    @property
    def draws(self) -> bool:
        """Whether the model draws any random number: shot noise, drift or plate-angle errors."""
        return bool(self.poisson) or self.drift_sigma > 0 or self.waveplate_error_sigma > 0

    @classmethod
    def noiseless(cls, werner_v: float = 1.0) -> "NoiseModel":
        return cls(werner_v=werner_v, drift_sigma=0.0, waveplate_error_sigma=0.0, poisson=False)


def _analyzers(basis: tuple[str, str], errors: np.ndarray) -> np.ndarray:
    """(B, 2, 2) Jones matrices hwp(h) @ qwp(q) of the analyzer for ``basis``.

    Row b puts the plate-angle errors ``errors[b] = (dq, dh)`` on the nominal
    angles. Closed form: qwp(q) = ((1+i) I + (1-i) hwp(q)) / 2 and
    hwp(h) hwp(q) is the real rotation by 2(h - q), so
    hwp(h) qwp(q) = ((1+i) hwp(h) + (1-i) R(2(h - q))) / 2.
    """
    q_nom, h_nom = ANALYZER_PLATES[basis]
    q, h = q_nom + errors[:, 0], h_nom + errors[:, 1]
    c, s = np.cos(2 * h), np.sin(2 * h)
    cd, sd = np.cos(2 * (h - q)), np.sin(2 * (h - q))
    jones = (1 + 1j) / 2 * np.array([[c, s], [s, -c]]) + (1 - 1j) / 2 * np.array([[cd, -sd], [sd, cd]])
    return np.moveaxis(jones, -1, 0)


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
    Poisson counts. With plate errors the outcome probabilities are
    diag(M rho M^dag), M = A_s (x) A_e the two perturbed analyzers, whose
    rows pull the PBS ports back to the measured kets; without them they are
    Tr(P rho) on the ideal projectors. Record b depends on no other record,
    bit for bit. A model that draws nothing (``noise.draws`` false) reads no
    stream, so its streams may be None.
    """
    if flux_hz <= 0 or duration_s <= 0:
        raise ValueError("flux and duration must be positive")
    if len(rngs) != len(rhos):
        raise ValueError("need one random stream per density matrix")
    if not len(rhos):
        return []
    rhos = validate_density_matrix(np.stack(rhos))
    batch = len(rhos)
    sigma = noise.waveplate_error_sigma
    pairs = flux_hz * duration_s
    counts = np.empty((batch, 36), dtype=np.int64)
    for k, setting in enumerate(tomography_projectors().settings):
        if sigma > 0:
            errors = np.stack([rng.normal(0.0, sigma, size=4) for rng in rngs])
            m = np.einsum(
                "bik,bjl->bijkl",
                _analyzers(setting.basis_s, errors[:, :2]),
                _analyzers(setting.basis_e, errors[:, 2:]),
            ).reshape(batch, 4, 4)
            probs = np.einsum("bra,bac,brc->br", m, rhos, m.conj()).real
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
