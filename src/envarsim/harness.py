"""Three-stage envariance protocol over an axis/angle grid.

Every grid cell runs the protocol at one (axis, rotation angle): stage I
measures the source directly, stage II applies the wave-plate rotation to
the system photon only, stage III applies the same rotation to both
photons. Each stage independently redraws the drifted source state and its
own wave-plate setting errors and is measured over the 36 projectors.
``simulate_grid`` (``run_three_stages`` is its one-cell call) makes two
passes: a draw pass, a loop over the stage streams that only draws each
stream's drift and its rotation stacks' plate-angle errors, and a stacked
pass that builds every drifted source, rotation stack and stage II/III
true state of the grid in one ``drift_states``, one ``stack`` and one
``apply_local`` call, then every count record in one
``simulate_counts_many`` call. Only ``assemble_report`` reconstructs,
every count record of the grid in one batched MLE call. It scores the
grid as stacks, every cell in one ``fidelity`` and one ``bhattacharyya``
call and the consecutive stage-I pairs in one series of each, which every
axis and the whole grid slice for their source stability; every
two-qubit rotation goes through ``linalg.apply_local``. Per-cell
randomness derives from (seed, axis, angle, stage) by value, so cells are
reproducible in any execution order. A noise model that draws nothing
(``NoiseModel.draws`` false) gets no stream, so a noise-free run never
loads ``numpy.random``; numpy 2 imports it on first use. The plan,
``stage_rng`` and ``run_three_stages`` check each numeric argument by
``errors.check_real`` or ``errors.check_integer``, and the plan's noise model
and the plan given to ``simulate_grid`` or ``run_three_stages`` by
``errors.check_instance``, which name it in their ValueError; a stream is
keyed by a non-negative angle only, so theta must not be negative.
"""

from __future__ import annotations

import functools
from collections.abc import Collection
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import check_instance, check_integer, check_real, echo
from .linalg import apply_local, su2_rotation, validate_density_matrix, werner
from .measurement import (
    DEFAULT_DRIFT_SIGMA,
    CountRecord,
    NoiseModel,
    born_probabilities,
    check_acquisition,
    drift_states,
    simulate_counts_many,
    tomography_projectors,
)
from .metrics import bhattacharyya, fidelity, normalize_counts
from .optics import (
    NAMED_AXES,
    STACK_ROTATION_SIGN,
    WavePlateSetting,
    decompose_rotation,
    named_axis_vector,
    rotation_setting,
    stack,
)
from .tomography import mle_reconstruct, mle_reconstruct_many

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_ANGLES_DEG",
    "STAGES",
    "SCORE_SERIES",
    "ExperimentPlan",
    "StageResult",
    "CellMetrics",
    "AxisSummary",
    "EnvarianceReport",
    "calibrated_noise",
    "stage_rng",
    "nominal_setting",
    "run_three_stages",
    "simulate_grid",
    "theoretical_stage3",
    "assemble_report",
    "run_experiment",
]

DEFAULT_SEED = 20140217
DEFAULT_ANGLES_DEG = tuple(float(a) for a in range(0, 361, 30))
STAGES = ("I", "II", "III")

_I2 = np.eye(2, dtype=complex)

# the four scores of a cell, each for fidelity and BC: stage I against III, II, ideal III and ideal II;
# the series of io's plot files
SCORE_SERIES = ("i_iii", "i_ii", "i_iii_theory", "i_ii_theory")


def calibrated_noise(seed: int = 0) -> NoiseModel:
    """Noise model reproducing the reference experiment's imperfections."""
    return NoiseModel(
        werner_v=0.98267,
        drift_sigma=DEFAULT_DRIFT_SIGMA,
        waveplate_error_sigma=np.deg2rad(0.2),
        poisson=True,
        seed=seed,
    )


@dataclass(frozen=True)
class ExperimentPlan:
    """Grid and acquisition parameters for a full protocol run."""

    axes: tuple[str, ...] = NAMED_AXES
    angles_deg: tuple[float, ...] = DEFAULT_ANGLES_DEG
    flux_hz: float = 5400.0
    duration_s: float = 5.0
    noise: NoiseModel = NoiseModel()
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        for name, items in (("axes", "axis names"), ("angles_deg", "angles")):
            value = getattr(self, name)
            # an array is refused too: the truth value the checks below take is ambiguous for it
            if isinstance(value, (str, np.ndarray)) or not isinstance(value, Collection):
                shown = f"the string {echo(value)}" if isinstance(value, str) else echo(value)
                raise ValueError(f"{name} must be a sequence of {items}, not {shown}")
        if not self.axes or not self.angles_deg:
            raise ValueError("axes and angles_deg must be non-empty")
        # before the repeat test, which hashes each axis: a list-valued one is refused by name
        for axis in self.axes:
            if axis not in NAMED_AXES:
                raise ValueError(f"unknown axis {echo(axis)}")
        if len(set(self.axes)) < len(self.axes):
            raise ValueError("axes must not repeat a value")
        for angle in self.angles_deg:
            check_real(angle, "angles_deg must hold angles in [0, 360] degrees", ge=0, le=360)
        # count files name their angle in centidegrees, and stage_rng keys its stream by the
        # millidegree of the angle _simulate_cells derives, rad2deg(deg2rad(angle))
        if len({round(a * 100) for a in self.angles_deg}) < len(self.angles_deg):
            raise ValueError("angles_deg must be distinct at 0.01-degree resolution")
        if len({round(float(np.rad2deg(np.deg2rad(a))) * 1000) for a in self.angles_deg}) < len(self.angles_deg):
            raise ValueError("angles_deg must be distinct at 0.001-degree resolution, which keys each random stream")
        check_acquisition(self.flux_hz, self.duration_s)
        check_instance(self.noise, NoiseModel, "noise must be a NoiseModel")
        check_integer(self.seed, "seed must be a non-negative integer", 0)

    @property
    def cells(self) -> tuple[tuple[str, float], ...]:
        """The grid's (axis, angle_deg) cells, axis-major in plan order: the order of every grid result."""
        return tuple((axis, angle_deg) for axis in self.axes for angle_deg in self.angles_deg)


@dataclass(frozen=True)
class StageResult:
    """A simulated stage; ``rho`` reconstructs ``counts`` on first read and caches it."""

    stage: str
    counts: CountRecord
    rho_true: np.ndarray

    @functools.cached_property
    def rho(self) -> np.ndarray:
        return mle_reconstruct(self.counts, tomography_projectors()).rho


def stage_rng(seed: int, axis: str, angle_deg: float, stage: str) -> np.random.Generator:
    """Independent stream for one (axis, angle, stage) cell, derived by value.

    Its entropy words are the seed, the axis's index in ``NAMED_AXES``, the
    angle in millidegrees rounded to an integer and the stage's index in ``STAGES``.
    """
    for name, value, names in (("axis", axis, NAMED_AXES), ("stage", stage, STAGES)):
        if value not in names:
            raise ValueError(f"unknown {name} {echo(value)}; expected one of {names}")
    check_integer(seed, "seed must be a non-negative integer", 0)
    check_real(angle_deg, "angle_deg must be a finite number of degrees")
    # numpy's SeedSequence takes no negative entropy word
    check_real(angle_deg, "angle_deg must be a non-negative number of degrees", ge=0)
    entropy = [
        int(seed),
        NAMED_AXES.index(axis),
        int(round(angle_deg * 1000)),
        STAGES.index(stage),
    ]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def nominal_setting(axis: str, theta: float) -> WavePlateSetting:
    """Wave-plate angles for a rotation by ``theta`` about a named axis.

    x, y and z use ``rotation_setting``; m decomposes the rotation in closed
    form (the target carries the same rotation sense the x/y/z settings realize).
    """
    if axis in ("x", "y", "z"):
        return rotation_setting(axis, theta)
    return decompose_rotation(su2_rotation(named_axis_vector(axis), STACK_ROTATION_SIGN * theta))


def _nominal_angles(cells: list[tuple[str, float]]) -> np.ndarray:
    """(C, 3) nominal plate angles (alpha, beta, gamma) of each (axis, theta) cell."""
    return np.array([(s.alpha, s.beta, s.gamma) for s in (nominal_setting(axis, theta) for axis, theta in cells)])


def _simulate_cells(
    cells: list[tuple[str, float]], plan: ExperimentPlan
) -> list[tuple[StageResult, StageResult, StageResult]]:
    """Simulate the stage I/II/III counts of each (axis, theta) cell: a draw pass, then a stacked pass.

    Each stream derives from (plan.seed, axis, rad2deg(theta), stage).
    ``simulate_grid`` derives a cell's streams from the theta that
    ``run_three_stages(axis, np.deg2rad(angle_deg), plan)`` sees, so the two
    agree bit for bit; that angle is ``rad2deg(deg2rad(angle_deg))``, which
    may miss the grid's angle in the last bit. Each stream draws, in order, per qubit a drift axis and angle, the three plate-angle errors of
    each rotation stack (the system's, then in stage III the environment's)
    and, in ``simulate_counts_many``, the acquisition noise. A noise model
    that draws nothing gets None in place of each stream.
    """
    noise = plan.noise
    # first, so that an unknown axis is refused by name before its stream is keyed
    nominal = _nominal_angles(cells)
    normals = np.zeros((len(cells), 3, 2, 4))  # per record and qubit: three axis normals, one angle normal
    errors = np.zeros((len(cells), 3, 2, 3))  # per record: system, then environment plate-angle errors
    streams = []
    for c, (axis, theta) in enumerate(cells):
        angle_deg = float(np.rad2deg(theta))
        for s, stage in enumerate(STAGES):  # stage s rotates s photons
            stream = stage_rng(plan.seed, axis, angle_deg, stage) if noise.draws else None
            if noise.drift_sigma > 0:
                normals[c, s] = stream.standard_normal((2, 4))
            if noise.waveplate_error_sigma > 0 and s:
                errors[c, s, :s] = stream.normal(0.0, noise.waveplate_error_sigma, size=(s, 3))
            streams.append(stream)
    base = werner(noise.werner_v)
    sources = drift_states(base, noise, normals) if noise.drift_sigma > 0 else np.broadcast_to(base, (len(cells), 3, 4, 4))
    # (C, 2, 2, 2, 2): the stage II/III stacks of the system and environment photons
    u = stack(nominal[:, None, None] + errors[:, 1:])
    u[:, 0, 1] = _I2  # stage II leaves the environment photon alone
    states = np.concatenate([sources[:, :1], apply_local(u[:, :, 0], u[:, :, 1], sources[:, 1:])], axis=1).reshape(-1, 4, 4)
    records = simulate_counts_many(states, plan.flux_hz, plan.duration_s, noise, streams)
    results = [
        StageResult(stage=stage, counts=counts, rho_true=rho_true)
        for stage, counts, rho_true in zip(STAGES * len(cells), records, states)
    ]
    return [tuple(results[3 * c : 3 * c + 3]) for c in range(len(cells))]


def run_three_stages(
    axis: str, theta: float, plan: ExperimentPlan
) -> tuple[StageResult, StageResult, StageResult]:
    """Simulate the counts of stages I, II and III for one grid cell.

    The three stage streams derive from (plan.seed, axis, angle, stage).
    No state is reconstructed here; see ``StageResult.rho``.
    """
    check_real(theta, "theta must be a finite, non-negative number of radians", ge=0)
    check_instance(plan, ExperimentPlan, "plan must be an ExperimentPlan")
    return _simulate_cells([(axis, theta)], plan)[0]


def simulate_grid(plan: ExperimentPlan) -> dict[tuple[str, float], tuple[StageResult, StageResult, StageResult]]:
    """Simulate every grid cell, keyed (axis, angle_deg) in plan order.

    Each cell equals ``run_three_stages(axis, np.deg2rad(angle_deg), plan)``
    bit for bit; the records of the whole grid are drawn in one batch.
    """
    check_instance(plan, ExperimentPlan, "plan must be an ExperimentPlan")
    return dict(zip(plan.cells, _simulate_cells([(axis, np.deg2rad(a)) for axis, a in plan.cells], plan)))


def theoretical_stage3(rho_i: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Expected final-stage state: the ideal rotation applied to both qubits."""
    return apply_local(u, u, validate_density_matrix(rho_i))


@dataclass(frozen=True)
class CellMetrics:
    axis: str
    angle_deg: float
    f_i_iii: float
    f_i_ii: float
    bc_i_iii: float
    bc_i_ii: float
    f_i_iii_theory: float
    bc_i_iii_theory: float
    f_i_ii_theory: float
    bc_i_ii_theory: float

    def __post_init__(self) -> None:
        for f in fields(self)[2:]:  # the eight metrics after axis and angle_deg
            value = getattr(self, f.name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{f.name}={value} outside [0, 1]")


@dataclass(frozen=True)
class AxisSummary:
    axis: str
    f_i_iii_mean: float
    f_i_iii_err: float
    bc_i_iii_mean: float
    bc_i_iii_err: float
    stability_fidelity: float
    stability_bc: float


@dataclass(frozen=True)
class EnvarianceReport:
    cells: tuple[CellMetrics, ...]
    per_axis: tuple[AxisSummary, ...]
    overall: AxisSummary
    deviation_fidelity: float
    deviation_bc: float
    states: dict[tuple[str, float], tuple[np.ndarray, ...]] = field(compare=False, repr=False)
    # per count record, in the order of ``states``: MLE iterations and whether it reached ``tol``
    mle_iterations: tuple[int, ...] = field(compare=False, repr=False)
    mle_converged: tuple[bool, ...] = field(compare=False, repr=False)


def _distribution_from_rho(rho: np.ndarray) -> np.ndarray:
    probs = born_probabilities(rho, tomography_projectors().flat_projectors)
    return probs / probs.sum(axis=-1, keepdims=True)


def _sample_std(values) -> float:
    """ddof=1 std of ``values``; 0.0 below two values."""
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def _summary(label: str, cells: list[CellMetrics], pair_f: np.ndarray, pair_bc: np.ndarray) -> AxisSummary:
    """Means and standard errors of the I-III metrics, and the spread of the stage-I pair scores (NaN below 3 cells)."""
    f_vals = [c.f_i_iii for c in cells]
    bc_vals = [c.bc_i_iii for c in cells]
    stable = len(cells) >= 3
    return AxisSummary(
        axis=label,
        f_i_iii_mean=float(np.mean(f_vals)),
        f_i_iii_err=float(_sample_std(f_vals) / np.sqrt(len(cells))),
        bc_i_iii_mean=float(np.mean(bc_vals)),
        bc_i_iii_err=float(_sample_std(bc_vals) / np.sqrt(len(cells))),
        stability_fidelity=_sample_std(pair_f) if stable else float("nan"),
        stability_bc=_sample_std(pair_bc) if stable else float("nan"),
    )


def assemble_report(
    plan: ExperimentPlan,
    cell_counts: dict[tuple[str, float], tuple[CountRecord, CountRecord, CountRecord]],
) -> EnvarianceReport:
    """Reconstruct every record once and compute every comparison metric.

    ``cell_counts`` maps (axis, angle_deg) to the stage I/II/III count
    records; reconstruction uses only the counts and the nominal rotation
    settings, mirroring what an analysis of recorded data can know. All
    records go through one ``mle_reconstruct_many`` call, and the cells are
    scored as stacks: stage I against (III, II, ideal III, ideal II) in one
    ``fidelity`` and one ``bhattacharyya`` call. The states are kept on the
    report as ``states``, keyed like ``cell_counts``, and each record's MLE
    iterations and convergence as ``mle_iterations`` and ``mle_converged``.
    """
    keys = plan.cells
    records = [record for key in keys for record in cell_counts[key]]
    results = mle_reconstruct_many(records, tomography_projectors())
    rhos = np.stack([result.rho for result in results]).reshape(len(keys), 3, 4, 4)
    dists = np.stack([normalize_counts(record) for record in records]).reshape(len(keys), 3, 36)
    u = stack(_nominal_angles([(axis, np.deg2rad(angle_deg)) for axis, angle_deg in keys]))
    theory = np.stack([theoretical_stage3(rhos[:, 0], u), apply_local(u, _I2, rhos[:, 0])], axis=1)
    # stage I against III, II, ideal III and ideal II, one column each
    f = fidelity(rhos[:, :1], np.concatenate([rhos[:, [2, 1]], theory], axis=1))
    bc = bhattacharyya(dists[:, :1], np.concatenate([dists[:, [2, 1]], _distribution_from_rho(theory)], axis=1))
    scores = {f"{m}_{tag}": col.tolist() for m, metric in (("f", f), ("bc", bc)) for tag, col in zip(SCORE_SERIES, metric.T)}
    cells = [
        CellMetrics(axis, float(angle_deg), **{name: col[k] for name, col in scores.items()})
        for k, (axis, angle_deg) in enumerate(keys)
    ]
    # the grid's consecutive stage-I pairs, scored once; the cells lo:hi own pairs lo:hi - 1,
    # and the grid is axis-major, so each axis is one such run of cells
    pair_f, pair_bc = fidelity(rhos[:-1, 0], rhos[1:, 0]), bhattacharyya(dists[:-1, 0], dists[1:, 0])

    def summary(label: str, lo: int, hi: int) -> AxisSummary:
        return _summary(label, cells[lo:hi], pair_f[lo : hi - 1], pair_bc[lo : hi - 1])

    run = len(plan.angles_deg)
    return EnvarianceReport(
        cells=tuple(cells),
        per_axis=tuple(summary(axis, a * run, (a + 1) * run) for a, axis in enumerate(plan.axes)),
        overall=summary("overall", 0, len(keys)),
        deviation_fidelity=_sample_std([c.f_i_iii - c.f_i_iii_theory for c in cells]),
        deviation_bc=_sample_std([c.bc_i_iii - c.bc_i_iii_theory for c in cells]),
        states={key: tuple(rhos[k]) for k, key in enumerate(keys)},
        mle_iterations=tuple(result.iterations for result in results),
        mle_converged=tuple(result.converged for result in results),
    )


def run_experiment(plan: ExperimentPlan) -> EnvarianceReport:
    """Execute the full grid and summarize it, all in memory."""
    cell_counts = {key: tuple(s.counts for s in stages) for key, stages in simulate_grid(plan).items()}
    return assemble_report(plan, cell_counts)
