"""Three-stage envariance protocol over an axis/angle grid.

Every grid cell runs the protocol at one (axis, rotation angle): stage I
measures the source directly, stage II applies the wave-plate rotation to
the system photon only, stage III applies the same rotation to both
photons. Each stage independently redraws the drifted source state and its
own wave-plate setting errors and is measured over the 36 projectors.
``simulate_grid`` simulates every cell's records in one batched
``simulate_counts_many`` call (``run_three_stages`` is its one-cell call);
only ``assemble_report`` reconstructs, every count record of the grid in one
batched MLE call. It scores each cell with one function and summarizes each
axis and the whole grid with one other; every two-qubit rotation goes
through ``linalg.apply_local``. Per-cell randomness derives from (seed,
axis, angle, stage) by value, so cells are reproducible in any execution
order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np
import numpy.random  # noqa: F401  numpy 2 loads it lazily; load it on import, not in the first run

from .linalg import apply_local, su2_rotation, validate_density_matrix, werner
from .measurement import (
    DEFAULT_DRIFT_SIGMA,
    CountRecord,
    NoiseModel,
    born_probabilities,
    drift_state,
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
    "ExperimentPlan",
    "StageResult",
    "CellMetrics",
    "AxisSummary",
    "EnvarianceReport",
    "calibrated_noise",
    "cell_seed_entropy",
    "stage_rng",
    "nominal_setting",
    "run_three_stages",
    "simulate_grid",
    "theoretical_stage3",
    "source_stability",
    "assemble_report",
    "run_experiment",
]

DEFAULT_SEED = 20140217
DEFAULT_ANGLES_DEG = tuple(float(a) for a in range(0, 361, 30))
STAGES = ("I", "II", "III")

_AXIS_CODE = {tag: i for i, tag in enumerate(NAMED_AXES)}
_STAGE_CODE = {name: i for i, name in enumerate(STAGES)}

# Expected pairs per setting stay below this, so that every Poisson draw and
# the 9-setting total of a count record fit in int64.
_MAX_PAIRS_PER_SETTING = 1e18

_I2 = np.eye(2, dtype=complex)


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
        if not self.axes or not self.angles_deg:
            raise ValueError("axes and angles_deg must be non-empty")
        if len(set(self.axes)) < len(self.axes):
            raise ValueError("axes must not repeat a value")
        # count files name their angle in centidegrees
        if len({round(a * 100) for a in self.angles_deg}) < len(self.angles_deg):
            raise ValueError("angles_deg must be distinct at 0.01-degree resolution")
        for axis in self.axes:
            if axis not in NAMED_AXES:
                raise ValueError(f"unknown axis {axis!r}")
        for angle in self.angles_deg:
            if not 0.0 <= angle <= 360.0:
                raise ValueError("angles must lie in [0, 360] degrees")
        if not (self.flux_hz > 0 and self.duration_s > 0):
            raise ValueError("flux_hz and duration_s must be positive")
        if not self.flux_hz * self.duration_s <= _MAX_PAIRS_PER_SETTING:
            raise ValueError(f"flux_hz * duration_s must not exceed {_MAX_PAIRS_PER_SETTING:.0e} pairs")


@dataclass(frozen=True)
class StageResult:
    """A simulated stage; ``rho`` reconstructs ``counts`` on first read and caches it."""

    stage: str
    counts: CountRecord
    rho_true: np.ndarray

    @functools.cached_property
    def rho(self) -> np.ndarray:
        return mle_reconstruct(self.counts, tomography_projectors()).rho


def cell_seed_entropy(seed: int, axis: str, angle_deg: float, stage: str) -> list[int]:
    """Entropy words identifying one (axis, angle, stage) random stream."""
    return [
        int(seed),
        _AXIS_CODE[axis],
        int(round(angle_deg * 1000)),
        _STAGE_CODE[stage],
    ]


def stage_rng(seed: int, axis: str, angle_deg: float, stage: str) -> np.random.Generator:
    """Independent stream for one (axis, angle, stage) cell, derived by value."""
    return np.random.default_rng(np.random.SeedSequence(cell_seed_entropy(seed, axis, angle_deg, stage)))


def nominal_setting(axis: str, theta: float) -> WavePlateSetting:
    """Wave-plate angles for a rotation by ``theta`` about a named axis.

    x, y and z use ``rotation_setting``; m decomposes the rotation in closed
    form (the target carries the same rotation sense the x/y/z settings realize).
    """
    if axis in ("x", "y", "z"):
        return rotation_setting(axis, theta)
    return decompose_rotation(su2_rotation(named_axis_vector(axis), STACK_ROTATION_SIGN * theta))


def _perturbed_stack(
    setting: WavePlateSetting, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    if sigma <= 0:
        return stack(setting)
    errors = rng.normal(0.0, sigma, size=3)
    return stack(
        WavePlateSetting(
            setting.alpha + errors[0],
            setting.beta + errors[1],
            setting.gamma + errors[2],
        )
    )


def _simulate_cells(
    cells: list[tuple[str, float]], plan: ExperimentPlan
) -> list[tuple[StageResult, StageResult, StageResult]]:
    """Simulate the stage I/II/III counts of each (axis, theta) cell.

    Each stage stream derives from (plan.seed, axis, angle, stage) and draws,
    in order, the drifted source, the stack's plate-angle errors and then the
    acquisition noise; all records share one ``simulate_counts_many`` call.
    """
    base = werner(plan.noise.werner_v)
    sigma_wp = plan.noise.waveplate_error_sigma
    streams, states = [], []
    for axis, theta in cells:
        angle_deg = float(np.rad2deg(theta))
        setting = nominal_setting(axis, theta)
        for stage in STAGES:
            stream = stage_rng(plan.seed, axis, angle_deg, stage)
            source = drift_state(base, plan.noise, stream)
            if stage == "I":
                rho_true = (source + source.conj().T) / 2
            else:
                u_s = _perturbed_stack(setting, sigma_wp, stream)
                u_e = _perturbed_stack(setting, sigma_wp, stream) if stage == "III" else _I2
                rho_true = apply_local(u_s, u_e, source)
            streams.append(stream)
            states.append(rho_true)
    records = simulate_counts_many(states, plan.flux_hz, plan.duration_s, plan.noise, streams)
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
    return _simulate_cells([(axis, theta)], plan)[0]


def simulate_grid(plan: ExperimentPlan) -> dict[tuple[str, float], tuple[StageResult, StageResult, StageResult]]:
    """Simulate every grid cell, keyed (axis, angle_deg) in plan order.

    Each cell equals ``run_three_stages(axis, np.deg2rad(angle_deg), plan)``
    bit for bit; the records of the whole grid are drawn in one batch.
    """
    keys = [(axis, angle_deg) for axis in plan.axes for angle_deg in plan.angles_deg]
    return dict(zip(keys, _simulate_cells([(axis, np.deg2rad(a)) for axis, a in keys], plan)))


def theoretical_stage3(rho_i: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Expected final-stage state: the ideal rotation applied to both qubits."""
    return apply_local(u, u, validate_density_matrix(rho_i))


def _pair_std(metric, items: list) -> float:
    """ddof=1 std of ``metric`` over consecutive pairs of ``items``."""
    return float(np.std([metric(a, b) for a, b in zip(items, items[1:])], ddof=1))


def source_stability(stage1_states: list[np.ndarray]) -> float:
    """Std of fidelities between consecutive source characterizations."""
    if len(stage1_states) < 3:
        raise ValueError("need at least 3 source states for a stability estimate")
    return _pair_std(fidelity, stage1_states)


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


def _distribution_from_rho(rho: np.ndarray) -> np.ndarray:
    probs = born_probabilities(rho, tomography_projectors().flat_projectors)
    return probs / probs.sum()


def _sample_std(values) -> float:
    """ddof=1 std of ``values``; 0.0 below two values."""
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def _cell(
    axis: str, angle_deg: float, dists: tuple[np.ndarray, ...], states: tuple[np.ndarray, ...]
) -> CellMetrics:
    """Score one cell from its stage I/II/III count distributions and states."""
    dist_i, dist_ii, dist_iii = dists
    rho_i, rho_ii, rho_iii = states
    u = stack(nominal_setting(axis, np.deg2rad(angle_deg)))
    rho_iii_th = theoretical_stage3(rho_i, u)
    rho_ii_th = apply_local(u, _I2, rho_i)
    return CellMetrics(
        axis=axis,
        angle_deg=float(angle_deg),
        f_i_iii=fidelity(rho_i, rho_iii),
        f_i_ii=fidelity(rho_i, rho_ii),
        bc_i_iii=bhattacharyya(dist_i, dist_iii),
        bc_i_ii=bhattacharyya(dist_i, dist_ii),
        f_i_iii_theory=fidelity(rho_i, rho_iii_th),
        bc_i_iii_theory=bhattacharyya(dist_i, _distribution_from_rho(rho_iii_th)),
        f_i_ii_theory=fidelity(rho_i, rho_ii_th),
        bc_i_ii_theory=bhattacharyya(dist_i, _distribution_from_rho(rho_ii_th)),
    )


def _summary(
    label: str, cells: list[CellMetrics], stage1_states: list[np.ndarray], stage1_dists: list[np.ndarray]
) -> AxisSummary:
    """Means and standard errors of the I-III metrics, and the stability of consecutive stage-I states (NaN below 3)."""
    f_vals = [c.f_i_iii for c in cells]
    bc_vals = [c.bc_i_iii for c in cells]
    stable = len(stage1_states) >= 3
    return AxisSummary(
        axis=label,
        f_i_iii_mean=float(np.mean(f_vals)),
        f_i_iii_err=float(_sample_std(f_vals) / np.sqrt(len(cells))),
        bc_i_iii_mean=float(np.mean(bc_vals)),
        bc_i_iii_err=float(_sample_std(bc_vals) / np.sqrt(len(cells))),
        stability_fidelity=source_stability(stage1_states) if stable else float("nan"),
        stability_bc=_pair_std(bhattacharyya, stage1_dists) if stable else float("nan"),
    )


def assemble_report(
    plan: ExperimentPlan,
    cell_counts: dict[tuple[str, float], tuple[CountRecord, CountRecord, CountRecord]],
) -> EnvarianceReport:
    """Reconstruct every record once and compute every comparison metric.

    ``cell_counts`` maps (axis, angle_deg) to the stage I/II/III count
    records; reconstruction uses only the counts and the nominal rotation
    settings, mirroring what an analysis of recorded data can know. All
    records go through one ``mle_reconstruct_many`` call. The states are
    kept on the report as ``states``, keyed like ``cell_counts``.
    """
    keys = [(axis, angle_deg) for axis in plan.axes for angle_deg in plan.angles_deg]
    records = [record for key in keys for record in cell_counts[key]]
    rhos = [result.rho for result in mle_reconstruct_many(records, tomography_projectors())]
    states = {key: tuple(rhos[3 * k : 3 * k + 3]) for k, key in enumerate(keys)}
    dists = {key: tuple(normalize_counts(record) for record in cell_counts[key]) for key in keys}
    cells = {key: _cell(*key, dists[key], states[key]) for key in keys}

    def summary(label: str, group: list[tuple[str, float]]) -> AxisSummary:
        return _summary(
            label, [cells[k] for k in group], [states[k][0] for k in group], [dists[k][0] for k in group]
        )

    return EnvarianceReport(
        cells=tuple(cells.values()),
        per_axis=tuple(summary(axis, [k for k in keys if k[0] == axis]) for axis in plan.axes),
        overall=summary("overall", keys),
        deviation_fidelity=_sample_std([c.f_i_iii - c.f_i_iii_theory for c in cells.values()]),
        deviation_bc=_sample_std([c.bc_i_iii - c.bc_i_iii_theory for c in cells.values()]),
        states=states,
    )


def run_experiment(plan: ExperimentPlan) -> EnvarianceReport:
    """Execute the full grid and summarize it, all in memory."""
    cell_counts = {key: tuple(s.counts for s in stages) for key, stages in simulate_grid(plan).items()}
    return assemble_report(plan, cell_counts)
