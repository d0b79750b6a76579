"""Output checks that do not depend on envarsim.

Every expected value here is computed with numpy alone: the benchmark
builds its own polarization kets, projectors, singlet and Werner states,
parses the count CSVs itself and takes matrix square roots through its own
eigendecompositions. Each check returns a list of ``(check, message)``
failures; an empty list means the outputs are correct. The tolerances are
explained in README.md.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

AXES = ("x", "y", "z", "m")
ANGLES_DEG = tuple(float(a) for a in range(0, 361, 30))
STAGES = ("I", "II", "III")
COMBOS = ("Z-DA", "Z-RL", "Y-DA", "Y-HV", "X-RL", "X-HV")

# Bloch rotation sense realized by the wave-plate stacks: the stack for
# angle theta realizes exp(+i theta/2 n.sigma) (acceptance criterion 2).
STACK_SIGN = -1.0
CALIBRATED_WERNER_V = 0.98267
PAIRS_PER_SETTING = 5400.0 * 5.0  # the default flux_hz x duration_s
DURATION_S = 5.0

# Tolerances (derivations in README.md).
TOL_RECOMPUTE = 1e-12      # same integers or matrices, float64 rounding only
TOL_FIDELITY_RECOMPUTE = 2e-7
TOL_PHYSICAL = 1e-12
TOTAL_SIGMAS = 6.0         # Poisson band on each setting's total
SON_N_TOL = 0.1
NOISELESS_MIN = 0.9999
NOISELESS_F_HALF_ANGLE_TOL = 2e-3
NOISELESS_BC_TOL = 1e-5
CALIBRATED_F_MIN = 0.99     # criterion-6 lower bounds on the grid means
CALIBRATED_BC_MIN = 0.999
MEAN_SIGMAS = 4.0          # allowance in standard errors of the mean
DEVIATION_FACTOR = 5.0
CALIBRATED_BC_WERNER_TOL = 0.025

_S2 = math.sqrt(2.0)
KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / _S2,
    "A": np.array([1, -1], dtype=complex) / _S2,
    "R": np.array([1, 1j], dtype=complex) / _S2,
    "L": np.array([1, -1j], dtype=complex) / _S2,
}
BASES = ("HV", "DA", "RL")
AXIS_VECTORS = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
    "m": np.ones(3) / math.sqrt(3.0),
}
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _labelled_projectors() -> dict[tuple[str, str], np.ndarray]:
    """(setting label, outcome label) -> two-qubit projector, 36 entries."""
    out = {}
    for bs in BASES:
        for be in BASES:
            for a in bs:
                for b in be:
                    ket = np.kron(KETS[a], KETS[b])
                    out[(f"{bs}-{be}", a + b)] = np.outer(ket, ket.conj())
    return out


PROJECTORS = _labelled_projectors()
_PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / _S2
SINGLET = np.outer(_PSI_MINUS, _PSI_MINUS.conj())


def werner(v: float) -> np.ndarray:
    return v * SINGLET + (1 - v) * np.eye(4) / 4


def rotation(axis: str, theta: float) -> np.ndarray:
    """Stack unitary for a rotation by ``theta`` about a named axis."""
    n = AXIS_VECTORS[axis]
    angle = STACK_SIGN * theta
    ns = sum(c * p for c, p in zip(n, _PAULI))
    return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * ns


def ideal_distribution(rho: np.ndarray) -> np.ndarray:
    """Born probabilities over the 36 projectors, each setting weighted 1/9."""
    p = np.array([np.real(np.trace(proj @ rho)) for proj in PROJECTORS.values()])
    return np.clip(p, 0.0, None) / 9.0


def bc(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum(np.sqrt(p * q)))


def rotate_system(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    full = np.kron(u, np.eye(2))
    return full @ rho @ full.conj().T


def ideal_bc_i_ii(rho: np.ndarray, axis: str, angle_deg: float) -> float:
    """BC between the ideal stage-I and stage-II distributions of ``rho``."""
    u = rotation(axis, math.radians(angle_deg))
    return bc(ideal_distribution(rho), ideal_distribution(rotate_system(rho, u)))


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    root = _sqrt_psd(rho)
    inner = root @ sigma @ root
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


# ---------------------------------------------------------------- report_default


def _centideg(angle_deg: float) -> str:
    return f"{int(round(angle_deg * 100)):05d}"


def read_counts(path: Path) -> tuple[dict[tuple[str, str], int], float]:
    """Count CSV -> ({(setting, outcome): count}, duration_s)."""
    counts = {}
    duration = math.nan
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if tuple(rows[0]) != ("setting_label", "outcome_label", "counts", "duration_s"):
        raise ValueError(f"{path.name}: unexpected header {rows[0]}")
    for setting, outcome, count, duration_s in rows[1:]:
        counts[(setting, outcome)] = int(count)
        duration = float(duration_s)
    if set(counts) != set(PROJECTORS):
        raise ValueError(f"{path.name}: labels are not the 36 canonical projectors")
    return counts, duration


def _distribution(counts: dict[tuple[str, str], int]) -> np.ndarray:
    values = np.array([counts[key] for key in PROJECTORS], dtype=float)
    return values / values.sum()


def _read_csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _state_from_table(table) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in table])


def check_report_dir(out: Path) -> list[tuple[str, str]]:
    """Checks on the files a default ``envarsim report`` wrote into ``out``."""
    failures: list[tuple[str, str]] = []

    def fail(check: str, message: str) -> None:
        failures.append((check, message))

    counts = {}
    for axis in AXES:
        for angle in ANGLES_DEG:
            for stage in STAGES:
                name = f"counts_{axis}_{_centideg(angle)}_{stage}.csv"
                try:
                    counts[(axis, angle, stage)] = read_counts(out / name)
                except (OSError, ValueError) as exc:
                    fail("count_files", f"{name}: {exc}")
    if failures:
        return failures

    # Each setting's total is Poisson with mean flux*duration, because the
    # four outcome probabilities of a complete analyzer basis sum to 1.
    band = TOTAL_SIGMAS * math.sqrt(PAIRS_PER_SETTING)
    for key, (record, duration) in counts.items():
        if duration != DURATION_S:
            fail("count_totals", f"{key}: duration {duration} != {DURATION_S}")
        for setting in {s for s, _ in PROJECTORS}:
            total = sum(c for (s, _), c in record.items() if s == setting)
            if abs(total - PAIRS_PER_SETTING) > band:
                fail("count_totals", f"{key} {setting}: total {total} outside {PAIRS_PER_SETTING:.0f} +- {band:.0f}")

    rows = _read_csv_rows(out / "report.csv")
    by_cell = {(r["axis"], float(r["angle_deg"])): r for r in rows}
    if set(by_cell) != {(a, g) for a in AXES for g in ANGLES_DEG}:
        fail("report_rows", f"report.csv covers {sorted(by_cell)}")
        return failures
    for (axis, angle), row in by_cell.items():
        p = {s: _distribution(counts[(axis, angle, s)][0]) for s in STAGES}
        for column, other in (("bc_i_iii", "III"), ("bc_i_ii", "II")):
            expected = bc(p["I"], p[other])
            if abs(float(row[column]) - expected) > TOL_RECOMPUTE:
                fail("bc_from_counts", f"{axis} {angle}: {column} {row[column]} != {expected!r}")

    with open(out / "states.json") as fh:
        tables = json.load(fh)
    states = {}
    for axis in AXES:
        for angle in ANGLES_DEG:
            for stage in STAGES:
                key = f"{axis}_{_centideg(angle)}_{stage}"
                if key not in tables:
                    fail("states_physical", f"states.json lacks {key}")
                    continue
                rho = _state_from_table(tables[key])
                herm = np.max(np.abs(rho - rho.conj().T))
                trace_err = abs(np.trace(rho) - 1.0)
                min_eig = float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)))
                if herm > TOL_PHYSICAL or trace_err > TOL_PHYSICAL or min_eig < -TOL_PHYSICAL:
                    fail(
                        "states_physical",
                        f"{key}: |rho-rho^H| {herm:.1e}, |Tr-1| {trace_err:.1e}, min eig {min_eig:.1e}",
                    )
                states[(axis, angle, stage)] = rho
    if len(states) == len(counts):
        for (axis, angle), row in by_cell.items():
            for column, other in (("f_i_iii", "III"), ("f_i_ii", "II")):
                expected = uhlmann_fidelity(states[(axis, angle, "I")], states[(axis, angle, other)])
                if abs(float(row[column]) - expected) > TOL_FIDELITY_RECOMPUTE:
                    fail("fidelity_from_states", f"{axis} {angle}: {column} {row[column]} != {expected!r}")

    correlations = _read_csv_rows(out / "correlations.csv")
    seen = set()
    for r in correlations:
        combo, phi_deg = r["combo"], float(r["phi_deg"])
        axis, basis = combo[0].lower(), combo[2:]
        angle = 2 * phi_deg
        record = counts.get((axis, angle, "II"))
        if record is None:
            fail("correlations_from_counts", f"{combo} phi {phi_deg}: no stage-II counts")
            continue
        block = {o: c for (s, o), c in record[0].items() if s == f"{basis}-{basis}"}
        same = block[basis[0] * 2] + block[basis[1] * 2]
        diff = block[basis[0] + basis[1]] + block[basis[1] + basis[0]]
        expected = (same - diff) / (same + diff)
        if abs(float(r["E"]) - expected) > TOL_RECOMPUTE:
            fail("correlations_from_counts", f"{combo} phi {phi_deg}: E {r['E']} != {expected!r}")
        seen.add((combo, angle))
    if seen != {(c, a) for c in COMBOS for a in ANGLES_DEG}:
        fail("correlations_from_counts", f"correlations.csv has {len(seen)} of {len(COMBOS) * len(ANGLES_DEG)} samples")

    with open(out / "son_fit.json") as fh:
        son = json.load(fh)
    if sorted(son["per_combo"]) != sorted(COMBOS) or len(son["per_combo_n"]) != len(COMBOS):
        fail("son_fit", f"fit covers combos {son['per_combo']}")
    if not abs(son["n"] - 2.0) <= SON_N_TOL:
        fail("son_fit", f"n = {son['n']} not within {SON_N_TOL} of 2")
    return failures


# ---------------------------------------------------------------- grids


def _expected_cells(report) -> list[tuple[str, str]]:
    got = [(c.axis, c.angle_deg) for c in report.cells]
    want = [(a, g) for a in AXES for g in ANGLES_DEG]
    return [] if got == want else [("grid_complete", f"cells {got} != {want}")]


def check_noiseless(report) -> list[tuple[str, str]]:
    """Noiseless pure singlet: exact envariance and the half-angle laws."""
    failures = _expected_cells(report)
    for c in report.cells:
        where = f"{c.axis} {c.angle_deg}"
        if not (c.f_i_iii >= NOISELESS_MIN and c.bc_i_iii >= NOISELESS_MIN):
            failures.append(("envariance_restored", f"{where}: F(I,III) {c.f_i_iii}, BC(I,III) {c.bc_i_iii}"))
        ideal_f = math.cos(math.radians(c.angle_deg) / 2) ** 2
        if abs(c.f_i_ii - ideal_f) > NOISELESS_F_HALF_ANGLE_TOL:
            failures.append(("fidelity_half_angle", f"{where}: F(I,II) {c.f_i_ii} vs cos^2 {ideal_f}"))
        ideal_bc = ideal_bc_i_ii(SINGLET, c.axis, c.angle_deg)
        if abs(c.bc_i_ii - ideal_bc) > NOISELESS_BC_TOL:
            failures.append(("bc_singlet", f"{where}: BC(I,II) {c.bc_i_ii} vs singlet {ideal_bc}"))
    return failures


def check_calibrated(report) -> list[tuple[str, str]]:
    """Calibrated noise: criterion-6 means, deviations, Werner BC(I,II)."""
    failures = _expected_cells(report)
    overall = report.overall
    for name, values, reported, bound in (
        ("F(I,III)", [c.f_i_iii for c in report.cells], overall.f_i_iii_mean, CALIBRATED_F_MIN),
        ("BC(I,III)", [c.bc_i_iii for c in report.cells], overall.bc_i_iii_mean, CALIBRATED_BC_MIN),
    ):
        mean = float(np.mean(values))
        sem = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        if abs(reported - mean) > TOL_RECOMPUTE:
            failures.append(("overall_means", f"reported mean {name} {reported} != cell mean {mean}"))
        if not bound - MEAN_SIGMAS * sem <= mean <= 1.0:
            failures.append(("overall_means", f"mean {name} {mean} below {bound} - {MEAN_SIGMAS} x {sem:.2e}"))
    for name, deviation, stability in (
        ("fidelity", report.deviation_fidelity, overall.stability_fidelity),
        ("bc", report.deviation_bc, overall.stability_bc),
    ):
        if not deviation <= DEVIATION_FACTOR * stability:
            failures.append(
                ("deviation_vs_stability", f"{name} deviation {deviation} > {DEVIATION_FACTOR} x stability {stability}")
            )
    base = werner(CALIBRATED_WERNER_V)
    for c in report.cells:
        ideal = ideal_bc_i_ii(base, c.axis, c.angle_deg)
        if abs(c.bc_i_ii - ideal) > CALIBRATED_BC_WERNER_TOL:
            failures.append(("bc_werner", f"{c.axis} {c.angle_deg}: BC(I,II) {c.bc_i_ii} vs Werner {ideal}"))
    return failures
