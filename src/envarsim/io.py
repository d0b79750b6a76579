"""File formats: count CSVs, density-matrix JSON tables, reports, plot data.

All writers are deterministic: dictionary keys are sorted, floats use
Python's shortest round-trip repr, and no timestamps or environment data
are embedded, so identical inputs produce byte-identical files. Every
writer fills a sibling temporary file and moves it over the target, so a
file holds either its previous or its complete new content.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .harness import EnvarianceReport
from .measurement import CountRecord, tomography_projectors
from .son import CorrelationSample, SonFitResult

__all__ = [
    "COUNT_CSV_HEADER",
    "INT64_MAX",
    "count_file_name",
    "write_count_csv",
    "read_count_csv",
    "density_matrix_to_table",
    "write_json",
    "read_json",
    "write_report_csv",
    "report_to_dict",
    "write_plot_series",
    "write_correlation_csv",
    "son_result_to_dict",
]

COUNT_CSV_HEADER = ("setting_label", "outcome_label", "counts", "duration_s")

INT64_MAX = 2**63 - 1


def count_file_name(axis: str, angle_deg: float, stage: str) -> str:
    """Canonical per-cell file name, angle encoded in centidegrees."""
    return f"counts_{axis}_{int(round(angle_deg * 100)):05d}_{stage}.csv"


@contextlib.contextmanager
def _replaced_on_success(path: Path, newline: str | None = None):
    """Open a sibling temporary file; once the block completes it replaces ``path``.

    ``os.replace`` is atomic within one directory. If the block raises, the
    temporary file is removed and ``path`` keeps its previous content.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_count_csv(path: Path, record: CountRecord) -> None:
    labels = tomography_projectors().flat_labels
    with _replaced_on_success(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COUNT_CSV_HEADER)
        for (setting_label, outcome_label), count in zip(labels, record.counts):
            writer.writerow([setting_label, outcome_label, int(count), repr(float(record.duration_s))])


def read_count_csv(path: Path) -> CountRecord:
    """Parse one count file; malformed content raises ValueError naming the file."""
    labels = tomography_projectors().flat_labels
    counts = []
    durations = []
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header = tuple(rows.pop(0)) if rows else ()
        if header != COUNT_CSV_HEADER:
            raise ValueError(f"unexpected header {header}")
        if len(rows) != 36:
            raise ValueError(f"expected 36 rows, found {len(rows)}")
        for idx, row in enumerate(rows):
            if len(row) != len(COUNT_CSV_HEADER):
                raise ValueError(f"row {idx} has {len(row)} fields, expected {len(COUNT_CSV_HEADER)}")
            setting_label, outcome_label, count, duration_s = row
            if (setting_label, outcome_label) != labels[idx]:
                raise ValueError(f"row {idx} labels {row[:2]} out of canonical order")
            # int() would also take "2_84", " +728 " and non-ASCII digits
            if not (count.isascii() and count.isdigit()):
                raise ValueError(f"row {idx} count {count!r} is not a decimal integer")
            value = int(count)
            if value > INT64_MAX:
                raise ValueError(f"row {idx} count {value} is not in [0, 2**63 - 1]")
            counts.append(value)
            durations.append(float(duration_s))
        duration = durations[0]
        if not (math.isfinite(duration) and duration > 0):
            raise ValueError(f"duration_s {duration!r} is not finite and positive")
        if any(d != duration for d in durations):
            raise ValueError("rows disagree on duration_s")
        flux = sum(counts) / (9 * duration)  # exact: an int64 sum could wrap
        return CountRecord(counts=counts, duration_s=duration, flux_hz=flux)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def density_matrix_to_table(rho: np.ndarray) -> list[list[list[float]]]:
    """4x4 complex matrix as nested [re, im] pairs."""
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in np.asarray(rho)]


def _clean(obj):
    """Make a structure JSON-safe: numpy scalars to Python, NaN to None."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return None if math.isnan(value) else value
    return obj


def write_json(path: Path, obj) -> None:
    with _replaced_on_success(path) as fh:
        json.dump(_clean(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


_REPORT_COLUMNS = (
    "axis",
    "angle_deg",
    "f_i_iii",
    "f_i_ii",
    "bc_i_iii",
    "bc_i_ii",
    "f_i_iii_theory",
    "bc_i_iii_theory",
)


def write_report_csv(path: Path, report: EnvarianceReport) -> None:
    """One row per grid cell with the six comparison metrics."""
    with _replaced_on_success(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_REPORT_COLUMNS)
        for cell in report.cells:
            writer.writerow(
                [cell.axis, repr(cell.angle_deg)]
                + [repr(getattr(cell, col)) for col in _REPORT_COLUMNS[2:]]
            )


def report_to_dict(report: EnvarianceReport) -> dict:
    def summary_dict(summary) -> dict:
        row = asdict(summary)
        del row["axis"]
        return row

    return {
        "per_axis": {s.axis: summary_dict(s) for s in report.per_axis},
        "overall": summary_dict(report.overall),
        "deviation": {
            "fidelity": report.deviation_fidelity,
            "bc": report.deviation_bc,
        },
        "cells": [asdict(c) for c in report.cells],
    }


def write_plot_series(path: Path, rows: list[tuple[float, float, float]]) -> None:
    """Per-panel plot data: angle_deg, value, error."""
    with _replaced_on_success(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("angle_deg", "value", "error"))
        for angle, value, error in rows:
            err = 0.0 if math.isnan(error) else error
            writer.writerow([repr(float(angle)), repr(float(value)), repr(float(err))])


def write_correlation_csv(path: Path, samples: list[CorrelationSample]) -> None:
    with _replaced_on_success(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("combo", "phi_deg", "E", "sigma_E"))
        for s in samples:
            phi_deg = round(float(np.rad2deg(s.phi)), 9)
            writer.writerow([s.combo, repr(phi_deg), repr(s.value), repr(s.sigma)])


def son_result_to_dict(result: SonFitResult) -> dict:
    return {
        "n": result.n,
        "n_uncertainty": result.n_uncertainty,
        "per_combo": list(result.per_combo),
        "per_combo_n": list(result.per_combo_n),
        "objective": result.objective,
    }
