"""File formats: count CSVs, density-matrix JSON tables, reports, plot data.

All writers are deterministic: dictionary keys are sorted, floats use
Python's shortest round-trip repr, and no timestamps or environment data
are embedded, so identical inputs produce byte-identical files. Each file
is written by ``_write_text`` to a sibling temporary file moved over the
target, so it holds its previous or its complete new content. A CSV is
built whole (no field needs quoting: fixed vocabularies and reprs); JSON
is streamed, not held as one string. ``write_json`` refuses NaN and +-inf;
``_report_to_dict`` maps the one NaN the program makes to null.

Each reader is its writer's inverse. ``read_count_csv`` splits lines on
``\n`` and fields on ``,``, as ``_write_csv`` joins them: no quoting and
no ``\r``. It checks only the text: the header, 36 rows with their labels in
canonical order, each count as decimal digits within int64 and each duration
as a plain decimal. ``CountRecord``, built from row 0's duration, checks the
counts' total and that duration before the rows' durations are compared.
``read_json`` refuses an object that repeats a key, which the decoder would
otherwise collapse to its last value, and reports an integer of more digits
than the interpreter converts as an ``OverflowError`` that counts them, not
as a decode error.

An output directory holds one run, and this module alone names its files.
``OWNED_FILES`` lists the names each subcommand writes, and beside it each
subcommand's writer, ``write_simulate``, ``write_analyze`` or
``write_son_fit``, writes them: the library and the CLI take these three.
Each first calls ``_remove_owned``, which removes its subcommand's names, and
for ``simulate`` those of the two subcommands that read its files, so no
earlier run's file stays beside the new ones. No other name is touched. A writer
that takes ``formats`` refuses a bad one (``check_formats``) before it removes
anything, and each takes ``out`` as a ``str`` or a ``Path``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import echo, echo_path
from .harness import SCORE_SERIES, STAGES, EnvarianceReport
from .measurement import INT64_MAX, CountRecord, tomography_projectors
from .son import CorrelationSample, SonFitResult, fitted_correlation

__all__ = [
    "COUNT_CSV_HEADER",
    "OWNED_FILES",
    "FORMATS",
    "check_formats",
    "write_simulate",
    "write_analyze",
    "write_son_fit",
    "is_decimal",
    "record_tag",
    "count_file_name",
    "write_count_csv",
    "read_count_csv",
    "density_matrix_to_table",
    "write_json",
    "read_json",
    "write_report_csv",
    "write_plot_series",
    "write_correlation_csv",
]

COUNT_CSV_HEADER = ("setting_label", "outcome_label", "counts", "duration_s")


def is_decimal(text: str) -> bool:
    """Whether ``text`` is ASCII decimal digits only, the one form a count or a seed is read in.

    int() would also take "2_84", " +728 " and non-ASCII digits.
    """
    return text.isascii() and text.isdigit()


def record_tag(axis: str, angle_deg: float, stage: str) -> str:
    """Canonical per-cell record name, angle encoded in centidegrees."""
    return f"{axis}_{int(round(angle_deg * 100)):05d}_{stage}"


def count_file_name(axis: str, angle_deg: float, stage: str) -> str:
    return f"counts_{record_tag(axis, angle_deg, stage)}.csv"


# the names each subcommand writes into its output directory, as patterns, each removed in
# turn: simulate's manifest first, so a run that fails part-way leaves none beside its count files
OWNED_FILES = {
    "simulate": ("manifest.json", "counts_*.csv"),
    "analyze": ("report.*", "states.json", "plot_*.csv"),
    "son-fit": ("son_fit.json", "correlations.csv", "curve_*.csv"),
}


FORMATS = ("csv", "json")


def check_formats(formats) -> None:
    """Refuse ``formats`` unless it is a sequence, not a string, of at least one format, each csv or json."""
    if isinstance(formats, str):
        raise ValueError(f"formats must be a sequence of format names, not the string {echo(formats)}")
    if not formats:
        raise ValueError(f"formats must name at least one of {', '.join(FORMATS)}")
    for f in formats:
        if f not in FORMATS:
            raise ValueError(f"unknown output format {echo(f)}")


def _remove_owned(out: Path, command: str) -> None:
    """Remove the files in ``out`` that ``command`` owns, and for ``simulate`` those of
    ``analyze`` and ``son-fit``, which read its files."""
    entries = list(out.iterdir())
    for pattern in (p for c in (OWNED_FILES if command == "simulate" else (command,)) for p in OWNED_FILES[c]):
        for path in entries:
            if path.match(pattern):
                path.unlink()


def _state_tables(states: dict) -> dict:
    """Record tag -> [re, im] table of each stage's state, from (axis, angle_deg) -> its three stages'
    states: the layout of the manifest's ``cells`` and of ``states.json``."""
    return {record_tag(*cell, s): density_matrix_to_table(rho) for cell, rhos in states.items() for s, rho in zip(STAGES, rhos)}


def write_simulate(out: str | Path, grid: dict, manifest_head: dict) -> None:
    """Write ``simulate_grid``'s cells into ``out``, made if missing: a count file per record, then the
    manifest, ``manifest_head`` with each record's true state under ``cells``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    _remove_owned(out, "simulate")
    for cell, stages in grid.items():
        for result in stages:
            write_count_csv(out / count_file_name(*cell, result.stage), result.counts)
    cells = _state_tables({cell: [result.rho_true for result in stages] for cell, stages in grid.items()})
    write_json(out / "manifest.json", {**manifest_head, "cells": cells})


def write_analyze(out: str | Path, report: EnvarianceReport, formats) -> None:
    """Write ``report`` into ``out``: for csv its table and its plot series, for json its summary and its states."""
    check_formats(formats)
    out = Path(out)
    _remove_owned(out, "analyze")
    if "csv" in formats:
        write_report_csv(out / "report.csv", report)
        for summary in report.per_axis:
            cells = [c for c in report.cells if c.axis == summary.axis]
            for prefix, metric in (("f", "fidelity"), ("bc", "bc")):
                for tag in SCORE_SERIES:
                    err = 0.0 if tag.endswith("_theory") else getattr(summary, f"stability_{metric}")
                    rows = [(c.angle_deg, getattr(c, f"{prefix}_{tag}"), err) for c in cells]
                    write_plot_series(out / f"plot_{metric}_{summary.axis}_{tag}.csv", rows)
    if "json" in formats:
        write_json(out / "report.json", _report_to_dict(report))
        write_json(out / "states.json", _state_tables(report.states))


def write_son_fit(out: str | Path, samples: list[CorrelationSample], result: SonFitResult, formats) -> None:
    """Write a fit of n into ``out``: for csv its samples and a fitted curve per combo, for json the fit."""
    check_formats(formats)
    out = Path(out)
    _remove_owned(out, "son-fit")
    if "csv" in formats:
        write_correlation_csv(out / "correlations.csv", samples)
        phi_grid = np.deg2rad(np.arange(0.0, 180.5, 1.0))
        for combo, values in zip(result.per_combo, fitted_correlation(result, result.per_combo, phi_grid)):
            rows = [(float(np.rad2deg(phi)), float(v), 0.0) for phi, v in zip(phi_grid, values)]
            write_plot_series(out / f"curve_{combo}.csv", rows)
    if "json" in formats:
        write_json(out / "son_fit.json", _son_result_to_dict(result))


def _write_text(path: Path, chunks) -> None:
    """Write ``chunks`` to a sibling temporary file, then ``os.replace`` it over ``path``; on any failure remove it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header, rows) -> None:
    """One line per row of string fields, comma-joined and ending in ``\n``, written as one string."""
    _write_text(path, ["".join(",".join(fields) + "\n" for fields in (header, *rows))])


def write_count_csv(path: Path, record: CountRecord) -> None:
    labels = tomography_projectors().flat_labels
    duration = repr(float(record.duration_s))
    rows = [(setting, outcome, str(int(count)), duration) for (setting, outcome), count in zip(labels, record.counts)]
    _write_csv(path, COUNT_CSV_HEADER, rows)


def read_count_csv(path: Path) -> CountRecord:
    """Parse one count file as ``_write_csv`` writes it; malformed content, or counts or a duration
    ``CountRecord`` refuses, raises ValueError naming the file and showing at most ``ECHO`` characters
    of a field."""
    labels = tomography_projectors().flat_labels
    counts = []
    durations = []
    try:
        with open(path, newline="") as fh:
            rows = [line.split(",") for line in fh.read().removesuffix("\n").split("\n")]
        header = tuple(rows.pop(0))
        if len(header) != len(COUNT_CSV_HEADER):
            raise ValueError(f"header has {len(header)} fields, expected {len(COUNT_CSV_HEADER)}")
        if header != COUNT_CSV_HEADER:
            raise ValueError(f"unexpected header ({', '.join(map(echo, header))})")
        if len(rows) != 36:
            raise ValueError(f"expected 36 rows, found {len(rows)}")
        for idx, row in enumerate(rows):
            if len(row) != len(COUNT_CSV_HEADER):
                raise ValueError(f"row {idx} has {len(row)} fields, expected {len(COUNT_CSV_HEADER)}")
            setting_label, outcome_label, count, duration_s = row
            if (setting_label, outcome_label) != labels[idx]:
                raise ValueError(f"row {idx} labels [{echo(setting_label)}, {echo(outcome_label)}] out of canonical order")
            if not is_decimal(count):
                raise ValueError(f"row {idx} count {echo(count)} is not a decimal integer")
            # int() converts at most 4,300 digits, leading zeros included; INT64_MAX has 19
            digits = count.lstrip("0") or "0"
            if len(digits) > 19 or int(digits) > INT64_MAX:
                raise ValueError(f"row {idx} count {echo(digits, str)} is not in [0, 2**63 - 1]")
            counts.append(int(digits))
            try:
                # float() would also take "5_0.0" (as 50.0), " 5.0 " and non-ASCII digits
                if not duration_s.isascii() or "_" in duration_s or duration_s.strip() != duration_s:
                    raise ValueError
                durations.append(float(duration_s))
            except ValueError:
                raise ValueError(f"row {idx} duration_s {echo(duration_s)} is not a plain decimal number") from None
        # the record checks the total and row 0's duration before the rows are compared:
        # nan differs from itself
        record = CountRecord(counts=counts, duration_s=durations[0])
        if any(d != record.duration_s for d in durations):
            raise ValueError("rows disagree on duration_s")
        return record
    except ValueError as exc:
        raise ValueError(f"{echo_path(path)}: {exc}") from exc


def density_matrix_to_table(rho: np.ndarray) -> list[list[list[float]]]:
    """4x4 complex matrix as nested [re, im] pairs."""
    return np.stack([np.real(rho), np.imag(rho)], -1).tolist()


def write_json(path: Path, obj) -> None:
    """Write ``obj`` as sorted, indented JSON; a NaN or +-inf anywhere raises ValueError."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False).iterencode(obj)
    _write_text(path, itertools.chain(chunks, ("\n",)))


def _object_of_distinct_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {echo(key)} repeats in one object")
        obj[key] = value
    return obj


def _int_within_limit(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts to an int
        digits, limit = len(text.lstrip("-")), sys.get_int_max_str_digits()
        raise OverflowError(f"a number has {digits} digits, more than the interpreter's limit of {limit}") from None


def read_json(path: Path):
    """Parse one JSON file; an object that repeats a key raises ValueError naming the key,
    nesting too deep for the decoder one naming the file, and an integer of more digits
    than the interpreter converts OverflowError giving their count."""
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_object_of_distinct_keys, parse_int=_int_within_limit)
        except RecursionError:
            raise ValueError(f"{echo_path(path)} nests arrays or objects too deeply to decode") from None


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
    rows = [[cell.axis] + [repr(getattr(cell, col)) for col in _REPORT_COLUMNS[1:]] for cell in report.cells]
    _write_csv(path, _REPORT_COLUMNS, rows)


def _report_to_dict(report: EnvarianceReport) -> dict:
    def summary_dict(summary) -> dict:
        row = asdict(summary)
        del row["axis"]
        # a stability over fewer than 3 cells is NaN, written as null
        row.update({key: None for key in ("stability_fidelity", "stability_bc") if math.isnan(row[key])})
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
    fields = [(repr(float(a)), repr(float(v)), repr(0.0 if math.isnan(e) else float(e))) for a, v, e in rows]
    _write_csv(path, ("angle_deg", "value", "error"), fields)


def write_correlation_csv(path: Path, samples: list[CorrelationSample]) -> None:
    rows = [(s.combo, repr(round(float(np.rad2deg(s.phi)), 9)), repr(s.value), repr(s.sigma)) for s in samples]
    _write_csv(path, ("combo", "phi_deg", "E", "sigma_E"), rows)


def _son_result_to_dict(result: SonFitResult) -> dict:
    return {
        "n": result.n,
        "n_uncertainty": result.n_uncertainty,
        "per_combo": list(result.per_combo),
        "per_combo_n": list(result.per_combo_n),
        "objective": result.objective,
    }
