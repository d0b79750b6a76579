"""Batch command-line front-end.

Subcommands:
  simulate  synthesize per-cell count files plus a manifest
  analyze   reconstruct states from count files and emit report/plot data
  son-fit   fit the Born-rule exponent to middle-stage correlations
  report    simulate + analyze + son-fit in one pass

Every run is driven by a flat key-value JSON config (all keys optional,
defaults reproduce the calibrated reference experiment) and a seed, so a
given config always produces byte-identical outputs. Exit codes: 0 ok,
1 usage error, 2 I/O failure, 3 missing data, 4 convergence failure.
"""

from __future__ import annotations

import argparse
import locale  # noqa: F401  argparse's gettext loads it on first use; load it on import
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import io as eio
from .errors import ConvergenceError, MissingDataError
from .harness import (
    DEFAULT_ANGLES_DEG,
    DEFAULT_SEED,
    STAGES,
    ExperimentPlan,
    assemble_report,
    cell_seed_entropy,
    simulate_grid,
)
from .measurement import DEFAULT_DRIFT_SIGMA, CountRecord, NoiseModel
from .optics import NAMED_AXES
from .son import COMBOS, combo_axis_and_basis, extract_correlation, fitted_correlation, n_sensitive, son_fit

__all__ = ["RunConfig", "main", "entry"]


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    axes: tuple[str, ...] = NAMED_AXES
    angles_deg: tuple[float, ...] = DEFAULT_ANGLES_DEG
    flux_hz: float = 5400.0
    duration_s: float = 5.0
    werner_v: float = 0.98267
    drift_sigma: float = DEFAULT_DRIFT_SIGMA
    waveplate_error_sigma: float = float(np.deg2rad(0.2))
    poisson: bool = True
    seed: int = DEFAULT_SEED
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")

    def plan(self) -> ExperimentPlan:
        noise = NoiseModel(
            werner_v=self.werner_v,
            drift_sigma=self.drift_sigma,
            waveplate_error_sigma=self.waveplate_error_sigma,
            poisson=self.poisson,
            seed=self.seed,
        )
        return ExperimentPlan(
            axes=tuple(self.axes),
            angles_deg=tuple(float(a) for a in self.angles_deg),
            flux_hz=self.flux_hz,
            duration_s=self.duration_s,
            noise=noise,
            seed=self.seed,
        )


_CONFIG_KEYS = set(RunConfig.__dataclass_fields__)
_LIST_KEYS = {"axes": str, "angles_deg": float, "formats": str}


def _is_json_kind(value, kind: type) -> bool:
    """A JSON value of the kind a config field holds: ints pass as floats, bools only as bools."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _config_from_json(raw) -> RunConfig:
    """A RunConfig from a parsed JSON object, each key checked against its field's kind."""
    if not isinstance(raw, dict):
        raise UsageError("config must be a flat JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for key, value in raw.items():
        if key in _LIST_KEYS:
            cast = _LIST_KEYS[key]
            if not isinstance(value, list) or not all(_is_json_kind(v, cast) for v in value):
                raise UsageError(f"config key {key!r} must be a list of {cast.__name__}, not {value!r}")
            values[key] = tuple(cast(v) for v in value)
        else:
            kind = type(getattr(RunConfig, key))
            if not _is_json_kind(value, kind):
                raise UsageError(f"config key {key!r} must be {kind.__name__}, not {value!r}")
            values[key] = value
    return RunConfig(**values)


def load_config(path: str | None, seed=None, out=None, fmt=None) -> RunConfig:
    """The run config from ``path`` and the CLI overrides, checked in full before any file is written."""
    raw = {}
    if path is not None:
        try:
            raw = eio.read_json(Path(path))
        except FileNotFoundError as exc:
            raise MissingDataError(f"config file not found: {path}") from exc
        except ValueError as exc:
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    config = _config_from_json(raw)
    if seed is not None:
        config = replace(config, seed=int(seed))
    if config.seed < 0:
        raise UsageError(f"seed must be a non-negative integer, not {config.seed}")
    if out is not None:
        config = replace(config, out_dir=out)
    if fmt is not None:
        config = replace(config, formats=(fmt,))
    if not config.formats:
        raise UsageError("formats must name at least one of csv, json")
    for f in config.formats:
        if f not in ("csv", "json"):
            raise UsageError(f"unknown output format {f!r}")
    try:
        config.plan()
    except ValueError as exc:
        raise UsageError(f"invalid config: {exc}") from exc
    return config


def _config_echo(config: RunConfig) -> dict:
    # only the keys that determine the data; output location and formats
    # stay out so the manifest is identical wherever the run lands
    echo = asdict(config)
    del echo["out_dir"]
    del echo["formats"]
    echo["axes"] = list(config.axes)
    echo["angles_deg"] = [float(a) for a in config.angles_deg]
    return echo


def cmd_simulate(config: RunConfig) -> int:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    plan = config.plan()
    cells = []
    for (axis, angle_deg), stages in simulate_grid(plan).items():
        for result in stages:
            name = eio.count_file_name(axis, angle_deg, result.stage)
            eio.write_count_csv(out / name, result.counts)
            cells.append(
                {
                    "axis": axis,
                    "angle_deg": float(angle_deg),
                    "stage": result.stage,
                    "file": name,
                    "seed_entropy": cell_seed_entropy(plan.seed, axis, angle_deg, result.stage),
                    "true_state": eio.density_matrix_to_table(result.rho_true),
                }
            )
    manifest = {
        "config": _config_echo(config),
        "grid": {"axes": list(plan.axes), "angles_deg": [float(a) for a in plan.angles_deg]},
        "cells": cells,
    }
    eio.write_json(out / "manifest.json", manifest)
    print(f"simulate: wrote {len(cells)} count files to {out}")
    return 0


def _read_counts(out: Path, axis: str, angle_deg: float, stage: str) -> CountRecord:
    """One stage's count record; a file that is absent or unusable is missing data."""
    path = out / eio.count_file_name(axis, angle_deg, stage)
    if not path.exists():
        raise MissingDataError(f"missing stage file: {path}")
    try:
        record = eio.read_count_csv(path)
    except ValueError as exc:
        raise MissingDataError(f"malformed count file {exc}") from exc
    # totals are summed in int64 downstream; the plan's pair cap keeps simulated ones below this
    total = sum(int(c) for c in record.counts)
    if total > eio.INT64_MAX:
        raise MissingDataError(f"malformed count file {path}: counts total {total} exceeds 2**63 - 1")
    empty = np.flatnonzero(record.setting_totals() == 0)
    if empty.size:
        raise MissingDataError(f"malformed count file {path}: setting {empty[0] + 1} of 9 has no counts")
    return record


def _load_counts(out: Path, plan: ExperimentPlan) -> dict:
    return {
        (axis, angle_deg): tuple(_read_counts(out, axis, angle_deg, stage) for stage in STAGES)
        for axis in plan.axes
        for angle_deg in plan.angles_deg
    }


def _manifest_plan(out: Path) -> ExperimentPlan:
    """The plan of the simulate run whose manifest is in ``out``."""
    path = out / "manifest.json"
    if not path.exists():
        raise MissingDataError(f"missing manifest: {path} (run simulate first)")
    try:
        manifest = eio.read_json(path)
        if not isinstance(manifest, dict) or "config" not in manifest:
            raise UsageError('no "config" object')
        return _config_from_json(manifest["config"]).plan()
    except (ValueError, UsageError) as exc:
        raise MissingDataError(f"malformed manifest {path}: {exc}") from exc


def cmd_analyze(config: RunConfig) -> int:
    out = Path(config.out_dir)
    plan = _manifest_plan(out)
    report = assemble_report(plan, _load_counts(out, plan))

    if "csv" in config.formats:
        eio.write_report_csv(out / "report.csv", report)
        _write_plot_files(out, report)
    if "json" in config.formats:
        eio.write_json(out / "report.json", eio.report_to_dict(report))
        _write_states_json(out, report.states)
    print(
        f"analyze: overall F(I,III) = {report.overall.f_i_iii_mean:.4f}, "
        f"BC(I,III) = {report.overall.bc_i_iii_mean:.5f}"
    )
    return 0


def _write_states_json(out: Path, states: dict) -> None:
    tables = {}
    for (axis, angle_deg), rhos in states.items():
        for stage, rho in zip(STAGES, rhos):
            tables[f"{axis}_{int(round(angle_deg * 100)):05d}_{stage}"] = eio.density_matrix_to_table(rho)
    eio.write_json(out / "states.json", tables)


def _write_plot_files(out: Path, report) -> None:
    by_axis = {}
    for cell in report.cells:
        by_axis.setdefault(cell.axis, []).append(cell)
    summaries = {s.axis: s for s in report.per_axis}
    for axis, cells in by_axis.items():
        for prefix, metric in (("f", "fidelity"), ("bc", "bc")):
            stability = getattr(summaries[axis], f"stability_{metric}")
            for tag in ("i_iii", "i_ii", "i_iii_theory", "i_ii_theory"):
                err = 0.0 if tag.endswith("_theory") else stability
                rows = [(c.angle_deg, getattr(c, f"{prefix}_{tag}"), err) for c in cells]
                eio.write_plot_series(out / f"plot_{metric}_{axis}_{tag}.csv", rows)


def cmd_son_fit(config: RunConfig) -> int:
    out = Path(config.out_dir)
    plan = _manifest_plan(out)
    available = [c for c in COMBOS if combo_axis_and_basis(c)[0] in plan.axes]
    if not available:
        raise MissingDataError("no rotation axes in this run support a correlation combo")
    if len(available) < len(COMBOS):
        missing = sorted(set(COMBOS) - set(available))
        print(f"son-fit: warning: fitting {len(available)}/6 combos (missing {missing})", file=sys.stderr)
    if len(plan.angles_deg) < 5:
        raise MissingDataError("son-fit needs at least 5 rotation angles per combo")

    # two combos share each axis; each stage-II file is read once, in first-use order
    records = {}
    samples = []
    for combo in available:
        axis, _ = combo_axis_and_basis(combo)
        for angle_deg in plan.angles_deg:
            if (axis, angle_deg) not in records:
                records[axis, angle_deg] = _read_counts(out, axis, angle_deg, "II")
            phi = float(np.deg2rad(angle_deg) / 2)
            samples.append(extract_correlation(records[axis, angle_deg], combo, phi))

    try:
        result = son_fit(samples)
    except ValueError as exc:
        raise MissingDataError(f"son-fit: {exc}") from exc
    if "csv" in config.formats:
        eio.write_correlation_csv(out / "correlations.csv", samples)
        _write_fit_curves(out, result)
    if "json" in config.formats:
        eio.write_json(out / "son_fit.json", eio.son_result_to_dict(result))
    print(f"son-fit: n = {result.n:.3f} +- {result.n_uncertainty:.3f} over {len(available)} combos")
    return 0


def _write_fit_curves(out: Path, result) -> None:
    phi_grid = np.deg2rad(np.arange(0.0, 180.5, 1.0))
    for combo in result.per_combo:
        values = fitted_correlation(result, combo, phi_grid)
        rows = [(float(np.rad2deg(phi)), float(v), 0.0) for phi, v in zip(phi_grid, values)]
        eio.write_plot_series(out / f"curve_{combo}.csv", rows)


def cmd_report(config: RunConfig) -> int:
    code = cmd_simulate(config)
    if code:
        return code
    code = cmd_analyze(config)
    if code:
        return code
    grid_axes = set(config.axes)
    if not any(combo_axis_and_basis(c)[0] in grid_axes for c in COMBOS) or len(config.angles_deg) < 5:
        reason = "insufficient axes or angles"
    elif not n_sensitive(np.deg2rad(config.angles_deg) / 2).any():
        reason = "every angle is a multiple of 90 degrees, where E does not depend on n"
    else:
        return cmd_son_fit(config)
    print(f"report: skipping son-fit ({reason})", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="envarsim", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command")
    for name, help_text in (
        ("simulate", "synthesize count files for the configured grid"),
        ("analyze", "reconstruct states and emit comparison reports"),
        ("son-fit", "fit the Born-rule exponent to stage-II correlations"),
        ("report", "simulate, analyze and son-fit in one pass"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a flat JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--format", choices=("csv", "json"), help="restrict output format")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "son-fit": cmd_son_fit,
    "report": cmd_report,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (simulate, analyze, son-fit, report)")
        config = load_config(args.config, seed=args.seed, out=args.out, fmt=args.format)
        return _COMMANDS[args.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MissingDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
