"""Batch command-line front-end.

Subcommands:
  simulate  synthesize per-cell count files plus a manifest
  analyze   reconstruct states from count files and emit report/plot data
  son-fit   fit the Born-rule exponent to middle-stage correlations
  report    simulate + analyze + son-fit in one pass: the same files as the
            three subcommands, analyzed from memory, none read back

Every run is driven by a flat key-value JSON config (all keys optional,
defaults reproduce the calibrated reference experiment) and a seed, so a
given config always produces byte-identical outputs. Exit codes: 0 ok,
1 usage error, 2 I/O failure, 3 missing data, 4 convergence failure.
"""

from __future__ import annotations

import argparse
import ast
import errno
import locale  # noqa: F401  argparse's gettext loads it on first use; load it on import
import re
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import io as eio
from .errors import ConvergenceError, MissingDataError, echo, echo_path, escape
from .harness import _SCORE_SERIES, STAGES, ExperimentPlan, assemble_report, calibrated_noise, simulate_grid
from .measurement import CountRecord, NoiseModel
from .son import COMBOS, fit_exponent, fitted_correlation

__all__ = ["RunConfig", "main", "entry"]


class UsageError(Exception):
    pass


# the calibrated reference experiment; every default below is a Python
# scalar, since _config_from_json reads a key's JSON kind from its default
_DEFAULT = ExperimentPlan(noise=calibrated_noise())


@dataclass(frozen=True)
class RunConfig:
    axes: tuple[str, ...] = _DEFAULT.axes
    angles_deg: tuple[float, ...] = _DEFAULT.angles_deg
    flux_hz: float = _DEFAULT.flux_hz
    duration_s: float = _DEFAULT.duration_s
    werner_v: float = _DEFAULT.noise.werner_v
    drift_sigma: float = _DEFAULT.noise.drift_sigma
    waveplate_error_sigma: float = float(_DEFAULT.noise.waveplate_error_sigma)
    poisson: bool = _DEFAULT.noise.poisson
    seed: int = _DEFAULT.seed
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")
    # the keys its config file or --seed set, in that order: not a config key, and not compared
    given: tuple[str, ...] = field(default=(), compare=False, repr=False)

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


_CONFIG_KEYS = set(RunConfig.__dataclass_fields__) - {"given"}
# the keys that determine the data; output location and formats stay out
_DATA_KEYS = _CONFIG_KEYS - {"out_dir", "formats"}
_LIST_KEYS = {"axes": str, "angles_deg": float, "formats": str}


def _is_json_kind(value, kind: type) -> bool:
    """A JSON value of the kind a config field holds: ints pass as floats that can hold them, bools only as bools."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float and isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            return False
        return True
    return isinstance(value, kind)


def _config_from_json(raw) -> RunConfig:
    """A RunConfig from a parsed JSON object, each value checked against and cast to its field's kind."""
    if not isinstance(raw, dict):
        raise UsageError("config must be a flat JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {echo(sorted(unknown))}")
    values = {}
    for key, value in raw.items():
        if key in _LIST_KEYS:
            cast = _LIST_KEYS[key]
            if not isinstance(value, list) or not all(_is_json_kind(v, cast) for v in value):
                raise UsageError(f"config key {key!r} must be a list of {cast.__name__}, not {echo(value)}")
            values[key] = tuple(cast(v) for v in value)
        else:
            kind = type(getattr(RunConfig, key))
            if not _is_json_kind(value, kind):
                raise UsageError(f"config key {key!r} must be {kind.__name__}, not {echo(value)}")
            values[key] = kind(value)
    return RunConfig(**values, given=tuple(values))


def _check_path(name: str, path: str, kind: str) -> None:
    """An empty path, or one holding a NUL, which no OS call takes, is a usage error."""
    if not path:
        raise UsageError(f"{name} must name a {kind}, not the empty string")
    if "\0" in path:
        raise UsageError(f"{name} must name a {kind}, not a path holding a NUL character: {echo(path)}")


def load_config(path: str | None, seed=None, out=None, fmt=None) -> RunConfig:
    """The run config from ``path`` and the CLI overrides, checked in full before any file is written."""
    raw = {}
    if path is not None:
        _check_path("--config", path, "file")
        try:
            raw = eio.read_json(Path(path))
        except FileNotFoundError as exc:
            raise MissingDataError(f"config file not found: {echo_path(path)}") from exc
        except ValueError as exc:
            raise UsageError(f"config file {echo_path(path)} is not valid JSON: {exc}") from exc
        except OverflowError as exc:
            raise UsageError(f"config file {echo_path(path)}: {exc}") from exc
    config = _config_from_json(raw)
    if seed is not None:
        # an int that is not a bool, or text written as a count is: ASCII decimal
        # digits only; int() would also take 7.9, True and "\u0663"
        if not (eio.is_decimal(seed) if isinstance(seed, str) else type(seed) is int):
            raise UsageError(f"seed must be an int or a string of ASCII decimal digits, not {echo(seed)}")
        try:
            value = int(seed)
        except ValueError:  # more digits than the interpreter converts to an int
            limit = sys.get_int_max_str_digits()
            raise UsageError(f"seed has {len(seed)} digits, more than the interpreter's limit of {limit}") from None
        config = replace(config, seed=value, given=(*config.given, "seed"))
    if out is not None:
        config = replace(config, out_dir=out)
    _check_path("out_dir", config.out_dir, "directory")
    if fmt is not None:
        config = replace(config, formats=(fmt,))
    if not config.formats:
        raise UsageError("formats must name at least one of csv, json")
    for f in config.formats:
        if f not in ("csv", "json"):
            raise UsageError(f"unknown output format {echo(f)}")
    try:
        config.plan()
    except ValueError as exc:
        raise UsageError(f"invalid config: {exc}") from exc
    return config


def _config_echo(config: RunConfig) -> dict:
    # only the data keys, so the manifest is identical wherever the run lands
    return {key: value for key, value in asdict(config).items() if key in _DATA_KEYS}


def _grid_echo(plan: ExperimentPlan) -> dict:
    return {"axes": list(plan.axes), "angles_deg": [float(a) for a in plan.angles_deg]}


def _state_tables(states: dict) -> dict:
    """Record tag -> [re, im] table of each state in ``states``, keyed (axis, angle_deg, stage):
    the layout of the manifest's ``cells`` and of ``states.json``."""
    return {eio.record_tag(*key): eio.density_matrix_to_table(rho) for key, rho in states.items()}


def cmd_simulate(config: RunConfig) -> dict:
    """Write the grid's count files and manifest; return its count records, keyed (axis, angle_deg, stage)."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    plan = config.plan()
    results = {(*cell, result.stage): result for cell, stages in simulate_grid(plan).items() for result in stages}
    # a run that fails past here leaves no earlier run's manifest beside its count files
    (out / "manifest.json").unlink(missing_ok=True)
    for key, result in results.items():
        eio.write_count_csv(out / eio.count_file_name(*key), result.counts)
    true_states = {key: result.rho_true for key, result in results.items()}
    manifest = {"config": _config_echo(config), "grid": _grid_echo(plan), "cells": _state_tables(true_states)}
    eio.write_json(out / "manifest.json", manifest)
    print(f"simulate: wrote {len(results)} count files to {out}")
    return {key: result.counts for key, result in results.items()}


def _read_counts(out: Path, grid: dict | None, axis: str, angle_deg: float, stage: str) -> CountRecord:
    """One stage's record from ``grid``, else from its file; a bad file or an empty setting is missing data."""
    path = out / eio.count_file_name(axis, angle_deg, stage)
    if grid is not None:
        record = grid[axis, angle_deg, stage]
    elif not path.exists():
        raise MissingDataError(f"missing stage file: {echo_path(path)}")
    else:
        try:
            record = eio.read_count_csv(path)
        except ValueError as exc:
            raise MissingDataError(f"malformed count file {exc}") from exc
    empty = np.flatnonzero(record.setting_totals() == 0)
    if empty.size:
        tag = eio.record_tag(axis, angle_deg, stage)
        source = f"malformed count file {echo_path(path)}" if grid is None else f"simulated count record {tag}"
        raise MissingDataError(f"{source}: setting {empty[0] + 1} of 9 has no counts")
    return record


def _manifest_plan(config: RunConfig) -> ExperimentPlan:
    """The plan of the simulate run whose manifest is in ``config.out_dir``; its ``grid`` must be
    its config's, and each data key ``config`` was given must hold the manifest's value."""
    path = Path(config.out_dir) / "manifest.json"
    if not path.exists():
        raise MissingDataError(f"missing manifest: {echo_path(path)} (run simulate first)")
    try:
        manifest = eio.read_json(path)
        if not isinstance(manifest, dict) or "config" not in manifest:
            raise UsageError('no "config" object')
        recorded = _config_from_json(manifest["config"])
        plan = recorded.plan()
        if manifest.get("grid") != _grid_echo(plan):
            raise UsageError('"grid" disagrees with "config"')
    except (ValueError, OverflowError, UsageError) as exc:
        raise MissingDataError(f"malformed manifest {echo_path(path)}: {exc}") from exc
    for key in config.given:
        mine, theirs = getattr(config, key), getattr(recorded, key)
        if key in _DATA_KEYS and mine != theirs:
            raise UsageError(f"{key} = {echo(mine)} disagrees with {echo_path(path)}, which records {key} = {echo(theirs)}")
    return plan


def cmd_analyze(config: RunConfig, grid: dict | None = None) -> None:
    out = Path(config.out_dir)
    plan = _manifest_plan(config) if grid is None else config.plan()
    cell_counts = {cell: tuple(_read_counts(out, grid, *cell, stage) for stage in STAGES) for cell in plan.cells}
    report = assemble_report(plan, cell_counts)
    missed = [n for n, ok in zip(report.mle_iterations, report.mle_converged) if not ok]
    if missed:
        print(
            f"analyze: warning: {len(missed)} of {len(report.mle_converged)} count records "
            f"did not reach the MLE tolerance in {max(missed)} iterations",
            file=sys.stderr,
        )

    if "csv" in config.formats:
        eio.write_report_csv(out / "report.csv", report)
        _write_plot_files(out, report)
    if "json" in config.formats:
        eio.write_json(out / "report.json", eio.report_to_dict(report))
        states = {(*cell, stage): rho for cell, rhos in report.states.items() for stage, rho in zip(STAGES, rhos)}
        eio.write_json(out / "states.json", _state_tables(states))
    print(
        f"analyze: overall F(I,III) = {report.overall.f_i_iii_mean:.4f}, "
        f"BC(I,III) = {report.overall.bc_i_iii_mean:.5f}"
    )


def _write_plot_files(out: Path, report) -> None:
    # the cells are axis-major, one run per per_axis summary
    run = len(report.cells) // len(report.per_axis)
    for a, summary in enumerate(report.per_axis):
        cells = report.cells[a * run : (a + 1) * run]
        for prefix, metric in (("f", "fidelity"), ("bc", "bc")):
            stability = getattr(summary, f"stability_{metric}")
            for tag in _SCORE_SERIES:
                err = 0.0 if tag.endswith("_theory") else stability
                rows = [(c.angle_deg, getattr(c, f"{prefix}_{tag}"), err) for c in cells]
                eio.write_plot_series(out / f"plot_{metric}_{summary.axis}_{tag}.csv", rows)


class _StageII:
    """The run's stage-II records by (axis, angle_deg), each read by ``_read_counts`` when it is looked up."""

    def __init__(self, out: Path, grid: dict | None):
        self.out, self.grid = out, grid

    def __getitem__(self, key: tuple[str, float]) -> CountRecord:
        return _read_counts(self.out, self.grid, *key, "II")


def cmd_son_fit(config: RunConfig, grid: dict | None = None) -> None:
    """Fit n to the run's count files, or to report's ``grid``, where a grid the fit refuses is skipped."""
    out = Path(config.out_dir)
    plan = _manifest_plan(config) if grid is None else config.plan()
    try:
        samples, result = fit_exponent(plan.axes, plan.angles_deg, _StageII(out, grid))
    except ValueError as exc:
        if grid is None:
            raise MissingDataError(f"son-fit: {exc}") from exc
        print(f"report: skipping son-fit ({exc})", file=sys.stderr)
        return
    if len(result.per_combo) < len(COMBOS):
        missing = sorted(set(COMBOS) - set(result.per_combo))
        print(f"son-fit: warning: fitting {len(result.per_combo)}/6 combos (missing {missing})", file=sys.stderr)
    at_edge = [combo for combo, edge in zip(result.per_combo, result.per_combo_at_edge) if edge]
    if at_edge:
        print(f"son-fit: warning: n settled on a bound of its fit range for {at_edge}", file=sys.stderr)
    if "csv" in config.formats:
        eio.write_correlation_csv(out / "correlations.csv", samples)
        _write_fit_curves(out, result)
    if "json" in config.formats:
        eio.write_json(out / "son_fit.json", eio.son_result_to_dict(result))
    print(f"son-fit: n = {result.n:.3f} +- {result.n_uncertainty:.3f} over {len(result.per_combo)} combos")


def _write_fit_curves(out: Path, result) -> None:
    phi_grid = np.deg2rad(np.arange(0.0, 180.5, 1.0))
    for combo, values in zip(result.per_combo, fitted_correlation(result, result.per_combo, phi_grid)):
        rows = [(float(np.rad2deg(phi)), float(v), 0.0) for phi, v in zip(phi_grid, values)]
        eio.write_plot_series(out / f"curve_{combo}.csv", rows)


def cmd_report(config: RunConfig) -> None:
    grid = cmd_simulate(config)
    cmd_analyze(config, grid)
    cmd_son_fit(config, grid)


# where argparse writes an argv value into its message whole: raw, as the
# unrecognized arguments or an ambiguous option, or quoted as its repr
_ARGV_VALUE = re.compile(
    r"(?P<raw>(?<=^unrecognized arguments: ).*|(?<=^ambiguous option: ).*(?= could match ))"
    r"|(?P<quoted>'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\")",
    re.S,
)


def _echo_argv(match: re.Match) -> str:
    return echo(match["raw"], show=str) if match["quoted"] is None else echo(ast.literal_eval(match["quoted"]))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # every subparser shares this: each argv value in the message reads as errors.echo bounds it
        raise UsageError(_ARGV_VALUE.sub(_echo_argv, message))


_COMMANDS = {
    "simulate": (cmd_simulate, "synthesize count files for the configured grid"),
    "analyze": (cmd_analyze, "reconstruct states and emit comparison reports"),
    "son-fit": (cmd_son_fit, "fit the Born-rule exponent to stage-II correlations"),
    "report": (cmd_report, "simulate, analyze and son-fit in one pass"),
}

# no type here subclasses another, so at most one matches
_EXIT_CODES = {UsageError: 1, OSError: 2, MissingDataError: 3, ConvergenceError: 4}


def build_parser() -> _Parser:
    parser = _Parser(prog="envarsim", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a flat JSON config file")
        p.add_argument("--seed", help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        # load_config alone decides the value, as it does a config's "formats"
        p.add_argument("--format", metavar="{csv,json}", help="restrict output format")
    return parser


def _error_text(exc: Exception) -> str:
    """``exc`` as its error line shows it: a path the OS refuses as too long is bounded, any other error reads whole."""
    if isinstance(exc, OSError) and exc.errno == errno.ENAMETOOLONG:
        return f"[Errno {exc.errno}] {exc.strerror}: {echo(exc.filename)}"
    return str(exc)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError(f"a subcommand is required ({', '.join(_COMMANDS)})")
        config = load_config(args.config, seed=args.seed, out=args.out, fmt=args.format)
        _COMMANDS[args.command][0](config)
        return 0
    except tuple(_EXIT_CODES) as exc:
        print("error: " + escape(_error_text(exc)), file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entry() -> None:
    sys.exit(main())
