"""End-to-end tests for the command-line front-end."""

import contextlib
import functools
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envarsim import io as eio
from envarsim import tomography
from envarsim.cli import RunConfig, load_config, main
from envarsim.harness import simulate_grid
from envarsim.io import read_count_csv, read_json
from envarsim.measurement import CountRecord, tomography_projectors
from envarsim.son import COMBOS, combo_axis_and_basis, extract_correlation, son_fit
from helpers import traced_peak_mib

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
BUNDLED = sorted(CONFIG_DIR.glob("*.json"))


def _write_config(path, **overrides):
    base = {
        "axes": ["x"],
        "angles_deg": [0.0, 45.0, 90.0, 135.0, 180.0],
        "flux_hz": 5400.0,
        "duration_s": 1.0,
        "werner_v": 1.0,
        "drift_sigma": 0.0,
        "waveplate_error_sigma": 0.0,
        "poisson": False,
        "seed": 5,
    }
    base.update(overrides)
    path.write_text(json.dumps(base))
    return path


# deeper than the JSON decoder's recursion limit
DEEPLY_NESTED = "[" * 100_000 + "]" * 100_000


def _count_mle_calls(monkeypatch) -> list:
    """Record every count record handed to the MLE kernel, through any module that imported it."""
    calls = []
    original = tomography.mle_reconstruct_many

    def counting(records, *args, **kwargs):
        calls.extend(records)
        return original(records, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("envarsim") and getattr(module, "mle_reconstruct_many", None) is original:
            monkeypatch.setattr(module, "mle_reconstruct_many", counting)
    return calls


def _tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            digest.update(p.name.encode())
            digest.update(p.read_bytes())
    return digest.hexdigest()


class TestConfig:
    def test_defaults_describe_full_grid(self):
        config = RunConfig()
        assert len(config.axes) == 4
        assert len(config.angles_deg) == 13
        assert config.flux_hz == 5400.0
        assert config.duration_s == 5.0

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"fluxhz": 10}))
        from envarsim.cli import UsageError

        with pytest.raises(UsageError):
            load_config(str(path))

    def test_overrides(self, tmp_path):
        path = _write_config(tmp_path / "c.json")
        config = load_config(str(path), seed=42, out="elsewhere", fmt="csv")
        assert config.seed == 42
        assert config.out_dir == "elsewhere"
        assert config.formats == ("csv",)

    def test_defaults_are_the_calibrated_plan(self):
        from envarsim.harness import DEFAULT_SEED, ExperimentPlan, calibrated_noise

        assert RunConfig().plan() == ExperimentPlan(noise=calibrated_noise(DEFAULT_SEED))
        # a key's JSON kind is read from the type of its default
        for name, value in vars(RunConfig()).items():
            assert type(value) in (tuple, str, bool, int, float), name

    def test_integral_numbers_run_and_record_as_floats(self, tmp_path):
        # 5400 runs the experiment 5400.0 does, so the manifest must not tell them apart
        ints = _write_config(tmp_path / "ints.json", flux_hz=5400, duration_s=1, werner_v=1, drift_sigma=0)
        floats = _write_config(tmp_path / "floats.json")
        config = load_config(str(ints))
        assert type(config.flux_hz) is float and type(config.duration_s) is float
        for cfg, name in ((ints, "ints"), (floats, "floats")):
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        assert _tree_hash(tmp_path / "ints") == _tree_hash(tmp_path / "floats")


class TestSimulate:
    def test_default_grid_writes_156_files(self, tmp_path):
        # 13 angles x 4 axes x 3 stages; simulate only (no reconstruction)
        code = main(["simulate", "--out", str(tmp_path / "full")])
        assert code == 0
        files = list((tmp_path / "full").glob("counts_*.csv"))
        assert len(files) == 156
        manifest = read_json(tmp_path / "full" / "manifest.json")
        assert len(manifest["cells"]) == 156
        header = files[0].read_text().splitlines()[0]
        assert header == "setting_label,outcome_label,counts,duration_s"

    def test_manifest_holds_each_true_state_under_the_record_tag_of_its_count_file(self, tmp_path):
        # 0.0205 degrees round-trips through radians to 0.020500000000000004: millidegree 21, not 20
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"axes": ["x", "m"], "angles_deg": [0.0205, 10.0, 20.0]}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["analyze", "--out", str(out)]) == 0
        cells = read_json(out / "manifest.json")["cells"]
        tags = {path.stem.removeprefix("counts_") for path in out.glob("counts_*.csv")}
        assert set(cells) == tags == set(read_json(out / "states.json"))
        expected = {
            eio.record_tag(axis, angle_deg, result.stage): eio.density_matrix_to_table(result.rho_true)
            for (axis, angle_deg), stages in simulate_grid(load_config(str(cfg)).plan()).items()
            for result in stages
        }
        assert cells == expected
        # a table and nothing else: no stream, entropy or file field beside it
        assert all(np.shape(table) == (4, 4, 2) for table in cells.values())

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json")
        for d in ("a", "b"):
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / d)]) == 0
        assert _tree_hash(tmp_path / "a") == _tree_hash(tmp_path / "b")

    def test_flux_override_scales_counts(self, tmp_path):
        lo = _write_config(tmp_path / "lo.json", angles_deg=[0.0], poisson=False)
        hi = _write_config(tmp_path / "hi.json", angles_deg=[0.0], poisson=False, flux_hz=1e6)
        main(["simulate", "--config", str(lo), "--out", str(tmp_path / "lo")])
        main(["simulate", "--config", str(hi), "--out", str(tmp_path / "hi")])
        a = read_count_csv(tmp_path / "lo" / "counts_x_00000_I.csv")
        b = read_count_csv(tmp_path / "hi" / "counts_x_00000_I.csv")
        assert b.total() / a.total() == pytest.approx(1e6 / 5400, rel=1e-3)

    def test_a_failed_rerun_leaves_no_manifest_for_analyze_to_read(self, tmp_path, monkeypatch, capsys):
        # the second run's count files are written, its manifest is not: the first run's
        # manifest would describe the second run's counts
        cfg = _write_config(tmp_path / "c.json")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        original = eio.write_json

        def failing(path, data):
            if Path(path).name == "manifest.json":
                raise OSError("forced for test")
            return original(path, data)

        monkeypatch.setattr(eio, "write_json", failing)
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "2"]) == 2
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["analyze", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: missing manifest") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_seed_override_changes_counts(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json", poisson=True, werner_v=0.9)
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s1"), "--seed", "1"])
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s2"), "--seed", "2"])
        a = read_count_csv(tmp_path / "s1" / "counts_x_00000_I.csv")
        b = read_count_csv(tmp_path / "s2" / "counts_x_00000_I.csv")
        assert not np.array_equal(a.counts, b.counts)


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestOneRunPerDirectory:
    """A subcommand removes the files that it and the subcommands reading its files own
    (``io.OWNED_FILES``) before it writes, so a directory holds one run; no other name is touched."""

    FOREIGN = {"notes.txt": b"mine", "counts_x.json": b"{}", "curve.csv": b"a,b\n", "plot_a.txt": b""}

    def test_each_step_leaves_what_it_writes_beside_its_inputs_alone(self, tmp_path, capsys):
        # shrinking grids and format switches: each step runs into D, which starts with foreign
        # files, and into a reference directory that is emptied before each simulate or report
        son = {"werner_v": 0.98267, "poisson": True, "flux_hz": 5400.0, "axes": ["x", "z"]}
        big = _write_config(tmp_path / "big.json", **son, angles_deg=[30.0 * k for k in range(13)])
        mid = _write_config(tmp_path / "mid.json", **son | {"axes": ["z"]}, angles_deg=[30.0 * k for k in range(7)])
        small = _write_config(tmp_path / "small.json", angles_deg=[0.0, 90.0])
        steps = [
            ["simulate", "--config", str(big)],
            ["analyze"],
            ["son-fit"],
            ["report", "--config", str(mid), "--format", "json"],
            ["analyze", "--format", "csv"],
            ["son-fit", "--format", "csv"],
            ["simulate", "--config", str(small)],
            ["analyze", "--format", "json"],
            ["report", "--config", str(small), "--format", "csv"],
        ]
        out, ref = tmp_path / "D", tmp_path / "ref"
        out.mkdir()
        for name, data in self.FOREIGN.items():
            (out / name).write_bytes(data)
        for argv in steps:
            if argv[0] in ("simulate", "report") and ref.exists():
                for path in ref.iterdir():
                    path.unlink()
            assert main([*argv, "--out", str(ref)]) == 0
            assert main([*argv, "--out", str(out)]) == 0
            files = _files(out)
            assert {name: files.pop(name) for name in self.FOREIGN} == self.FOREIGN
            assert files == _files(ref), argv
        capsys.readouterr()

    def test_the_stale_files_probe_leaves_only_the_second_run(self, tmp_path, capsys):
        out, fresh = tmp_path / "D", tmp_path / "fresh"
        noiseless = str(CONFIG_DIR / "noiseless_small.json")
        assert main(["report", "--out", str(out)]) == 0
        (out / "notes.txt").write_bytes(b"mine")
        assert main(["report", "--config", noiseless, "--out", str(out)]) == 0
        assert main(["report", "--config", noiseless, "--out", str(fresh)]) == 0
        files = _files(out)
        assert files.pop("notes.txt") == b"mine"
        assert files == _files(fresh)
        assert not (out / "son_fit.json").exists()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--format", "xml"], ["analyze", "--seed", "6"], ["son-fit", "--seed", "6"], ["report", "--seed", "-1"]],
        ids=["bad-format", "analyze-seed-disagrees", "son-fit-seed-disagrees", "bad-seed"],
    )
    def test_a_usage_error_leaves_the_directory_as_it_was(self, tmp_path, capsys, argv):
        cfg = _write_config(tmp_path / "c.json", werner_v=0.98267, poisson=True, angles_deg=[30.0 * k for k in range(13)])
        out = tmp_path / "D"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        (out / "notes.txt").write_bytes(b"mine")
        before = _files(out)
        assert main([*argv, "--out", str(out)]) == 1
        assert _files(out) == before
        capsys.readouterr()


class TestAnalyze:
    def test_noiseless_round_trip(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json", flux_hz=2e5, duration_s=5.0)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["overall"]["f_i_iii_mean"] >= 0.9999
        assert report["overall"]["bc_i_iii_mean"] >= 0.9999
        assert (out / "report.csv").exists()
        assert (out / "states.json").exists()
        # plot data: 13 rows would need 13 angles; here 5 per series
        plot = (out / "plot_fidelity_x_i_iii.csv").read_text().splitlines()
        assert plot[0] == "angle_deg,value,error"
        assert len(plot) == 6

    def test_missing_stage_file_exits_3(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json")
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        victim = out / "counts_x_09000_II.csv"
        victim.unlink()
        code = main(["analyze", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "counts_x_09000_II.csv" in capsys.readouterr().err

    def test_format_restriction(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json")
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert main(["analyze", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 0
        assert (out / "report.csv").exists()
        assert not (out / "report.json").exists()


class TestSmallGrids:
    """The branches a grid too small for a statistic takes."""

    NOISY = dict(werner_v=0.98267, drift_sigma=0.025, waveplate_error_sigma=0.00349, poisson=True)

    def _analyze(self, tmp_path, **overrides):
        cfg = _write_config(tmp_path / "c.json", **self.NOISY, **overrides)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        return out, read_json(out / "report.json")

    def test_two_angles_per_axis_have_no_axis_stability(self, tmp_path):
        out, report = self._analyze(tmp_path, axes=["x", "z"], angles_deg=[0.0, 90.0])
        for axis in ("x", "z"):
            assert report["per_axis"][axis]["stability_fidelity"] is None
            assert report["per_axis"][axis]["stability_bc"] is None
            for metric in ("fidelity", "bc"):
                for tag in ("i_iii", "i_ii"):
                    rows = (out / f"plot_{metric}_{axis}_{tag}.csv").read_text().splitlines()[1:]
                    assert len(rows) == 2 and all(row.endswith(",0.0") for row in rows)
        # four stage-I states across both axes are enough for the overall row
        assert np.isfinite(report["overall"]["stability_fidelity"])
        assert np.isfinite(report["overall"]["stability_bc"])

    def test_one_cell_grid_has_zero_spread(self, tmp_path):
        _, report = self._analyze(tmp_path, angles_deg=[45.0])
        for row in (report["per_axis"]["x"], report["overall"]):
            assert row["f_i_iii_err"] == 0.0 and row["bc_i_iii_err"] == 0.0
            assert row["stability_fidelity"] is None and row["stability_bc"] is None
        assert report["deviation"] == {"fidelity": 0.0, "bc": 0.0}


class TestSonFitCommand:
    def test_synthesized_quantum_data_recovers_two(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            axes=["z"],
            angles_deg=[float(a) for a in range(0, 361, 30)],
            poisson=True,
            werner_v=0.98267,
            flux_hz=5400.0,
            duration_s=5.0,
        )
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["son-fit", "--config", str(cfg), "--out", str(out)]) == 0
        result = read_json(out / "son_fit.json")
        assert 1.97 <= result["n"] <= 2.03
        assert len(result["per_combo_n"]) == 2  # z-axis supports two combos
        assert (out / "correlations.csv").exists()
        assert (out / "curve_Z-DA.csv").exists()
        curve = (out / "curve_Z-DA.csv").read_text().splitlines()
        row90 = [r for r in curve if r.startswith("90.0,")][0]
        assert float(row90.split(",")[1]) == pytest.approx(1.0, abs=0.05)

    def test_best_n_at_a_bound_warns_once(self, tmp_path, capsys):
        # E = +1 at every angle of Z-DA: the fit settles on the upper bound of n
        cfg = _write_config(tmp_path / "c.json", axes=["z"], angles_deg=[float(a) for a in range(0, 361, 30)])
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        da = [s.label for s in tomography_projectors().settings].index("DA-DA")
        for angle in range(0, 361, 30):
            path = out / eio.count_file_name("z", float(angle), "II")
            record = read_count_csv(path)
            counts = record.counts.copy()
            counts[4 * da : 4 * da + 4] = (600, 0, 0, 600)
            eio.write_count_csv(path, CountRecord(counts=counts, duration_s=record.duration_s))
        capsys.readouterr()
        assert main(["son-fit", "--config", str(cfg), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("son-fit: n = ") and captured.out.count("\n") == 1
        warnings = [line for line in captured.err.splitlines() if "bound" in line]
        assert warnings == ["son-fit: warning: n settled on a bound of its fit range for ['Z-DA']"]
        result = read_json(out / "son_fit.json")
        assert sorted(result) == ["n", "n_uncertainty", "objective", "per_combo", "per_combo_n"]
        assert result["per_combo_n"][0] == 3.0

    def test_without_simulation_exits_3(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json")
        assert main(["son-fit", "--config", str(cfg), "--out", str(tmp_path / "nope")]) == 3

    def test_too_few_angles_exits_3(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json", axes=["z"], angles_deg=[0.0, 30.0, 60.0])
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert main(["son-fit", "--config", str(cfg), "--out", str(out)]) == 3


LONG = "x" * 140_000
# config file text and --seed value, each of whose error lines once echoed a whole value
OVERSIZED_VALUES = {
    "axis": (json.dumps({"axes": [LONG]}), None),
    "flux-string": (json.dumps({"flux_hz": LONG}), None),
    "unknown-key": (json.dumps({LONG: 1}), None),
    "repeated-key": (f'{{"{LONG}": 1, "{LONG}": 1}}', None),
    "many-unknown-keys": (json.dumps({f"key{i}": 1 for i in range(20_000)}), None),
    "many-mistyped-values": (json.dumps({"angles_deg": ["1"] * 50_000}), None),
    "format": (json.dumps({"formats": [LONG]}), None),
    "seed": ("{}", "q" * 100_000),
}


class TestUsageAndIoErrors:
    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_bad_config_keys_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not_a_key": 1}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "override",
        [
            {"axes": "xz"}, {"poisson": "no"}, {"seed": 5.0}, {"angles_deg": [0, "90"]},
            {"flux_hz": 10**400}, {"angles_deg": [10**400]},
        ],
        ids=["axes-string", "poisson-string", "seed-float", "angle-string", "flux-int-beyond-float", "angle-int-beyond-float"],
    )
    def test_mistyped_config_value_exits_1(self, tmp_path, capsys, override):
        cfg = _write_config(tmp_path / "c.json", **override)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        [
            {"axes": ["q"]}, {"angles_deg": [400]}, {"werner_v": 1.5}, {"flux_hz": 0}, {"duration_s": -1},
            {"drift_sigma": float("nan")}, {"waveplate_error_sigma": float("inf")}, {"flux_hz": 1e300},
            {"axes": ["z", "z"]}, {"angles_deg": [30.0, 30.0, 60.0]}, {"angles_deg": [30.0, 30.001]},
            {"angles_deg": [0, 30, 60, 90, float("inf")]}, {"angles_deg": [0, 30, 60, 90, float("nan")]},
            {"drift_sigma": 1e308}, {"waveplate_error_sigma": 1e308}, {"seed": -1},
        ],
        ids=[
            "unknown-axis", "angle-400", "werner-above-1", "zero-flux", "negative-duration",
            "drift-nan", "waveplate-infinity", "flux-1e300", "duplicate-axes", "duplicate-angles",
            "same-file-angles", "angle-infinity", "angle-nan", "drift-1e308", "waveplate-1e308",
            "negative-seed",
        ],
    )
    def test_out_of_range_config_value_exits_1(self, tmp_path, capsys, override):
        cfg = _write_config(tmp_path / "c.json", **override)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("content", ['{"seed": ', DEEPLY_NESTED], ids=["not-json", "deeply-nested"])
    def test_unparsable_config_exits_1(self, tmp_path, capsys, content):
        cfg = tmp_path / "c.json"
        cfg.write_text(content)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg} is not valid JSON") and err.count("\n") == 1
        assert not out.exists()

    def test_empty_formats_exit_1(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json", formats=[])
        out = tmp_path / "o"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: formats") and err.count("\n") == 1
        assert not out.exists()

    def test_negative_seed_exits_1_before_writing(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["1_000", " 7 ", "+7", "\u0663", ""], ids=["underscore", "spaces", "plus", "arabic-indic", "empty"])
    def test_seed_not_in_ascii_digits_exits_1_before_writing(self, tmp_path, capsys, seed):
        # int() takes each of these but the first; none is how a count file writes an integer
        cfg = _write_config(tmp_path / "c.json")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--seed", seed, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="this interpreter converts any number of digits"
    )
    def test_seed_past_the_interpreters_digit_limit_exits_1_before_writing(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json")
        out = tmp_path / "o"
        seed = "7" * (sys.get_int_max_str_digits() + 700)
        assert main(["simulate", "--config", str(cfg), "--seed", seed, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: seed has {len(seed)} digits") and err.count("\n") == 1
        assert str(sys.get_int_max_str_digits()) in err and seed not in err
        assert not out.exists()

    def test_config_that_repeats_a_key_exits_1_before_writing(self, tmp_path, capsys):
        # the decoder alone would keep the last value and run with seed 2
        cfg = tmp_path / "c.json"
        cfg.write_text('{"seed": 1, "seed": 2, "axes": ["x"], "angles_deg": [0, 30, 60]}')
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}") and err.count("\n") == 1
        assert "'seed'" in err
        assert not out.exists()

    def test_seed_in_ascii_digits_overrides_the_config(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json")
        assert load_config(str(cfg), seed="12345678901234567890").seed == 12345678901234567890
        assert load_config(str(cfg), seed="0042").seed == 42

    @pytest.mark.parametrize("seed", [7.9, True, "\u0663"], ids=["float", "bool", "arabic-indic"])
    def test_library_seed_other_than_an_int_or_ascii_digits_rejected(self, seed):
        # int() would take each of them, as 7, 1 and 3
        from envarsim.cli import UsageError

        with pytest.raises(UsageError, match="^seed must be an int or a string of ASCII decimal digits"):
            load_config(None, seed=seed)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_dir_exits_1_before_writing(self, tmp_path, monkeypatch, capsys, source):
        cfg = _write_config(tmp_path / "c.json", **({"out_dir": ""} if source == "config" else {}))
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--config", str(cfg), *(["--out", ""] if source == "flag" else [])]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out_dir") and err.count("\n") == 1
        assert [path.name for path in tmp_path.iterdir()] == ["c.json"]

    def test_missing_config_file_exits_3(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 3

    def test_unwritable_out_dir_exits_2(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        cfg = _write_config(tmp_path / "c.json")
        assert main(["simulate", "--config", str(cfg), "--out", str(blocker)]) == 2

    def test_convergence_failure_exits_4(self, tmp_path, monkeypatch):
        from envarsim import son
        from envarsim.errors import ConvergenceError

        cfg = _write_config(
            tmp_path / "c.json", axes=["z"], angles_deg=[float(a) for a in range(0, 181, 30)]
        )
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg), "--out", str(out)])

        def boom(*args, **kwargs):
            raise ConvergenceError("forced for test")

        monkeypatch.setattr(son, "son_fit", boom)
        assert main(["son-fit", "--config", str(cfg), "--out", str(out)]) == 4

    def test_son_solver_that_misses_its_tolerance_exits_4_with_one_error_line(self, tmp_path, monkeypatch, capsys):
        # each arc length is off by 1e-12 with a sign that flips from call to call, and each Newton
        # pass is one call, so no miss falls below the solver's 1e-13 and son._son_moduli raises
        from envarsim import son

        cfg = str(CONFIG_DIR / "son_quick.json")
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        arc_length, calls = son._arc_length, []

        def off_by_a_flipping_picometre(d, n):
            calls.append(d.size)
            # d = 0 (the angle 0) stays exact: a step below it would leave the arc's domain
            return arc_length(d, n) + (-1) ** len(calls) * 1e-12 * (d > 0)

        monkeypatch.setattr(son, "_arc_length", off_by_a_flipping_picometre)
        monkeypatch.setattr(son, "_ARC_ROWS", 10**9)
        capsys.readouterr()
        assert main(["son-fit", "--config", cfg, "--out", str(out)]) == 4
        lines = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("son-fit: warning: ")]
        assert len(lines) == 1 and lines[0].startswith("error: arc-length inversion misses an angle by "), lines[:3]

    @pytest.mark.parametrize(
        "content, line",
        [("[]", "error: config must be a flat JSON object"), ('{"formats": ["xml"]}', "error: unknown output format 'xml'")],
        ids=["json-array", "unknown-format"],
    )
    def test_config_of_another_shape_or_format_exits_1_before_writing(self, tmp_path, capsys, content, line):
        cfg = tmp_path / "c.json"
        cfg.write_text(content)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == line + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("content, seed", OVERSIZED_VALUES.values(), ids=OVERSIZED_VALUES)
    def test_an_oversized_config_or_seed_value_shows_a_bounded_prefix(self, tmp_path, capsys, content, seed):
        cfg = tmp_path / "c.json"
        cfg.write_text(content)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), *(["--seed", seed] if seed else []), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 300, err[:300]
        assert not out.exists()

    def test_angles_that_share_a_random_stream_exit_1_before_writing(self, tmp_path, capsys):
        # distinct file tags x_00000 and x_00001, but both streams are keyed by millidegree 5
        cfg = _write_config(tmp_path / "c.json", angles_deg=[0.0049, 0.0051, 30.0], waveplate_error_sigma=0.0035, poisson=True)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: angles_deg must be distinct at 0.001-degree") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--config", "--out"])
    def test_a_path_too_long_for_the_os_shows_a_bounded_prefix(self, tmp_path, monkeypatch, capsys, option):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", option, "a" * 100_000]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1
        assert len(err) < 300 and "(100000 characters)" in err, err[:300]
        assert not any(tmp_path.iterdir())

    def test_an_os_error_on_an_ordinary_path_names_it_whole(self, tmp_path, capsys):
        blocker = tmp_path / ("blocked-" + "b" * 60)
        blocker.write_text("file, not a directory")
        out = blocker / "run"
        assert main(["simulate", "--config", str(_write_config(tmp_path / "c.json")), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: {str(out)!r}\n"

    def test_an_empty_config_path_exits_1_before_writing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--config", "", "--out", "o"]) == 1
        assert capsys.readouterr().err == "error: --config must name a file, not the empty string\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="this interpreter converts any number of digits"
    )
    def test_config_number_past_the_interpreters_digit_limit_exits_1_before_writing(self, tmp_path, capsys):
        # valid JSON, whose decoder refuses the integer before any key is checked
        digits = sys.get_int_max_str_digits() + 700
        cfg = tmp_path / "c.json"
        cfg.write_text('{"seed": ' + "7" * digits + "}")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        limit = sys.get_int_max_str_digits()
        expected = f"error: config file {cfg}: a number has {digits} digits, more than the interpreter's limit of {limit}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()


SUBCOMMAND_HELP = {
    "simulate": "synthesize count files for the configured grid",
    "analyze": "reconstruct states and emit comparison reports",
    "son-fit": "fit the Born-rule exponent to stage-II correlations",
    "report": "simulate, analyze and son-fit in one pass",
}


class TestCommandTexts:
    def test_no_subcommand_names_every_subcommand(self, capsys):
        assert main([]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: a subcommand is required (simulate, analyze, son-fit, report)\n"
        assert captured.out == ""

    def test_unknown_subcommand_names_every_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument command: invalid choice: ") and err.count("\n") == 1
        assert [name for name in SUBCOMMAND_HELP if repr(name) in err] == list(SUBCOMMAND_HELP)

    def test_help_lists_each_subcommand_with_its_help_text(self):
        from envarsim.cli import build_parser

        text = build_parser().format_help()
        assert "{simulate,analyze,son-fit,report}" in text
        listed = [line.split(maxsplit=1) for line in text.splitlines() if line.startswith("    ")]
        assert listed == [[name, help_text] for name, help_text in SUBCOMMAND_HELP.items()]

    @pytest.mark.parametrize("command", list(SUBCOMMAND_HELP))
    def test_each_subcommand_takes_the_same_four_options(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: envarsim {command} [-h] [--config CONFIG] [--seed SEED] [--out OUT]")
        for option in ("--config CONFIG", "--seed SEED", "--out OUT", "--format {csv,json}"):
            assert f"\n  {option} " in text


def _exit_cases():
    from envarsim.cli import UsageError
    from envarsim.errors import ConvergenceError, MissingDataError

    return [(UsageError, 1), (OSError, 2), (MissingDataError, 3), (ConvergenceError, 4)]


def test_the_exit_code_table_is_unambiguous_and_documented():
    from envarsim import cli

    assert list(cli._EXIT_CODES.items()) == _exit_cases()
    kinds = list(cli._EXIT_CODES)
    assert not [(a, b) for a in kinds for b in kinds if a is not b and issubclass(a, b)]
    doc = " ".join(cli.__doc__.split())
    assert "Exit codes: 0 ok, 1 usage error, 2 I/O failure, 3 missing data, 4 convergence failure." in doc
    for name in cli._COMMANDS:
        assert f"\n  {name} " in cli.__doc__


@pytest.mark.parametrize("exc_type, code", _exit_cases(), ids=lambda v: getattr(v, "__name__", str(v)))
def test_each_error_type_exits_with_its_code_and_one_error_line(tmp_path, monkeypatch, capsys, exc_type, code):
    from envarsim import son

    # all three axes: no partial-combo warning comes before the error line
    cfg = _write_config(tmp_path / "c.json", axes=["x", "y", "z"], angles_deg=[float(a) for a in range(0, 181, 30)])
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()

    def boom(*args, **kwargs):
        raise exc_type("forced for test")

    monkeypatch.setattr(son, "son_fit", boom)
    assert main(["son-fit", "--config", str(cfg), "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err == "error: forced for test\n"
    assert captured.out == ""


def _edit_count_rows(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def _set_count(rows, idx, value):
    rows[idx][2] = value


def _set_duration(rows, idx, value):
    rows[idx][3] = value


COUNT_FILE_DEFECTS = {
    "short-row": lambda rows: rows[3].pop(),
    "non-canonical-labels": lambda rows: rows.insert(0, rows.pop(1)),
    "negative-count": lambda rows: _set_count(rows, 5, "-3"),
    "all-zero-setting": lambda rows: [_set_count(rows, i, "0") for i in range(4, 8)],
    "nan-duration": lambda rows: [_set_duration(rows, i, "nan") for i in range(36)],
    "negative-duration": lambda rows: [_set_duration(rows, i, "-5.0") for i in range(36)],
    "mixed-durations": lambda rows: _set_duration(rows, 7, "2.5"),
    "count-overflow": lambda rows: _set_count(rows, 5, "99999999999999999999"),
    "count-total-wraps": lambda rows: [_set_count(rows, i, str(2**62)) for i in (5, 6)],
    "underscore-count": lambda rows: _set_count(rows, 5, "2_84"),
    "signed-count": lambda rows: _set_count(rows, 5, "+728"),
    "padded-count": lambda rows: _set_count(rows, 5, " 728 "),
    "quoted-count": lambda rows: _set_count(rows, 5, '"728"'),
    # longer than the csv module's default field limit of 131,072 characters
    "oversized-field": lambda rows: rows[5].__setitem__(0, "x" * 140_000),
    # on every row, so that the rows agree: float() read these as 50.0 and 5.0
    "underscore-duration": lambda rows: [_set_duration(rows, i, "5_0.0") for i in range(36)],
    "padded-duration": lambda rows: [_set_duration(rows, i, " 5.0 ") for i in range(36)],
    "non-ascii-duration": lambda rows: [_set_duration(rows, i, "\uff15.0") for i in range(36)],
}


# (line, field) of a count file to pad past 140,000 characters: the header and row 5's fields
PADDED_FIELDS = {"header": (0, 0), "label": (6, 0), "count": (6, 2), "duration_s": (6, 3)}


class TestMalformedData:
    @pytest.fixture
    def run(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        return cfg, out

    @pytest.mark.parametrize("defect", COUNT_FILE_DEFECTS)
    def test_malformed_count_file_exits_3(self, run, capsys, defect):
        cfg, out = run
        _edit_count_rows(out / "counts_x_09000_II.csv", COUNT_FILE_DEFECTS[defect])
        capsys.readouterr()
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: malformed count file") and err.count("\n") == 1
        assert "counts_x_09000_II.csv" in err

    @pytest.mark.parametrize("line, field", PADDED_FIELDS.values(), ids=PADDED_FIELDS)
    def test_malformed_count_file_line_shows_a_bounded_prefix_of_a_field(self, run, capsys, line, field):
        cfg, out = run
        path = out / "counts_x_09000_II.csv"
        lines = [text.split(",") for text in path.read_text().splitlines()]
        lines[line][field] = lines[line][field].ljust(140_000, "x")
        path.write_text("".join(",".join(fields) + "\n" for fields in lines))
        capsys.readouterr()
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed count file {path}: ") and err.count("\n") == 1
        assert len(err) < len(str(path)) + 300, err[:300]

    @pytest.mark.parametrize(
        "content", ['{"config": {', json.dumps({"grid": {"axes": ["x"], "angles_deg": [0.0]}}), DEEPLY_NESTED],
        ids=["not-json", "no-config", "deeply-nested"],
    )
    def test_malformed_manifest_exits_3(self, run, capsys, content):
        cfg, out = run
        (out / "manifest.json").write_text(content)
        capsys.readouterr()
        for command in ("analyze", "son-fit"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: malformed manifest") and err.count("\n") == 1
            assert "manifest.json" in err


    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="this interpreter converts any number of digits"
    )
    def test_manifest_number_past_the_interpreters_digit_limit_exits_3(self, run, capsys):
        cfg, out = run
        text = (out / "manifest.json").read_text()
        (out / "manifest.json").write_text(text.replace('"seed": 5', '"seed": ' + "7" * 5000, 1))
        capsys.readouterr()
        for command in ("analyze", "son-fit"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error: malformed manifest {out / 'manifest.json'}: a number has 5000 digits")
            assert err.count("\n") == 1

    def test_manifest_that_repeats_a_key_exits_3(self, run, capsys):
        cfg, out = run
        text = (out / "manifest.json").read_text()
        (out / "manifest.json").write_text(text.replace('"config": {', '"config": {\n    "seed": 5,', 1))
        capsys.readouterr()
        for command in ("analyze", "son-fit"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error: malformed manifest {out / 'manifest.json'}") and err.count("\n") == 1
            assert "'seed'" in err

    @pytest.mark.parametrize(
        "grid",
        [{"axes": ["q"], "angles_deg": [1234.0]}, {"axes": ["x"], "angles_deg": [0.0, 45.0, 90.0, 135.0]}, None],
        ids=["unknown-axis-and-angle", "one-angle-dropped", "no-grid"],
    )
    def test_manifest_grid_that_disagrees_with_config_exits_3(self, run, capsys, grid):
        cfg, out = run
        manifest = read_json(out / "manifest.json")
        if grid is None:
            del manifest["grid"]
        else:
            manifest["grid"] = grid
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        for command in ("analyze", "son-fit"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: malformed manifest") and err.count("\n") == 1
            assert "grid" in err


class TestDataKeysAgainstTheManifest:
    """``analyze`` and ``son-fit`` from files take the data keys from the manifest; a data key that
    the config file or --seed sets must hold the manifest's value, or the run exits 1 unwritten."""

    QUICK = str(CONFIG_DIR / "quick.json")

    @pytest.fixture
    def run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", self.QUICK, "--seed", "1", "--out", str(out)]) == 0
        return out

    def _refused(self, argv, out, capsys):
        before = _tree_hash(out)
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _tree_hash(out) == before
        return captured.err

    @pytest.mark.parametrize("command", ["analyze", "son-fit"])
    def test_a_seed_other_than_the_manifests_exits_1(self, run, capsys, command):
        err = self._refused([command, "--config", self.QUICK, "--seed", "2", "--out", str(run)], run, capsys)
        assert err == f"error: seed = 2 disagrees with {run / 'manifest.json'}, which records seed = 1\n"

    @pytest.mark.parametrize("command", ["analyze", "son-fit"])
    def test_config_data_keys_other_than_the_manifests_exit_1(self, run, tmp_path, capsys, command):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"axes": ["x"], "angles_deg": [0, 90], "flux_hz": 10.0}))
        err = self._refused([command, "--config", str(cfg), "--out", str(run)], run, capsys)
        assert err.startswith("error: axes = ('x',) disagrees with") and err.count("\n") == 1
        assert err.endswith("which records axes = ('x', 'z')\n")

    @pytest.mark.parametrize(
        "key, value",
        [("axes", ["z", "x"]), ("angles_deg", [0.0, 60.0, 120.0]), ("flux_hz", 2000.5), ("duration_s", 2.0),
         ("werner_v", 0.9), ("drift_sigma", 0.0), ("waveplate_error_sigma", 0.0), ("poisson", False), ("seed", 7)],
    )
    def test_each_data_key_is_checked(self, run, tmp_path, capsys, key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        err = self._refused(["analyze", "--config", str(cfg), "--out", str(run)], run, capsys)
        assert err.startswith(f"error: {key} = ") and err.count("\n") == 1

    def test_a_disagreeing_value_of_many_items_shows_a_bounded_prefix(self, run, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"angles_deg": [k / 100 for k in range(30_000)]}))
        err = self._refused(["analyze", "--config", str(cfg), "--out", str(run)], run, capsys)
        assert err.startswith("error: angles_deg = (0.0, 0.01, ") and err.count("\n") == 1
        assert len(err) < len(str(run)) + 300, err[:300]

    def test_keys_left_unset_come_from_the_manifest(self, run, tmp_path):
        # output keys are no data keys: a config of them alone takes seed 1 and quick's grid from the manifest
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"out_dir": "elsewhere", "formats": ["json"]}))
        assert main(["analyze", "--config", str(cfg), "--out", str(run)]) == 0
        cells = [(axis, angle) for axis in "xz" for angle in (0.0, 60.0, 120.0, 180.0)]
        tags = {eio.record_tag(*cell, stage) for cell in cells for stage in ("I", "II", "III")}
        assert set(read_json(run / "states.json")) == tags

    def test_the_configs_own_values_analyze_as_the_manifest_alone(self, tmp_path, capsys):
        # simulated with quick.json's own seed: analyzing with the config gives the files analyzing without it does
        runs = [tmp_path / "with-config", tmp_path / "without"]
        for out in runs:
            assert main(["simulate", "--config", self.QUICK, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--config", self.QUICK, "--out", str(runs[0])]) == 0
        assert main(["analyze", "--config", self.QUICK, "--seed", "7", "--out", str(runs[0])]) == 0
        assert main(["analyze", "--out", str(runs[1])]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == lines[1] == lines[2]
        assert _tree_hash(runs[0]) == _tree_hash(runs[1])


class TestReconstructOnce:
    def test_simulate_runs_no_mle(self, tmp_path, monkeypatch):
        calls = _count_mle_calls(monkeypatch)
        cfg = _write_config(tmp_path / "c.json")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert calls == []

    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_one_mle_per_count_record(self, tmp_path, monkeypatch, command):
        cfg = _write_config(tmp_path / "c.json")
        out = tmp_path / "run"
        if command == "analyze":
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        calls = _count_mle_calls(monkeypatch)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        records = {p.name: read_count_csv(p).counts for p in out.glob("counts_*.csv")}
        assert len(records) == 15 and len(calls) == 15
        called = sorted(tuple(c.counts) for c in calls)
        assert called == sorted(tuple(c) for c in records.values())
        assert len(read_json(out / "states.json")) == 15


def test_son_fit_reads_each_count_file_once(tmp_path, monkeypatch):
    out = tmp_path / "run"
    config = str(CONFIG_DIR / "son_quick.json")
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    reads = []
    original = eio.read_count_csv

    def counting(path):
        reads.append(path)
        return original(path)

    monkeypatch.setattr(eio, "read_count_csv", counting)
    assert main(["son-fit", "--config", config, "--out", str(out)]) == 0
    # two combos use the z axis; its 13 stage-II files are read once each
    assert sorted(p.name for p in reads) == sorted(p.name for p in out.glob("counts_z_*_II.csv"))
    assert len(reads) == 13


@pytest.mark.parametrize("config", [None, CONFIG_DIR / "son_quick.json"], ids=["default", "son_quick"])
def test_report_writes_what_the_three_subcommands_write_and_reads_nothing_back(tmp_path, monkeypatch, config):
    args = [] if config is None else ["--config", str(config)]
    reads = []
    for name in ("read_count_csv", "read_json"):
        original = getattr(eio, name)
        monkeypatch.setattr(eio, name, lambda path, original=original: reads.append(Path(path)) or original(path))
    assert main(["report", *args, "--out", str(tmp_path / "report")]) == 0
    # the config file is the one file report reads
    assert reads == ([] if config is None else [config])
    monkeypatch.undo()
    for command in ("simulate", "analyze", "son-fit"):
        assert main([command, *args, "--out", str(tmp_path / "steps")]) == 0
    assert _tree_hash(tmp_path / "report") == _tree_hash(tmp_path / "steps")


def test_one_default_report_stays_within_its_memory_budget(tmp_path, capsys):
    """A warm default ``report`` (each call into its own empty directory) peaks at 1.047 MiB
    under tracemalloc on numpy 2.4.6; the budget is 24 % above that."""
    codes = []

    def report():
        codes.append(main(["report", "--out", str(tmp_path / str(len(codes)))]))

    assert traced_peak_mib(report) < 1.3
    assert codes == [0, 0]
    capsys.readouterr()


def test_report_checks_simulated_records_as_analyze_checks_count_files(tmp_path, capsys):
    # 0.2 pairs per setting: the first record simulated has an empty setting
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"flux_hz": 0.2, "duration_s": 1.0, "axes": ["x"], "angles_deg": [0.0, 90.0]}))
    out = tmp_path / "run"
    error = f"error: malformed count file {out / 'counts_x_00000_I.csv'}: setting 2 of 9 has no counts\n"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: simulated count record x_00000_I: setting 2 of 9 has no counts\n"
    assert captured.out == f"simulate: wrote 6 count files to {out}\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["manifest.json"] + [eio.count_file_name("x", a, stage) for a in (0.0, 90.0) for stage in ("I", "II", "III")]
    )
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == error


class TestSonFitLattice:
    def test_quarter_turn_angles_do_not_identify_n(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json", axes=["z"], angles_deg=[0.0, 90.0, 180.0, 270.0, 360.0])
        out = tmp_path / "run"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        assert "skipping son-fit" in capsys.readouterr().err
        assert not (out / "son_fit.json").exists()
        assert main(["son-fit", "--config", str(cfg), "--out", str(out)]) == 3
        # the one error line follows the usual warning about the combos z cannot serve
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: son-fit") and "multiple of 45 degrees" in err[-1]
        assert sum(line.startswith("error:") for line in err) == 1
        assert not (out / "son_fit.json").exists()


@pytest.mark.parametrize(
    "angles_deg", [[0.0, 30.0, 60.0], [0.0, 90.0, 180.0, 270.0, 360.0]], ids=["three-angles", "quarter-turns"]
)
def test_son_fit_feasibility_is_decided_once_before_any_count_file_is_read(
    tmp_path, monkeypatch, capsys, angles_deg
):
    cfg = _write_config(tmp_path / "c.json", axes=["z"], angles_deg=angles_deg)
    out = tmp_path / "run"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    skipped = capsys.readouterr().err.splitlines()[-1]
    reads = []
    monkeypatch.setattr(eio, "read_count_csv", reads.append)
    assert main(["son-fit", "--config", str(cfg), "--out", str(out)]) == 3
    reason = capsys.readouterr().err.splitlines()[-1].removeprefix("error: son-fit: ")
    assert skipped == f"report: skipping son-fit ({reason})"
    assert reads == []


@pytest.mark.parametrize(
    "axes, angles_deg",
    [(["z"], [0.0, 30.0, 60.0]), (["z"], [0.0, 90.0, 180.0, 270.0, 360.0]), (["m"], [0.0, 30.0, 60.0, 90.0, 120.0])],
    ids=["three-angles", "quarter-turns", "no-combo"],
)
def test_report_son_fit_and_library_give_one_infeasibility_reason(tmp_path, capsys, axes, angles_deg):
    cfg = _write_config(tmp_path / "c.json", axes=axes, angles_deg=angles_deg)
    out = tmp_path / "run"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    skipped = capsys.readouterr().err.splitlines()[-1]
    assert main(["son-fit", "--config", str(cfg), "--out", str(out)]) == 3
    failed = capsys.readouterr().err.splitlines()[-1]
    samples = [
        extract_correlation(read_count_csv(out / eio.count_file_name(axis, a, "II")), combo, float(np.deg2rad(a) / 2))
        for combo in COMBOS
        for axis in [combo_axis_and_basis(combo)[0]]
        if axis in axes
        for a in angles_deg
    ]
    with pytest.raises(ValueError) as exc:
        son_fit(samples)
    assert skipped == f"report: skipping son-fit ({exc.value})"
    assert failed == f"error: son-fit: {exc.value}"


@pytest.mark.parametrize("config", [None, *(c.name for c in BUNDLED)], ids=["default", *(c.stem for c in BUNDLED)])
def test_the_library_writes_reports_tree_and_fit(tmp_path, capsys, config):
    """``simulate_grid``, ``assemble_report``, ``fit_exponent`` and io's three writers give
    report's tree byte for byte; the manifest's config echo stays the CLI's, so of the
    manifest only its true states are compared."""
    from envarsim import fit_exponent
    from envarsim.harness import assemble_report

    cfg = None if config is None else str(CONFIG_DIR / config)
    out = tmp_path / "report"
    assert main(["report", *(["--config", cfg] if cfg else []), "--out", str(out)]) == 0
    capsys.readouterr()
    run = load_config(cfg)
    plan = run.plan()
    grid = simulate_grid(plan)
    lib = tmp_path / "library"
    eio.write_simulate(lib, grid, {})
    report = assemble_report(plan, {cell: tuple(stage.counts for stage in stages) for cell, stages in grid.items()})
    eio.write_analyze(lib, report, run.formats)
    records = {cell: stages[1].counts for cell, stages in grid.items()}
    try:
        samples, result = fit_exponent(plan.axes, plan.angles_deg, records)
    except ValueError:
        # a grid that cannot fix n: report skips the fit and writes none of its files
        assert not (out / "son_fit.json").exists()
    else:
        reported = read_json(out / "son_fit.json")
        assert result.per_combo == tuple(reported["per_combo"])
        assert (result.n, result.n_uncertainty, list(result.per_combo_n), result.objective) == (
            reported["n"],
            reported["n_uncertainty"],
            reported["per_combo_n"],
            reported["objective"],
        )
        eio.write_son_fit(lib, samples, result, run.formats)
    names = sorted(path.name for path in out.iterdir())
    assert sorted(path.name for path in lib.iterdir()) == names
    assert read_json(lib / "manifest.json") == {"cells": read_json(out / "manifest.json")["cells"]}
    for name in names:
        if name != "manifest.json":
            assert (lib / name).read_bytes() == (out / name).read_bytes(), name


class _NoLookup(dict):
    """Stage-II records that fail the test when one is looked up."""

    def __getitem__(self, key):
        raise AssertionError(f"record {key} was looked up")


@pytest.mark.parametrize("axes", [None, ["m"]], ids=["quick", "m-axis-only"])
def test_a_grid_the_library_fit_refuses_raises_reports_skip_reason_before_any_lookup(tmp_path, capsys, axes):
    from envarsim import fit_exponent

    quick = read_json(CONFIG_DIR / "quick.json")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(quick if axes is None else {**quick, "axes": axes}))
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    skipped = capsys.readouterr().err.splitlines()[-1]
    plan = load_config(str(cfg)).plan()
    assert len(plan.angles_deg) == 4
    with pytest.raises(ValueError) as exc:
        fit_exponent(plan.axes, plan.angles_deg, _NoLookup())
    assert skipped == f"report: skipping son-fit ({exc.value})"


@pytest.mark.parametrize("config_path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_config_round_trip(config_path, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    assert main(["analyze", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "report.csv").exists()
    assert (out / "report.json").exists()
    if config_path.stem == "son_quick":
        # one plot row per grid angle
        plot = (out / "plot_fidelity_z_i_iii.csv").read_text().splitlines()
        assert len(plot) == 1 + 13


def test_mle_non_convergence_is_reported_not_dropped(tmp_path, monkeypatch, capsys):
    from envarsim import harness

    config = str(CONFIG_DIR / "son_quick.json")
    assert main(["report", "--config", config, "--out", str(tmp_path / "converged")]) == 0
    assert "analyze: warning" not in capsys.readouterr().err

    one_step = functools.partial(tomography.mle_reconstruct_many, max_iter=1)
    monkeypatch.setattr(harness, "mle_reconstruct_many", one_step)
    hashes = []
    for run in ("a", "b"):
        assert main(["report", "--config", config, "--out", str(tmp_path / run)]) == 0
        captured = capsys.readouterr()
        warning = "analyze: warning: 39 of 39 count records did not reach the MLE tolerance in 1 iterations"
        assert captured.err.splitlines().count(warning) == 1
        assert "warning" not in captured.out
        hashes.append(_tree_hash(tmp_path / run))
    assert hashes[0] == hashes[1]


def test_noise_free_bc_that_rounds_above_one_reports_one(tmp_path, capsys):
    # stage III counts equal stage I counts here, and their float BC sums to 1 + 2**-52
    cfg = _write_config(tmp_path / "c.json", angles_deg=[0.0, 90.0], werner_v=0.91)
    out = tmp_path / "run"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert "error:" not in capsys.readouterr().err
    assert read_json(out / "report.json")["cells"][0]["bc_i_iii"] == 1.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    axes=st.lists(st.sampled_from(["x", "y", "z", "m"]), min_size=1, max_size=2, unique=True),
    angles_deg=st.lists(st.sampled_from([15.0 * k for k in range(25)]), min_size=1, max_size=4, unique=True),
    werner_v=st.integers(500, 1000).map(lambda k: k / 1000),
    flux_hz=st.sampled_from([540.0, 5400.0, 54000.0]),
)
@example(axes=["x"], angles_deg=[0.0, 90.0], werner_v=0.91, flux_hz=5400.0)
def test_noise_free_report_scores_lie_in_the_unit_interval(axes, angles_deg, werner_v, flux_hz):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write_config(Path(tmp) / "c.json", axes=axes, angles_deg=angles_deg, werner_v=werner_v, flux_hz=flux_hz)
        out = Path(tmp) / "run"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["report", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert "error:" not in stderr.getvalue()
        report = read_json(out / "report.json")
    scores = [v for cell in report["cells"] for k, v in cell.items() if k.startswith(("f_", "bc_"))]
    summaries = [*report["per_axis"].values(), report["overall"]]
    scores += [summary[key] for summary in summaries for key in ("f_i_iii_mean", "bc_i_iii_mean")]
    assert len(scores) == 8 * len(axes) * len(angles_deg) + 2 * (len(axes) + 1)
    assert all(0.0 <= v <= 1.0 for v in scores)


LONG = "a" * 100_000


class TestOneBoundedLine:
    """argparse's own lines, and lines naming a path, stay one short ``error:`` line."""

    @pytest.mark.parametrize(
        "argv, value, start",
        [
            ([LONG], LONG, "error: argument command: invalid choice: "),
            (["simulate", "--out", "x", LONG], LONG, "error: unrecognized arguments: "),
            (["simulate", "--=" + LONG], "--=" + LONG, "error: ambiguous option: "),
            (["simulate", "-h" + LONG], LONG, "error: argument -h/--help: ignored explicit argument "),
        ],
        ids=["subcommand", "stray-argument", "ambiguous-option", "explicit-argument"],
    )
    def test_an_argparse_line_bounds_the_argv_value(self, tmp_path, monkeypatch, capsys, argv, value, start):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1
        assert len(err.encode()) < 300 and f"({len(value)} characters)" in err, err[:300]
        assert not any(tmp_path.iterdir())

    def test_a_long_unknown_subcommand_still_names_every_subcommand(self, capsys):
        assert main([LONG]) == 1
        err = capsys.readouterr().err
        assert [name for name in SUBCOMMAND_HELP if repr(name) in err] == list(SUBCOMMAND_HELP)

    def test_format_is_checked_as_a_configs_formats_is(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--format", "xml", "--out", "o"]) == 1
        assert capsys.readouterr().err == "error: unknown output format 'xml'\n"
        assert main(["simulate", "--format", LONG, "--out", "o"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: unknown output format {'a' * 40!r}… (100000 characters)\n"
        assert len(err.encode()) == 95
        assert not any(tmp_path.iterdir())

    def test_a_value_of_wide_or_escaped_characters_is_bounded_in_bytes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for seed in ("\U000e0001" * 100, "\U0001f600" * 100, "\x00" * 40):
            assert main(["simulate", "--seed", seed, "--out", "o"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: seed must be ") and err.count("\n") == 1
            assert len(err.encode()) < 300 and f"({len(seed)} characters)" in err, err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["analyze", "son-fit"])
    def test_a_control_character_in_a_path_is_escaped(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        Path("c.json").write_text(json.dumps({"out_dir": "x\ny"}))
        expected = "error: missing manifest: x\\ny/manifest.json (run simulate first)\n"
        assert main([command, "--config", "c.json"]) == 3
        assert capsys.readouterr().err == expected
        assert main([command, "--out", "x\ny"]) == 3
        assert capsys.readouterr().err == expected
        assert main([command, "--config", "c\nd.json\x1b\x85\u2028"]) == 3
        assert capsys.readouterr().err == "error: config file not found: c\\nd.json\\x1b\\x85\\u2028\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("command", list(SUBCOMMAND_HELP))
    def test_a_nul_in_a_path_exits_1_before_writing(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        Path("c.json").write_text(json.dumps({"out_dir": "a\u0000b"}))
        assert main([command, "--config", "c.json"]) == 1
        assert capsys.readouterr().err == (
            "error: out_dir must name a directory, not a path holding a NUL character: 'a\\x00b'\n"
        )
        assert main([command, "--out", "o\0"]) == 1
        assert capsys.readouterr().err.startswith("error: out_dir must name a directory, not a path holding a NUL")
        assert main([command, "--config", "ok\0.json"]) == 1
        assert capsys.readouterr().err == (
            "error: --config must name a file, not a path holding a NUL character: 'ok\\x00.json'\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_son_fit_refusing_a_grid_prints_only_its_error(self, tmp_path, capsys):
        # the partial-combos warning comes only with a fit
        cfg = _write_config(tmp_path / "c.json", angles_deg=[0.0, 180.0])
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["son-fit", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: son-fit: combo X-RL needs at least 5 rotation angles, not 2\n"
