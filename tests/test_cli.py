"""End-to-end tests for the command-line front-end."""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from envarsim import io as eio
from envarsim import tomography
from envarsim.cli import RunConfig, load_config, main
from envarsim.io import read_count_csv, read_json

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

    def test_seed_override_changes_counts(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json", poisson=True, werner_v=0.9)
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s1"), "--seed", "1"])
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s2"), "--seed", "2"])
        a = read_count_csv(tmp_path / "s1" / "counts_x_00000_I.csv")
        b = read_count_csv(tmp_path / "s2" / "counts_x_00000_I.csv")
        assert not np.array_equal(a.counts, b.counts)


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

    def test_without_simulation_exits_3(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json")
        assert main(["son-fit", "--config", str(cfg), "--out", str(tmp_path / "nope")]) == 3

    def test_too_few_angles_exits_3(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json", axes=["z"], angles_deg=[0.0, 30.0, 60.0])
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert main(["son-fit", "--config", str(cfg), "--out", str(out)]) == 3


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
        "override", [{"axes": "xz"}, {"poisson": "no"}, {"seed": 5.0}, {"angles_deg": [0, "90"]}],
        ids=["axes-string", "poisson-string", "seed-float", "angle-string"],
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
        ],
        ids=[
            "unknown-axis", "angle-400", "werner-above-1", "zero-flux", "negative-duration",
            "drift-nan", "waveplate-infinity", "flux-1e300", "duplicate-axes", "duplicate-angles",
            "same-file-angles",
        ],
    )
    def test_out_of_range_config_value_exits_1(self, tmp_path, capsys, override):
        cfg = _write_config(tmp_path / "c.json", **override)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config") and err.count("\n") == 1
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

    def test_missing_config_file_exits_3(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 3

    def test_unwritable_out_dir_exits_2(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        cfg = _write_config(tmp_path / "c.json")
        assert main(["simulate", "--config", str(cfg), "--out", str(blocker)]) == 2

    def test_convergence_failure_exits_4(self, tmp_path, monkeypatch):
        from envarsim import cli
        from envarsim.errors import ConvergenceError

        cfg = _write_config(
            tmp_path / "c.json", axes=["z"], angles_deg=[float(a) for a in range(0, 181, 30)]
        )
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg), "--out", str(out)])

        def boom(*args, **kwargs):
            raise ConvergenceError("forced for test")

        monkeypatch.setattr(cli, "son_fit", boom)
        assert main(["son-fit", "--config", str(cfg), "--out", str(out)]) == 4


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
}


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

    @pytest.mark.parametrize(
        "content", ['{"config": {', json.dumps({"grid": {"axes": ["x"], "angles_deg": [0.0]}})],
        ids=["not-json", "no-config"],
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
