"""End-to-end tests for the command-line front-end."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

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
