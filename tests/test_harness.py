"""Tests for the three-stage protocol orchestration and reporting."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from envarsim import harness, linalg, tomography
from envarsim.cli import load_config
from envarsim.harness import (
    ExperimentPlan,
    run_experiment,
    run_three_stages,
    simulate_grid,
    theoretical_stage3,
)
from envarsim.measurement import NoiseModel
from envarsim.metrics import fidelity
from helpers import BUDGETS, default_run, layer_call, random_unitary, source_stability, traced_mib

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _noiseless_plan(**overrides):
    defaults = dict(flux_hz=2e5, duration_s=5.0, noise=NoiseModel.noiseless())
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def _count_mle_calls(monkeypatch) -> list:
    """Record every count record handed to the MLE kernel, directly or through ``mle_reconstruct``."""
    calls = []
    original = tomography.mle_reconstruct_many

    def counting(records, *args, **kwargs):
        calls.extend(records)
        return original(records, *args, **kwargs)

    monkeypatch.setattr(tomography, "mle_reconstruct_many", counting)
    monkeypatch.setattr(harness, "mle_reconstruct_many", counting)
    return calls


class TestRunThreeStages:
    def test_zero_angle_all_stages_agree(self):
        stages = run_three_stages("x", 0.0, _noiseless_plan())
        for a in stages:
            for b in stages:
                assert fidelity(a.rho, b.rho) >= 0.9999

    def test_true_states_show_exact_envariance(self):
        # noise off: singlet is exactly invariant under identical rotations
        for axis in ("x", "y", "z", "m"):
            for theta in (np.pi / 6, np.pi / 2, 4 * np.pi / 3):
                s1, _, s3 = run_three_stages(axis, theta, _noiseless_plan())
                assert abs(fidelity(s1.rho_true, s3.rho_true) - 1.0) <= 1e-12

    def test_reconstructed_envariance(self):
        for axis in ("y", "m"):
            s1, _, s3 = run_three_stages(axis, np.pi / 3, _noiseless_plan())
            assert fidelity(s1.rho, s3.rho) >= 0.9999

    def test_envariance_repeats_the_stage_one_counts(self):
        # no Poisson noise, drift or plate errors: stage III counts are stage I's exactly, and
        # stage I is the same in every cell, so the MLE sees these records as one
        plan = load_config(str(CONFIG_DIR / "noiseless_small.json")).plan()
        cells = list(simulate_grid(plan).values())
        assert len(cells) == 20
        first = cells[0][0].counts
        for s1, _, s3 in cells:
            for record in (s1.counts, s3.counts):
                np.testing.assert_array_equal(record.counts, first.counts)
                assert record.duration_s == first.duration_s

    def test_quarter_turn_departs_to_half_fidelity(self):
        s1, s2, _ = run_three_stages("x", np.pi / 2, _noiseless_plan())
        assert fidelity(s1.rho, s2.rho) == pytest.approx(0.5, abs=0.01)

    def test_stage_two_departs_stage_three_restores(self):
        for theta in (np.pi / 3, np.pi, 5 * np.pi / 3):
            s1, s2, s3 = run_three_stages("z", theta, _noiseless_plan())
            f12 = fidelity(s1.rho_true, s2.rho_true)
            f13 = fidelity(s1.rho_true, s3.rho_true)
            assert f12 < f13

    def test_middle_stage_follows_half_angle_law(self):
        for axis in ("x", "y", "z", "m"):
            for deg in (0, 60, 150, 240, 330):
                theta = np.deg2rad(deg)
                s1, s2, _ = run_three_stages(axis, theta, _noiseless_plan())
                assert fidelity(s1.rho, s2.rho) == pytest.approx(
                    np.cos(theta / 2) ** 2, abs=0.02
                )

    def test_deterministic_given_plan(self):
        plan = ExperimentPlan(
            noise=NoiseModel(werner_v=0.95, drift_sigma=0.02, poisson=True), seed=99
        )
        a = run_three_stages("y", np.pi / 4, plan)
        b = run_three_stages("y", np.pi / 4, plan)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.counts.counts, sb.counts.counts)

    def test_rho_is_reconstructed_once_on_first_read(self, monkeypatch):
        calls = _count_mle_calls(monkeypatch)
        stages = run_three_stages("x", np.pi / 3, _noiseless_plan())
        assert calls == []
        rho = stages[1].rho
        assert len(calls) == 1
        assert stages[1].rho is rho
        assert len(calls) == 1


class TestTheoreticalStage3:
    def test_identity(self):
        rho = linalg.werner(0.9)
        np.testing.assert_allclose(theoretical_stage3(rho, np.eye(2)), rho, atol=1e-14)

    def test_singlet_invariant(self):
        rng = np.random.default_rng(2)
        rho = linalg.projector(linalg.singlet())
        for _ in range(20):
            u = random_unitary(2, rng)
            np.testing.assert_allclose(theoretical_stage3(rho, u), rho, atol=1e-10)

    def test_werner_invariant(self):
        rng = np.random.default_rng(3)
        rho = linalg.werner(0.7)
        for _ in range(20):
            u = random_unitary(2, rng)
            np.testing.assert_allclose(theoretical_stage3(rho, u), rho, atol=1e-10)


class TestSourceStability:
    def test_identical_states_zero(self):
        states = [linalg.werner(0.9)] * 5
        assert source_stability(states) == pytest.approx(0.0, abs=1e-12)

    def test_short_list_rejected(self):
        with pytest.raises(ValueError):
            source_stability([linalg.werner(0.9)] * 2)


class TestRunExperiment:
    def test_noiseless_grid_report(self):
        plan = _noiseless_plan(axes=("x", "z"), angles_deg=(0.0, 90.0, 210.0, 360.0))
        report = run_experiment(plan)
        assert len(report.cells) == 8
        assert report.overall.f_i_iii_mean >= 0.9999
        assert report.overall.bc_i_iii_mean >= 0.9999
        for cell in report.cells:
            assert cell.f_i_iii_theory >= 0.9999

    def test_one_mle_per_record_and_states_kept(self, monkeypatch):
        plan = _noiseless_plan(axes=("x", "z"), angles_deg=(0.0, 90.0, 210.0))
        calls = _count_mle_calls(monkeypatch)
        report = run_experiment(plan)
        assert len(calls) == 2 * 3 * 3
        assert set(report.states) == {(a, d) for a in plan.axes for d in plan.angles_deg}
        monkeypatch.undo()
        stages = run_three_stages("z", np.deg2rad(210.0), plan)
        for rho, stage in zip(report.states[("z", 210.0)], stages):
            np.testing.assert_array_equal(rho, stage.rho)

    def test_grid_order_is_axis_major_in_plan_order(self):
        plan = _noiseless_plan(axes=("z", "x"), angles_deg=(90.0, 0.0, 30.0))
        expected = [(axis, angle_deg) for axis in ("z", "x") for angle_deg in (90.0, 0.0, 30.0)]
        assert list(simulate_grid(plan)) == expected
        report = run_experiment(plan)
        assert [(cell.axis, cell.angle_deg) for cell in report.cells] == expected
        assert list(report.states) == expected

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(axes=())
        with pytest.raises(ValueError):
            ExperimentPlan(axes=("q",))
        with pytest.raises(ValueError):
            ExperimentPlan(angles_deg=(400.0,))


@pytest.mark.parametrize("seed", [1.5, 1.9, True, np.True_, "1", -1, np.int64(-3), None])
def test_plan_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, not {seed!r}")):
        ExperimentPlan(seed=seed)


def test_plan_takes_python_and_numpy_integer_seeds():
    for seed in (0, 7, np.int32(7), np.uint64(2**63), 2**70):
        assert ExperimentPlan(seed=seed).seed == seed


@pytest.mark.parametrize(
    ("noise", "seed"),
    [
        pytest.param(harness.calibrated_noise(1), 1, id="calibrated-seed-1"),
        pytest.param(harness.calibrated_noise(), harness.DEFAULT_SEED, id="calibrated-default-seed"),
        pytest.param(NoiseModel.noiseless(), 1, id="noiseless"),
    ],
)
def test_sub_grid_equals_its_rows_of_the_full_grid(noise, seed):
    # every record draws from its own stream and is reconstructed on its own:
    # no product across records may let one record's bits depend on the others
    full = run_experiment(ExperimentPlan(noise=noise, seed=seed))
    for axis in ("x", "m"):
        sub = run_experiment(ExperimentPlan(axes=(axis,), noise=noise, seed=seed))
        rows = [k for k, cell in enumerate(full.cells) if cell.axis == axis]
        assert sub.cells == tuple(full.cells[k] for k in rows)
        assert sub.per_axis == tuple(s for s in full.per_axis if s.axis == axis)
        for key, rhos in sub.states.items():
            for rho, full_rho in zip(rhos, full.states[key]):
                np.testing.assert_array_equal(rho, full_rho)
        records = [3 * k + s for k in rows for s in range(3)]
        assert sub.mle_iterations == tuple(full.mle_iterations[r] for r in records)
        assert sub.mle_converged == tuple(full.mle_converged[r] for r in records)


@pytest.mark.parametrize("noise", [harness.calibrated_noise(), NoiseModel.noiseless()], ids=["calibrated", "noiseless"])
def test_run_three_stages_refuses_an_unknown_axis_by_name(noise):
    # with a model that draws, the stream was keyed first: tuple.index(x): x not in tuple
    with pytest.raises(ValueError, match="^unknown axis tag 'q'"):
        run_three_stages("q", 0.1, ExperimentPlan(noise=noise))


def test_plan_refuses_angles_given_as_one_string():
    # "30" was read as the angles "3" and "0": TypeError: '<=' not supported
    with pytest.raises(ValueError, match=re.escape("angles_deg must be a sequence of angles, not the string '30'")):
        ExperimentPlan(angles_deg="30")


@pytest.mark.parametrize("axis, stage, name", [("q", "I", "axis 'q'"), ("x", "IV", "stage 'IV'")])
def test_stage_rng_refuses_an_unknown_axis_or_stage_by_name(axis, stage, name):
    # tuple.index(x): x not in tuple
    with pytest.raises(ValueError, match=re.escape(f"unknown {name}; expected one of")):
        harness.stage_rng(0, axis, 0.0, stage)


# each ended in a TypeError, or was taken as 1.0 (True)
@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"angles_deg": 30}, "angles_deg must be a sequence of angles, not 30"),
        ({"axes": 3}, "axes must be a sequence of axis names, not 3"),
        ({"flux_hz": "5"}, "flux_hz and duration_s must be positive numbers, not flux_hz='5'"),
        ({"duration_s": None}, "flux_hz and duration_s must be positive numbers, not duration_s=None"),
        ({"flux_hz": True}, "flux_hz and duration_s must be positive numbers, not flux_hz=True"),
        ({"angles_deg": (30, True)}, "angles_deg must hold angles in [0, 360] degrees, not True"),
    ],
)
def test_plan_refuses_an_argument_of_the_wrong_kind_by_name(kwargs, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        ExperimentPlan(**kwargs)


# 'a' raised a TypeError, nan "cannot convert float NaN to integer", inf an OverflowError; True was 1 degree
@pytest.mark.parametrize("angle", ["a", math.nan, math.inf, True])
def test_stage_rng_refuses_an_angle_that_is_not_a_finite_number_by_name(angle):
    with pytest.raises(ValueError, match="^" + re.escape(f"angle_deg must be a finite number of degrees, not {angle!r}")):
        harness.stage_rng(0, "x", angle, "I")


@pytest.mark.parametrize("axes", ["z", "xy", ""])
def test_plan_refuses_axes_given_as_one_string(axes):
    # a string was read as a sequence of axis names, and .axes came back a str
    with pytest.raises(ValueError, match=re.escape(f"axes must be a sequence of axis names, not the string {axes!r}")):
        ExperimentPlan(axes=axes)


def test_one_default_grid_simulation_stays_within_its_memory_budget(tmp_path):
    """A warm ``simulate_grid`` of the calibrated default plan stays within its tracemalloc budget."""
    assert traced_mib(layer_call("simulate_grid", tmp_path))[0] < BUDGETS["simulate_grid"].bound


def test_one_default_report_assembly_without_the_mle_stays_within_its_memory_budget(tmp_path):
    """A warm ``assemble_report`` of the default grid whose MLE returns precomputed results stays
    within its tracemalloc budget, and gives the report the real MLE gives."""
    call = layer_call("assemble_report_without_mle", tmp_path)
    assert call().cells == default_run().report.cells
    assert harness.mle_reconstruct_many is tomography.mle_reconstruct_many
    assert traced_mib(call)[0] < BUDGETS["assemble_report_without_mle"].bound
