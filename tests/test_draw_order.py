"""Oracle for the simulation's random draws: the grid batch against a per-record loop.

The reference below simulates each record on its own, one setting at a time,
with explicit 4x4 projector matrices. Every stream draws, in order, the
drifted source, the rotation stacks' plate-angle errors and then, per
setting, 4 analyzer plate-angle errors and 4 Poisson counts. The batched
``simulate_grid`` must reproduce its counts and true states bit for bit.
"""

import numpy as np
import pytest

from envarsim.harness import (
    STAGES,
    ExperimentPlan,
    calibrated_noise,
    nominal_setting,
    run_three_stages,
    simulate_grid,
    stage_rng,
)
from envarsim.linalg import KET_H, KET_V, werner
from envarsim.measurement import ANALYZER_PLATES, NoiseModel, drift_state, tomography_projectors
from envarsim.optics import WavePlateSetting, hwp, qwp, stack


def _reference_counts(rho, flux_hz, duration_s, noise, rng):
    pairs = flux_hz * duration_s
    counts = np.empty(36, dtype=np.int64)
    for k, setting in enumerate(tomography_projectors().settings):
        if noise.waveplate_error_sigma > 0:
            kets = {}
            for arm, basis in (("s", setting.basis_s), ("e", setting.basis_e)):
                q_nom, h_nom = ANALYZER_PLATES[basis]
                dq, dh = rng.normal(0.0, noise.waveplate_error_sigma, size=2)
                analyzer = hwp(h_nom + dh) @ qwp(q_nom + dq)
                kets[arm] = (analyzer.conj().T @ KET_H, analyzer.conj().T @ KET_V)
            joints = [np.kron(ket_s, ket_e) for ket_s in kets["s"] for ket_e in kets["e"]]
            projs = [np.outer(joint, joint.conj()) for joint in joints]
        else:
            projs = list(setting.projectors)
        probs = np.array([np.real(np.trace(p @ rho)) for p in projs])
        assert probs.min() >= -1e-12
        expected = pairs * np.clip(probs, 0.0, None)
        if noise.poisson:
            counts[4 * k : 4 * k + 4] = rng.poisson(expected)
        else:
            counts[4 * k : 4 * k + 4] = np.rint(expected).astype(np.int64)
    return counts


def _reference_stack(setting, sigma, rng):
    if sigma <= 0:
        return stack(setting)
    errors = rng.normal(0.0, sigma, size=3)
    return stack(WavePlateSetting(setting.alpha + errors[0], setting.beta + errors[1], setting.gamma + errors[2]))


def _reference_cell(axis, theta, plan):
    """(stage, counts, rho_true) for each stage of one cell."""
    angle_deg = float(np.rad2deg(theta))
    setting = nominal_setting(axis, theta)
    sigma = plan.noise.waveplate_error_sigma
    out = []
    for stage in STAGES:
        stream = stage_rng(plan.seed, axis, angle_deg, stage)
        source = drift_state(werner(plan.noise.werner_v), plan.noise, stream)
        if stage == "I":
            rho_true = source
        elif stage == "II":
            u_s = _reference_stack(setting, sigma, stream)
            rho_true = np.kron(u_s, np.eye(2)) @ source @ np.kron(u_s, np.eye(2)).conj().T
        else:
            u_s = _reference_stack(setting, sigma, stream)
            u_e = _reference_stack(setting, sigma, stream)
            u = np.kron(u_s, u_e)
            rho_true = u @ source @ u.conj().T
        rho_true = (rho_true + rho_true.conj().T) / 2
        out.append((stage, _reference_counts(rho_true, plan.flux_hz, plan.duration_s, plan.noise, stream), rho_true))
    return out


PLANS = {
    "calibrated-seed-1": ExperimentPlan(noise=calibrated_noise(1), seed=1),
    "calibrated-default-seed": ExperimentPlan(noise=calibrated_noise()),
    "noiseless": ExperimentPlan(flux_hz=2e5, duration_s=5.0, noise=NoiseModel.noiseless(), seed=1),
    # without shot noise each draw on its own still needs the streams
    "drift-only": ExperimentPlan(noise=NoiseModel(werner_v=0.98267, drift_sigma=0.025, poisson=False), seed=2),
    "plate-errors-only": ExperimentPlan(noise=NoiseModel(werner_v=0.98267, waveplate_error_sigma=np.deg2rad(0.2), poisson=False), seed=2),
}


def _assert_matches(results, reference):
    assert [r.stage for r in results] == [stage for stage, _, _ in reference]
    for result, (_, counts, rho_true) in zip(results, reference):
        np.testing.assert_array_equal(result.counts.counts, counts)
        np.testing.assert_array_equal(result.rho_true, rho_true)


@pytest.mark.parametrize("plan", PLANS.values(), ids=PLANS.keys())
def test_grid_matches_per_record_reference(plan):
    grid = simulate_grid(plan)
    assert list(grid) == [(axis, angle) for axis in plan.axes for angle in plan.angles_deg]
    for (axis, angle_deg), results in grid.items():
        _assert_matches(results, _reference_cell(axis, np.deg2rad(angle_deg), plan))


def test_one_cell_matches_reference_with_poisson_and_no_plate_errors():
    # a pure singlet has outcomes of probability exactly 0, which draw nothing from the stream
    plan = ExperimentPlan(noise=NoiseModel(werner_v=1.0, poisson=True), seed=3)
    for axis, theta in (("x", np.pi / 3), ("m", 2.0)):
        _assert_matches(run_three_stages(axis, theta, plan), _reference_cell(axis, theta, plan))
