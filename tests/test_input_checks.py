"""Each input check of the public API raises its documented ValueError.

One case per check that no other test reaches: the call that trips it and
the start of the message it must give.
"""

import re
from dataclasses import fields

import numpy as np
import pytest

from envarsim import harness, linalg, measurement, metrics, optics, son

_EPS = 5e-11
# passes validation (lowest eigenvalue -5e-11), yet Tr(|HH><HH| rho) = -5e-11 is negative beyond 1e-12
_NEARLY_SINGLET = (1 + _EPS) * linalg.projector(linalg.singlet()) - _EPS * linalg.projector(np.kron(linalg.KET_H, linalg.KET_H))
_METRICS = {f.name: 1.0 for f in fields(harness.CellMetrics)[2:]}  # the eight after axis and angle_deg
_GRID = np.linspace(0.0, np.pi / 2, 3)


def _curve(theta_grid, values):
    return son.CorrelationCurve(theta_grid=theta_grid, values=values, n=2.0, p=np.ones(3), q=np.zeros(3), c=1.0)


CHECKS = {
    "axis-of-two": (lambda: linalg.su2_rotation(np.array([1.0, 0.0]), 0.1), "axis must be a 3-vector"),
    "unitary-2x3": (lambda: linalg.validate_unitary(np.zeros((2, 3))), "unitary must be a square matrix"),
    "density-2x2": (lambda: linalg.validate_density_matrix(np.eye(2) / 2), "density matrix must be 4x4"),
    "density-nan": (lambda: linalg.validate_density_matrix(np.full((4, 4), np.nan)), "density matrix has non-finite entries"),
    "local-4x4": (lambda: linalg.apply_local(np.eye(4), np.eye(4), np.eye(4) / 4), "local unitaries must be 2x2"),
    "projector-2x2": (
        lambda: measurement.born_probabilities(linalg.werner(1.0), np.diag([1.0, 0.0])[None]),
        "projector must be 4x4",
    ),
    "negative-probability": (
        lambda: measurement.simulate_counts_many([_NEARLY_SINGLET], 5400.0, 5.0, measurement.NoiseModel.noiseless(), [None]),
        "negative outcome probability beyond tolerance",
    ),
    "distribution-35": (lambda: metrics.bhattacharyya(np.full(35, 1 / 35), np.full(36, 1 / 36)), "distribution must have exactly 36 entries"),
    "distribution-negative": (
        lambda: metrics.bhattacharyya(np.r_[-0.5, np.full(35, 1.5 / 35)], np.full(36, 1 / 36)),
        "distribution entries must be non-negative",
    ),
    # NaN passes both the sign and the sum test, and np.clip would pass it through
    "distribution-nan": (
        lambda: metrics.bhattacharyya(np.full(36, 1 / 36), np.r_[np.nan, np.full(35, 1 / 35)]),
        "distribution has non-finite entries",
    ),
    "decompose-4x4": (lambda: optics.decompose_rotation(np.eye(4)), "target must be a 2x2 unitary"),
    "curve-shapes": (lambda: _curve(_GRID, np.zeros(2)), "grid and values must have matching shapes"),
    "curve-value": (lambda: _curve(_GRID, np.array([-1.0, 0.0, 1.5])), "correlation values must lie in [-1, 1]"),
    "curve-decreasing": (lambda: _curve(_GRID, np.array([0.5, 0.0, 0.6])), "E(theta) must be non-decreasing on [0, pi/2]"),
    "sample-value": (lambda: son.CorrelationSample("Z-DA", 0.1, 1.5, 0.1), "correlation value must lie in [-1, 1]"),
    "sample-sigma": (lambda: son.CorrelationSample("Z-DA", 0.1, 0.5, 0.0), "sigma must be positive"),
    "fit-objective": (
        lambda: son.SonFitResult(2.0, 0.0, (2.0,), ("Z-DA",), {"Z-DA": (1.0, 0.0)}, -1.0, (False,)),
        "objective must be non-negative",
    ),
    "cell-metric": (lambda: harness.CellMetrics("x", 0.0, **{**_METRICS, "f_i_iii": 1.5}), "f_i_iii=1.5 outside [0, 1]"),
}


@pytest.mark.parametrize("call, message", CHECKS.values(), ids=CHECKS)
def test_each_input_check_raises_its_message(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()

