"""Desk-scale simulator and analysis toolkit for envariance tests.

The package synthesizes two-photon polarization count data through the
three-stage protocol (source, rotation on one photon, identical rotation
on both), reconstructs states by maximum-likelihood tomography, scores
envariance with fidelity and the Bhattacharyya coefficient, and fits the
power-law generalization of the Born rule to correlation data.

The package root binds the names of README's Library example; every other
name is imported from its module (``envarsim.measurement.drift_states``).
"""

from .harness import ExperimentPlan, calibrated_noise, run_experiment, run_three_stages, simulate_grid
from .linalg import singlet, werner
from .measurement import NoiseModel, simulate_counts_many, tomography_projectors
from .metrics import fidelity
from .son import solve_son
from .tomography import mle_reconstruct_many

__version__ = "0.1.0"
