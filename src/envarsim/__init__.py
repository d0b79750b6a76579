"""Desk-scale simulator and analysis toolkit for envariance tests.

The package synthesizes two-photon polarization count data through the
three-stage protocol (source, rotation on one photon, identical rotation
on both), reconstructs states by maximum-likelihood tomography, scores
envariance with fidelity and the Bhattacharyya coefficient, and fits the
power-law generalization of the Born rule to correlation data.
"""

from .errors import ConvergenceError, MissingDataError
from .harness import (
    AxisSummary,
    CellMetrics,
    EnvarianceReport,
    ExperimentPlan,
    StageResult,
    calibrated_noise,
    run_experiment,
    run_three_stages,
    simulate_grid,
    theoretical_stage3,
)
from .linalg import (
    apply_local,
    axis_vector,
    eig_hermitian,
    psd_sqrt,
    singlet,
    su2_rotation,
    werner,
)
from .measurement import (
    CountRecord,
    NoiseModel,
    ProjectorSet,
    born_probabilities,
    born_probability,
    drift_state,
    simulate_counts,
    simulate_counts_many,
    tomography_projectors,
)
from .metrics import bhattacharyya, fidelity, normalize_counts
from .optics import (
    WavePlateSetting,
    decompose_rotation,
    hwp,
    phase_distance,
    qwp,
    rotation_setting,
    stack,
)
from .son import (
    CorrelationCurve,
    CorrelationSample,
    SonFitResult,
    extract_correlation,
    phi_to_theta,
    solve_son,
    son_fit,
)
from .tomography import TomographyResult, mle_reconstruct, mle_reconstruct_many

__version__ = "0.1.0"
