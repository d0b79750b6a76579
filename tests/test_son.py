"""Tests for the generalized-correlation solver and the exponent fit."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from envarsim import linalg, son
from envarsim.errors import ConvergenceError
from envarsim.harness import ExperimentPlan, calibrated_noise, simulate_grid
from envarsim.measurement import CountRecord, NoiseModel, simulate_counts, tomography_projectors
from envarsim.optics import STACK_ROTATION_SIGN, named_axis_vector
from envarsim.son import (
    COMBOS,
    CorrelationSample,
    _arc_length,
    _eigh2,
    _n_shift,
    _secular_root,
    _son_moduli,
    _state_fit,
    combo_axis_and_basis,
    correlation_operator,
    extract_correlation,
    fit_exponent,
    fit_obstacle,
    fitted_correlation,
    phi_to_theta,
    solve_son,
    son_fit,
)
from helpers import e_qm, random_density_matrix, traced_peak_mib, value_at

PHI_GRID = np.deg2rad(np.arange(0, 181, 15))

# the fit grid (721 nodes) at exponents where shooting on c with one step
# count and recording with another once missed the boundary by up to 1e-6
BOUNDARY_CASES = [pytest.param(n, 257, id=str(n)) for n in (1.0, 1.5, 2.0, 5.0, 10.0)] + [
    pytest.param(n, 721, id=f"{n}-721") for n in (0.8, 1.01, 1.2)
]


def _calibrated_samples(seed):
    """The stage-II correlation samples of the default grid under calibrated noise, as son-fit reads them."""
    plan = ExperimentPlan(noise=calibrated_noise(seed), seed=seed)
    grid = simulate_grid(plan)
    return [
        extract_correlation(grid[combo_axis_and_basis(combo)[0], angle][1].counts, combo, float(np.deg2rad(angle) / 2))
        for combo in COMBOS
        for angle in plan.angles_deg
    ]


def _stage2_counts(combo, phi, base, noise, rng):
    axis_tag = combo.split("-")[0].lower()
    u = linalg.su2_rotation(named_axis_vector(axis_tag), STACK_ROTATION_SIGN * 2 * phi)
    rho = linalg.apply_local(u, np.eye(2), base)
    return simulate_counts(rho, 5400.0, 5.0, noise, rng)


class TestEQm:
    def test_boundary_values(self):
        assert e_qm(0.0) == pytest.approx(-1.0, abs=1e-15)
        assert e_qm(np.pi / 4) == pytest.approx(0.0, abs=1e-15)
        assert e_qm(np.pi / 2) == pytest.approx(1.0, abs=1e-15)


class TestSolveSon:
    def test_refuses_a_nan_exponent_by_name(self):
        # nan passed n <= 0 and ended in ConvergenceError, the CLI's exit 4
        with pytest.raises(ValueError, match="^the exponent n must be positive"):
            solve_son(float("nan"))

    def test_n2_reproduces_quantum_mechanics(self):
        curve = solve_son(2.0, 256)
        assert np.max(np.abs(curve.values - (-np.cos(2 * curve.theta_grid)))) < 1e-6

    def test_n1_closed_form(self):
        # p' and q' are constant for n=1, so E is linear: E = 4*theta/pi - 1
        curve = solve_son(1.0, 257)
        expected = 4 * curve.theta_grid / np.pi - 1
        assert np.max(np.abs(curve.values - expected)) < 1e-6
        assert curve.c == pytest.approx(2 * (2 / np.pi) ** 2, abs=1e-10)

    @pytest.mark.parametrize("n, grid_size", BOUNDARY_CASES)
    def test_boundary_conditions(self, n, grid_size):
        curve = solve_son(n, grid_size)
        assert abs(curve.values[0] + 1.0) <= 1e-8
        assert abs(curve.values[-1] - 1.0) <= 1e-8

    @pytest.mark.parametrize("n, grid_size", BOUNDARY_CASES)
    def test_normalization_constraint(self, n, grid_size):
        curve = solve_son(n, grid_size)
        assert np.max(np.abs(curve.p**n + curve.q**n - 1.0)) <= 1e-8

    @pytest.mark.parametrize("n", [1.0, 1.5, 2.0, 5.0, 10.0])
    def test_derivative_constraint_constant(self, n):
        # 4th-order finite differences on solver output, away from the
        # endpoints where higher derivatives blow up for fractional n
        curve = solve_son(n, 1025)
        h = curve.theta_grid[1] - curve.theta_grid[0]

        def deriv(arr):
            return (-arr[4:] + 8 * arr[3:-1] - 8 * arr[1:-3] + arr[:-4]) / (12 * h)

        dp = deriv(curve.p)
        dq = deriv(curve.q)
        s = dp**2 + dq**2
        weight = np.minimum(curve.p**n, curve.q**n)[2:-2]
        interior = s[weight >= 0.02]
        assert interior.size > 50
        assert (interior.max() - interior.min()) / interior.mean() <= 1e-6

    @pytest.mark.parametrize("n", [1.0, 1.5, 2.0, 5.0, 10.0])
    def test_monotone_and_bounded(self, n):
        curve = solve_son(n, 257)
        assert np.all(np.abs(curve.values) <= 1.0)
        assert np.all(np.diff(curve.values) >= -1e-12)

    def test_qualitative_ordering_across_n(self):
        # every curve crosses zero at pi/4 (theta -> pi/2 - theta symmetry);
        # n=1 is shallower than quantum mechanics before the crossing, n=10
        # hugs -1 longer and then rises much more steeply toward +1
        curve1 = solve_son(1.0, 257)
        curve10 = solve_son(10.0, 257)
        for theta in np.linspace(0.05, np.pi / 4 - 0.05, 9):
            assert abs(value_at(curve1, theta)) <= abs(e_qm(theta)) + 1e-9
        assert abs(value_at(curve10, np.pi / 4)) < 1e-6
        assert value_at(curve10, np.pi / 8) < e_qm(np.pi / 8)
        assert value_at(curve10, 1.0) > e_qm(1.0)
        delta = 0.02
        slope10 = (value_at(curve10, np.pi / 4 + delta) - value_at(curve10, np.pi / 4 - delta)) / (2 * delta)
        assert slope10 > 2.0  # quantum-mechanics slope at the crossing is 2

    def test_fit_reads_the_curve_nodes_exactly(self):
        # theta = pi/7 is node 6 of 22; node 15 lies past pi/4, where the moduli come from the mirror
        curve = solve_son(1.8, 22)
        nodes = [6, 15]
        theta = curve.theta_grid[nodes]
        assert theta[0] == pytest.approx(np.pi / 7, abs=1e-15)
        assert np.max(np.abs(_n_shift(1.8, theta) - np.cos(2 * theta) - curve.values[nodes])) <= 1e-14

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            solve_son(0.0)
        with pytest.raises(ValueError):
            solve_son(2.0, grid_size=8)

    # "2" and 20.5 ended in a TypeError, and True gave the n = 1 curve
    @pytest.mark.parametrize(
        "args, message",
        [
            (("2",), "the exponent n must be positive and in [0.1, 10000], not '2'"),
            ((True,), "the exponent n must be positive and in [0.1, 10000], not True"),
            ((2.0, 20.5), f"grid_size must be an integer of at least 16 and at most {np.iinfo(np.intp).max}, not 20.5"),
        ],
    )
    def test_refuses_an_argument_that_is_not_a_number_by_name(self, args, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            solve_son(*args)

    def test_refuses_a_grid_longer_than_numpy_can_index_by_name(self):
        # numpy's "Maximum allowed size exceeded", which does not name grid_size
        for grid_size in (10**400, int(np.iinfo(np.intp).max) + 1):
            with pytest.raises(ValueError, match=f"^grid_size must be an integer of at least 16 and at most {np.iinfo(np.intp).max}, not "):
                solve_son(2.0, grid_size)

    # E(pi/4) is 0 for every n by symmetry; these exponents gave -1 (inf, 1e300, 1e-300),
    # -0.968 (0.001), -0.045 (0.02), -2.3e-6 (0.03), -3.8e-10 (0.05), -1.4e-10 (2e4), -7e-9 (1e6)
    @pytest.mark.parametrize("n", [math.inf, 1e300, 1e-300, 0.001, 0.02, 0.03, 0.05, 2e4, 1e6])
    def test_refuses_an_exponent_with_a_wrong_midpoint_by_name(self, n):
        with pytest.raises(ValueError, match=re.escape(f"the exponent n must be positive and in [0.1, 10000], not {n!r}")):
            solve_son(n)

    def test_refuses_an_exponent_whose_inversion_overflows(self):
        # solve_son(0.005) raised numpy's overflow RuntimeWarning on its way to a curve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("[0.1, 10000], not 0.005")):
                solve_son(0.005)

    @pytest.mark.parametrize("n", [0.1, 1e4])
    def test_the_ends_of_the_exponent_range_keep_the_midpoint(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = solve_son(n)
        assert curve.theta_grid[128] == np.pi / 4
        assert abs(curve.values[128]) <= 1e-12


class TestArcLengthInversion:
    @pytest.mark.parametrize("n", [0.8, 1.0, 1.5, 2.0, 2.555, 5.0])
    def test_a_row_does_not_depend_on_the_other_rows(self, n):
        d_mid = 2 ** (-1 / n) if n >= 1 else 1 - 2 ** (-1 / n)
        d = np.random.default_rng(int(100 * n)).uniform(0.0, d_mid, size=200)
        whole = _arc_length(d, n)
        assert all(whole[i] == _arc_length(d[i : i + 1], n)[0] for i in range(len(d)))

    @pytest.mark.parametrize("n", [0.8, 1.5, 2.0, 2.555])
    def test_repeated_angles_are_inverted_to_the_same_bits(self, n):
        theta = phi_to_theta(PHI_GRID)
        p, q, c = _son_moduli(theta, n)
        p2, q2, c2 = _son_moduli(np.concatenate([theta, theta[::-1]]), n)
        assert np.array_equal(p2, np.concatenate([p, p[::-1]]))
        assert np.array_equal(q2, np.concatenate([q, q[::-1]]))
        assert c2 == c

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        exponents=st.lists(
            st.one_of(st.sampled_from([0.8, 1.0, 2.0, 2.555]), st.floats(0.5, 5.0)), min_size=1, max_size=8
        ),
        phis=st.lists(st.floats(-np.pi, 2 * np.pi), min_size=1, max_size=6),
    )
    def test_a_stacked_call_equals_its_one_exponent_calls(self, exponents, phis):
        # every (exponent, angle) row leaves the Newton loop at its own step
        exponents += [0.8, 1.0, 2.555]
        theta, phis = phi_to_theta(np.array(phis)), np.array(phis)
        p, q, c = _son_moduli(theta, np.array(exponents))
        shift = _n_shift(np.array(exponents), phis)
        assert p.shape == q.shape == shift.shape == (len(exponents), len(phis)) and c.shape == (len(exponents),)
        for k, n in enumerate(exponents):
            p1, q1, c1 = _son_moduli(theta, n)
            assert np.array_equal(p[k], p1) and np.array_equal(q[k], q1) and c[k] == c1
            assert np.array_equal(shift[k], _n_shift(n, phis))

    @pytest.mark.parametrize("theta", [0.3, 1.2])
    def test_zero_dimensional_theta_gives_zero_dimensional_moduli(self, theta):
        p, q, c = _son_moduli(np.float64(theta), 1.8)
        assert np.ndim(p) == 0 and np.ndim(q) == 0
        p1, q1, c1 = _son_moduli(np.array([theta]), 1.8)
        assert (p, q, c) == (p1[0], q1[0], c1)


def _oracle_speed(t, n):
    """The arc-length integrand at distance t from theta = 0, written apart from ``son._arc_speed``."""
    log_tracked = math.log(t) if n >= 1 else math.log1p(-t)
    ratio = math.exp(n * log_tracked) / -math.expm1(n * log_tracked)  # (tracked / other)^n
    return math.sqrt(1 + ratio ** (2 - 2 / n))


def _oracle_arc(d, n):
    # breakpoints where the integrand turns sharply for large n; at the tested d and n it
    # agreed with a 40-digit mpmath reference within 7.6e-16 relative (1.2e-16 for n >= 100)
    return quad(_oracle_speed, 0, d, args=(n,), points=[0.5 * d, 0.99 * d, 0.9999 * d], epsrel=1e-13, epsabs=0, limit=200)[0]


def _d_mid(n):
    return 2 ** (-1 / n) if n >= 1 else 1 - 2 ** (-1 / n)


class TestArcRule:
    def test_nodes_ascend_inside_the_interval_and_weights_sum_to_one(self):
        x, w = son._arc_rule()
        assert 0 < x[0] and x[-1] < 1 and np.all(np.diff(x) > 0)
        assert np.all(w > 0) and abs(w.sum() - 1) <= 1e-15

    @pytest.mark.parametrize(
        "n, tol", [(n, 2e-15) for n in (1.0, 1.5, 2.0, 2.5, 3.0)] + [(n, 1e-10) for n in (0.1, 0.3, 10.0, 100.0, 1000.0, 1e4)]
    )
    def test_arc_length_matches_adaptive_quadrature(self, n, tol):
        d = np.array([0.05, 0.3, 0.7, 0.95, 1.0]) * _d_mid(n)
        reference = np.array([_oracle_arc(x, n) for x in d])
        assert np.max(np.abs(_arc_length(d, n) / reference - 1)) <= tol

    # the 96-point Gauss-Legendre rule over x = d u^6 missed by 3.3e-3, 6.4e-6, 2.6e-2 and 8.6e-6
    @pytest.mark.parametrize("n", [0.1, 100.0, 1000.0, 1e4])
    def test_solve_son_matches_the_curve_of_adaptive_quadrature(self, n):
        # each node's modulus d moves by Newton steps on the oracle's arc length onto the
        # node's angle; there E = p^n - q^n is 2 d^n - 1 (p = d) or 1 - 2 (1 - d)^n (q = 1 - d)
        curve = solve_son(n, 2049)
        s_mid = _oracle_arc(_d_mid(n), n)
        half = (curve.theta_grid > 0) & (curve.theta_grid <= np.pi / 4)
        for theta, value, p, q in zip(curve.theta_grid[half], curve.values[half], curve.p[half], curve.q[half]):
            d = p if n >= 1 else 1 - q
            for _ in range(10):
                step = (_oracle_arc(d, n) - s_mid * theta / (np.pi / 4)) / _oracle_speed(d, n)
                d -= step
                if abs(step) <= 2e-16 * d:
                    break
            assert abs(value - (2 * d**n - 1 if n >= 1 else 1 - 2 * (1 - d) ** n)) <= 1e-8, theta


class TestPhiToTheta:
    def test_reference_points(self):
        assert phi_to_theta(0.0) == pytest.approx(0.0, abs=1e-15)
        assert phi_to_theta(np.pi / 2) == pytest.approx(np.pi / 2, abs=1e-15)
        assert phi_to_theta(np.pi) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_about_pi(self):
        for x in np.linspace(0, np.pi, 25):
            assert phi_to_theta(np.pi + x) == pytest.approx(phi_to_theta(np.pi - x), abs=1e-12)

    def test_two_pi_periodic(self):
        for phi in np.linspace(0, 2 * np.pi, 41):
            assert phi_to_theta(phi + 2 * np.pi) == pytest.approx(phi_to_theta(phi), abs=1e-12)


class TestExtractCorrelation:
    def test_singlet_aligned_bases_anticorrelated(self):
        base = linalg.projector(linalg.singlet())
        counts = _stage2_counts("Z-DA", 0.0, base, NoiseModel.noiseless(), None)
        sample = extract_correlation(counts, "Z-DA", 0.0)
        assert sample.value == pytest.approx(-1.0, abs=1e-12)

    def test_singlet_quarter_turn_correlated(self):
        base = linalg.projector(linalg.singlet())
        counts = _stage2_counts("Z-DA", np.pi / 2, base, NoiseModel.noiseless(), None)
        sample = extract_correlation(counts, "Z-DA", np.pi / 2)
        assert sample.value == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_counts_give_zero(self):
        counts = CountRecord(counts=np.full(36, 250), duration_s=1.0)
        sample = extract_correlation(counts, "Y-HV", 0.3)
        assert sample.value == pytest.approx(0.0, abs=1e-15)
        # uniform block (a,a,a,a): sigma = 1/(2*sqrt(a))
        assert sample.sigma == pytest.approx(1 / (2 * math.sqrt(250)), abs=1e-12)

    def test_poisson_sigma_formula(self):
        counts = np.full(36, 1, dtype=np.int64)
        counts[0:4] = (100, 50, 25, 25)  # HV-HV block
        rec = CountRecord(counts=counts, duration_s=1.0)
        sample = extract_correlation(rec, "Y-HV", 0.1)
        assert sample.value == pytest.approx(0.25, abs=1e-15)
        assert sample.sigma == pytest.approx(2 * math.sqrt(125 * 75 / 200**3), abs=1e-15)

    def test_zero_total_rejected(self):
        counts = np.full(36, 5, dtype=np.int64)
        counts[0:4] = 0
        rec = CountRecord(counts=counts, duration_s=1.0)
        with pytest.raises(ValueError):
            extract_correlation(rec, "Y-HV", 0.0)

    def test_unknown_combo_rejected(self):
        rec = CountRecord(counts=np.full(36, 5), duration_s=1.0)
        with pytest.raises(ValueError):
            extract_correlation(rec, "Z-HV", 0.0)

    @pytest.mark.parametrize("combo", COMBOS)
    def test_reads_the_setting_with_its_basis_on_both_arms(self, combo):
        # every setting's block of arange(1, 37) has its own total, so its own sigma
        counts = np.arange(1, 37)
        pair = combo.split("-")[1]
        labels = [setting.label for setting in tomography_projectors().settings]
        k = labels.index(f"{pair}-{pair}")
        n1, n2, n3, n4 = (float(n) for n in counts[4 * k : 4 * k + 4])
        total = n1 + n2 + n3 + n4
        sample = extract_correlation(CountRecord(counts=counts, duration_s=1.0), combo, 0.2)
        assert sample.value == ((n1 + n4) - (n2 + n3)) / total
        assert sample.sigma == pytest.approx(2 * math.sqrt((n1 + n4) * (n2 + n3) / total**3), rel=1e-12)
        assert combo_axis_and_basis(combo) == (combo[0].lower(), tuple(pair))


# nan value or sigma gave n = 2.0 with objective nan; nan phi a ConvergenceError,
# inf phi numpy's RuntimeWarning; inf sigma was taken as weight 0
@pytest.mark.parametrize(
    "phi, value, sigma, message",
    [
        (math.nan, 0.5, 0.1, "phi must be finite, not nan"),
        (math.inf, 0.5, 0.1, "phi must be finite, not inf"),
        (0.1, math.nan, 0.1, "correlation value must lie in [-1, 1], not nan"),
        (0.1, 0.5, math.nan, "sigma must be positive and finite, not nan"),
        (0.1, 0.5, math.inf, "sigma must be positive and finite, not inf"),
    ],
)
def test_correlation_sample_refuses_a_field_that_is_not_finite_by_name(phi, value, sigma, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        CorrelationSample(combo="Z-DA", phi=phi, value=value, sigma=sigma)


class TestSonFit:
    def test_exact_singlet_recovers_two(self):
        samples = [
            CorrelationSample(combo=combo, phi=float(phi), value=float(-np.cos(2 * phi)), sigma=0.01)
            for combo in COMBOS
            for phi in PHI_GRID
        ]
        result = son_fit(samples)
        assert result.n == pytest.approx(2.0, abs=1e-3)
        assert result.objective < 1e-2
        assert len(result.per_combo_n) == 6

    def test_werner_poisson_recovers_two(self):
        base = linalg.werner(0.98)
        noise = NoiseModel(werner_v=0.98, poisson=True)
        rng = np.random.default_rng(77)
        samples = [
            extract_correlation(_stage2_counts(combo, float(phi), base, noise, rng), combo, float(phi))
            for combo in ("Z-DA", "X-HV")
            for phi in PHI_GRID
        ]
        result = son_fit(samples)
        assert result.n == pytest.approx(2.0, abs=0.03)

    def test_estimator_bias_below_uncertainty(self):
        # n = 2 generative model, 20 Monte Carlo replicates
        base = linalg.werner(0.98267)
        noise = NoiseModel(werner_v=0.98267, poisson=True)
        combos = ("Z-DA", "Y-HV", "X-RL")
        rng = np.random.default_rng(2026)
        estimates, uncertainties = [], []
        for _ in range(20):
            samples = [
                extract_correlation(
                    _stage2_counts(combo, float(phi), base, noise, rng), combo, float(phi)
                )
                for combo in combos
                for phi in PHI_GRID
            ]
            result = son_fit(samples)
            estimates.append(result.n)
            uncertainties.append(result.n_uncertainty)
        bias = abs(np.mean(estimates) - 2.0)
        assert bias < np.mean(uncertainties)

    def test_square_wave_lands_on_the_circle(self):
        # a +-1 square wave has cosine amplitude 4/pi > 1, so the
        # unconstrained least squares leaves the disk and the fit must sit
        # on its boundary
        samples = [
            CorrelationSample(combo=combo, phi=float(phi), value=-1.0 if np.cos(2 * phi) > 0 else 1.0, sigma=0.01)
            for combo in ("Z-DA", "X-HV")
            for phi in PHI_GRID
        ]
        result = son_fit(samples)
        for a, b in result.state_ab.values():
            assert math.hypot(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_joint_fit_equals_each_combo_fitted_alone(self):
        # combos that share their angles share every inversion, bit for bit
        base = linalg.werner(0.98)
        noise = NoiseModel(werner_v=0.98, poisson=True)
        rng = np.random.default_rng(12)
        samples = [
            extract_correlation(_stage2_counts(combo, float(phi), base, noise, rng), combo, float(phi))
            for combo in ("Z-DA", "Y-HV", "X-RL")
            for phi in PHI_GRID
        ]
        joint = son_fit(samples)
        alone = [son_fit([s for s in samples if s.combo == combo]) for combo in joint.per_combo]
        assert joint.per_combo_n == tuple(r.per_combo_n[0] for r in alone)
        assert joint.state_ab == {combo: r.state_ab[combo] for combo, r in zip(joint.per_combo, alone)}
        assert joint.objective == sum(r.objective for r in alone)

    def test_fit_curves_of_all_combos_equal_each_combo_alone(self, monkeypatch):
        # one inversion for every combo's exponent, at more rows than one arc-length call takes
        base = linalg.werner(0.98)
        noise = NoiseModel(werner_v=0.98, poisson=True)
        rng = np.random.default_rng(12)
        samples = [
            extract_correlation(_stage2_counts(combo, float(phi), base, noise, rng), combo, float(phi))
            for combo in ("Z-DA", "Y-HV", "X-RL")
            for phi in PHI_GRID
        ]
        result = son_fit(samples)
        assert len(set(result.per_combo_n)) > 1
        phis = np.deg2rad(np.arange(0.0, 180.5, 1.0))
        calls = []
        original = son._son_moduli
        monkeypatch.setattr(son, "_son_moduli", lambda theta, n: calls.append(n) or original(theta, n))
        curves = fitted_correlation(result, result.per_combo, phis)
        assert len(calls) == 1 and curves.shape == (3, phis.size)
        for combo, row in zip(result.per_combo, curves):
            np.testing.assert_array_equal(row, fitted_correlation(result, combo, phis))

    def test_each_step_inverts_every_moving_exponent_once(self, monkeypatch):
        # one inversion a step, of n, n - h and n + h for each combo still moving; a combo
        # leaves the stack at an n it was fitted at, once its next step would move it by 1e-9 or less
        calls = []
        original = son._son_moduli
        monkeypatch.setattr(son, "_son_moduli", lambda theta, n: calls.append(np.array(n)) or original(theta, n))
        samples = _calibrated_samples(3)
        result = son_fit(samples)
        moving = [len(n) for n in calls]
        assert moving[0] == 6 and moving == sorted(moving, reverse=True) and 1 < len(calls) <= 15
        for n in calls:
            np.testing.assert_array_equal(n[:, 1:], n[:, :1] + [-1e-4, 1e-4])
        assert set(result.per_combo_n) <= {centre for n in calls for centre in n[:, 0]}

    def test_each_combo_disk_fit_is_set_up_once(self, monkeypatch):
        # M = x^T W x does not depend on n: one eigensystem per combo, not one per candidate n
        calls = []
        original = son._eigh2
        monkeypatch.setattr(son, "_eigh2", lambda m: calls.append(m) or original(m))
        samples = [
            CorrelationSample(combo=combo, phi=float(phi), value=float(-np.cos(2 * phi)), sigma=0.01)
            for combo in COMBOS
            for phi in PHI_GRID
        ]
        son_fit(samples)
        assert len(calls) == 6

    def test_best_n_at_a_bound_is_flagged(self):
        # no state gives E = +1 at every angle: the profile falls past
        # the upper bound 3, where the fit stops
        probe = [CorrelationSample(combo="Z-DA", phi=float(phi), value=1.0, sigma=0.01) for phi in PHI_GRID]
        singlet = [
            CorrelationSample(combo="X-HV", phi=float(phi), value=float(-np.cos(2 * phi)), sigma=0.01)
            for phi in PHI_GRID
        ]
        result = son_fit(probe + singlet)
        assert result.per_combo == ("Z-DA", "X-HV")
        assert result.per_combo_n == (3.0, 2.0)
        assert result.per_combo_at_edge == (True, False)

    def test_best_n_at_the_lower_bound_is_flagged(self):
        # E = -1 at every angle: the profile falls past the lower bound 1
        probe = [CorrelationSample(combo="Y-HV", phi=float(phi), value=-1.0, sigma=0.01) for phi in PHI_GRID]
        result = son_fit(probe)
        assert result.per_combo_n == (1.0,)
        assert result.per_combo_at_edge == (True,)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_each_n_is_the_minimum_of_its_profile(self, seed):
        # the profile objective f(n) = min over (A, B), minimized by a bracketing oracle
        samples = _calibrated_samples(seed)
        result = son_fit(samples)
        for combo, n in zip(result.per_combo, result.per_combo_n):
            group = sorted((s for s in samples if s.combo == combo), key=lambda s: s.phi)
            phis = np.array([s.phi for s in group])
            fit = _state_fit(phis, np.array([s.value for s in group]), np.array([1 / s.sigma**2 for s in group]))
            oracle = minimize_scalar(
                lambda x: fit(_n_shift(x, phis))[0], bounds=(1, 3), method="bounded", options={"xatol": 1e-10}
            )
            assert n == pytest.approx(oracle.x, abs=1e-7)

    def test_a_combo_still_moving_after_the_step_limit_raises(self, monkeypatch):
        # seed 3 takes more than two steps on every combo
        monkeypatch.setattr(son, "_N_MAX_STEPS", 2)
        with pytest.raises(ConvergenceError, match=r"^the exponent of combos \['Z-DA', .*'X-HV'\] still moves"):
            son_fit(_calibrated_samples(3))

    def test_too_few_samples_rejected(self):
        samples = [
            CorrelationSample(combo="Z-DA", phi=float(phi), value=0.0, sigma=0.1)
            for phi in PHI_GRID[:4]
        ]
        with pytest.raises(ValueError):
            son_fit(samples)

    def test_angles_on_the_quarter_turn_lattice_rejected(self):
        # rotations of 0/90/180/270/360 degrees put phi on multiples of
        # pi/4, where E is -1, 0 or +1 for every n: n is not identifiable
        samples = [
            CorrelationSample(combo="Z-DA", phi=float(np.deg2rad(a) / 2), value=float(-np.cos(np.deg2rad(a))), sigma=0.01)
            for a in (0.0, 90.0, 180.0, 270.0, 360.0)
        ]
        with pytest.raises(ValueError, match="multiple of 45 degrees"):
            son_fit(samples)


class TestFitObstacle:
    def test_first_failing_combo_is_named(self):
        assert fit_obstacle({"Z-DA": PHI_GRID, "Z-RL": PHI_GRID[:1]}) == (
            "combo Z-RL needs at least 5 rotation angles, not 1"
        )
        assert "multiple of 45 degrees" in fit_obstacle({"Y-HV": np.deg2rad([0, 45, 90, 135, 180])})
        assert fit_obstacle({}).startswith("no correlation combo")
        assert fit_obstacle({combo: PHI_GRID for combo in COMBOS}) is None


class TestFitExponent:
    def test_reads_each_record_once_in_first_use_order_and_fits_the_samples_son_fit_reads(self):
        plan = ExperimentPlan(noise=calibrated_noise(0), seed=0)
        grid = simulate_grid(plan)
        looked_up = []

        class Logged(dict):
            def __getitem__(self, key):
                looked_up.append(key)
                return grid[key][1].counts

        samples, result = fit_exponent(plan.axes, plan.angles_deg, Logged())
        # two combos per axis, in COMBOS order: z, then y, then x; the m axis serves none
        assert looked_up == [(axis, a) for axis in ("z", "y", "x") for a in plan.angles_deg]
        assert samples == _calibrated_samples(0)
        assert result == son_fit(samples)

    def test_one_fit_of_the_default_grid_stays_within_its_memory_budget(self):
        """A warm fit of the calibrated default grid's stage-II records peaks at 0.320 MiB
        under tracemalloc on numpy 2.4.6; the budget is 25 % above that."""
        plan = ExperimentPlan(noise=calibrated_noise())
        records = {cell: stages[1].counts for cell, stages in simulate_grid(plan).items()}
        assert traced_peak_mib(lambda: fit_exponent(plan.axes, plan.angles_deg, records)) < 0.4


class TestStateFit:
    @pytest.mark.parametrize("combo", COMBOS)
    def test_correlation_operator_is_a_rotated_anticommuting_pair(self, combo):
        o0 = correlation_operator(combo, 0.0)
        o1 = correlation_operator(combo, np.pi / 4)
        eye = np.eye(4)
        assert np.max(np.abs(o0 @ o0 - eye)) < 1e-12
        assert np.max(np.abs(o1 @ o1 - eye)) < 1e-12
        assert np.max(np.abs(o0 @ o1 + o1 @ o0)) < 1e-12
        for phi in np.linspace(0.0, 2 * np.pi, 17):
            expected = np.cos(2 * phi) * o0 + np.sin(2 * phi) * o1
            assert np.max(np.abs(correlation_operator(combo, phi) - expected)) < 1e-12

    @pytest.mark.parametrize("n", [1.9, 2.0, 2.1])
    def test_fit_beats_random_states(self, n):
        # the closed-form optimum over the disk is at least as good as any
        # density matrix, scored through the 4x4 observables themselves;
        # mixing in the source state keeps the rivals near the optimum
        combo = "Y-HV"
        base = linalg.werner(0.98)
        noise = NoiseModel(werner_v=0.98, poisson=True)
        rng = np.random.default_rng(5)
        samples = [
            extract_correlation(_stage2_counts(combo, float(phi), base, noise, rng), combo, float(phi))
            for phi in PHI_GRID
        ]
        phis = np.array([s.phi for s in samples])
        values = np.array([s.value for s in samples])
        weights = np.array([1 / s.sigma**2 for s in samples])
        fitted, _ = _state_fit(phis, values, weights)(_n_shift(n, phis))

        curve = solve_son(n, 721)
        shift = np.array([value_at(curve, phi_to_theta(phi)) - e_qm(phi_to_theta(phi)) for phi in phis])
        ops = np.stack([correlation_operator(combo, phi) for phi in phis])
        for _ in range(200):
            mix = rng.uniform(0.9, 1.0)
            rho = mix * base + (1 - mix) * random_density_matrix(4, rng)
            e_state = np.einsum("aij,ji->a", ops, rho).real
            assert fitted <= float(weights @ (shift + e_state - values) ** 2) + 1e-9


class TestEigh2:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_psd_matrix_matches_eigh(self, seed):
        x = np.random.default_rng(seed).normal(size=(3, 2)) * [1.0, 10.0 ** -(seed % 5)]
        m = x.T @ x
        mu, v = _eigh2(m)
        mu_np, _ = np.linalg.eigh(m)
        np.testing.assert_allclose(mu, mu_np, rtol=1e-13, atol=1e-15 * mu_np[-1])
        np.testing.assert_allclose(v.T @ v, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(v @ np.diag(mu) @ v.T, m, atol=1e-15 * mu_np[-1])

    @pytest.mark.parametrize("m", [[[3.0, 0.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, 2.0]]], ids=["unprobed", "equal"])
    def test_degenerate_matrices(self, m):
        mu, v = _eigh2(np.array(m))
        np.testing.assert_array_equal(mu, np.linalg.eigh(np.array(m))[0])
        np.testing.assert_allclose(v @ np.diag(mu) @ v.T, m, atol=1e-15)

    @pytest.mark.parametrize(
        "phis",
        [
            np.deg2rad(np.arange(5.0, 120.0, 15.0)),  # a general M
            np.deg2rad(np.arange(0.0, 181.0, 90.0)),  # sin 2phi = 0: b = c = 0, the unprobed direction
            np.deg2rad(np.arange(0.0, 180.0, 45.0)),  # a = c, b = 0: equal eigenvalues
        ],
        ids=["general", "unprobed", "equal"],
    )
    @pytest.mark.parametrize("scale", [0.5, 1.5], ids=["inside", "outside"])
    def test_state_fit_equals_the_eigh_fit(self, monkeypatch, phis, scale):
        # inside the disk the least squares stands, outside it the secular root moves it onto the circle
        rng = np.random.default_rng(3)
        values = np.clip(scale * -np.cos(2 * phis - 0.3) + rng.normal(0, 0.01, phis.size), -1, 1)
        weights = np.full(phis.size, 1e4)  # equal weights, or a != c in the equal case
        objective, ab = _state_fit(phis, values, weights)(_n_shift(2.1, phis))
        monkeypatch.setattr(son, "_eigh2", np.linalg.eigh)
        objective_np, ab_np = _state_fit(phis, values, weights)(_n_shift(2.1, phis))
        assert np.max(np.abs(ab - ab_np)) <= 1e-14
        assert objective == pytest.approx(objective_np, rel=1e-12)


def test_son_calls_no_library_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg eigensolver called")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    son._arc_rule.cache_clear()  # the quadrature rule is rebuilt under the patch
    samples = [
        CorrelationSample(combo=combo, phi=float(phi), value=float(-np.cos(2 * phi)), sigma=0.01)
        for combo in COMBOS
        for phi in PHI_GRID
    ]
    result = son_fit(samples)
    fitted_correlation(result, COMBOS, PHI_GRID)
    solve_son(result.n)


def _magnitudes(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@st.composite
def _secular_problems(draw):
    """(g, mu) with |g / mu| > 1: mu_1 finite, mu_2 finite or an unprobed inf,
    and each |g_i / mu_i| from 1e-3 to 1e4."""
    mu = np.array([draw(_magnitudes(-2, 2)), draw(st.one_of(st.just(math.inf), _magnitudes(-2, 2)))])
    ratios = np.array([draw(st.sampled_from((-1.0, 1.0))) * draw(_magnitudes(-3, 4)) for _ in range(2)])
    # an unprobed direction's g is any finite number; it has no ratio
    g = ratios * np.where(np.isinf(mu), mu[0], mu)
    assume(np.sum((g / mu) ** 2) > 1)
    return g, mu


class TestSecularRoot:
    @settings(max_examples=300, deadline=None)
    @given(problem=_secular_problems())
    def test_root_lands_on_the_circle_and_matches_brentq(self, problem):
        g, mu = problem
        t = _secular_root(g, mu)
        assert 0 < t <= np.linalg.norm(g)
        assert abs(np.sum((g / (mu + t)) ** 2) - 1) <= 1e-14
        # oracle at brentq's default tolerances, xtol = 2e-12 and rtol = 4 eps
        expected = brentq(lambda s: np.sum((g / (mu + s)) ** 2) - 1, 0.0, np.linalg.norm(g))
        assert abs(t - expected) <= 2e-12 + 4 * np.finfo(float).eps * abs(expected)
