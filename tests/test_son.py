"""Tests for the generalized-correlation solver and the exponent fit."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from envarsim import linalg
from envarsim.measurement import CountRecord, NoiseModel, simulate_counts
from envarsim.optics import STACK_ROTATION_SIGN, named_axis_vector
from envarsim.son import (
    COMBOS,
    CorrelationSample,
    _secular_root,
    _state_fit,
    correlation_operator,
    e_qm,
    extract_correlation,
    phi_to_theta,
    solve_son,
    son_fit,
)

PHI_GRID = np.deg2rad(np.arange(0, 181, 15))

# the fit grid (721 nodes) at exponents where shooting on c with one step
# count and recording with another once missed the boundary by up to 1e-6
BOUNDARY_CASES = [pytest.param(n, 257, id=str(n)) for n in (1.0, 1.5, 2.0, 5.0, 10.0)] + [
    pytest.param(n, 721, id=f"{n}-721") for n in (0.8, 1.01, 1.2)
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
            assert abs(curve1.value_at(theta)) <= abs(e_qm(theta)) + 1e-9
        assert abs(curve10.value_at(np.pi / 4)) < 1e-6
        assert curve10.value_at(np.pi / 8) < e_qm(np.pi / 8)
        assert curve10.value_at(1.0) > e_qm(1.0)
        delta = 0.02
        slope10 = (curve10.value_at(np.pi / 4 + delta) - curve10.value_at(np.pi / 4 - delta)) / (2 * delta)
        assert slope10 > 2.0  # quantum-mechanics slope at the crossing is 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            solve_son(0.0)
        with pytest.raises(ValueError):
            solve_son(2.0, grid_size=8)


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
        counts = CountRecord(counts=np.full(36, 250), duration_s=1.0, flux_hz=9000.0)
        sample = extract_correlation(counts, "Y-HV", 0.3)
        assert sample.value == pytest.approx(0.0, abs=1e-15)
        # uniform block (a,a,a,a): sigma = 1/(2*sqrt(a))
        assert sample.sigma == pytest.approx(1 / (2 * math.sqrt(250)), abs=1e-12)

    def test_poisson_sigma_formula(self):
        counts = np.full(36, 1, dtype=np.int64)
        counts[0:4] = (100, 50, 25, 25)  # HV-HV block
        rec = CountRecord(counts=counts, duration_s=1.0, flux_hz=1.0)
        sample = extract_correlation(rec, "Y-HV", 0.1)
        assert sample.value == pytest.approx(0.25, abs=1e-15)
        assert sample.sigma == pytest.approx(2 * math.sqrt(125 * 75 / 200**3), abs=1e-15)

    def test_zero_total_rejected(self):
        counts = np.full(36, 5, dtype=np.int64)
        counts[0:4] = 0
        rec = CountRecord(counts=counts, duration_s=1.0, flux_hz=1.0)
        with pytest.raises(ValueError):
            extract_correlation(rec, "Y-HV", 0.0)

    def test_unknown_combo_rejected(self):
        rec = CountRecord(counts=np.full(36, 5), duration_s=1.0, flux_hz=1.0)
        with pytest.raises(ValueError):
            extract_correlation(rec, "Z-HV", 0.0)


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
        fitted, _ = _state_fit(n, phis, values, weights)

        curve = solve_son(n, 721)
        shift = np.array([curve.value_at(phi_to_theta(phi)) - e_qm(phi_to_theta(phi)) for phi in phis])
        ops = np.stack([correlation_operator(combo, phi) for phi in phis])
        for _ in range(200):
            mix = rng.uniform(0.9, 1.0)
            rho = mix * base + (1 - mix) * linalg.random_density_matrix(4, rng)
            e_state = np.einsum("aij,ji->a", ops, rho).real
            assert fitted <= float(weights @ (shift + e_state - values) ** 2) + 1e-9


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
