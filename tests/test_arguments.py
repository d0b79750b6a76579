"""The argument contract of the package root's 13 names, and the probes it was built from.

A bool is not a number, an integer argument takes only integers, nan lies in no range, and a
bad argument raises a ValueError that names it. ``errors.check_real`` and
``errors.check_integer`` hold the two rules; the property below calls every root name with a
drawn mix of valid and invalid arguments. Tests of the two rules follow it, then one test per
probe that ended, before the rules, in another exception, a RuntimeWarning or a silently
coerced value.
"""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import envarsim
from envarsim import harness, io as eio
from envarsim.errors import check_integer, check_real, echo
from envarsim.linalg import werner
from envarsim.measurement import CountRecord, NoiseModel, tomography_projectors
from envarsim.optics import WavePlateSetting, stack
from envarsim.son import CorrelationSample

# values no numeric argument takes: bools, text, None, nan and arrays
NOT_NUMBERS = [True, False, np.True_, np.False_, "1", "x", None, math.nan, np.float64(math.nan), np.array(0.5), np.array([1.0, 2.0])]
# and none that an integer argument takes: floats, integral or not, and infinities
NOT_INTEGERS = [*NOT_NUMBERS, 1.5, 3.0, np.float64(20.0), math.inf, -math.inf]


def _bad(*extra):
    """Values no real argument takes, an integer past the float range among them, and ``extra``."""
    return st.sampled_from([*NOT_NUMBERS, 10**400, *extra])


def _bad_int(*extra):
    return st.sampled_from([*NOT_INTEGERS, *extra])


_ANGLES = (0.0, 30.0, np.float64(45.5), 90, 360.0)
_NOISES = (NoiseModel.noiseless(), harness.calibrated_noise(2), NoiseModel(werner_v=0.9, poisson=False))
_SEEDS = st.one_of(st.integers(0, 2**70), st.sampled_from([np.int64(3), np.uint64(2**63), np.int32(0)]))
_STATE = werner(0.9)
# small grids at low flux keep run_experiment near 30 ms
_PLANS = st.builds(
    harness.ExperimentPlan,
    axes=st.sampled_from(harness.NAMED_AXES).map(lambda axis: (axis,)),
    angles_deg=st.lists(st.sampled_from(_ANGLES), min_size=1, max_size=2, unique=True).map(tuple),
    flux_hz=st.sampled_from([100.0, 400]),
    duration_s=st.sampled_from([0.5, np.float64(1.0)]),
    noise=st.sampled_from(_NOISES),
    seed=st.integers(0, 3),
)
_RECORDS = st.lists(arrays(np.int64, 36, elements=st.integers(1, 200)), min_size=1, max_size=2).map(
    lambda rows: [CountRecord(counts=row, duration_s=1.0) for row in rows]
)

# root name -> (function, {argument: (valid values, invalid values, a pattern of the text that names
# it)}); a pattern of None marks an array argument, whose refusal need only be a ValueError
ROOT_NAMES = {
    "ExperimentPlan": (
        envarsim.ExperimentPlan,
        {
            "axes": (st.sampled_from([("x",), ("m", "z")]), st.sampled_from(["x", ("q",), (), 3, None, np.array(["x"])]), "ax(es|is)"),
            "angles_deg": (
                st.lists(st.sampled_from(_ANGLES), min_size=1, max_size=3, unique=True).map(tuple),
                st.one_of(
                    _bad(-1, 360.5, -math.inf, math.inf).map(lambda angle: (30.0, angle)),
                    st.sampled_from(["30", 30, None, np.array([0.0, 30.0])]),
                ),
                "angles_deg",
            ),
            "flux_hz": (st.sampled_from([5400.0, 1, np.float32(2.5)]), _bad(0, -5.0, math.inf, -math.inf, 1e30), "flux_hz"),
            "duration_s": (st.sampled_from([5.0, 2, np.float64(0.1)]), _bad(0.0, -1, math.inf), "duration_s"),
            "noise": (st.sampled_from(_NOISES), st.sampled_from([None, "calibrated", 1.0, True]), "noise"),
            "seed": (_SEEDS, _bad_int(-1, np.int64(-3)), "seed"),
        },
    ),
    "calibrated_noise": (envarsim.calibrated_noise, {"seed": (_SEEDS, _bad_int(-1), "seed")}),
    "run_experiment": (envarsim.run_experiment, {"plan": (_PLANS, st.nothing(), "plan")}),
    "run_three_stages": (
        envarsim.run_three_stages,
        {
            "axis": (st.sampled_from(harness.NAMED_AXES), st.sampled_from(["q", "", None, 1.0]), "axis"),
            "theta": (st.floats(0, 1e3), _bad(-0.1, math.inf, -math.inf, "0.5"), "theta"),
            "plan": (_PLANS, st.nothing(), "plan"),
        },
    ),
    "simulate_grid": (envarsim.simulate_grid, {"plan": (_PLANS, st.nothing(), "plan")}),
    "singlet": (envarsim.singlet, {}),
    "werner": (envarsim.werner, {"v": (st.floats(0, 1), _bad(-0.1, 1.5, math.inf, -math.inf, "0.5"), "Werner parameter v")}),
    "NoiseModel": (
        envarsim.NoiseModel,
        {
            "werner_v": (st.one_of(st.floats(0, 1), st.sampled_from([0, 1, np.float64(0.5)])), _bad(-0.1, 1.5, math.inf, "1"), "werner_v"),
            "drift_sigma": (st.floats(0, 2 * math.pi), _bad(-0.1, 7, math.inf), "drift_sigma"),
            "waveplate_error_sigma": (st.floats(0, 2 * math.pi), _bad(-1e-9, 1e308, -math.inf), "waveplate_error_sigma"),
            "poisson": (st.sampled_from([True, False, np.True_]), st.sampled_from([1, 0, "no", None, 1.0]), "poisson"),
            "seed": (_SEEDS, _bad_int(-1), "seed"),
        },
    ),
    "simulate_counts_many": (
        envarsim.simulate_counts_many,
        {
            "rhos": (st.just([_STATE, _STATE]), st.nothing(), "rhos"),
            "flux_hz": (st.sampled_from([100.0, 400, np.float64(50.0)]), _bad(0, -1.0, math.inf, 1e30), "flux_hz"),
            "duration_s": (st.sampled_from([1.0, 2]), _bad(0, -1.0, math.inf), "duration_s"),
            "noise": (st.sampled_from(_NOISES), st.nothing(), "noise"),
            "rngs": (st.builds(lambda: [np.random.default_rng(1), np.random.default_rng(2)]), st.nothing(), "rngs"),
        },
    ),
    "tomography_projectors": (envarsim.tomography_projectors, {}),
    "fidelity": (
        envarsim.fidelity,
        {
            name: (
                st.sampled_from([_STATE, werner(0.3), np.stack([_STATE, _STATE])]),
                st.sampled_from([None, True, "x", np.full((4, 4), np.nan), np.eye(2) / 2, np.eye(4), np.float64(1.0)]),
                None,
            )
            for name in ("rho", "sigma")
        },
    ),
    "solve_son": (
        envarsim.solve_son,
        {
            "n": (st.one_of(st.floats(0.1, 1e4), st.sampled_from([2, np.float64(3.0)])), _bad(0.0, 0.05, -2.0, 2e4, math.inf, "2"), "exponent n"),
            "grid_size": (st.one_of(st.integers(16, 40), st.just(np.int64(17))), _bad_int(15, 0, -16, "20", np.array(20), 10**400), "grid_size"),
        },
    ),
    "mle_reconstruct_many": (
        envarsim.mle_reconstruct_many,
        {
            "records": (_RECORDS, st.nothing(), "records"),
            "projectors": (st.just(tomography_projectors()), st.nothing(), "projectors"),
            "max_iter": (st.one_of(st.integers(1, 30), st.just(np.int64(5))), _bad_int(0, -1, np.int64(0), "10"), "max_iter"),
            "tol": (st.sampled_from([1e-2, 1e-6, 10.0, np.float64(1e-4)]), _bad(0.0, -1e-6, math.inf, -math.inf, "1e-6"), "tol"),
        },
    ),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), root=st.sampled_from(sorted(ROOT_NAMES)))
def test_each_root_name_returns_or_refuses_a_bad_argument_by_name(data, root):
    func, spec = ROOT_NAMES[root]
    # at most two arguments drawn invalid, among those that have invalid values
    choosable = sorted(name for name, (_, invalid, _) in spec.items() if not invalid.is_empty)
    bad = data.draw(st.sets(st.sampled_from(choosable), max_size=2) if choosable else st.just(set()), label="bad")
    kwargs = {name: data.draw(invalid if name in bad else valid, label=name) for name, (valid, invalid, _) in spec.items()}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            func(**kwargs)
    except ValueError as exc:
        assert bad, f"{root} refused valid arguments: {exc}"
        names = [spec[name][2] for name in bad]
        assert None in names or any(re.search(text, str(exc)) for text in names), f"{root}: {exc!s} names none of {sorted(bad)}"
    else:
        assert not bad, f"{root} took the invalid {sorted(bad)}"


_PLAN = harness.ExperimentPlan(axes=("x",), angles_deg=(30.0,), flux_hz=100.0, duration_s=0.5)
_PLANS_OF_WRONG_TYPE = st.sampled_from([None, NoiseModel.noiseless(), "plan"])
_NOISES_OF_WRONG_TYPE = st.sampled_from([None, _PLAN])
# root name -> {non-numeric argument: its invalid values}; each name's text pattern and every
# valid value come from ROOT_NAMES
WRONG_TYPES = {
    "ExperimentPlan": {"axes": st.sampled_from([(["x"],), ("x", ["y"]), [["z"]]]), "noise": _NOISES_OF_WRONG_TYPE},
    "run_experiment": {"plan": _PLANS_OF_WRONG_TYPE},
    "run_three_stages": {"axis": st.sampled_from([["x"], ("z",)]), "plan": _PLANS_OF_WRONG_TYPE},
    "simulate_grid": {"plan": _PLANS_OF_WRONG_TYPE},
    "simulate_counts_many": {"noise": _NOISES_OF_WRONG_TYPE},
    "mle_reconstruct_many": {
        "records": st.sampled_from([[None], [_PLAN], [CountRecord(counts=np.full(36, 10), duration_s=1.0), "record"]]),
        "projectors": st.sampled_from([None, _PLAN]),
    },
}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), root=st.sampled_from(sorted(WRONG_TYPES)))
def test_each_root_name_refuses_a_non_numeric_argument_of_the_wrong_type_by_name(data, root):
    func, spec = ROOT_NAMES[root]
    bad = data.draw(st.sets(st.sampled_from(sorted(WRONG_TYPES[root])), min_size=1, max_size=2), label="bad")
    kwargs = {name: data.draw(WRONG_TYPES[root][name] if name in bad else valid, label=name) for name, (valid, _, _) in spec.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as exc:
            func(**kwargs)
    names = [spec[name][2] for name in bad]
    assert any(re.search(text, str(exc.value)) for text in names), f"{root}: {exc.value!s} names none of {sorted(bad)}"


# --- the two rules --------------------------------------------------------------------------


@pytest.mark.parametrize("value", [True, np.True_, "0.5", None, math.nan, math.inf, -np.float32(math.inf), np.array(0.5), 10**400, 1 + 0j])
def test_the_real_rule_refuses_what_is_no_finite_real_number(value):
    with pytest.raises(ValueError, match=r"^v must be finite, not "):
        check_real(value, "v must be finite")


def test_the_real_rule_has_open_and_closed_ends_and_shows_a_name():
    for value in (0, 1, np.float32(1.0), np.int64(0), 2**-1074):
        check_real(value, "closed", ge=0, le=1)
    for value, kwargs in ((0, {"gt": 0}), (1, {"lt": 1}), (-1e-300, {"ge": 0}), (1 + 2**-52, {"le": 1})):
        with pytest.raises(ValueError):
            check_real(value, "open", **kwargs)
    with pytest.raises(ValueError, match=re.escape("x and y must be positive, not y=-1")):
        check_real(-1, "x and y must be positive", gt=0, name="y")


@pytest.mark.parametrize("value", [True, np.True_, 3.0, np.float64(3.0), "3", None, -1, np.int64(-1)])
def test_the_integer_rule_refuses_what_is_no_integer_at_the_bound(value):
    with pytest.raises(ValueError, match=re.escape("k must be a non-negative integer, not ")):
        check_integer(value, "k must be a non-negative integer", 0)
    check_integer(np.uint64(2**63), "k", 0)
    check_integer(2**70, "k", 0)


def test_the_integer_rule_has_an_upper_end_if_given():
    for value in (3, np.int64(5), np.uint64(5)):
        check_integer(value, "k", 3, 5)
    for value in (6, np.uint64(2**64 - 1), 10**400):
        with pytest.raises(ValueError, match=re.escape(f"k must be in [3, 5], not {echo(value)}")):
            check_integer(value, "k must be in [3, 5]", 3, 5)


# --- probes of the root names and their helpers ---------------------------------------------


@pytest.mark.parametrize("seed", [1.5, True, "x", -1, None, np.True_])
def test_stage_rng_refuses_a_seed_that_is_not_a_non_negative_integer_by_name(seed):
    # 1.5 and True gave seed 1's stream, "x" int()'s ValueError, -1 numpy's own
    with pytest.raises(ValueError, match="^" + re.escape(f"seed must be a non-negative integer, not {seed!r}")):
        harness.stage_rng(seed, "x", 0.0, "I")


def test_plan_refuses_angles_given_as_an_array_by_name():
    # numpy's "The truth value of an array with more than one element is ambiguous"
    with pytest.raises(ValueError, match=re.escape("angles_deg must be a sequence of angles, not array([ 0., 30.])")):
        harness.ExperimentPlan(angles_deg=np.array([0.0, 30.0]))
    with pytest.raises(ValueError, match="^axes must be a sequence of axis names, not array"):
        harness.ExperimentPlan(axes=np.array(["x", "y"]))


@pytest.mark.parametrize("axes", [(["x"],), ("x", ["y"])])
def test_plan_refuses_list_valued_axes_by_name(axes):
    # the repeat test hashed each axis first: TypeError: unhashable type: 'list'
    with pytest.raises(ValueError, match="^" + re.escape(f"unknown axis {axes[-1]!r}")):
        harness.ExperimentPlan(axes=axes)


@pytest.mark.parametrize("plan", [None, NoiseModel.noiseless()], ids=["None", "noise-model"])
def test_run_experiment_refuses_a_plan_that_is_not_a_plan_by_name(plan):
    # AttributeError: 'NoneType' object has no attribute 'cells'
    with pytest.raises(ValueError, match="^plan must be an ExperimentPlan, not "):
        envarsim.run_experiment(plan)


@pytest.mark.parametrize("noise", [None, harness.ExperimentPlan()], ids=["None", "plan"])
def test_simulate_counts_many_refuses_a_noise_that_is_not_a_noise_model_by_name(noise):
    # AttributeError: 'NoneType' object has no attribute 'poisson'
    with pytest.raises(ValueError, match="^noise must be a NoiseModel, not "):
        envarsim.simulate_counts_many([werner(0.9)], 100.0, 1.0, noise, [None])


@pytest.mark.parametrize("records", [[None], [harness.ExperimentPlan()]], ids=["None", "plan"])
def test_mle_refuses_records_that_are_not_count_records_by_name(records):
    # AttributeError: 'NoneType' object has no attribute 'counts'
    with pytest.raises(ValueError, match="^records must hold CountRecords, not "):
        envarsim.mle_reconstruct_many(records, tomography_projectors())


@pytest.mark.parametrize("noise", [None, "calibrated"])
def test_plan_refuses_a_noise_that_is_not_a_noise_model_by_name(noise):
    # run_experiment died with AttributeError: 'NoneType' object has no attribute 'draws'
    with pytest.raises(ValueError, match="^" + re.escape(f"noise must be a NoiseModel, not {noise!r}")):
        harness.ExperimentPlan(noise=noise)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        # "1" and None raised a TypeError from <=; the bools were taken as 1 and 0
        ({"werner_v": "1"}, "werner_v must lie in [0, 1], not '1'"),
        ({"werner_v": True}, "werner_v must lie in [0, 1], not True"),
        ({"werner_v": 1.5}, "werner_v must lie in [0, 1], not 1.5"),
        ({"drift_sigma": None}, "noise sigmas must lie in [0, 2 pi] rad, not drift_sigma=None"),
        ({"drift_sigma": True}, "noise sigmas must lie in [0, 2 pi] rad, not drift_sigma=True"),
        ({"waveplate_error_sigma": -0.1}, "noise sigmas must lie in [0, 2 pi] rad, not waveplate_error_sigma=-0.1"),
    ],
)
def test_noise_model_refuses_a_parameter_that_is_no_number_in_range_by_name(kwargs, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        NoiseModel(**kwargs)


@pytest.mark.parametrize("v", ["0.5", True, np.True_, math.nan])
def test_werner_refuses_a_parameter_that_is_no_number_in_range_by_name(v):
    with pytest.raises(ValueError, match="^" + re.escape(f"Werner parameter v must lie in [0, 1], not {v!r}")):
        werner(v)


@pytest.mark.parametrize(
    "phi, value, sigma, message",
    [
        # "a" raised "must be real number, not str", a string value "bad operand type for abs()";
        # True was taken as 1
        ("a", 0.1, 0.1, "phi must be finite, not 'a'"),
        (0.1, "a", 0.1, "correlation value must lie in [-1, 1], not 'a'"),
        (0.1, True, 0.1, "correlation value must lie in [-1, 1], not True"),
        (0.1, 0.5, True, "sigma must be positive and finite, not True"),
    ],
)
def test_correlation_sample_refuses_a_field_that_is_no_number_by_name(phi, value, sigma, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        CorrelationSample("Z-DA", phi, value, sigma)


@pytest.mark.parametrize("tol", [True, "1e-6", None])
def test_mle_refuses_a_tol_that_is_no_number_by_name(tol):
    # True was taken as 1; "1e-6" and None raised a TypeError from np.isfinite
    record = CountRecord(counts=np.full(36, 10), duration_s=1.0)
    with pytest.raises(ValueError, match="^" + re.escape(f"tol must be finite and positive, not {tol!r}")):
        envarsim.mle_reconstruct_many([record], tomography_projectors(), tol=tol)


@pytest.mark.parametrize("theta", ["x", math.nan, math.inf, True, None, -0.1])
@pytest.mark.parametrize("noise", [NoiseModel.noiseless(), harness.calibrated_noise()], ids=["noiseless", "calibrated"])
def test_run_three_stages_refuses_a_theta_that_is_not_a_finite_non_negative_number_by_name(theta, noise):
    # "x" raised "bad operand type for unary -", nan "beta must be finite", which names a plate
    # angle; -0.1 was simulated without noise, and with it keyed a stream numpy refused
    message = f"theta must be a finite, non-negative number of radians, not {theta!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        envarsim.run_three_stages("x", theta, harness.ExperimentPlan(noise=noise))


def test_stage_rng_refuses_a_negative_angle_by_name():
    # numpy's SeedSequence refused its entropy: "expected non-negative integer"
    with pytest.raises(ValueError, match="^" + re.escape("angle_deg must be a non-negative number of degrees, not -1.0")):
        harness.stage_rng(0, "x", -1.0, "I")


_STREAMS = "rngs must be a sequence whose entries are each a numpy.random.Generator or None"


@pytest.mark.parametrize(
    "rhos, rngs, noise, message",
    [
        # each raised TypeError: object of type 'NoneType' has no len()
        (None, [None], NoiseModel.noiseless(), "rhos must be a sequence or an array, not None"),
        ([werner(0.9)], None, NoiseModel.noiseless(), f"{_STREAMS}, not None"),
        # AttributeError: 'int' object has no attribute 'normal'
        ([werner(0.9)], [1], harness.calibrated_noise(), f"{_STREAMS}, not 1"),
    ],
    ids=["rhos-None", "rngs-None", "rngs-int"],
)
def test_simulate_counts_many_refuses_arguments_that_are_not_sequences_by_name(rhos, rngs, noise, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        envarsim.simulate_counts_many(rhos, 100.0, 1.0, noise, rngs)


def test_mle_refuses_records_that_are_not_a_sequence_by_name():
    record = CountRecord(counts=np.full(36, 10), duration_s=1.0)
    # None raised a TypeError; a generator was consumed by the type checks and returned []
    for records in (None, (record for _ in range(2))):
        with pytest.raises(ValueError, match="^records must be a sequence, not "):
            envarsim.mle_reconstruct_many(records, tomography_projectors())


@pytest.mark.parametrize("angle", [True, "x", None, 10**400], ids=["True", "str", "None", "10**400"])
@pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
def test_wave_plate_setting_refuses_an_angle_that_is_no_finite_number_by_name(name, angle):
    # True was taken as 1.0 rad; "x", None and 10**400 raised numpy's TypeError
    angles = {"alpha": 0.1, "beta": 0.2, "gamma": 0.3, name: angle}
    message = f"{name} must be a finite number of radians, not {echo(angle)}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        WavePlateSetting(**angles)


# stack((True, 0.0, 0.0)) was the stack of WavePlateSetting(1.0, 0.0, 0.0); "x" raised numpy's
# "could not convert string to float" and 10**400 an OverflowError
@pytest.mark.parametrize("angles", [(True, 0.0, 0.0), ("x", 0, 0), (10**400, 0, 0)], ids=["True", "str", "10**400"])
def test_stack_refuses_an_angle_that_is_no_finite_number_by_name(angles):
    message = f"alpha must be a finite number of radians, not {echo(angles[0])}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        stack(angles)


@pytest.mark.parametrize("angle", [True, np.True_, "x", None, 10**400, math.nan], ids=["True", "np.True_", "str", "None", "10**400", "nan"])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_stack_checks_every_angle_of_a_list_or_an_array_by_name(position, angle):
    angles = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]
    angles[1][position] = angle
    name = ("alpha", "beta", "gamma")[position]
    for given in (angles, np.array(angles, dtype=object)):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number of radians, not "):
            stack(given)
    # an array of one such angle: bool, str, object or float, each refused at its first angle
    with pytest.raises(ValueError, match="^alpha must be a finite number of radians, not "):
        stack(np.array([angle] * 3))


def test_noise_model_echoes_a_long_poisson_flag_shortened():
    poisson = "y" * 100
    with pytest.raises(ValueError, match="^" + re.escape(f"poisson must be a bool, not {echo(poisson)}") + "$"):
        NoiseModel(poisson=poisson)
    assert echo(poisson) == f"'{'y' * 40}'… (100 characters)"


# --- CountRecord -----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "counts, dtype",
    [
        # 5.7 became 5, 2.9 became 2, "3" 3 and True 1; nan and inf raised numpy's cast RuntimeWarning
        (np.full(36, 5.7), "float64"),
        ([2.9] * 36, "float64"),
        (["3"] * 36, "<U1"),
        ([True] * 36, "bool"),
        (np.full(36, np.nan), "float64"),
        (np.full(36, np.inf), "float64"),
        # an integral float is not a count either
        (np.full(36, 5.0), "float64"),
    ],
)
def test_count_record_refuses_counts_that_are_not_integers_by_name(counts, dtype):
    with pytest.raises(ValueError, match="^" + re.escape(f"counts must be 36 integers, not an array of shape (36,) and dtype {dtype}")):
        CountRecord(counts=counts, duration_s=1.0)


def test_count_record_refuses_counts_whose_total_passes_int64_by_name():
    # each count fits int64, but the total wrapped: total() read 2**62, and normalize_counts summed to 5.0
    with pytest.raises(ValueError, match="^" + re.escape(f"counts total {5 * 2**62} exceeds 2**63 - 1") + "$"):
        CountRecord(counts=[2**62] * 5 + [0] * 31, duration_s=1.0)


def test_count_record_refuses_a_count_past_int64_by_name():
    # a Python int past 2**63 - 1 raised an OverflowError; an unsigned one turns negative
    with pytest.raises(ValueError, match="^counts must be 36 integers, not an array of shape \\(36,\\) and dtype object"):
        CountRecord(counts=[2**64] * 36, duration_s=1.0)
    with pytest.raises(ValueError, match="^counts must be non-negative"):
        CountRecord(counts=np.full(36, 2**63, dtype=np.uint64), duration_s=1.0)


@pytest.mark.parametrize("duration", [-1, 0, math.nan, math.inf, "5", True, None])
def test_count_record_refuses_a_duration_that_is_not_finite_and_positive_by_name(duration):
    # each was taken, and write_count_csv wrote a file read_count_csv refuses
    with pytest.raises(ValueError, match="^" + re.escape(f"duration_s must be finite and positive, not {duration!r}")):
        CountRecord(counts=np.full(36, 10), duration_s=duration)


count_rows = st.one_of(
    arrays(st.sampled_from([np.int8, np.uint16, np.int32, np.int64, np.uint64]), 36),
    # non-negative int64 rows, whose total often passes 2**63 - 1
    arrays(np.int64, 36, elements=st.integers(0, 2**63 - 1)),
    st.lists(st.integers(-5, 2**64), min_size=36, max_size=36),
    arrays(np.float64, 36),
)
durations = st.one_of(
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.integers(-5, 10**400),
    st.sampled_from([True, "5", None]),
)


@settings(max_examples=150, deadline=None)
@given(counts=count_rows, duration=durations)
def test_every_record_count_record_takes_survives_a_count_file(tmp_path_factory, counts, duration):
    rows = np.asarray(counts)
    if rows.shape == (36,) and rows.dtype.kind in "iu" and all(0 <= int(c) <= eio.INT64_MAX for c in rows):
        total = sum(int(c) for c in rows)
        if total > eio.INT64_MAX:
            # counts that each fit int64 but whose total does not: the record refuses them by name,
            # whatever the duration
            with pytest.raises(ValueError, match=rf"^counts total {total} exceeds 2\*\*63 - 1$"):
                CountRecord(counts=counts, duration_s=duration)
            return
    try:
        record = CountRecord(counts=counts, duration_s=duration)
    except ValueError:
        return
    path = Path(tmp_path_factory.mktemp("record")) / "counts.csv"
    eio.write_count_csv(path, record)
    back = eio.read_count_csv(path)
    np.testing.assert_array_equal(back.counts, record.counts)
    # the file holds the duration as a float
    assert back.duration_s == float(record.duration_s)
