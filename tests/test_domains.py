"""One domain vocabulary: the library entry points reject what a config
rejects, each with a DomainError naming the argument at fault, and the
config rows check through the rules the library declares."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netepi import abm, analysis, degree, ode
from netepi.abm import simulate_epidemic
from netepi.analysis import fit_parameters, sobol_first_order
from netepi.config import FIELDS, build_spec_model, parse_config_data, run_trajectory
from netepi.degree import from_weights, truncated_power_law
from netepi.errors import (POSITIVE, RANGE, SEED, UNIT, ConfigError, DomainError, Interval,
                           NetepiError, StabilityError, check, one_of)
from netepi.ode import EpidemicParams, Trajectory, TreatmentSchedule, build_model, integrate

SMALL = parse_config_data({
    "model": "stratified", "lambda": 0.1, "mu": 0.05, "rho0": 0.01,
    "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 10},
    "t_span": [0, 4], "method": "euler", "dt": 1.0})


def small_runner(p):
    return run_trajectory(SMALL, p)


FIT = {"observed_times": [0.0, 1.0], "observed": [0.0, 0.001],
       "free": {"lambda": (0.01, 0.3)}, "initial": {"lambda": 0.1}}


class TestEveryEntryPointNamesItsArgument:
    """Each of these used to return, or to end in a raw TypeError."""

    @pytest.mark.parametrize("argument, call", [
        ("ranges 'x1'", lambda: sobol_first_order(small_runner, {"x1": ("0", "1")}, 64)),
        ("observed_times", lambda: fit_parameters(small_runner, **{
            **FIT, "observed_times": ["0", "1"]})),
        ("observed", lambda: fit_parameters(small_runner, **{**FIT, "observed": ["0", "0.001"]})),
        ("free 'lambda'", lambda: fit_parameters(small_runner, **{
            **FIT, "free": {"lambda": ("0.01", "0.3")}})),
        ("initial 'lambda'", lambda: fit_parameters(small_runner, **{
            **FIT, "initial": {"lambda": "0.1"}})),
        ("initial 'mu'", lambda: fit_parameters(small_runner, **{
            **FIT, "initial": {"lambda": 0.1, "mu": 0.05}})),
        ("override 'lambda'", lambda: build_spec_model(SMALL, {"lambda": "0.1"})),
        ("override 'gamma'", lambda: build_spec_model(SMALL, {"gamma": True})),
        ("override 'gamma'", lambda: build_spec_model(SMALL, {"gamma": "2.5"})),
        ("overrides", lambda: build_spec_model(SMALL, "lambda")),
        ("k_min", lambda: truncated_power_law(2.5, True, 60)),
        ("gamma", lambda: truncated_power_law("2.5", 1, 60)),
        ("weights", lambda: from_weights(1, ["1", "2"])),
        ("k_min", lambda: from_weights("1", [1, 2])),
    ], ids=["sobol_ranges", "fit_observed_times", "fit_observed", "fit_free", "fit_initial",
            "fit_initial_without_free",
            "override_lambda_string", "override_gamma_bool", "override_gamma_string",
            "overrides_string",
            "power_law_k_min_bool", "power_law_gamma_string", "weights_strings",
            "weights_k_min_string"])
    def test_raises_domain_error_naming_the_argument(self, argument, call):
        with pytest.raises(DomainError, match=f"^{argument}(:| must be) "):
            call()


class TestErrorsPickle:
    """A replica process hands its error back pickled: each error keeps its
    type, its message and its field.  ConfigError used to come back as a
    TypeError, its constructor taking two arguments."""

    @pytest.mark.parametrize("error", [
        NetepiError("plain"), DomainError("n must be an integer >= 2, got 1"),
        DomainError("treatment epoch [0.0, 4.5] is not a whole number of dt=1.0 steps",
                    "treatment.epochs"),
        ConfigError("abm.n", "bad"), ConfigError("", "top-level config must be a JSON object"),
        StabilityError("state left the range at t=3")], ids=lambda e: type(e).__name__)
    def test_round_trip(self, error):
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert str(back) == str(error)
        assert getattr(back, "field", None) == getattr(error, "field", None)

    def test_every_subclass_is_covered(self):
        def subclasses(cls):
            return {cls}.union(*(subclasses(c) for c in cls.__subclasses__()))
        assert subclasses(NetepiError) == {NetepiError, DomainError, ConfigError, StabilityError}


class TestOneDeclaration:
    def test_parameter_rows_take_the_record_intervals(self):
        # each config row of an EpidemicParams number holds the record's own
        # interval object, so the two cannot drift apart
        keys = {"lam": "lambda", "lam2": "lambda2"}
        for name, interval in ode.PARAM_INTERVALS.items():
            assert FIELDS[keys.get(name, name)].domain is interval, name
        assert FIELDS["split"].domain is ode.SPLIT

    def test_argument_rows_take_the_library_rules(self):
        assert FIELDS["distribution.gamma"].domain is degree.GAMMA
        assert FIELDS["distribution.k_min"].domain is degree.DEGREE
        assert FIELDS["distribution.weights"].domain is degree.WEIGHTS
        assert FIELDS["abm.n"].domain is abm.NODES
        assert FIELDS["abm.replicas"].domain is abm.REPLICAS
        assert FIELDS["sensitivity.n_base"].domain is analysis.N_BASE
        assert FIELDS["sensitivity.output"].domain is analysis.OUTPUTS
        assert FIELDS["fit.output"].domain is analysis.OUTPUTS
        assert FIELDS["compare.band_sigmas"].domain is analysis.BAND_SIGMAS
        assert FIELDS["phase.population"].domain is analysis.POPULATIONS
        assert FIELDS["method"].domain is ode.METHODS
        assert FIELDS["link_mode"].domain is ode.LINK_MODES

    @pytest.mark.parametrize("value", [0.5, 0, 1, -0.1, 1.5, "0.5", True, None, math.nan,
                                       math.inf, [0.5]])
    def test_config_and_record_agree_on_every_value(self, value):
        # lambda in a config and lam in the record: both accept or both reject
        base = {"model": "classic", "lambda": 0.1, "mu": 0.1, "rho0": 0.01, "t_span": [0, 4]}
        try:
            parse_config_data({**base, "lambda": value})
            parsed = True
        except ConfigError as err:
            assert err.field == "lambda"
            parsed = False
        try:
            EpidemicParams(lam=value)
            built = True
        except DomainError:
            built = False
        assert parsed == built


class TestVocabulary:
    def test_interval_ends_and_numbers(self):
        assert 0 in UNIT and 1 in UNIT and 0.5 in UNIT
        assert 0 not in POSITIVE and 1e300 in POSITIVE
        half_open = Interval(0, 1, hi_open=True)
        assert 0 in half_open and 1 not in half_open
        for value in (True, "0.5", None, math.nan, math.inf, 10 ** 400, [0.5], 0.5j):
            assert value not in UNIT
        assert np.float64(0.5) in UNIT and np.int64(1) in UNIT

    def test_words(self):
        assert UNIT.what == "a number in [0, 1]"
        assert Interval(0, 1, True, False).what == "a number in (0, 1]"
        assert one_of("a", "b", "c").what == "'a', 'b' or 'c'"
        assert SEED.what == "an integer >= 0"

    def test_check_names_the_argument_or_the_field(self):
        assert check("lam", 0.5, UNIT) == 0.5
        with pytest.raises(DomainError, match=r"^lam must be a number in \[0, 1\], got 2$"):
            check("lam", 2, UNIT)
        with pytest.raises(ConfigError, match=r"^lambda: must be a number in \[0, 1\], got 2$"):
            check("lambda", 2, UNIT, config=True)

    @pytest.mark.parametrize("value", [(0, 1), [0.0, 2.5], (-1e308, 0.0)])
    def test_range_accepts_sampleable_pairs(self, value):
        assert value in RANGE

    @pytest.mark.parametrize("value", [(1, 0), (1, 1), ("0", "1"), (0,), (0, 1, 2), (True, 2),
                                       (0, math.inf), (-1e308, 1e308), "01", {0: 1, 1: 2}, None])
    def test_range_rejects(self, value):
        assert value not in RANGE


# Library arguments drawn at random, as TestArgumentsDrawnAtRandom in
# test_analysis.py draws those of the analyses: each argument is drawn from
# its valid branch five times in six.  A call either returns or raises a
# DomainError, and it must raise one whenever an argument came from the
# invalid branch.

def drawn(valid, invalid):
    """(True, a valid value) five times in six, else (False, an invalid one)."""
    return st.integers(0, 5).flatmap(
        lambda i: invalid.map(lambda v: (False, v)) if i == 0 else valid.map(lambda v: (True, v)))


# numeric strings, bools, NaN, inf and wrong containers
ODD = st.sampled_from(["1", "0.5", True, False, math.nan, math.inf, -math.inf, None, [], {},
                       [1.0], (1.0,), "rk4 "])
DIST = truncated_power_law(2.5, 1, 10)
DIST2 = from_weights(2, [1, 2])
SCHEDULE = TreatmentSchedule((1.0,), (0.5,))
MODELS = {name: build_model(name, params, DIST) for name, params in (
    ("classic", EpidemicParams(lam=0.1, mu=0.05, rho0=0.01)),
    ("stratified", EpidemicParams(lam=0.1, mu=0.05, rho0=0.01)),
    ("hiv_msm", EpidemicParams(lam=0.1, rho0=0.01, d=0.05)),
    ("bipartite", EpidemicParams(lam=0.1, lam2=0.05, mu=0.05, rho0=0.01)))}
MODEL = drawn(st.sampled_from(sorted(MODELS)).map(MODELS.get),
              st.one_of(ODD, st.just(EpidemicParams(lam=0.1)), st.just(DIST)))
SCHEDULE_ARG = drawn(st.sampled_from([None, SCHEDULE]),
                     st.one_of(ODD.filter(lambda v: v is not None), st.just((1.0,))))


def check_outcome(args, call):
    """``call()`` returns, or raises a DomainError; it must raise one when
    any of the (valid, value) ``args`` is invalid."""
    if all(valid for valid, _ in args):
        try:
            return call()
        except DomainError:
            return None
    with pytest.raises(DomainError):
        call()
    return None


class TestLibraryArgumentsDrawnAtRandom:
    @given(model=MODEL,
           t_span=drawn(st.sampled_from([(0, 4), [0.0, 2.0], (1, 3)]),
                        st.one_of(ODD, st.sampled_from([("0", "4"), (0, math.nan), (0, math.inf),
                                                        (True, 4), [0], (4, 0), (0, 1, 2), 4]))),
           dt=drawn(st.sampled_from([0.5, 1.0, 1]),
                    st.one_of(ODD, st.sampled_from([0, -1.0, 0.0]))),
           method=drawn(st.sampled_from(["euler", "rk4"]),
                        st.one_of(ODD, st.sampled_from(["Euler", b"rk4", 1]))),
           schedule=SCHEDULE_ARG)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_integrate(self, model, t_span, dt, method, schedule):
        args = (model, t_span, dt, method, schedule)
        traj = check_outcome(args, lambda: integrate(
            model[1], t_span[1], dt[1], method[1], schedule=schedule[1]))
        if traj is not None:
            assert isinstance(traj, Trajectory)
            assert traj.times[0] == t_span[1][0] and traj.times[-1] == t_span[1][1]

    @given(model=MODEL,
           n=drawn(st.integers(2, 400), st.one_of(ODD, st.sampled_from([1, 0, -5, 100.0]))),
           steps=drawn(st.integers(1, 5), st.one_of(ODD, st.sampled_from([0, -1, 3.0]))),
           rng=drawn(st.integers(0, 2 ** 40), st.one_of(ODD.filter(lambda v: v is not None),
                                                       st.sampled_from([-1, 1.5]))),
           schedule=SCHEDULE_ARG,
           t0=drawn(st.sampled_from([0.0, 2, -1.0, 0.5]), ODD))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_simulate_epidemic(self, model, n, steps, rng, schedule, t0):
        args = (model, n, steps, rng, schedule, t0)
        traj = check_outcome(args, lambda: simulate_epidemic(
            model[1], n[1], steps[1], rng=rng[1], schedule=schedule[1], t0=t0[1]))
        if traj is not None:
            assert isinstance(traj, Trajectory) and len(traj.times) == steps[1] + 1

    @given(name=drawn(st.sampled_from(ode.MODEL_NAMES),
                      st.one_of(ODD, st.sampled_from(["sis", "Classic", ["classic"]]))),
           params=drawn(st.sampled_from([EpidemicParams(lam=0.1, rho0=0.01),
                                         EpidemicParams(lam=0.1, lam2=0.05, rho0=0.01),
                                         EpidemicParams(lam=0.1, mu=0.05, lam2=0.05)]),
                        st.one_of(ODD, st.just({"lam": 0.1}))),
           dist=drawn(st.sampled_from([None, DIST]), st.one_of(
               ODD.filter(lambda v: v is not None), st.just([0.5, 0.5]))),
           dist2=drawn(st.sampled_from([None, DIST2]), st.one_of(
               ODD.filter(lambda v: v is not None), st.just(2))))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_build_model(self, name, params, dist, dist2):
        args = (name, params, dist, dist2)
        model = check_outcome(args, lambda: build_model(name[1], params[1], dist[1], dist2[1]))
        if model is not None:
            assert model.initial_state().shape == (model.dim,)
