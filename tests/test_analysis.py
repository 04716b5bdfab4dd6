import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from types import SimpleNamespace
from typing import NamedTuple

from netepi.analysis import (
    compare_ode_abm,
    fit_parameters,
    phase_series,
    sobol_first_order,
)
from netepi.abm import EnsembleSummary, run_ensemble
from netepi.config import parse_config_data, run_trajectory
from netepi.degree import truncated_power_law
from netepi.errors import DomainError
from netepi.ode import EpidemicParams, build_model, integrate

FIG1_DIST = truncated_power_law(3, 1, 60)
FIG1_PARAMS = EpidemicParams(lam=0.05, mu=0.05, rho0=0.01)


def stratified(params, dist=FIG1_DIST):
    return build_model("stratified", params, dist)


def identical_replicas(traj):
    """The ensemble summary of replicas that all equal ``traj``: its totals, SE 0."""
    zero = np.zeros_like(traj.prevalence)
    return EnsembleSummary(traj.times, 2, traj.prevalence, zero, traj.incidence, zero,
                           traj.susceptible)


def flat_output(y, times=2):
    grid = np.arange(float(times))
    return SimpleNamespace(times=grid, incidence=np.full(times, y),
                           prevalence=np.full(times, y))


class Record(NamedTuple):
    """The two fields ``sobol_first_order`` reads of a run."""

    times: np.ndarray
    incidence: np.ndarray


# Ishigami & Homma (1990): f = sin x1 + a sin^2 x2 + b x3^4 sin x1 on
# [-pi, pi]^3, with a = 7, b = 0.1.  Its exact first-order indices are
# V1 / V, V2 / V and 0, where V1 = (1 + b pi^4 / 5)^2 / 2, V2 = a^2 / 8 and
# V = V1 + V2 + b^2 pi^8 (1/18 - 1/50): 0.3139, 0.4424 and 0
_A, _B = 7.0, 0.1
_V1, _V2 = (1 + _B * np.pi ** 4 / 5) ** 2 / 2, _A ** 2 / 8
_ISHIGAMI = np.array([_V1, _V2, 0.0]) / (_V1 + _V2 + _B ** 2 * np.pi ** 8 * (1 / 18 - 1 / 50))


def ishigami(p):
    x1, x2, x3 = p["x1"], p["x2"], p["x3"]
    f = np.sin(x1) + _A * np.sin(x2) ** 2 + _B * x3 ** 4 * np.sin(x1)
    return Record(np.zeros(1), np.array([f]))


class TestSobol:
    def test_ishigami_oracle(self):
        """The standard Sobol test function: every first-order index within
        4 standard errors of the exact one, over four seeds."""
        assert np.round(_ISHIGAMI, 4).tolist() == [0.3139, 0.4424, 0.0]
        ranges = {name: (-np.pi, np.pi) for name in ("x1", "x2", "x3")}
        for seed in range(4):
            res = sobol_first_order(ishigami, ranges, n_base=4096, seed=seed)
            assert res.indices.shape == (3, 1)
            z = (res.indices[:, 0] - _ISHIGAMI) / res.standard_errors[:, 0]
            assert np.all(np.abs(z) < 4), (seed, res.indices[:, 0], z)

    def test_additive_model_analytic_indices(self):
        # Y = 2 x1 + x2, x_i ~ U(0,1): S1 = 4/5, S2 = 1/5
        def runner(p):
            return flat_output(2.0 * p["x1"] + p["x2"])

        res = sobol_first_order(runner, {"x1": (0, 1), "x2": (0, 1)}, n_base=512, seed=5)
        assert res.indices[0, 0] == pytest.approx(0.8, abs=3 * res.standard_errors[0, 0])
        assert res.indices[1, 0] == pytest.approx(0.2, abs=3 * res.standard_errors[1, 0])

    def test_ignored_parameter_has_null_index(self):
        def runner(p):
            return flat_output(p["x1"] ** 2)

        res = sobol_first_order(runner, {"x1": (0, 1), "dead": (3, 4)}, n_base=256, seed=1)
        assert abs(res.indices[1, 0]) <= max(3 * res.standard_errors[1, 0], 1e-12)

    def test_sum_bounded_for_independent_inputs(self):
        def runner(p):
            return flat_output(p["a"] * p["b"] + 0.5 * p["a"])

        res = sobol_first_order(runner, {"a": (0, 1), "b": (0, 1)}, n_base=512, seed=9)
        assert np.nansum(res.indices[:, 0]) <= 1.0 + 3 * res.noise_bound

    def test_deterministic_given_seed(self):
        def runner(p):
            return flat_output(np.sin(p["x1"]) + p["x2"])

        kw = dict(ranges={"x1": (0, 3), "x2": (0, 1)}, n_base=128, seed=7)
        a = sobol_first_order(runner, **kw)
        b = sobol_first_order(runner, **kw)
        assert np.array_equal(a.indices, b.indices)

    def test_zero_variance_marked_undefined(self):
        def runner(p):
            out = flat_output(p["x1"])
            out.incidence = np.array([p["x1"], 42.0])  # second point constant
            return out

        res = sobol_first_order(runner, {"x1": (0, 1)}, n_base=64, seed=2)
        assert np.isfinite(res.indices[0, 0])
        assert np.isnan(res.indices[0, 1])

    def test_input_validation(self):
        def runner(p):
            return flat_output(p["x1"])

        with pytest.raises(DomainError):
            sobol_first_order(runner, {"x1": (0, 1)}, n_base=32)
        with pytest.raises(DomainError):
            sobol_first_order(runner, {}, n_base=64)
        with pytest.raises(DomainError):
            sobol_first_order(runner, {"x1": (1, 1)}, n_base=64)
        with pytest.raises(DomainError):
            sobol_first_order(runner, {"x1": (0, 1)}, n_base=64, output="peak")

    @pytest.mark.parametrize("bound", [(float("nan"), 1), (0, float("nan")), (0, float("inf")),
                                       (0,), (0, 1, 2), "ab", None])
    def test_rejects_non_finite_range(self, bound):
        calls = []

        def runner(p):
            calls.append(p)
            return flat_output(p["x1"])

        with pytest.raises(DomainError, match="range"):
            sobol_first_order(runner, {"x1": bound}, n_base=64)
        assert calls == []

    @pytest.mark.parametrize("n_base", [64.5, 64.0, "64", True, None])
    def test_rejects_non_integer_n_base(self, n_base):
        def runner(p):
            return flat_output(p["x1"])

        with pytest.raises(DomainError, match="n_base"):
            sobol_first_order(runner, {"x1": (0, 1)}, n_base=n_base)

    def test_n_base_too_large_to_allocate(self):
        # 10**13 x 2 doubles is refused at once, before any model evaluation
        calls = []

        def runner(p):
            calls.append(p)
            return flat_output(p["x1"])

        with pytest.raises(DomainError, match=r"^n_base=10000000000000 needs two "
                                              r"10000000000000 x 2 design matrices") as err:
            sobol_first_order(runner, {"x1": (0, 1), "x2": (0, 1)}, n_base=10 ** 13)
        assert calls == []
        assert err.value.field == "n_base"

    @pytest.mark.parametrize("seed", [-1, 2.0, 1.5, "3", True, None])
    def test_rejects_bad_seed(self, seed):
        def runner(p):
            return flat_output(p["x1"])

        with pytest.raises(DomainError, match="seed"):
            sobol_first_order(runner, {"x1": (0, 1)}, n_base=64, seed=seed)

    @pytest.mark.parametrize("ranges", [5, None, [("x1", (0, 1))], "x1"])
    def test_rejects_ranges_that_are_not_a_mapping(self, ranges):
        def runner(p):
            return flat_output(p["x1"])

        with pytest.raises(DomainError, match="^ranges must be a mapping"):
            sobol_first_order(runner, ranges, n_base=64)

    def test_rejects_a_range_too_wide_to_sample(self):
        # upper - lower overflows to inf, which would sample inf and NaN
        calls = []

        def runner(p):
            calls.append(p)
            return flat_output(p["x1"])

        with pytest.raises(DomainError, match="range"):
            sobol_first_order(runner, {"x1": (-1e308, 1e308)}, n_base=64)
        assert calls == []


class TestPhaseSeries:
    def test_starts_at_initial_state_and_rhs(self):
        model = stratified(FIG1_PARAMS)
        traj = integrate(model, (0, 20), 0.5, "rk4")
        dy0 = model.rhs_full(model.initial_state())[0]
        [(_, d_infected, _)] = model.blocks(dy0)
        for m in (1, 10, 30):
            ser = phase_series(traj, m, m)
            i = m - 1
            assert ser[0, 0] == FIG1_PARAMS.rho0 * FIG1_DIST.pmf[i]
            assert ser[0, 1] == d_infected[0, 0, i]

    def test_decay_only_dynamics_has_nonpositive_derivative(self):
        params = EpidemicParams(lam=0.0, mu=0.1, rho0=0.1)
        traj = integrate(stratified(params), (0, 50), 0.5, "rk4")
        ser = phase_series(traj, 5, 5)
        assert np.all(ser[:, 1] <= 0.0)

    def test_cross_degree_sign_changes(self):
        traj = integrate(stratified(FIG1_PARAMS), (0, 400), 0.2, "rk4")
        ser = phase_series(traj, 30, 1)
        signs = np.sign(ser[:, 1])
        changes = np.sum(signs[:-1] * signs[1:] < 0)
        assert changes >= 2

    def test_healthy_variant_uses_s_plus_removed(self):
        traj = integrate(stratified(FIG1_PARAMS), (0, 20), 0.5, "rk4")
        ser = phase_series(traj, 4, 4, variant="healthy")
        [(s, _, removed)] = traj.model.blocks(traj.Y[0])
        assert ser[0, 0] == max(s[3], 0.0) + max(removed[3], 0.0)

    def test_rejects_degree_outside_support(self):
        traj = integrate(stratified(FIG1_PARAMS), (0, 5), 1.0, "euler")
        with pytest.raises(DomainError):
            phase_series(traj, 61, 61)

    def test_rejects_trajectory_without_rhs_records(self):
        traj = integrate(stratified(FIG1_PARAMS), (0, 5), 1.0, "euler")
        traj.dY = None
        with pytest.raises(DomainError):
            phase_series(traj, 1, 1)

    def test_second_population_selector(self):
        traj = integrate(stratified(FIG1_PARAMS), (0, 5), 1.0, "euler")
        with pytest.raises(DomainError):
            phase_series(traj, 1, 1, population=2)

    @pytest.mark.parametrize("population", [0, 7, -1, 1.0, True, "2", None])
    def test_rejects_population_other_than_1_or_2(self, population):
        params = EpidemicParams(lam=0.2, mu=0.1, rho0=0.01, lam2=0.1)
        traj = integrate(build_model("bipartite", params, FIG1_DIST, FIG1_DIST), (0, 5), 1.0,
                         "euler")
        assert phase_series(traj, 1, 1, population=np.int64(2)).shape == (6, 2)
        with pytest.raises(DomainError, match="population"):
            phase_series(traj, 1, 1, population=population)


class TestCompare:
    def test_self_comparison_has_full_coverage(self):
        ode = integrate(stratified(FIG1_PARAMS), (0, 30), 1.0, "euler")
        ens = identical_replicas(ode)
        report = compare_ode_abm(ode, ens)
        assert report.coverage == 1.0
        assert report.peak_relative_deviation == 0.0
        assert report.peak_time_offset == 0.0

    def test_no_transmission_decay_matches(self):
        params = EpidemicParams(lam=0.0, mu=0.1, rho0=0.1)
        model = stratified(params, truncated_power_law(3, 1, 30))
        ode = integrate(model, (0, 30), 1.0, "euler")
        ens = run_ensemble(model, 10000, 30, replicas=30, base_seed=21)
        report = compare_ode_abm(ode, ens)
        assert report.coverage >= 0.9

    def test_coverage_invariant_under_replica_reordering(self):
        # one process merges the replicas as they run, two as the pool
        # returns them: the report must not tell the two apart
        params = EpidemicParams(lam=0.05, mu=0.05, rho0=0.05)
        model = stratified(params, truncated_power_law(3, 1, 30))
        ode = integrate(model, (0, 20), 1.0, "euler")
        a, b = (compare_ode_abm(ode, run_ensemble(model, 1000, 20, replicas=6, base_seed=2,
                                                  n_jobs=jobs)) for jobs in (1, 2))
        assert a.coverage == b.coverage
        assert np.array_equal(a.covered, b.covered)

    def test_rejects_misaligned_grids(self):
        ode = integrate(stratified(FIG1_PARAMS), (0, 30), 1.0, "euler")
        short = integrate(stratified(FIG1_PARAMS), (0, 20), 1.0, "euler")
        ens = identical_replicas(short)
        with pytest.raises(DomainError):
            compare_ode_abm(ode, ens)

    @pytest.mark.parametrize("band_sigmas", [-1.0, 0.0, float("nan"), float("inf"), "x", None,
                                             True])
    def test_rejects_band_sigmas_that_is_not_a_positive_number(self, band_sigmas):
        # compare.band_sigmas' rule; -1 used to read a coverage, NaN 0 and inf 1
        ode = integrate(stratified(FIG1_PARAMS), (0, 5), 1.0, "euler")
        ens = identical_replicas(ode)
        with pytest.raises(DomainError, match="^band_sigmas must"):
            compare_ode_abm(ode, ens, band_sigmas=band_sigmas)


class TestFit:
    @staticmethod
    def runner(p):
        params = EpidemicParams(lam=p["lambda"], mu=0.05, rho0=0.01)
        return integrate(stratified(params), (0, 80), 1.0, "euler")

    def test_fixed_point_converges_immediately(self):
        truth = self.runner({"lambda": 0.1})
        res = fit_parameters(self.runner, truth.times, truth.incidence,
                             {"lambda": (0.01, 0.3)}, {"lambda": 0.1})
        assert res.residual == 0.0
        assert res.parameters["lambda"] == pytest.approx(0.1, abs=1e-12)

    def test_inversion_recovers_rate(self):
        truth = self.runner({"lambda": 0.1})
        res = fit_parameters(self.runner, truth.times, truth.incidence,
                             {"lambda": (0.01, 0.3)}, {"lambda": 0.2})
        assert res.converged
        assert res.parameters["lambda"] == pytest.approx(0.1, abs=1e-3)

    def test_never_worse_than_initial_guess(self):
        truth = self.runner({"lambda": 0.1})
        rng = np.random.default_rng(3)
        noisy = truth.incidence + 0.3 * truth.incidence.max() * rng.standard_normal(
            truth.incidence.shape)

        def residual_of(lam):
            series = self.runner({"lambda": lam}).incidence
            return float(np.sum((series - noisy) ** 2))

        res = fit_parameters(self.runner, truth.times, noisy,
                             {"lambda": (0.01, 0.3)}, {"lambda": 0.17})
        assert res.residual <= residual_of(0.17) + 1e-12

    def test_reports_a_bound_optimum(self):
        # stratified k 1..20 over t 0..20, truth lambda 0.1 observed every
        # 4th step: the residual rises from 0 at 0.1 to 0.028 at 0.5 and
        # falls again to 0.0256 at 0.6, so a start at the upper bound ends
        # there, converged, on a boundary local minimum
        def runner(p):
            params = EpidemicParams(lam=p["lambda"], mu=0.05, rho0=0.005)
            return integrate(build_model("stratified", params, truncated_power_law(2.5, 1, 20)),
                             (0, 20), 1.0, "euler")

        truth = runner({"lambda": 0.1})
        kw = dict(observed_times=truth.times[::4], observed=truth.incidence[::4],
                  free={"lambda": (0.05, 0.6)})
        stuck = fit_parameters(runner, **kw, initial={"lambda": 0.6})
        assert stuck.converged and stuck.parameters["lambda"] == 0.6
        assert stuck.residual == pytest.approx(0.0256, abs=1e-4)
        assert stuck.at_bound == ("lambda",)
        inside = fit_parameters(runner, **kw, initial={"lambda": 0.3})
        assert inside.parameters["lambda"] == pytest.approx(0.1, abs=1e-6)
        assert inside.at_bound == ()

    def test_deterministic(self):
        truth = self.runner({"lambda": 0.1})
        kw = dict(free={"lambda": (0.01, 0.3)}, initial={"lambda": 0.25})
        a = fit_parameters(self.runner, truth.times, truth.incidence, **kw)
        b = fit_parameters(self.runner, truth.times, truth.incidence, **kw)
        assert a.parameters == b.parameters
        assert a.residual == b.residual

    def test_input_validation(self):
        truth = self.runner({"lambda": 0.1})
        with pytest.raises(DomainError):
            fit_parameters(self.runner, [], [], {"lambda": (0, 1)}, {"lambda": 0.1})
        with pytest.raises(DomainError):
            fit_parameters(self.runner, truth.times, truth.incidence, {}, {})
        with pytest.raises(DomainError):
            fit_parameters(self.runner, truth.times, truth.incidence,
                           {"lambda": (0, np.inf)}, {"lambda": 0.1})
        with pytest.raises(DomainError):
            # off-grid observation times
            fit_parameters(self.runner, truth.times + 0.31, truth.incidence,
                           {"lambda": (0.01, 0.3)}, {"lambda": 0.1})

    @pytest.mark.parametrize("argument,changes", [
        ("free", {"free": {"lambda": (0.01,)}}),
        ("free", {"free": {"lambda": (0.01, 0.2, 0.3)}}),
        ("free", {"free": {"lambda": None}}),
        ("initial", {"initial": {}}),
        ("initial", {"initial": {"lambda": float("nan")}}),
        ("initial", {"initial": {"lambda": float("inf")}}),
        ("initial", {"initial": {"lambda": 7.5}}),
        ("observed_times", {"observed_times": [0.0, float("nan")]}),
        ("observed", {"observed": [0.0, float("inf")]}),
        ("output", {"output": "foo"}),
        ("output", {"output": None}),
        ("max_iterations", {"max_iterations": "x"}),
        ("max_iterations", {"max_iterations": -1}),
        ("max_iterations", {"max_iterations": 0}),
        ("max_iterations", {"max_iterations": 1.5}),
        ("max_iterations", {"max_iterations": True}),
        ("initial", {"initial": None}),
        ("initial", {"initial": {"lambda": "x"}}),
        ("initial", {"initial": {"lambda": [0.1, 0.2]}}),
        ("free", {"free": None}),
        ("observed", {"observed": ["a", "b"]}),
        ("observed_times", {"observed_times": [0.0, {}]}),
    ])
    def test_rejects_bad_argument_before_any_run(self, argument, changes):
        calls = []

        def runner(p):
            calls.append(p)
            return self.runner(p)

        kw = {"observed_times": [0.0, 1.0], "observed": [0.0, 0.001],
              "free": {"lambda": (0.01, 0.3)}, "initial": {"lambda": 0.1}, **changes}
        with pytest.raises(DomainError, match=f"^{argument}[ :]"):
            fit_parameters(runner, **kw)
        assert calls == []


# Library arguments drawn at random: sobol_first_order and fit_parameters
# either return or raise a DomainError, whatever they are given.  Each
# argument is drawn valid five times in six, so that the later checks and
# the model runs are reached too.  The runner is the CLI's, on a small
# stratified model, so a drawn parameter value outside its domain fails
# there as it does in a config.
_SMALL = parse_config_data({
    "model": "stratified", "lambda": 0.1, "mu": 0.05, "rho0": 0.01,
    "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 10},
    "t_span": [0, 4], "method": "euler", "dt": 1.0})


def _small_runner(p):
    return run_trajectory(_SMALL, p)


def _mostly(valid, other):
    """``valid`` five times in six, else ``other``."""
    return st.integers(0, 5).flatmap(lambda i: other if i == 0 else valid)


_ODD = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just({}), st.just([]))
_NUMBER = st.one_of(st.floats(-0.5, 1.5), st.floats(), st.integers(-2, 3))
_VALUE = st.one_of(_NUMBER, _ODD)
_PAIR = st.one_of(st.tuples(_NUMBER, _NUMBER), st.tuples(_VALUE, _VALUE),
                  st.lists(_NUMBER, max_size=3), _ODD)
# each tunable's (lower, upper) inside its domain
_DOMAIN = {"lambda": (0.0, 1.0), "mu": (0.0, 1.0), "rho0": (1e-3, 0.5), "gamma": (0.1, 4.0)}
_RANGE = {name: st.tuples(st.floats(lo, (lo + hi) / 2), st.floats(1e-3, (hi - lo) / 2)).map(
    lambda p: (p[0], p[0] + p[1])) for name, (lo, hi) in _DOMAIN.items()}
_RANGES = _mostly(
    st.sampled_from(sorted(_DOMAIN)).flatmap(lambda name: st.fixed_dictionaries(
        {name: _RANGE[name]}, optional={other: _RANGE[other] for other in _DOMAIN
                                        if other != name})),
    st.one_of(st.dictionaries(st.sampled_from(["lambda", "gamma", "lambda2", "x"]), _PAIR,
                              max_size=2), _ODD, _NUMBER))
_OUTPUT = _mostly(st.sampled_from(["incidence", "prevalence"]), st.one_of(st.just("peak"), _ODD))


class TestArgumentsDrawnAtRandom:
    @given(ranges=_RANGES,
           n_base=_mostly(st.integers(64, 70), st.one_of(st.integers(-2, 63), st.floats(), _ODD)),
           seed=_mostly(st.integers(0, 2 ** 70), st.one_of(st.integers(max_value=-1),
                                                           st.floats(), _ODD)),
           output=_OUTPUT)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_sobol_returns_or_raises_domain_error(self, ranges, n_base, seed, output):
        try:
            result = sobol_first_order(_small_runner, ranges, n_base, seed=seed, output=output)
        except DomainError:
            return
        assert result.indices.shape == (len(ranges), 5)

    @given(data=st.data(),
           free=_mostly(st.dictionaries(st.sampled_from(sorted(_DOMAIN)), st.just(None),
                                        min_size=1, max_size=2).flatmap(
               lambda names: st.fixed_dictionaries({p: _RANGE[p] for p in names})),
               st.one_of(st.dictionaries(st.sampled_from(["lambda", "x"]), _PAIR, max_size=2),
                         _ODD)),
           output=_OUTPUT,
           max_iterations=_mostly(st.integers(1, 20),
                                  st.one_of(st.integers(-2, 0), st.floats(0, 5), _ODD)))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_fit_returns_or_raises_domain_error(self, data, free, output, max_iterations):
        n = data.draw(st.integers(1, 4))
        times = data.draw(_mostly(
            st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0]), min_size=n, max_size=n),
            st.one_of(st.lists(st.sampled_from([0.5, -1.0, 9.0]), min_size=n, max_size=n),
                      st.lists(_VALUE, max_size=4), _ODD)))
        observed = data.draw(_mostly(st.lists(st.floats(0, 0.1), min_size=n, max_size=n),
                                     st.one_of(st.lists(_VALUE, max_size=4), _ODD)))
        bounds = free.items() if isinstance(free, dict) and free else ()
        within = (st.fixed_dictionaries({p: st.floats(*b) for p, b in bounds})
                  if all(isinstance(b, tuple) and len(b) == 2 and all(map(np.isfinite, b))
                         and b[0] < b[1] for _, b in bounds) else st.nothing())
        initial = data.draw(_mostly(within, st.one_of(
            st.dictionaries(st.sampled_from(["lambda", "mu"]), _VALUE, max_size=2), _ODD)))
        try:
            result = fit_parameters(_small_runner, times, observed, free, initial,
                                    output=output, max_iterations=max_iterations)
        except DomainError:
            return
        assert set(result.parameters) == set(free)
