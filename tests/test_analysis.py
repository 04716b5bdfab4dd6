import numpy as np
import pytest
from types import SimpleNamespace

from netepi.analysis import (
    compare_ode_abm,
    fit_parameters,
    phase_series,
    sobol_first_order,
)
from netepi.abm import run_ensemble, summarize_trajectories
from netepi.degree import truncated_power_law
from netepi.errors import DomainError
from netepi.ode import EpidemicParams, build_model, integrate

FIG1_DIST = truncated_power_law(3, 1, 60)
FIG1_PARAMS = EpidemicParams(lam=0.05, mu=0.05, rho0=0.01)


def stratified(params, dist=FIG1_DIST):
    return build_model("stratified", params, dist)


def flat_output(y, times=2):
    grid = np.arange(float(times))
    return SimpleNamespace(times=grid, incidence=np.full(times, y),
                           prevalence=np.full(times, y))


class TestSobol:
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
                                              r"10000000000000 x 2 design matrices"):
            sobol_first_order(runner, {"x1": (0, 1), "x2": (0, 1)}, n_base=10 ** 13)
        assert calls == []

    @pytest.mark.parametrize("seed", [-1, 2.0, 1.5, "3", True, None])
    def test_rejects_bad_seed(self, seed):
        def runner(p):
            return flat_output(p["x1"])

        with pytest.raises(DomainError, match="seed"):
            sobol_first_order(runner, {"x1": (0, 1)}, n_base=64, seed=seed)


class TestPhaseSeries:
    def test_starts_at_initial_state_and_rhs(self):
        model = stratified(FIG1_PARAMS)
        traj = integrate(model, (0, 20), 0.5, "rk4")
        dy0 = model.rhs_full(0.0, model.initial_state())[0]
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
        ens = summarize_trajectories([ode, ode])
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
        params = EpidemicParams(lam=0.05, mu=0.05, rho0=0.05)
        from netepi.abm import replica_rng, simulate_epidemic

        model = stratified(params, truncated_power_law(3, 1, 30))
        trajs = [simulate_epidemic(model, 1000, 20, rng=replica_rng(2, r)) for r in range(6)]
        ode = integrate(model, (0, 20), 1.0, "euler")
        a = compare_ode_abm(ode, summarize_trajectories(trajs))
        b = compare_ode_abm(ode, summarize_trajectories(trajs[::-1]))
        assert a.coverage == b.coverage

    def test_rejects_misaligned_grids(self):
        ode = integrate(stratified(FIG1_PARAMS), (0, 30), 1.0, "euler")
        short = integrate(stratified(FIG1_PARAMS), (0, 20), 1.0, "euler")
        ens = summarize_trajectories([short, short])
        with pytest.raises(DomainError):
            compare_ode_abm(ode, ens)


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
