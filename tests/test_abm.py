import numpy as np
import pytest
from scipy import stats

from netepi.abm import (
    _shuffled_stub_pairs,
    generate_network,
    replica_rng,
    run_ensemble,
    simulate_epidemic,
    summarize_trajectories,
)
from netepi.analysis import compare_ode_abm
from netepi.degree import from_weights, sample_degrees, truncated_power_law
from netepi.errors import DomainError
from netepi.ode import (
    CompartmentModel,
    EpidemicParams,
    TreatmentSchedule,
    build_model,
    integrate,
)
from test_abm_stream import state_counts, treatable

DIST30 = truncated_power_law(3, 1, 30)
DEGREE_ONE = from_weights(1, [1.0])


def stratified(params, dist=DIST30):
    return build_model("stratified", params, dist)


class TestGenerateNetwork:
    def test_realized_degrees_bounded_by_targets(self):
        net = generate_network(DIST30, 5000, np.random.default_rng(0))
        assert np.all(net.realized_degrees() <= net.degrees)

    def test_edge_list_canonical_without_self_loops_or_multi_edges(self):
        # u < v excludes self-loops; strictly increasing (u, v) keys exclude
        # repeated edges, in either orientation
        net = generate_network(DIST30, 300, np.random.default_rng(1))
        u, v = net.edges_u, net.edges_v
        assert u.size > 0 and u.shape == v.shape
        assert np.all(u < v)
        assert np.all(np.diff(u * net.n + v) > 0)

    def test_degree_one_mean_close_to_one(self):
        # with all-degree-1 stubs the only loss is the rare self-loop pair:
        # pairs ~ Binomial(n/2, 1/(n-1)), each costing 2/n of mean degree
        n = 10 ** 4
        net = generate_network(from_weights(1, [1.0]), n, np.random.default_rng(2))
        realized = net.realized_degrees().mean()
        mean_pairs = (n / 2) / (n - 1)
        sd_pairs = np.sqrt(mean_pairs)
        assert abs(realized - (1.0 - 2 * mean_pairs / n)) <= 3 * 2 * sd_pairs / n

    def test_two_nodes_single_edge(self):
        net = generate_network(from_weights(1, [1.0]), 2, np.random.default_rng(3))
        assert len(net.edges_u) == 1
        assert {int(net.edges_u[0]), int(net.edges_v[0])} == {0, 1}

    def test_degree_histogram_chi_square(self):
        n = 10 ** 4
        net = generate_network(DIST30, n, np.random.default_rng(4))
        observed = np.bincount(net.degrees, minlength=31)[1:].astype(float)
        expected = DIST30.pmf * n
        cut = int(np.searchsorted(expected < 5, True))
        if cut < len(expected):
            observed = np.concatenate([observed[:cut], [observed[cut:].sum()]])
            expected = np.concatenate([expected[:cut], [expected[cut:].sum()]])
        _, pvalue = stats.chisquare(observed, expected * observed.sum() / expected.sum())
        assert pvalue > 0.001

    @pytest.mark.parametrize("n", [1, 50.0, 2.5, "50", True])
    def test_rejects_bad_n(self, n):
        with pytest.raises(DomainError, match="^n "):
            generate_network(DIST30, n, np.random.default_rng(0))

    @pytest.mark.parametrize("rng", [-1, 2.5, "x", True, np.random.SeedSequence(1)])
    def test_rejects_bad_rng(self, rng):
        # these used to end in a raw AttributeError
        with pytest.raises(DomainError, match="^rng "):
            generate_network(DIST30, 50, rng)

    def test_integer_or_no_seed(self):
        # an integer seeds a fresh Generator; None draws fresh entropy
        seeded = generate_network(DIST30, 50, 7)
        same = generate_network(DIST30, 50, np.random.default_rng(7))
        assert np.array_equal(seeded.edges_u, same.edges_u)
        assert np.array_equal(seeded.edges_v, same.edges_v)
        assert generate_network(DIST30, 50, None).n == 50


class TestSimulateEpidemic:
    def test_no_transmission_decay(self):
        params = EpidemicParams(lam=0.0, mu=0.1, rho0=0.2)
        traj = simulate_epidemic(stratified(params), 5000, 40, rng=np.random.default_rng(5))
        assert traj.incidence[1:].max() == 0.0
        assert np.all(np.diff(traj.removed) >= 0)
        # geometric decay in expectation: prevalence ~ 0.2 * 0.9^t
        expected = 0.2 * 0.9 ** traj.times
        assert np.abs(traj.prevalence - expected).max() < 0.02

    def test_certain_transmission_on_complete_graph(self):
        # two degree-1 nodes, one of them infected: the only pairing is the
        # complete graph on the two, and lambda = 1 transmits on it
        params = EpidemicParams(lam=1.0, mu=0.0, rho0=0.5)
        for seed in range(20):
            traj = simulate_epidemic(stratified(params, DEGREE_ONE), 2, 1, rng=seed)
            assert traj.prevalence[1] == 1.0

    @pytest.mark.parametrize("rho0, seeded", [(0.0009, 0.0), (0.9995, 1.0)],
                             ids=["none_infected", "all_infected"])
    def test_one_sided_population_transmits_nothing(self, rho0, seeded):
        # rho0 * n rounds to 0 or to n seeds, so one side of the pairing is
        # empty from the first step on: no susceptible-infected pair exists
        # and nothing transmits
        params = EpidemicParams(lam=1.0, mu=0.1, rho0=rho0, d=0.2)
        traj = simulate_epidemic(stratified(params), 500, 10, rng=4)
        assert traj.incidence.max() == 0.0
        assert traj.prevalence[0] == seeded
        assert np.all(np.diff(traj.prevalence) <= 0)

    @pytest.mark.parametrize("d, schedule", [
        (0.0, None), (0.1, None),
        (0.0, TreatmentSchedule(epochs=(3.0, 12.0), coverages=(0.5, 0.9), initial_coverage=0.2)),
    ], ids=["plain", "demography", "treatment"])
    def test_shorter_run_is_a_prefix(self, d, schedule):
        # every step draws its own pairing at its start and nothing is drawn
        # after the last tally, so the horizon does not change earlier steps
        params = EpidemicParams(lam=0.3, mu=0.1, rho0=0.05, d=d, treatment_efficacy=0.3)
        model = stratified(params) if schedule is None else treatable(params, DIST30)
        short = simulate_epidemic(model, 800, 8, rng=replica_rng(21, 0), schedule=schedule)
        full = simulate_epidemic(model, 800, 20, rng=replica_rng(21, 0), schedule=schedule)
        assert short.Y.tobytes() == full.Y[:9].tobytes()
        assert short.incidence.tobytes() == full.incidence[:9].tobytes()

    def test_deterministic_given_seed(self):
        params = EpidemicParams(lam=0.05, mu=0.05, rho0=0.01)
        a = simulate_epidemic(stratified(params), 3000, 60, rng=replica_rng(9, 4))
        b = simulate_epidemic(stratified(params), 3000, 60, rng=replica_rng(9, 4))
        assert np.array_equal(a.prevalence, b.prevalence)
        assert np.array_equal(a.incidence, b.incidence)
        assert np.array_equal(a.removed, b.removed)

    def test_integer_compartment_conservation(self):
        params = EpidemicParams(lam=0.08, mu=0.05, rho0=0.02)
        n = 2000
        traj = simulate_epidemic(stratified(params), n, 50, rng=np.random.default_rng(7))
        for i in range(len(traj.times)):
            counts = np.round(np.array([
                traj.susceptible[i], traj.prevalence[i], traj.removed[i]]) * n)
            assert counts.sum() == n

    def test_one_step_matches_ode_within_4_sigma(self):
        params = EpidemicParams(lam=0.1, mu=0.05, rho0=0.05)
        n = 50000
        model = stratified(params)
        ode = integrate(model, (0, 1), 1.0, "euler")
        abm = simulate_epidemic(model, n, 1, rng=np.random.default_rng(8))
        # binomial bound: new infections + removals are sums of n Bernoullis
        inflow = model.rhs_full(0, model.initial_state())[1]
        var = (inflow * (1 - inflow) + params.rho0 * params.mu * (1 - params.mu)) / n
        assert abs(abm.prevalence[1] - ode.prevalence[1]) <= 4 * np.sqrt(var)

    def test_demographic_replenishment(self):
        params = EpidemicParams(lam=0.2, mu=0.2, rho0=0.05, d=0.5)
        traj = simulate_epidemic(stratified(params), 3000, 60, rng=np.random.default_rng(11))
        # susceptibles pulled back toward their initial share
        assert traj.susceptible[-1] > 0.5

    def test_treatment_schedule_slows_spread(self):
        params = EpidemicParams(lam=0.5, mu=0.05, rho0=0.02, treatment_efficacy=0.2)
        sched = TreatmentSchedule(epochs=(1.0,), coverages=(1.0,))
        model = treatable(params, DIST30)
        base = simulate_epidemic(model, 4000, 30, rng=replica_rng(12, 0))
        treated = simulate_epidemic(model, 4000, 30, rng=replica_rng(12, 0), schedule=sched)
        assert treated.prevalence.max() < base.prevalence.max()

    def test_treatment_epochs_on_shifted_time_axis(self):
        # epochs are times on the run's own axis: t0=1980 with an epoch at
        # 1988 is the t0=0 run with an epoch at 8, shifted
        params = EpidemicParams(lam=0.5, mu=0.05, rho0=0.02, treatment_efficacy=0.2)
        model = treatable(params, DIST30)
        shifted = simulate_epidemic(
            model, 2000, 20, rng=replica_rng(13, 0), t0=1980.0,
            schedule=TreatmentSchedule(epochs=(1988.0,), coverages=(1.0,)))
        local = simulate_epidemic(
            model, 2000, 20, rng=replica_rng(13, 0),
            schedule=TreatmentSchedule(epochs=(8.0,), coverages=(1.0,)))
        untreated = simulate_epidemic(model, 2000, 20, rng=replica_rng(13, 0), t0=1980.0)
        assert np.array_equal(shifted.times, 1980.0 + np.arange(21))
        assert np.array_equal(shifted.Y, local.Y)
        assert np.array_equal(shifted.incidence, local.incidence)
        assert np.array_equal(shifted.Y[:9], untreated.Y[:9])
        assert not np.array_equal(shifted.Y, untreated.Y)
        ens = run_ensemble(stratified(params), 300, 5, replicas=2, base_seed=1, t0=5.0)
        assert np.array_equal(ens.times, 5.0 + np.arange(6))

    def test_epoch_off_the_unit_grid(self):
        # an epoch inside the run sits a whole number of steps from t0;
        # 8.5 used to switch silently at t = 9
        model = treatable(EpidemicParams(lam=0.5, mu=0.05, rho0=0.02), DIST30)
        for t0, epoch in ((0.0, 8.5), (1980.0, 1988.5), (0.5, 8.0)):
            schedule = TreatmentSchedule(epochs=(epoch,), coverages=(1.0,))
            with pytest.raises(DomainError, match=r"^treatment epoch \[.*\] is not a whole"):
                simulate_epidemic(model, 300, 20, rng=0, t0=t0, schedule=schedule)
        # one past the end of the run never switches, so it is not checked
        late = TreatmentSchedule(epochs=(25.5,), coverages=(1.0,))
        assert np.array_equal(simulate_epidemic(model, 300, 20, rng=0, schedule=late).Y,
                              simulate_epidemic(model, 300, 20, rng=0).Y)

    def test_segment_walk_draws_only_where_the_share_changes(self):
        # a repeated coverage is no switch: epochs (5, 10) at (0.7, 0.7) draw
        # as (5,) at (0.7,); a run from t0 = 8 starts at the coverage the
        # epoch at 5 set, as a run from 8 with that initial coverage
        model = build_model("hiv_msm", EpidemicParams(lam=0.3, rho0=0.02, d=0.05), DIST30)

        def run(epochs, coverages, t0=0.0, initial=0.0):
            schedule = TreatmentSchedule(epochs, coverages, initial_coverage=initial)
            traj = simulate_epidemic(model, 2000, 20, rng=replica_rng(14, 0), t0=t0,
                                     schedule=schedule)
            return np.concatenate([traj.Y.ravel(), traj.incidence])

        assert np.array_equal(run((5.0, 10.0), (0.7, 0.7)), run((5.0,), (0.7,)))
        assert not np.array_equal(run((5.0, 10.0), (0.7, 0.9)), run((5.0,), (0.7,)))
        assert np.array_equal(run((5.0,), (0.7,), t0=8.0), run((), (), t0=8.0, initial=0.7))
        assert np.array_equal(run((8.0,), (0.7,), t0=8.0), run((), (), t0=8.0, initial=0.7))

    def test_input_validation(self):
        params = EpidemicParams(lam=0.1, mu=0.1, rho0=0.01)
        with pytest.raises(DomainError):
            simulate_epidemic(stratified(params), 100, 0)

    @pytest.mark.parametrize("kwargs,name", [
        ({"n": 2.5}, "n"), ({"n": 100.0}, "n"), ({"n": "100"}, "n"), ({"n": True}, "n"),
        ({"n": 1}, "n"), ({"steps": 2.5}, "steps"), ({"steps": 3.0}, "steps"),
        ({"steps": "3"}, "steps"), ({"steps": True}, "steps"),
        ({"rng": -1}, "rng"), ({"rng": np.int64(-3)}, "rng"), ({"rng": 2.5}, "rng"),
        ({"rng": "x"}, "rng"), ({"rng": True}, "rng"), ({"rng": np.random.SeedSequence(1)}, "rng"),
    ])
    def test_rejects_bad_counts(self, kwargs, name):
        # these used to end in a raw TypeError or ValueError, or run
        params = EpidemicParams(lam=0.1, mu=0.1, rho0=0.05)
        args = {"n": 100, "steps": 3, "rng": 0, **kwargs}
        with pytest.raises(DomainError, match=f"^{name} "):
            simulate_epidemic(stratified(params), args["n"], args["steps"], rng=args["rng"])

    @pytest.mark.parametrize("t0", [float("nan"), float("inf"), "a", None, True])
    def test_rejects_bad_t0(self, t0):
        # these used to run with NaN times, run, or end in a raw TypeError
        params = EpidemicParams(lam=0.1, mu=0.1, rho0=0.05)
        with pytest.raises(DomainError, match="^t0 "):
            simulate_epidemic(stratified(params), 100, 3, rng=0, t0=t0)

    def test_too_many_nodes_or_steps_to_allocate(self):
        # neither allocates anything: 10**15 nodes is over the chain's own
        # limit (numpy's hypergeometric seed draw takes fewer than 1e9), and
        # numpy refuses a record of 10**15 steps before allocating it
        params = EpidemicParams(lam=0.1, mu=0.1, rho0=0.05)
        with pytest.raises(DomainError, match="^n=1000000000000000 is too many nodes"):
            simulate_epidemic(stratified(params), 10 ** 15, 3, rng=0)
        with pytest.raises(DomainError, match="^steps=1000000000000000 is too many to record"):
            simulate_epidemic(stratified(params), 100, 10 ** 15, rng=0)

    def test_too_many_nodes_or_stubs_to_draw(self):
        # numpy's hypergeometric draws take fewer than 1e9: the seed draw
        # over n nodes, the pairing draws over half a step's stubs, and the
        # later draws over its infected stubs.  The 1e8 nodes of degree 20 to
        # 30 hold about 2.5e9 stubs; at 5e7 nodes, about 1.25e9 pair, but
        # with 90% seeded over 1e9 are infected.  Each used to end in numpy's
        # raw ValueError
        params = EpidemicParams(lam=0.1, mu=0.1, rho0=0.01)
        wide = truncated_power_law(3, 20, 30)
        with pytest.raises(DomainError, match="^n=1000000000 is too many nodes"):
            simulate_epidemic(stratified(params), 10 ** 9, 1, rng=0)
        with pytest.raises(DomainError,
                           match=r"^n=100000000 is too many nodes: step 1 pairs 2\d{9} stubs"):
            simulate_epidemic(stratified(params, wide), 10 ** 8, 1, rng=0)
        with pytest.raises(DomainError, match=r"^n=50000000 is too many nodes: step 1 pairs "
                                              r"1\d{9} stubs, 1\d{9} infected and 0 inert"):
            simulate_epidemic(stratified(EpidemicParams(lam=0.1, mu=0.1, rho0=0.9), wide),
                              5 * 10 ** 7, 1, rng=0)

    def test_integer_seed_is_a_generator_seed(self):
        params = EpidemicParams(lam=0.1, mu=0.1, rho0=0.05)
        a = simulate_epidemic(stratified(params), 200, 5, rng=np.uint8(7))
        b = simulate_epidemic(stratified(params), 200, 5, rng=np.random.default_rng(7))
        assert a.Y.tobytes() == b.Y.tobytes()


class TestEnsemble:
    def test_identical_replicas_have_zero_variance(self):
        params = EpidemicParams(lam=0.05, mu=0.1, rho0=0.05)
        traj = simulate_epidemic(stratified(params), 1000, 20, rng=replica_rng(1, 1))
        summary = summarize_trajectories([traj, traj])
        assert summary.var_prevalence.max() == 0.0
        assert summary.se_prevalence.max() == 0.0

    def test_se_definition(self):
        params = EpidemicParams(lam=0.05, mu=0.1, rho0=0.05)
        ens = run_ensemble(stratified(params), 500, 15, replicas=8, base_seed=3)
        np.testing.assert_allclose(
            ens.se_prevalence, np.sqrt(ens.var_prevalence / 8), atol=1e-15)

    def test_se_shrinks_like_inverse_sqrt_replicas(self):
        params = EpidemicParams(lam=0.0, mu=0.1, rho0=0.2)
        scales = []
        for replicas in (25, 100, 400):
            ens = run_ensemble(stratified(params), 400, 20, replicas=replicas, base_seed=17)
            scales.append(ens.se_prevalence[5:15].mean())
        slope = np.polyfit(np.log([25, 100, 400]), np.log(scales), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)

    def test_incidence_convention_matches_ode_stepping(self):
        # ensemble mean new infections per step should track the euler dt=1
        # inflow term point for point (same indexing convention)
        dist = truncated_power_law(3, 1, 30)
        params = EpidemicParams(lam=0.08, mu=0.05, rho0=0.05)
        model = stratified(params, dist)
        ens = run_ensemble(model, 20000, 25, replicas=30, base_seed=6)
        ode = integrate(model, (0, 25), 1.0, "euler")
        dev = np.abs(ode.incidence[1:] - ens.mean_incidence[1:])
        assert np.all(dev <= 4 * ens.se_incidence[1:] + 1e-4)

    def test_parallel_matches_serial(self):
        params = EpidemicParams(lam=0.05, mu=0.05, rho0=0.05)
        serial = run_ensemble(stratified(params), 800, 15, replicas=6, base_seed=5, n_jobs=1)
        parallel = run_ensemble(stratified(params), 800, 15, replicas=6, base_seed=5, n_jobs=3)
        assert np.array_equal(serial.mean_prevalence, parallel.mean_prevalence)
        assert np.array_equal(serial.se_incidence, parallel.se_incidence)

    def test_order_invariance(self):
        params = EpidemicParams(lam=0.05, mu=0.05, rho0=0.05)
        trajs = [
            simulate_epidemic(stratified(params), 500, 10, rng=replica_rng(7, r))
            for r in range(4)
        ]
        forward = summarize_trajectories(trajs)
        backward = summarize_trajectories(trajs[::-1])
        np.testing.assert_allclose(forward.mean_prevalence, backward.mean_prevalence, atol=1e-15)
        np.testing.assert_allclose(forward.var_prevalence, backward.var_prevalence, atol=1e-15)

    def test_requires_two_replicas(self):
        params = EpidemicParams(lam=0.05, mu=0.05, rho0=0.05)
        with pytest.raises(DomainError):
            run_ensemble(stratified(params), 500, 10, replicas=1)

    @pytest.mark.parametrize("kwargs,name", [
        ({"replicas": 2.5}, "replicas"), ({"replicas": "3"}, "replicas"),
        ({"replicas": True}, "replicas"), ({"replicas": 2.0}, "replicas"),
        ({"n_jobs": 0}, "n_jobs"), ({"n_jobs": -2}, "n_jobs"), ({"n_jobs": 1.5}, "n_jobs"),
        ({"n_jobs": True}, "n_jobs"), ({"base_seed": -1}, "base_seed"),
        ({"base_seed": 2.0}, "base_seed"), ({"base_seed": "3"}, "base_seed"),
        ({"base_seed": True}, "base_seed"), ({"base_seed": None}, "base_seed"),
    ])
    def test_rejects_bad_counts(self, kwargs, name):
        params = EpidemicParams(lam=0.05, mu=0.05, rho0=0.05)
        kwargs = {"replicas": 2, **kwargs}
        with pytest.raises(DomainError, match=name):
            run_ensemble(stratified(params), 200, 2, **kwargs)


class TestDemographyAgreement:
    def test_replenishment_matches_euler_ode(self):
        # d > 0: the ABM replenishes the deficit counted at the start of the
        # step, the same state the euler dt=1 ODE replenishes from; c05/c06's
        # bounds (coverage >= 0.90, peak deviation <= 0.10)
        dist = truncated_power_law(2.7, 1, 30)
        params = EpidemicParams(lam=0.3, mu=0.05, rho0=0.01, d=0.05)
        model = stratified(params, dist)
        ens = run_ensemble(model, 20000, 60, replicas=20, base_seed=20250810)
        ode = integrate(model, (0, 60), 1.0, "euler")
        report = compare_ode_abm(ode, ens, band_sigmas=3.0)
        assert report.coverage >= 0.90
        assert report.peak_relative_deviation <= 0.10


class TestModelAgreement:
    """The chain runs the model the ODE integrates, in its own layout."""

    @pytest.mark.parametrize("name", ["hiv_msm", "two_type"])
    def test_one_population_models_match_euler_ode(self, name):
        # n = 2e4, 20 replicas, c05/c06's bounds (coverage >= 0.90, peak
        # deviation <= 0.10).  Over base seeds 0-29: hiv_msm coverage
        # 0.918-1.000 (2 of 30 below 0.95), peak deviation <= 0.0029;
        # two_type coverage 0.984-1.000, peak deviation <= 0.0023.
        dist = truncated_power_law(2.0, 1, 40)
        if name == "hiv_msm":
            params = EpidemicParams(lam=0.3, rho0=0.01, d=0.05, treatment_efficacy=0.4)
            model = build_model(name, params, dist)
            schedule = TreatmentSchedule(epochs=(20.0,), coverages=(0.7,), initial_coverage=0.1)
        else:
            params = EpidemicParams(lam=0.3, mu=0.05, rho0=0.01, lam2=0.1, split=0.6,
                                    rho0_type2=0.3)
            model = build_model(name, params, dist)
            schedule = None
        ens = run_ensemble(model, 20000, 60, replicas=20, base_seed=0, schedule=schedule)
        ode = integrate(model, (0, 60), 1.0, "euler", schedule=schedule)
        report = compare_ode_abm(ode, ens, band_sigmas=3.0)
        assert report.coverage >= 0.90
        assert report.peak_relative_deviation <= 0.10

    @pytest.mark.parametrize("name", ["classic", "stratified"])
    def test_fixed_link_denominator_matches_euler_ode(self, name):
        # the ODE divides by the initial edge mass, and the chain keeps the
        # removed nodes' stubs in the pairing as inert partners; c05/c06's
        # bounds.  Over base seeds 0-7: classic coverage 1.000, peak
        # deviation <= 0.0048; stratified coverage 0.951-1.000, peak
        # deviation <= 0.0026.  Pairing live stubs only read coverage 0.131
        # in both at base seed 0.
        params = EpidemicParams(lam=0.5, mu=0.1, rho0=0.01, link_mode="fixed")
        model = build_model(name, params, truncated_power_law(2.5, 1, 30))
        assert model.link_mode == "fixed"
        ens = run_ensemble(model, 20000, 60, replicas=20, base_seed=0)
        ode = integrate(model, (0, 60), 1.0, "euler")
        report = compare_ode_abm(ode, ens, band_sigmas=3.0)
        assert report.coverage >= 0.90
        assert report.peak_relative_deviation <= 0.10

    def test_trajectory_in_the_model_layout(self):
        params = EpidemicParams(lam=0.3, mu=0.05, rho0=0.1, lam2=0.1, split=0.6, rho0_type2=0.3)
        model = build_model("two_type", params, DIST30)
        traj = simulate_epidemic(model, 2000, 10, rng=3)
        assert traj.model is model and traj.Y.shape == (11, model.dim)
        s, infected, removed = model.blocks(traj.Y)[0]
        # both types are seeded and both receive new infections
        assert np.all(infected[[0, -1]].sum(axis=-1) > 0)
        assert np.allclose(s.sum(axis=1) + infected.sum(axis=(1, 2, 3)) + removed.sum(axis=1), 1)


def leaving_model(mu, exit_rate):
    return CompartmentModel([(DIST30, 0.05, 1.0, "")], (0,), [(0.1,)], (1.0,), (1.0,), mu=mu,
                            exit_rate=exit_rate)


class TestChainLimits:
    """One population, one stage, fixed routing and per-step probabilities;
    anything else is a DomainError saying why, before any draw."""

    @pytest.mark.parametrize("model, reason", [
        (build_model("bipartite", EpidemicParams(lam=0.1, mu=0.1, lam2=0.1), DIST30),
         "one population, got 2"),
        (build_model("hiv_hetero", EpidemicParams(lam=0.1, d=0.1), DIST30),
         "one population, got 2"),
        (build_model("stratified", EpidemicParams(lam=0.1, stage_rates=[0.2, 0.3]), DIST30),
         "one infected stage, got 2"),
        (build_model("two_type", EpidemicParams(lam=0.1, mu=0.1, lam2=0.1), DIST30),
         "fixed routing shares, got 'hazard'"),
        (leaving_model(0.8, 0.5), r"leave rates in \[0, 1\], got \[1.3\]"),
        (build_model("stratified", EpidemicParams(lam=0.1, d=0.1, link_mode="fixed"), DIST30),
         "d = 0 under link_mode 'fixed', got d=0.1"),
    ], ids=["bipartite", "hiv_hetero", "stages", "hazard_routing", "leave_rate",
            "fixed_replenished"])
    def test_rejects_what_the_chain_cannot_run(self, model, reason):
        with pytest.raises(DomainError, match=f"^the agent-based chain needs {reason}"):
            simulate_epidemic(model, 100, 3, rng=0)
        with pytest.raises(DomainError, match=f"^the agent-based chain needs {reason}"):
            run_ensemble(model, 100, 3, replicas=2, n_jobs=2)

    def test_leave_rate_of_one_runs(self):
        # stage rate plus exit rate 1: every infected node leaves after one
        # step, so the infected after a step are the ones it infected
        traj = simulate_epidemic(leaving_model(0.5, 0.5), 2000, 5, rng=0)
        assert traj.incidence[1] > 0
        assert np.array_equal(traj.prevalence[1:], traj.incidence[1:])

    def test_rejects_a_distribution_or_an_untreatable_schedule(self):
        with pytest.raises(DomainError, match="^model must be a CompartmentModel"):
            simulate_epidemic(DIST30, 100, 3, rng=0)
        schedule = TreatmentSchedule(epochs=(1.0,), coverages=(0.5,))
        with pytest.raises(DomainError, match="requires an HIV model"):
            simulate_epidemic(stratified(EpidemicParams(lam=0.1)), 100, 3, rng=0,
                              schedule=schedule)
        with pytest.raises(DomainError, match="^schedule must be a TreatmentSchedule"):
            simulate_epidemic(stratified(EpidemicParams(lam=0.1)), 100, 3, rng=0, schedule="x")


class TestOneStepDrift:
    def test_first_step_infections_per_degree_bin_match_euler_inflow(self):
        # the ODE closes each degree class on the binomial link count, the
        # one-step law of the configuration multigraph: mean first-step new
        # infections per degree bin over 2000 runs, against the euler dt=1
        # inflow.  Erasing parallel edges read z -5.5 to -8.1 in the hub
        # bin (k 100-150) over base seeds 0-5; the multigraph reads
        # |z| <= 1.4 in every bin over the same seeds.
        dist = truncated_power_law(1.6, 1, 150)
        params = EpidemicParams(lam=0.05, mu=0.0, rho0=0.05)
        n, runs, nk = 10 ** 4, 2000, len(dist.degrees)
        bins = np.searchsorted([3, 10, 40, 100], dist.degrees, side="right")
        model = stratified(params, dist)
        ode = integrate(model, (0, 1), 1.0, "euler")
        expected = np.bincount(bins, (ode.Y[0, :nk] - ode.Y[1, :nk]) * n)
        # mu = 0 and d = 0: a susceptible count falls only by infection
        counts = np.array([
            np.bincount(bins, (traj.Y[0, :nk] - traj.Y[1, :nk]) * n)
            for traj in (simulate_epidemic(model, n, 1, rng=replica_rng(0, r))
                         for r in range(runs))])
        z = (counts.mean(axis=0) - expected) / (counts.std(axis=0, ddof=1) / np.sqrt(runs))
        assert np.all(np.abs(z) <= 4), z

    def test_step_after_removal_under_fixed_link_denominator(self):
        # the second step, once half the seeds have left: new infections
        # per degree bin over 2000 runs against the euler dt=1 inflow from
        # each run's own state after the first step, which under the fixed
        # link denominator divides by the initial edge mass, the removed
        # nodes' inert stubs included
        dist = truncated_power_law(1.6, 1, 150)
        params = EpidemicParams(lam=0.05, mu=0.5, rho0=0.1, link_mode="fixed")
        n, runs, nk = 10 ** 4, 2000, len(dist.degrees)
        bins = np.searchsorted([3, 10, 40, 100], dist.degrees, side="right")
        model = stratified(params, dist)
        residuals = []
        for r in range(runs):
            traj = simulate_epidemic(model, n, 2, rng=replica_rng(0, r))
            # d = 0: a susceptible count falls only by infection
            inflow = -model.rhs_full(1.0, traj.Y[1])[0][:nk]
            residuals.append(np.bincount(bins, (traj.Y[1, :nk] - traj.Y[2, :nk] - inflow) * n))
        residuals = np.array(residuals)
        z = residuals.mean(axis=0) / (residuals.std(axis=0, ddof=1) / np.sqrt(runs))
        assert np.all(np.abs(z) <= 4), z


# compartment codes of the per-node reference
SUSCEPTIBLE, INFECTED, INFECTED_TREATED, REMOVED = range(4)


def reference_simulate(dist, n, params, steps, rng, schedule=None):
    """The step loop over one entry per node, with removed nodes kept in
    place holding no stubs, each step pairing by a shuffle of every live
    stub: its Y in the stratified layout."""
    degrees = sample_degrees(dist, n, rng)
    state = np.zeros(n, dtype=np.int8)
    eff = params.treatment_efficacy

    n_seed = int(round(params.rho0 * n))
    seed_nodes = rng.choice(n, size=n_seed, replace=False)
    coverage = schedule.coverage_at(0.0) if schedule else 0.0
    treated = rng.random(n_seed) < coverage
    state[seed_nodes] = np.where(treated, INFECTED_TREATED, INFECTED)

    k_grid = dist.degrees
    nk = len(k_grid)
    Y = np.zeros((steps + 1, 3 * nk))

    def tally(row):
        counts = np.bincount(state.astype(np.intp) * nk + (degrees - dist.k_min),
                             minlength=4 * nk).reshape(4, nk)
        Y[row] = np.concatenate([counts[SUSCEPTIBLE], counts[INFECTED] + counts[INFECTED_TREATED],
                                 counts[REMOVED]]) / n
        return counts[SUSCEPTIBLE]

    initial_susceptible = susceptible = tally(0)

    for step in range(1, steps + 1):
        prev_coverage = coverage
        coverage = schedule.coverage_at(step - 1) if schedule else 0.0
        if coverage != prev_coverage:
            infected_idx = np.flatnonzero((state == INFECTED) | (state == INFECTED_TREATED))
            treated = rng.random(infected_idx.size) < coverage
            state[infected_idx] = np.where(treated, INFECTED_TREATED, INFECTED)

        is_inf = (state == INFECTED) | (state == INFECTED_TREATED)
        start_infected = np.flatnonzero(is_inf)

        live_degrees = np.where(state == REMOVED, 0, degrees)
        u, v = _shuffled_stub_pairs(np.arange(state.size, dtype=np.int64), live_degrees, rng)
        mixed = is_inf[u] != is_inf[v]
        u, v = u[mixed], v[mixed]
        ends, infectors = np.where(is_inf[u], v, u), np.where(is_inf[u], u, v)
        lam_pair = np.where(state[infectors] == INFECTED_TREATED, eff * params.lam, params.lam)
        new_infected = np.unique(ends[rng.random(ends.size) < lam_pair])

        removed_now = start_infected[rng.random(start_infected.size) < params.mu]

        treated = rng.random(new_infected.size) < coverage
        state[new_infected] = np.where(treated, INFECTED_TREATED, INFECTED)
        state[removed_now] = REMOVED

        if params.d > 0:
            additions = rng.binomial(np.maximum(initial_susceptible - susceptible, 0), params.d)
            degrees = np.concatenate([degrees, np.repeat(k_grid, additions)])
            state = np.concatenate([state, np.full(additions.sum(), SUSCEPTIBLE, dtype=np.int8)])

        susceptible = tally(step)

    return Y


LAW_DIST = truncated_power_law(2.2, 1, 40)
LAW_SCHEDULE = TreatmentSchedule(epochs=(3.0, 6.0), coverages=(0.6, 0.2), initial_coverage=0.1)


class TestCountChainLaw:
    """The count-level chain has the law of the step over one entry per
    node, kept here as the oracle."""

    @pytest.mark.parametrize("d, schedule", [(0.0, None), (0.05, LAW_SCHEDULE)],
                             ids=["plain", "treatment_demography"])
    def test_matches_per_node_reference(self, d, schedule):
        # 2000 seeds each; per degree bin, compartment and recorded step the
        # means may differ by 4.5 standard errors of their difference, the
        # SDs by 0.12 of the reference's, the rule of TestFirstStepLaw.  Over
        # 8 blocks of 2000 chain runs every count's SD spread by at most 2.5%
        # (so 0.12 is 3.4 standard errors of the SD ratio or more), and the
        # sparsest count has mean 1.5.
        params = EpidemicParams(lam=0.2, mu=0.2, rho0=0.05, d=d, treatment_efficacy=0.3)
        n, steps, runs = 400, 7, 2000
        to_bins = np.eye(3)[np.searchsorted([2, 4], LAW_DIST.degrees, side="right")]

        model = stratified(params, LAW_DIST) if schedule is None else treatable(params, LAW_DIST)

        def binned(counts):
            # susceptible, infected and removed counts per degree bin at
            # steps 2, 4 and 7, the last two just after the epoch switches
            return (counts[[2, 4, 7]].reshape(3, 3, -1) @ to_bins).ravel()

        ref = np.array([binned(reference_simulate(LAW_DIST, n, params, steps,
                                                  replica_rng(seed, 0), schedule) * n)
                        for seed in range(runs)])
        new = np.array([binned(state_counts(simulate_epidemic(
            model, n, steps, rng=replica_rng(seed, 1), schedule=schedule), n))
                        for seed in range(runs)])
        assert np.all(ref.std(axis=0) > 0)
        se = np.sqrt((ref.var(axis=0, ddof=1) + new.var(axis=0, ddof=1)) / runs)
        z = (new.mean(axis=0) - ref.mean(axis=0)) / se
        assert np.all(np.abs(z) <= 4.5), z
        ref_sd, sd = ref.std(axis=0, ddof=1), new.std(axis=0, ddof=1)
        assert np.all(np.abs(sd - ref_sd) <= 0.12 * ref_sd), sd / ref_sd

    def test_everyone_removed(self):
        # two degree-1 nodes, one seeded: the first step infects the other
        # and removes the seed, the second removes the other, and the counts
        # stay empty for the remaining steps
        params = EpidemicParams(lam=1.0, mu=1.0, rho0=0.5)
        traj = simulate_epidemic(treatable(params, DEGREE_ONE), 2, 6, rng=replica_rng(3, 0),
                                 schedule=LAW_SCHEDULE)
        assert np.array_equal(traj.prevalence, [0.5, 0.5, 0, 0, 0, 0, 0])
        assert np.all(traj.susceptible[1:] == 0)
        assert np.array_equal(traj.removed, [0, 0.5, 1, 1, 1, 1, 1])


def multigraph_first_incidence(dist, n, params, rng):
    """New infections of the first step on the whole first multigraph: one
    shuffle of every stub, every pair kept (parallel ones included), then
    seeding and one infection draw per susceptible-infected pair."""
    degrees = sample_degrees(dist, n, rng)
    u, v = _shuffled_stub_pairs(np.arange(n, dtype=np.int64), degrees, rng)
    infected = np.zeros(n, dtype=bool)
    infected[rng.choice(n, size=int(round(params.rho0 * n)), replace=False)] = True
    mixed = infected[u] != infected[v]
    ends = np.where(infected[u], v, u)[mixed]
    return np.unique(ends[rng.random(ends.size) < params.lam]).size


# degrees 1, 3, 5 and 7 only, so the stub total has the parity of n
ODD_DEGREES = from_weights(1, [4, 0, 2, 0, 1, 0, 1])


class TestFirstStepLaw:
    """The first step is paired like every later one; its incidence has the
    law of the whole first multigraph, kept here as the oracle."""

    @pytest.mark.parametrize("n, rho0", [(300, 0.1), (300, 0.5), (301, 0.1)],
                             ids=["share_0.1", "share_0.5", "share_0.1_odd_stubs"])
    def test_incidence_matches_whole_first_graph(self, n, rho0):
        # 2000 seeds each; the means may differ by 4.5 standard errors of
        # their difference, the SDs by 0.12 of the oracle's (the SD ratio
        # of two 2000-draw samples has a standard error of about
        # 1/sqrt(2000) = 0.022 for near-normal counts)
        params = EpidemicParams(lam=0.6, mu=0.0, rho0=rho0)
        draws = 2000
        oracle = np.array([multigraph_first_incidence(ODD_DEGREES, n, params,
                                                      np.random.default_rng(seed))
                           for seed in range(draws)], dtype=float)
        new = np.array([simulate_epidemic(stratified(params, ODD_DEGREES), n, 1, rng=draws + seed)
                        .incidence[1] * n for seed in range(draws)])
        assert oracle.mean() > 5 and new.std() > 1
        se = np.sqrt((oracle.var(ddof=1) + new.var(ddof=1)) / draws)
        assert abs(new.mean() - oracle.mean()) <= 4.5 * se
        assert abs(new.std(ddof=1) - oracle.std(ddof=1)) <= 0.12 * oracle.std(ddof=1)
