import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netepi.degree import from_weights, truncated_power_law
from netepi.errors import DomainError, StabilityError
from netepi.mixing import LinkProbabilities, hazard_profile, hazard_profile_two
from netepi.ode import (
    MODEL_BUILDERS,
    MODEL_NAMES,
    STATE_CEIL,
    STATE_FLOOR,
    CompartmentModel,
    EpidemicParams,
    Trajectory,
    TreatmentSchedule,
    _link_fractions,
    build_model,
    integrate,
)

FIG1_DIST = truncated_power_law(3, 1, 60)
FIG1_PARAMS = EpidemicParams(lam=0.05, mu=0.05, rho0=0.01)
# each numeric EpidemicParams field lies in [0, 1]; does it exclude (0, 1)?
_OPEN_ENDS = {"lam": (False, False), "mu": (False, False), "rho0": (True, True),
              "d": (False, False), "lam2": (False, False), "rho0_2": (False, True),
              "treatment_efficacy": (False, False), "split": (False, False),
              "rho0_type2": (False, False), "asymmetry": (False, False),
              "side_fraction": (True, True)}


def _model(**changes):
    """A one-population, one-type CompartmentModel with ``changes`` applied."""
    kwargs = {"populations": [(FIG1_DIST, 0.01, 1.0, "")], "sources": (0,), "rates": ((0.1,),),
              "seed": (1.0,), "routing": (1.0,), "mu": 0.05, **changes}
    return CompartmentModel(**kwargs)


def total_mass(traj):
    return traj.susceptible + traj.prevalence + traj.removed


def per_degree(model, y):
    """Per population (s, rho, removed) of a state or RHS vector, or of
    every row of a stack: rho is the infected summed over stages, one row
    per infected type."""
    return [(s, infected.sum(axis=-2), removed) for s, infected, removed in model.blocks(y)]


def active_link_fractions(degrees, s, rho):
    """Oracle p_t = <k rho_t> / <k (s + sum_t rho_t)> at r = 0."""
    return (rho @ degrees) / (degrees @ s + (rho @ degrees).sum())


def classic_sir_rhs(state, params: EpidemicParams):
    """Independent oracle: (ds, drho, dr) of the bilinear classic SIR triple."""
    s, rho, r = state
    infections = params.lam * rho * s
    return (-infections, infections - params.mu * rho, params.mu * rho)


class TestParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            EpidemicParams(lam=1.5)
        with pytest.raises(DomainError):
            EpidemicParams(lam=0.1, mu=-0.1)
        with pytest.raises(DomainError):
            EpidemicParams(lam=0.1, rho0=0.0)
        with pytest.raises(DomainError):
            EpidemicParams(lam=0.1, lam2=2.0)

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(_OPEN_ENDS)), value=st.one_of(
        st.floats(-0.5, 1.5), st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-2, 2), st.just(10 ** 400), st.booleans(), st.none(), st.text(max_size=4),
        st.just("hazard"), st.lists(st.floats(0, 1), max_size=2), st.complex_numbers()))
    def test_numeric_fields_take_finite_reals_in_their_interval(self, name, value):
        # "0.1", None and "half" used to end in a raw TypeError or
        # ValueError, and True to be taken as 1
        low_open, high_open = _OPEN_ENDS[name]
        number = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and abs(value) <= sys.float_info.max)
        valid = (value is None and name in ("lam2", "rho0_2")
                 or value == "hazard" and name == "split"
                 or number and (0 < value if low_open else 0 <= value)
                 and (value < 1 if high_open else value <= 1))
        if valid:
            assert getattr(EpidemicParams(**{"lam": 0.1, name: value}), name) == value
        else:
            with pytest.raises(DomainError, match=f"^{name} must be "):
                EpidemicParams(**{"lam": 0.1, name: value})

    @pytest.mark.parametrize("rates", [[], [[]], [0.1, "x"], [1.5], [-0.1], [float("nan")],
                                       [[0.1], [0.1, 0.2]], 0.1, "0.1", [True], [[0.1], 0.2]])
    def test_rejects_stage_rates_that_are_not_rate_rows(self, rates):
        with pytest.raises(DomainError, match="^stage_rates must be "):
            EpidemicParams(lam=0.1, stage_rates=rates)

    def test_options_are_hashable_fields(self):
        params = EpidemicParams(lam=0.1, stage_rates=[[0.1, 0.2], [0.3, 0.4]], split=0.3)
        assert params.stage_rates == ((0.1, 0.2), (0.3, 0.4))
        assert EpidemicParams(lam=0.1, stage_rates=[0.5]).stage_rates == (0.5,)
        assert hash(params) == hash(replace(params, stage_rates=((0.1, 0.2), (0.3, 0.4))))
        with pytest.raises(DomainError, match="^link_mode must be 'active' or 'fixed'"):
            EpidemicParams(lam=0.1, link_mode="passive")
        with pytest.raises(DomainError, match="^stage_rates replaces mu"):
            EpidemicParams(lam=0.1, mu=0.1, stage_rates=[0.1])


class TestClassicRhs:
    # classic is the stratified model at k = 1 with the fixed link
    # denominator; its RHS must be the bilinear SIR term of the oracle
    def test_hand_value(self):
        ds, drho, dr = classic_sir_rhs((0.99, 0.01, 0.0), FIG1_PARAMS)
        assert ds == pytest.approx(-4.95e-4, abs=1e-18)
        dy = build_model("classic", FIG1_PARAMS).rhs_full(0.0, np.array([0.99, 0.01, 0.0]))[0]
        # 1 - (1 - lam rho) equals lam rho up to rounding
        np.testing.assert_allclose(dy, [ds, drho, dr], rtol=0, atol=1e-16)

    def test_no_transmission(self):
        model = build_model("classic", EpidemicParams(lam=0.0, mu=0.1))
        assert model.rhs_full(0.0, np.array([0.3, 0.5, 0.2]))[0][0] == 0.0
        ds, _, _ = classic_sir_rhs((0.3, 0.5, 0.2), EpidemicParams(lam=0.0, mu=0.1))
        assert ds == 0.0

    def test_disease_free_fixed_point(self):
        dy = build_model("classic", FIG1_PARAMS).rhs_full(0.0, np.array([1.0, 0.0, 0.0]))[0]
        assert dy.tolist() == [0.0, 0.0, 0.0]
        assert classic_sir_rhs((1.0, 0.0, 0.0), FIG1_PARAMS) == (0.0, 0.0, 0.0)

    def test_demography_matches_stratified_single_degree(self):
        params = EpidemicParams(lam=0.3, mu=0.1, rho0=0.01, d=0.02)
        classic = integrate(build_model("classic", params), (0, 30), 0.1, "rk4")
        single = integrate(
            build_model("stratified", replace(params, link_mode="fixed"),
                        from_weights(1, [1.0])),
            (0, 30), 0.1, "rk4")
        np.testing.assert_array_equal(classic.susceptible, single.susceptible)
        np.testing.assert_array_equal(classic.prevalence, single.prevalence)
        np.testing.assert_array_equal(classic.removed, single.removed)
        # replenishment feeds the epidemic: more exits plus standing infected
        # than the d = 0 final size (final_size() is 1 - s, which d refills)
        assert classic.removed[-1] + classic.prevalence[-1] > 0.85


class TestLinkProbability:
    def test_homogeneous_reduction(self):
        for fixed in (None, 1.0):
            p = _link_fractions(np.array([1.0]), np.array([0.99]), np.array([[0.01]]), fixed)
            assert p == [pytest.approx(0.01, abs=1e-15)]

    def test_disease_free(self):
        assert _link_fractions(np.array([1.0]), np.array([1.0]), np.array([[0.0]])) == [0.0]

    def test_two_class_hand_value(self):
        degrees, s, rho = np.array([1.0, 2.0]), np.array([0.5, 0.2]), np.array([[0.0, 0.05]])
        # (2 * 0.05) / (1*0.5 + 2*0.25) = 0.1 over the nodes still present
        assert _link_fractions(degrees, s, rho) == [pytest.approx(0.1, abs=1e-14)]
        # the static edge mass <k> = 1.5 of from_weights(1, [0.5, 0.5])
        assert _link_fractions(degrees, s, rho, 1.5) == [pytest.approx(0.1 / 1.5, abs=1e-15)]

    def test_one_probability_per_type(self):
        degrees, s = np.array([1.0, 3.0]), np.array([0.4, 0.1])
        rho = np.array([[0.1, 0.0], [0.0, 0.1]])
        # infected edge mass 0.1 and 0.3 over 0.4 + 0.3 + 0.1 + 0.3 = 1.1
        assert _link_fractions(degrees, s, rho) == [pytest.approx(0.1 / 1.1, abs=1e-15),
                                                    pytest.approx(0.3 / 1.1, abs=1e-15)]

    def test_everyone_removed_gives_zero_probability(self):
        # no edge mass left: every probability is 0, not 0/0
        assert _link_fractions(np.array([1.0]), np.array([0.0]), np.array([[0.0]])) == [0.0]
        rho = np.zeros((2, 2))
        assert _link_fractions(np.array([1.0, 2.0]), np.zeros(2), rho) == [0.0, 0.0]

    def test_clamped_to_unit_interval(self):
        # a negative entry or a fixed denominator below the infected mass
        degrees = np.array([1.0, 2.0])
        assert _link_fractions(degrees, np.array([0.5, 0.0]), np.array([[-0.1, 0.0]])) == [0.0]
        assert _link_fractions(degrees, np.zeros(2), np.array([[0.0, 0.5]]), 0.5) == [1.0]

    def test_pair_past_one_scaled_to_one(self):
        # a negative susceptible entry (an rk4 stage) shrinks the denominator
        # to 0.9 under an infected edge mass of 1.1; LinkProbabilities would
        # reject the unscaled pair 0.667 + 0.556
        p = _link_fractions(np.array([1.0]), np.array([-0.2]), np.array([[0.6], [0.5]]))
        assert p == [pytest.approx(0.6 / 1.1, abs=1e-15), pytest.approx(0.5 / 1.1, abs=1e-15)]
        LinkProbabilities(*p)
        # inside the slack nothing moves
        rho = np.array([[0.6], [0.4 + 5e-13]])
        assert _link_fractions(np.array([1.0]), np.array([-1e-12]), rho) == [
            0.6 / (1.0 - 1e-12 + 5e-13), (0.4 + 5e-13) / (1.0 - 1e-12 + 5e-13)]


class TestStratified:
    def test_single_degree_rhs_matches_classic(self):
        # at r = 0 the active and fixed denominators agree with the classic
        # bilinear term
        model = build_model("stratified", replace(FIG1_PARAMS, link_mode="fixed"),
                            from_weights(1, [1.0]))
        dy = model.rhs_full(0.0, model.initial_state())[0]
        ds, drho, dr = classic_sir_rhs((0.99, 0.01, 0.0), FIG1_PARAMS)
        np.testing.assert_allclose(dy, [ds, drho, dr], atol=1e-14)
        classic = build_model("classic", FIG1_PARAMS)
        np.testing.assert_array_equal(classic.rhs_full(0.0, classic.initial_state())[0], dy)

    def test_no_transmission_is_pure_decay(self):
        params = EpidemicParams(lam=0.0, mu=0.07, rho0=0.2)
        model = build_model("stratified", params, FIG1_DIST)
        y0 = model.initial_state()
        dy = model.rhs_full(0.0, y0)[0]
        [(_, rho0, _)], [(ds, drho, _)] = per_degree(model, y0), per_degree(model, dy)
        np.testing.assert_allclose(ds, 0.0, atol=1e-18)
        np.testing.assert_allclose(drho, -0.07 * rho0, atol=1e-15)

    def test_heterogeneity_amplifies_growth(self):
        # k=1 classic with these rates is subcritical, but the power-law
        # network grows at t=0 (frozen from a closed-form hand evaluation)
        model = build_model("stratified", FIG1_PARAMS, FIG1_DIST)
        dy, inflow = model.rhs_full(0.0, model.initial_state())
        growth = per_degree(model, dy)[0][1].sum()
        assert growth == pytest.approx(1.7033073410991e-4, rel=1e-9)
        assert growth > 0
        classic_growth = classic_sir_rhs((0.99, 0.01, 0.0), FIG1_PARAMS)[1]
        assert classic_growth < 0

    def test_rhs_against_closed_form_oracle(self):
        model = build_model("stratified", FIG1_PARAMS, FIG1_DIST)
        y = model.initial_state()
        dy = model.rhs_full(0.0, y)[0]
        [(s, rho, _)], [(ds, _, _)] = per_degree(model, y), per_degree(model, dy)
        [p] = active_link_fractions(FIG1_DIST.degrees, s, rho)
        for i, k in enumerate(FIG1_DIST.degrees):
            expected = -s[i] * (1.0 - (1.0 - FIG1_PARAMS.lam * p) ** int(k))
            assert ds[i] == pytest.approx(expected, rel=1e-9, abs=1e-15)

    def test_rejects_wrong_state_size(self):
        model = build_model("stratified", FIG1_PARAMS, FIG1_DIST)
        with pytest.raises(DomainError):
            model.rhs_full(0.0, np.zeros(7))

    def test_stage_chain_conserves_and_delays(self):
        params = EpidemicParams(lam=0.05, mu=0.0, rho0=0.05, stage_rates=[0.2, 0.2])
        staged = build_model("stratified", params, FIG1_DIST)
        traj = integrate(staged, (0, 50), 0.1, "rk4")
        assert np.abs(total_mass(traj) - 1.0).max() < 1e-9
        assert traj.removed[-1] > 0.01

    def test_stage_rates_exclude_mu(self):
        with pytest.raises(DomainError):
            build_model("stratified", replace(FIG1_PARAMS, stage_rates=[0.1]), FIG1_DIST)


class TestTwoType:
    def test_requires_lam2(self):
        with pytest.raises(DomainError):
            build_model("two_type", FIG1_PARAMS, FIG1_DIST)

    def test_empty_second_type_matches_stratified(self):
        params = EpidemicParams(lam=0.05, mu=0.05, rho0=0.01, lam2=0.05)
        two = build_model("two_type", replace(params, rho0_type2=0.0), FIG1_DIST)
        one = build_model("stratified", FIG1_PARAMS, FIG1_DIST)
        y2, y1 = two.initial_state(), one.initial_state()
        [(ds2, drho2, _)] = per_degree(two, two.rhs_full(0.0, y2)[0])
        [(ds1, drho1, _)] = per_degree(one, one.rhs_full(0.0, y1)[0])
        np.testing.assert_allclose(ds2, ds1, atol=1e-12)
        np.testing.assert_allclose(drho2.sum(axis=0), drho1.sum(axis=0), atol=1e-12)

    def test_equal_rates_aggregate_matches_merged_p(self):
        params = EpidemicParams(lam=0.05, mu=0.05, rho0=0.01, lam2=0.05)
        two = integrate(build_model("two_type", replace(params, rho0_type2=0.4), FIG1_DIST),
                        (0, 100), 0.5, "rk4")
        one = integrate(build_model("stratified", FIG1_PARAMS, FIG1_DIST), (0, 100), 0.5, "rk4")
        assert np.abs(two.prevalence - one.prevalence).max() < 1e-8
        assert np.abs(two.susceptible - one.susceptible).max() < 1e-8

    @pytest.mark.parametrize("dt", [2.0, 3.0])
    def test_large_rk4_step_behaves_like_stratified(self, dt):
        # rk4 stages leave susceptibles slightly negative; the two-type run
        # used to stop with a DomainError on p1 + p2 > 1 where stratified
        # completes (dt 2) or stops with a StabilityError (dt 3)
        dist = truncated_power_law(2, 1, 40)
        two = build_model("two_type", EpidemicParams(lam=0.5, mu=0.1, rho0=0.2, lam2=0.5,
                                                     rho0_type2=0.3), dist)
        one = build_model("stratified", EpidemicParams(lam=0.5, mu=0.1, rho0=0.2), dist)
        if dt == 3.0:
            for model in (two, one):
                with pytest.raises(StabilityError, match="t=3"):
                    integrate(model, (0, 60), dt, "rk4")
            return
        two, one = integrate(two, (0, 60), dt, "rk4"), integrate(one, (0, 60), dt, "rk4")
        assert np.abs(two.prevalence - one.prevalence).max() < 1e-12
        assert np.abs(two.susceptible - one.susceptible).max() < 1e-12

    def test_no_infected_links_freezes_susceptibles(self):
        params = EpidemicParams(lam=0.4, mu=0.0, rho0=0.01, lam2=0.2)
        model = build_model("two_type", params, FIG1_DIST)
        y = model.initial_state()
        # kill all infected mass: p1 = p2 = 0
        [(_, infected, _)] = model.blocks(y)
        infected[:] = 0.0
        [(ds, _, _)] = per_degree(model, model.rhs_full(0.0, y)[0])
        np.testing.assert_allclose(ds, 0.0, atol=1e-18)

    def test_fixed_split_fraction(self):
        params = EpidemicParams(lam=0.1, mu=0.0, rho0=0.01, lam2=0.1, split=0.25, rho0_type2=0.5)
        model = build_model("two_type", params, FIG1_DIST)
        [(_, drho, _)] = per_degree(model, model.rhs_full(0.0, model.initial_state())[0])
        inflow_1 = drho[0].sum()
        inflow_2 = drho[1].sum()
        assert inflow_1 == pytest.approx(inflow_2 / 3.0, rel=1e-10)


class TestBipartite:
    def test_symmetric_configuration_stays_symmetric(self):
        params = EpidemicParams(lam=0.1, mu=0.05, rho0=0.01, lam2=0.1)
        traj = integrate(build_model("bipartite", params, FIG1_DIST, FIG1_DIST),
                         (0, 100), 0.5, "rk4")
        (s1, rho1, _), (s2, rho2, _) = per_degree(traj.model, traj.Y)
        assert max(np.abs(s1 - s2).max(), np.abs(rho1 - rho2).max()) <= 1e-10

    def test_uninfected_far_side_gives_zero_hazard(self):
        params = EpidemicParams(lam=0.3, mu=0.05, rho0=0.01, lam2=0.3, rho0_2=0.0)
        model = build_model("bipartite", params, FIG1_DIST, FIG1_DIST)
        dy = model.rhs_full(0.0, model.initial_state())[0]
        (ds1, _, _), (_, drho2, _) = per_degree(model, dy)
        np.testing.assert_allclose(ds1, 0.0, atol=1e-18)   # side 1 sees no infection
        assert drho2.sum() > 0                             # side 2 does

    def test_single_degree_hand_value(self):
        # d rho2/dt(0) = s2 * lam_{1->2} * p with p = rho1 / active degree mass
        single = from_weights(1, [1.0])
        params = EpidemicParams(lam=0.1, mu=0.0, rho0=0.01, lam2=0.2, rho0_2=0.0)
        model = build_model("bipartite", params, single, single)
        _, (_, drho2, _) = per_degree(model, model.rhs_full(0.0, model.initial_state())[0])
        assert drho2[0, 0] == pytest.approx(0.5 * 0.1 * 0.01, rel=1e-12)


class TestHivMsm:
    def test_rejects_mu(self):
        with pytest.raises(DomainError):
            build_model("hiv_msm", EpidemicParams(lam=0.3, mu=0.1, rho0=0.01), FIG1_DIST)

    def test_degenerate_parameters_reduce_to_stratified_without_removal(self):
        params = EpidemicParams(lam=0.1, rho0=0.01)
        msm = integrate(build_model("hiv_msm", params, FIG1_DIST), (0, 50), 0.5, "rk4")
        plain = integrate(
            build_model("stratified", EpidemicParams(lam=0.1, mu=0.0, rho0=0.01), FIG1_DIST),
            (0, 50), 0.5, "rk4")
        assert np.abs(msm.prevalence - plain.prevalence).max() < 1e-12
        assert np.abs(total_mass(msm) - 1.0).max() < 1e-10

    def test_full_coverage_uses_treated_rate_only(self):
        params = EpidemicParams(lam=0.3, rho0=0.01, treatment_efficacy=0.4)
        model = build_model("hiv_msm", params, FIG1_DIST).at_coverage(1.0)
        y = model.initial_state()
        [(s, rho, _)] = per_degree(model, y)
        [(ds, _, _)] = per_degree(model, model.rhs_full(0.0, y)[0])
        p1, p2 = active_link_fractions(FIG1_DIST.degrees, s, rho)
        assert p1 == 0.0
        for i, k in enumerate(FIG1_DIST.degrees):
            expected = -s[i] * (1.0 - (1.0 - 0.4 * 0.3 * p2) ** int(k))
            assert ds[i] == pytest.approx(expected, rel=1e-9, abs=1e-16)

    def test_demography_removes_infected_into_r(self):
        params = EpidemicParams(lam=0.3, rho0=0.01, d=0.05)
        traj = integrate(build_model("hiv_msm", params, FIG1_DIST), (0, 30), 0.25, "rk4")
        assert traj.removed[-1] > 0
        assert np.all(np.diff(traj.removed) >= 0)

    def test_treatment_epochs_kink_high_degree_curves_hardest(self):
        # epoch inside the growth phase: the derivative discontinuity,
        # normalized per curve, grows with node degree
        from netepi.analysis import phase_series

        dist = truncated_power_law(1.6, 1, 80)
        params = EpidemicParams(lam=0.1, rho0=0.0032, d=0.05)
        sched = TreatmentSchedule(epochs=(2.0, 8.0), coverages=(0.7, 0.9))
        traj = integrate(build_model("hiv_msm", params, dist), (0, 40), 0.25, "rk4", schedule=sched)
        for epoch in (2.0, 8.0):
            e = int(np.flatnonzero(traj.times == epoch)[0])
            assert all(
                abs(phase_series(traj, k, k)[e, 1] - phase_series(traj, k, k)[e - 1, 1]) > 0
                for k in (1, 10, 50))
        e = int(np.flatnonzero(traj.times == 2.0)[0])
        jumps = []
        for k in (1, 10, 50):
            dy = phase_series(traj, k, k)[:, 1]
            jumps.append(abs(dy[e] - dy[e - 1]) / np.abs(dy).max())
        assert jumps[0] < jumps[1] < jumps[2]


class TestHivHetero:
    def test_rejects_mu(self):
        with pytest.raises(DomainError):
            build_model("hiv_hetero", EpidemicParams(lam=0.3, mu=0.1, rho0=0.01),
                        FIG1_DIST, FIG1_DIST)

    def test_symmetry_restored_without_rate_asymmetry(self):
        params = EpidemicParams(lam=0.28, rho0=0.002, d=0.02, asymmetry=1.0)
        traj = integrate(build_model("hiv_hetero", params, FIG1_DIST, FIG1_DIST),
                         (0, 50), 0.25, "rk4")
        (s1, rho1, _), (s2, rho2, _) = per_degree(traj.model, traj.Y)
        assert max(np.abs(s1 - s2).max(), np.abs(rho1 - rho2).max()) <= 1e-10

    def test_halved_male_rate_breaks_symmetry(self):
        params = EpidemicParams(lam=0.28, rho0=0.002, d=0.02, asymmetry=0.5)
        traj = integrate(build_model("hiv_hetero", params, FIG1_DIST, FIG1_DIST),
                         (0, 50), 0.25, "rk4")
        (_, men, _), (_, women, _) = per_degree(traj.model, traj.Y)
        assert women[-1].sum() > men[-1].sum()

    def test_zero_rate_relaxes_toward_initial_susceptibles(self):
        # i = 0: no infections ever; s sits at its demographic attractor
        # s(0) while the infected drain away at rate d
        params = EpidemicParams(lam=0.0, rho0=0.1, d=0.1)
        model = build_model("hiv_hetero", params, FIG1_DIST, FIG1_DIST)
        traj = integrate(model, (0, 100), 0.5, "rk4")
        assert traj.incidence.max() == 0.0
        assert traj.prevalence[-1] < 1e-4
        assert np.abs(traj.susceptible - traj.susceptible[0]).max() < 1e-12


class TestTreatmentSchedule:
    def test_epochs_must_increase(self):
        with pytest.raises(DomainError):
            TreatmentSchedule(epochs=(10.0, 10.0), coverages=(0.3, 0.5))
        with pytest.raises(DomainError):
            TreatmentSchedule(epochs=(10.0,), coverages=(0.3, 0.5))

    def test_repartition_preserves_infected_mass(self):
        params = EpidemicParams(lam=0.3, rho0=0.01, d=0.02)
        model = build_model("hiv_msm", params, FIG1_DIST)
        y = model.initial_state()
        before = per_degree(model, y)[0][1].sum(axis=0)
        y2 = model.at_coverage(0.7).repartition(y)
        after = per_degree(model, y2)[0][1]
        np.testing.assert_allclose(after.sum(axis=0), before, atol=1e-15)
        np.testing.assert_allclose(after[1], 0.7 * before, atol=1e-15)

    def test_epoch_must_sit_on_the_step_grid(self):
        params = EpidemicParams(lam=0.3, rho0=0.01, d=0.02)
        model = build_model("hiv_msm", params, FIG1_DIST)
        sched = TreatmentSchedule(epochs=(10.05,), coverages=(0.5,))
        with pytest.raises(DomainError):
            integrate(model, (0, 20), 0.1, "rk4", schedule=sched)

    def test_epoch_outside_span_rejected(self):
        params = EpidemicParams(lam=0.3, rho0=0.01, d=0.02)
        model = build_model("hiv_msm", params, FIG1_DIST)
        sched = TreatmentSchedule(epochs=(25.0,), coverages=(0.5,))
        with pytest.raises(DomainError):
            integrate(model, (0, 20), 0.1, "rk4", schedule=sched)

    # a schedule without epochs still sets the coverage, so it is checked too
    @pytest.mark.parametrize("epochs, coverages", [((5.0,), (0.5,)), ((), ())],
                             ids=["one-epoch", "no-epochs"])
    def test_schedule_requires_hiv_model(self, epochs, coverages):
        sched = TreatmentSchedule(epochs=epochs, coverages=coverages)
        with pytest.raises(DomainError, match="HIV"):
            integrate(build_model("stratified", FIG1_PARAMS, FIG1_DIST), (0, 10), 0.5,
                      schedule=sched)

    def test_scheduled_run_leaves_model_unchanged(self):
        params = EpidemicParams(lam=0.3, rho0=0.01, d=0.02)
        model = build_model("hiv_msm", params, FIG1_DIST)
        sched = TreatmentSchedule(epochs=(5.0, 10.0), coverages=(0.5, 0.9), initial_coverage=0.2)
        integrate(model, (0, 20), 0.5, "rk4", schedule=sched)
        assert (model.seed, model.routing) == ((1.0, 0.0), (1.0, 0.0))
        again = integrate(model, (0, 20), 0.5, "rk4")
        fresh = integrate(build_model("hiv_msm", params, FIG1_DIST), (0, 20), 0.5, "rk4")
        assert again.model is model
        assert again.Y.tobytes() == fresh.Y.tobytes()
        assert again.dY.tobytes() == fresh.dY.tobytes()

    def test_empty_schedule_runs_at_its_initial_coverage(self):
        params = EpidemicParams(lam=0.3, rho0=0.01, d=0.02)
        model = build_model("hiv_msm", params, FIG1_DIST)
        sched = TreatmentSchedule(epochs=(), coverages=(), initial_coverage=0.9)
        scheduled = integrate(model, (0, 20), 0.5, "rk4", schedule=sched)
        direct = integrate(model.at_coverage(0.9), (0, 20), 0.5, "rk4")
        untreated = integrate(model, (0, 20), 0.5, "rk4")
        for name in ("Y", "dY", "incidence"):
            assert getattr(scheduled, name).tobytes() == getattr(direct, name).tobytes()
        assert scheduled.prevalence[-1] < untreated.prevalence[-1]

    def test_coverage_needs_a_treatable_model_and_fixed_shares(self):
        two_type = build_model("two_type", EpidemicParams(lam=0.3, mu=0.1, rho0=0.01, lam2=0.2),
                               FIG1_DIST)
        with pytest.raises(DomainError, match="HIV"):
            two_type.at_coverage(0.5)
        with pytest.raises(DomainError, match="routing"):
            two_type.repartition(two_type.initial_state())
        hiv = build_model("hiv_msm", EpidemicParams(lam=0.3, rho0=0.01), FIG1_DIST)
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(DomainError, match="coverage"):
                hiv.at_coverage(bad)

    @pytest.mark.parametrize("epochs", [(float("nan"),), (float("inf"),), ("a",), (None,),
                                        (True,)])
    def test_rejects_epoch_that_is_not_a_finite_number(self, epochs):
        with pytest.raises(DomainError, match="epochs"):
            TreatmentSchedule(epochs=epochs, coverages=(0.5,))

    @pytest.mark.parametrize("coverage", ["a", None, float("nan")])
    def test_rejects_coverage_that_is_not_a_number(self, coverage):
        with pytest.raises(DomainError, match="coverage"):
            TreatmentSchedule(epochs=(5.0,), coverages=(coverage,))
        with pytest.raises(DomainError, match="coverage"):
            TreatmentSchedule(epochs=(), coverages=(), initial_coverage=coverage)

    def test_coverage_switch_reduces_growth(self):
        params = EpidemicParams(lam=0.3, rho0=0.005, d=0.05)
        sched = TreatmentSchedule(epochs=(10.0,), coverages=(0.9,))
        model = build_model("hiv_msm", params, FIG1_DIST)
        traj = integrate(model, (0, 20), 0.5, "rk4", schedule=sched)
        e = int(np.flatnonzero(traj.times == 10.0)[0])
        [(_, drho, _)] = per_degree(model, traj.dY)
        jump = drho[e].sum() - drho[e - 1].sum()
        assert jump < 0


class TestIntegrate:
    def test_no_dynamics_without_transmission(self):
        params = EpidemicParams(lam=0.0, mu=0.1, rho0=0.05)
        for model in (build_model("classic", params), build_model("stratified", params, FIG1_DIST)):
            traj = integrate(model, (0, 30), 0.5, "rk4")
            s = per_degree(model, traj.Y)[0][0].sum(axis=1)
            assert np.abs(s - s[0]).max() <= 1e-12

    def test_subcritical_classic_prevalence_decreases(self):
        traj = integrate(build_model("classic", FIG1_PARAMS), (0, 100), 0.1, "rk4")
        assert np.all(np.diff(traj.prevalence) < 0)

    def test_step_halving_agreement(self):
        coarse = integrate(build_model("stratified", FIG1_PARAMS, FIG1_DIST), (0, 100), 0.1, "rk4")
        fine = integrate(build_model("stratified", FIG1_PARAMS, FIG1_DIST), (0, 100), 0.05, "rk4")
        assert np.abs(coarse.prevalence - fine.prevalence[::2]).max() < 1e-6

    def test_rk4_order(self):
        # global error should fall ~16x per halving, measured against dt/8
        def run(dt):
            return integrate(build_model("stratified", FIG1_PARAMS, FIG1_DIST), (0, 40), dt, "rk4")

        ref = run(0.1)
        err_coarse = np.abs(run(0.8).prevalence - ref.prevalence[::8]).max()
        err_fine = np.abs(run(0.4).prevalence - ref.prevalence[::4]).max()
        assert 8.0 < err_coarse / err_fine < 32.0

    def test_monotone_susceptible_and_removed(self):
        traj = integrate(build_model("stratified", FIG1_PARAMS, FIG1_DIST), (0, 200), 0.1, "rk4")
        assert np.all(np.diff(traj.susceptible) <= 1e-15)
        assert np.all(np.diff(traj.removed) >= -1e-15)

    def test_incidence_is_previous_state_inflow(self):
        model = build_model("stratified", FIG1_PARAMS, FIG1_DIST)
        traj = integrate(model, (0, 10), 1.0, "euler")
        # recompute the per-class inflow at the recorded state preceding each
        # step and sum it
        for i in (1, 4, 10):
            y = traj.Y[i - 1]
            assert traj.incidence[i] == pytest.approx(model.rhs_full(0, y)[1].sum(), rel=1e-12)

    def test_euler_dt1_matches_manual_stepping(self):
        model = build_model("stratified", FIG1_PARAMS, FIG1_DIST)
        traj = integrate(model, (0, 5), 1.0, "euler")
        y = model.initial_state()
        for i in range(5):
            y = y + model.rhs_full(0.0, y)[0]
        [(s5, _, _)] = model.blocks(traj.Y[5])
        np.testing.assert_allclose(np.maximum(s5, 0.0), np.maximum(y[:60], 0.0), atol=1e-15)

    def test_stability_error_on_blowup(self):
        params = EpidemicParams(lam=0.0, mu=1.0, rho0=0.5)
        with pytest.raises(StabilityError):
            integrate(build_model("classic", params), (0, 30), 5.0, "euler")

    def test_cumulative_removed_may_pass_one(self):
        # replenished susceptibles are removed again: the per-degree removed
        # tally is cumulative and passes 1 while s and i stay in range
        params = EpidemicParams(lam=0.1, mu=0.05, d=0.05, rho0=0.01)
        model = build_model("stratified", params, truncated_power_law(2.5, 1, 60))
        traj = integrate(model, (0, 400), 0.5, "rk4")
        assert traj.Y[:, ~model.bounded].max() > 1.0
        assert traj.Y[:, model.bounded].max() <= 1.0

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            integrate(build_model("classic", FIG1_PARAMS), (0, 1.05), 0.1)
        with pytest.raises(DomainError):
            integrate(build_model("classic", FIG1_PARAMS), (5, 5), 0.1)
        with pytest.raises(DomainError):
            integrate(build_model("classic", FIG1_PARAMS), (0, 10), -0.1)
        with pytest.raises(DomainError):
            integrate(build_model("classic", FIG1_PARAMS), (0, 10), 1.0, method="heun")

    def test_trajectory_validation(self):
        with pytest.raises(DomainError):
            Trajectory(
                times=np.array([0.0, 0.0]), Y=np.zeros((2, 3)), dY=None,
                incidence=np.zeros(2), model=build_model("classic", FIG1_PARAMS))
        with pytest.raises(DomainError):
            Trajectory(
                times=np.array([0.0, 1.0]), Y=np.zeros((3, 3)), dY=None,
                incidence=np.zeros(2), model=build_model("classic", FIG1_PARAMS))
        # equal infinite times are not increasing (their difference is NaN)
        with pytest.raises(DomainError, match="strictly increasing"):
            Trajectory(
                times=np.array([np.inf, np.inf]), Y=np.zeros((2, 3)), dY=None,
                incidence=np.zeros(2), model=build_model("classic", FIG1_PARAMS))

    def test_per_degree_removed_sums_to_aggregate(self):
        traj = integrate(build_model("stratified", FIG1_PARAMS, FIG1_DIST), (0, 50), 0.5, "rk4")
        [(_, _, removed)] = traj.model.blocks(traj.Y)
        for i in range(0, len(traj.times), 20):
            assert np.maximum(removed[i], 0.0).sum() == pytest.approx(traj.removed[i], abs=1e-14)


class TestFinalSize:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_is_removed_plus_prevalence_without_demography(self, name):
        params = EpidemicParams(lam=0.3, mu=0.0 if name.startswith("hiv") else 0.1,
                                rho0=0.01, lam2=0.1,
                                stage_rates=[0.2, 0.1] if name.startswith("hiv") else None)
        traj = integrate(build_model(name, params, truncated_power_law(2.5, 1, 20)),
                         (0, 40), 0.5, "rk4")
        assert traj.final_size() == 1.0 - traj.susceptible[-1]
        assert traj.final_size() == pytest.approx(traj.removed[-1] + traj.prevalence[-1],
                                                  abs=1e-12)

    def test_demography_keeps_it_a_fraction(self):
        params = EpidemicParams(lam=0.3, rho0=0.01, d=0.05)
        traj = integrate(build_model("hiv_msm", params, truncated_power_law(2.7, 1, 60)),
                         (0, 400), 0.5, "rk4")
        assert traj.removed[-1] + traj.prevalence[-1] > 1.0
        assert 0.0 <= traj.final_size() == 1.0 - traj.susceptible[-1] <= 1.0


class TestBuildModel:
    def test_dispatch(self):
        params = EpidemicParams(lam=0.1, mu=0.05, rho0=0.01, lam2=0.1)
        hiv_params = EpidemicParams(lam=0.1, rho0=0.01)
        assert MODEL_NAMES == tuple(MODEL_BUILDERS)
        layouts = {}
        for name in MODEL_NAMES:
            model = build_model(name, hiv_params if name.startswith("hiv") else params,
                                dist=FIG1_DIST)
            pops = model.populations
            layouts[name] = (len(pops), pops[0].n_types, pops[0].nk,
                             tuple(p.source for p in pops), model.routing, model.treatable,
                             model.link_mode)
        assert layouts == {
            "classic": (1, 1, 1, (0,), (1.0,), False, "fixed"),
            "stratified": (1, 1, 60, (0,), (1.0,), False, "active"),
            "two_type": (1, 2, 60, (0,), "hazard", False, "active"),
            "bipartite": (2, 1, 60, (1, 0), (1.0,), False, "active"),
            "hiv_msm": (1, 2, 60, (0,), (1.0, 0.0), True, "active"),
            "hiv_hetero": (2, 2, 60, (1, 0), (1.0, 0.0), True, "active"),
        }

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("stage_rates", [None, [0.2, 0.1], [[0.2, 0.1], [0.3, 0.0]]])
    def test_one_record_per_population(self, name, stage_rates):
        """Each population's s | infected | removed slices follow the one
        before with no gap and tile [0, dim); every record holds the model's
        one stage matrix, with len(seed) type rows."""
        hiv = name.startswith("hiv")
        if name in ("classic", "stratified", "bipartite") and stage_rates and isinstance(
                stage_rates[0], list):
            stage_rates = stage_rates[0]   # one type: one rate list
        params = EpidemicParams(lam=0.1, mu=0.0 if hiv or stage_rates else 0.05, lam2=0.2,
                                stage_rates=stage_rates)
        model = build_model(name, params, FIG1_DIST, truncated_power_law(2.5, 2, 30))
        pops, stop = model.populations, 0
        for pop in pops:
            assert (pop.s.start, pop.s.stop, pop.infected.stop, pop.removed.stop) == (
                stop, stop + pop.nk, pop.s.stop + np.prod(pop.shape), pop.infected.stop + pop.nk)
            assert [(r.start, r.stop) for r in pop.rows] == [
                (i, i + pop.nk) for i in range(pop.s.stop, pop.infected.stop, pop.nk)]
            assert pop.rates is pops[0].rates and pop.n_types == len(model.seed)
            assert pop.shape == (*pop.rates.shape, pop.nk)
            stop = pop.removed.stop
        assert stop == model.dim == len(model.initial_state())
        expected = np.full((1, 1), 0.0 if hiv else 0.05) if stage_rates is None else np.array(
            stage_rates, dtype=float)
        assert np.array_equal(pops[0].rates,
                              np.broadcast_to(expected, (len(model.seed), expected.shape[-1])))

    def test_compartment_model_rejects_mismatched_data(self):
        assert _model().dim == 180
        three_types = {"rates": ((0.1,) * 3,), "seed": (1, 0, 0), "routing": (1, 0, 0)}
        # a one-type model routes every new infection to its one type
        for bad in ({"sources": (1,)}, {"sources": (0, 0)}, {"rates": ((0.1, 0.2),)},
                    {"seed": (0.5, 0.5)}, {"routing": "hazard"}, {"routing": (0.5,)},
                    {"routing": np.array([1.0, 0.0])}, three_types):
            with pytest.raises(DomainError):
                _model(**bad)

    @pytest.mark.parametrize("argument, call", [
        ("populations", lambda: _model(populations=[FIG1_DIST])),
        ("populations", lambda: _model(populations=[("x", 0.01, 1.0, "")])),
        ("populations", lambda: _model(populations=[(FIG1_DIST, 0.01, 1.0)])),
        ("populations", lambda: _model(populations=[(FIG1_DIST, 2, 1.0, "")])),
        ("populations", lambda: _model(populations=[(FIG1_DIST, 0.01, -1, "")])),
        ("populations", lambda: _model(populations=FIG1_DIST)),
        ("seed", lambda: _model(seed=1.0)),
        ("seed", lambda: _model(seed=(2, -1), routing=(1.0, 0.0), rates=((0.1, 0.1),))),
        ("sources", lambda: _model(sources=0)),
        ("rates", lambda: _model(rates=(0.1,))),
        ("rates", lambda: _model(rates=(("0.1",),))),
        ("rates", lambda: _model(rates=((5,),))),
        ("routing", lambda: _model(routing="x")),
        ("d", lambda: _model(d=-1)),
        ("exit_rate", lambda: _model(exit_rate=float("nan"))),
        ("mu", lambda: _model(mu=2)),
        ("stage_rates", lambda: _model(stage_rates=[2])),
        ("stage_rates", lambda: _model(stage_rates=0.1)),
        ("link_mode", lambda: _model(link_mode="x")),
        ("params", lambda: build_model("stratified", "x", FIG1_DIST)),
        ("dist", lambda: build_model("stratified", FIG1_PARAMS, dist="x")),
        ("dist2", lambda: build_model("bipartite", replace(FIG1_PARAMS, lam2=0.1), FIG1_DIST, 2)),
        ("model", lambda: integrate("x", (0, 1), 0.1)),
        ("schedule", lambda: integrate(_model(), (0, 1), 0.1, schedule="x")),
    ])
    def test_library_arguments_name_their_fault(self, argument, call):
        """The constructor takes rows (DegreeDistribution, rho0 in [0, 1),
        weight in (0, 1], name) and rates and shares in [0, 1], as
        EpidemicParams does; a wrong argument is a DomainError naming it."""
        with pytest.raises(DomainError, match=rf"^{argument} must"):
            call()

    def test_unknown_model(self):
        with pytest.raises(DomainError):
            build_model("sis", EpidemicParams(lam=0.1))

    def test_distribution_required(self):
        with pytest.raises(DomainError):
            build_model("stratified", EpidemicParams(lam=0.1))


def _random_model(name, lam, lam2, mu, rho0, coverage, dist):
    """One of the six models at the given rates; the HIV models take
    coverage instead of mu removal."""
    params = EpidemicParams(lam=lam, mu=mu, rho0=rho0, lam2=lam2)
    hiv_params = EpidemicParams(lam=lam, rho0=rho0)
    return {
        "classic": lambda: build_model("classic", params),
        "stratified": lambda: build_model("stratified", params, dist),
        "two_type": lambda: build_model("two_type", replace(params, rho0_type2=coverage), dist),
        "bipartite": lambda: build_model("bipartite", params, dist, dist),
        "hiv_msm": lambda: build_model("hiv_msm", hiv_params, dist).at_coverage(coverage),
        "hiv_hetero": lambda: build_model("hiv_hetero", hiv_params, dist,
                                          dist).at_coverage(coverage),
    }[name]()


class TestConservationProperty:
    @pytest.mark.parametrize(
        "name", ["classic", "stratified", "two_type", "bipartite", "hiv_msm", "hiv_hetero"])
    @settings(max_examples=10, deadline=None)
    @given(lam=st.floats(0.0, 1.0), lam2=st.floats(0.0, 1.0), mu=st.floats(0.0, 1.0),
           rho0=st.floats(1e-4, 0.5), coverage=st.floats(0.0, 1.0),
           gamma=st.floats(1.5, 3.5), k_max=st.integers(1, 60))
    def test_mass_is_conserved(self, name, lam, lam2, mu, rho0, coverage, gamma, k_max):
        dist = truncated_power_law(gamma, 1, k_max)
        model = _random_model(name, lam, lam2, mu, rho0, coverage, dist)
        traj = integrate(model, (0, 5), 0.1, "rk4")
        assert np.abs(total_mass(traj) - 1.0).max() <= 1e-8


# Reference RHS and step loop: the per-block formula (blocks(), a clipped
# link-fraction array, one np.concatenate per evaluation) and the
# four-reduction step check.  The production path must reproduce them bit
# for bit.

def _reference_link_fractions(degrees, s, rho_types, fixed_edge_mass):
    infected_mass = rho_types @ degrees
    if fixed_edge_mass is None:
        denom = float(degrees @ s) + float(infected_mass.sum())
    else:
        denom = fixed_edge_mass
    if denom <= 0.0:
        return np.zeros(len(rho_types))
    return np.clip(infected_mass / denom, 0.0, 1.0)


def reference_rhs(model, y, s0):
    blocks = model.blocks(y)
    parts, total_inflow = [], 0.0
    for pop, (s, infected, _), s_init in zip(model.populations, blocks, s0):
        rates = pop.lam
        src_pop, (src_s, src_inf, _) = model.populations[pop.source], blocks[pop.source]
        fixed = src_pop.fixed_edge_mass if model.link_mode == "fixed" else None
        p = _reference_link_fractions(src_pop.degrees, src_s, src_inf.sum(axis=1), fixed)
        if len(rates) == 1:
            hazard = hazard_profile(pop.k, float(p[0]), rates[0])
        else:
            hazard = hazard_profile_two(pop.k, LinkProbabilities(float(p[0]), float(p[1])),
                                        *rates)
        inflow = s * hazard
        ds = -inflow
        if model.d > 0:
            ds = ds + model.d * (s_init - s)
        flow = pop.rates[:, :, None] * infected
        d_inf = -flow
        if pop.n_stages > 1:
            d_inf[:, 1:] += flow[:, :-1]
        if model.routing == "hazard":
            h1 = hazard_profile(pop.k, float(p[0]), rates[0])
            h2 = hazard_profile(pop.k, float(p[1]), rates[1])
            total = h1 + h2
            w1 = np.divide(h1, total, out=np.full(len(h1), 0.5), where=total > 0)
            shares = np.stack([w1, 1.0 - w1])
        else:
            shares = np.array(model.routing)[:, None]
        d_inf[:, 0] += shares * inflow
        removal = flow[:, -1].sum(axis=0)
        if model.exit_rate > 0:
            d_inf -= model.exit_rate * infected
            removal = removal + model.exit_rate * infected.sum(axis=(0, 1))
        parts += [ds, d_inf.ravel(), removal]
        total_inflow += float(inflow.sum())
    return np.concatenate(parts), total_inflow


def reference_integrate(model, t_span, dt, method, schedule=None):
    """(Y, dY, incidence) of ``integrate`` on a grid that is known to fit."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    segments = [(t0, t1, None)]
    if schedule is not None:
        bounds = [t0, *schedule.epochs, t1]
        segments = list(zip(bounds, bounds[1:], [schedule.initial_coverage, *schedule.coverages]))
        model = model.at_coverage(schedule.initial_coverage)
    s0 = [s.copy() for s, _, _ in model.blocks(model.initial_state())]
    counts = [int(round((end - start) / dt)) for start, end, _ in segments]
    rows = sum(counts) + 1
    Y, dY, inflow = np.empty((rows, model.dim)), np.empty((rows, model.dim)), np.empty(rows)
    Y[0] = y = model.initial_state()
    row = 0
    for (seg_start, _, coverage), n in zip(segments, counts):
        if coverage is not None and seg_start > t0:
            model = model.at_coverage(coverage)
            y = model.repartition(y)
            Y[row] = y
        for i in range(n):
            t = seg_start + i * dt
            k1, inflow[row] = reference_rhs(model, y, s0)
            dY[row] = k1
            if method == "euler":
                y = y + dt * k1
            else:
                k2 = reference_rhs(model, y + (dt / 2) * k1, s0)[0]
                k3 = reference_rhs(model, y + (dt / 2) * k2, s0)[0]
                k4 = reference_rhs(model, y + dt * k3, s0)[0]
                y = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            row += 1
            if (not np.isfinite(y).all() or y.min() < STATE_FLOOR
                    or y.max(initial=-np.inf, where=model.bounded) > STATE_CEIL):
                raise StabilityError(f"state left [{STATE_FLOOR}, {STATE_CEIL}] at "
                                     f"t={t + dt:g}; try a smaller dt")
            Y[row] = y
    dY[row], inflow[row] = reference_rhs(model, y, s0)
    return Y, dY, np.concatenate([inflow[:1], inflow[:-1]])


_DIST2 = truncated_power_law(2.0, 1, 25)
_PARAMS = EpidemicParams(lam=0.3, mu=0.1, rho0=0.05, d=0.02, lam2=0.15)
_HIV_PARAMS = EpidemicParams(lam=0.3, rho0=0.05, d=0.02)


def _guard_cases():
    """(id, model factory, t_span, dt, method, schedule)."""
    runs = {"euler": ((0, 30), 1.0), "rk4": ((0, 15), 0.5)}
    cases = []
    for name in MODEL_NAMES:
        for link_mode in ("active", "fixed"):
            for method, (span, dt) in runs.items():
                def factory(name=name, link_mode=link_mode):
                    if name.startswith("hiv"):
                        return build_model(name, replace(_HIV_PARAMS, link_mode=link_mode),
                                           FIG1_DIST, _DIST2).at_coverage(0.4)
                    params = replace(_PARAMS, link_mode=link_mode)
                    if name == "two_type":
                        params = replace(params, rho0_type2=0.3)
                    return build_model(name, params, FIG1_DIST, _DIST2)
                cases.append((f"{name}-{link_mode}-{method}", factory, span, dt, method, None))
    # two types without stage flow: at d = 0 no exits, so the removal row stays
    # 0; at rho0_2 = 0 one side starts with a zero infected stock
    for tag, change in (("d0", {"d": 0.0}), ("rho0_2-zero", {"rho0_2": 0.0})):
        for method, (span, dt) in runs.items():
            cases.append((f"hiv_hetero-{tag}-{method}", lambda change=change: build_model(
                "hiv_hetero", replace(_HIV_PARAMS, **change), FIG1_DIST, _DIST2).at_coverage(0.4),
                span, dt, method, None))
    staged = EpidemicParams(lam=0.3, mu=0.0, rho0=0.05, d=0.02, lam2=0.15)
    cases += [
        ("stratified-stages", lambda: build_model(
            "stratified", replace(staged, stage_rates=[0.3, 0.2, 0.1]), FIG1_DIST),
         (0, 15), 0.5, "rk4", None),
        ("two_type-hazard-stage-rows", lambda: build_model(
            "two_type", replace(staged, rho0_type2=0.3, stage_rates=[[0.3, 0.2], [0.1, 0.4]]),
            FIG1_DIST), (0, 30), 1.0, "euler", None),
        # every stage rate 0: a one-type block on the general branch with no stage flow
        ("stratified-zero-stages", lambda: build_model(
            "stratified", replace(staged, stage_rates=[0.0, 0.0]), FIG1_DIST),
         (0, 15), 0.5, "rk4", None),
        ("two_type-split", lambda: build_model(
            "two_type", replace(_PARAMS, split=0.3, rho0_type2=0.2), FIG1_DIST),
         (0, 15), 0.5, "rk4", None),
        ("bipartite-rho0_2-zero", lambda: build_model(
            "bipartite", EpidemicParams(lam=0.3, mu=0.1, rho0=0.05, lam2=0.2, rho0_2=0.0),
            FIG1_DIST, _DIST2), (0, 15), 0.5, "rk4", None),
        ("hiv_hetero-two-epochs", lambda: build_model(
            "hiv_hetero", replace(_HIV_PARAMS, stage_rates=[0.2, 0.1]), FIG1_DIST, _DIST2),
         (0, 15), 0.25, "rk4", TreatmentSchedule(epochs=(5.0, 10.0), coverages=(0.5, 0.8))),
        # a zero-rate stage next to a live one: the block keeps its stage flow
        ("hiv_msm-zero-and-live-stage", lambda: build_model(
            "hiv_msm", replace(_HIV_PARAMS, stage_rates=[0.0, 0.2]), FIG1_DIST),
         (0, 15), 0.5, "rk4", TreatmentSchedule(epochs=(5.0,), coverages=(0.6,))),
        ("hiv_msm-epoch-fixed", lambda: build_model(
            "hiv_msm", replace(_HIV_PARAMS, link_mode="fixed"), FIG1_DIST),
         (0, 30), 1.0, "euler", TreatmentSchedule(epochs=(10.0,), coverages=(0.7,))),
        # euler off dt = 1, where the step scales the slope by dt
        ("stratified-euler-dt0.5", lambda: build_model("stratified", _PARAMS, FIG1_DIST),
         (0, 30), 0.5, "euler", None),
        ("hiv_msm-euler-dt0.5", lambda: build_model(
            "hiv_msm", _HIV_PARAMS, FIG1_DIST).at_coverage(0.4),
         (0, 30), 0.5, "euler", None),
        ("classic-euler-dt0.25", lambda: build_model("classic", _PARAMS),
         (0, 15), 0.25, "euler", None),
        # d = 0 on one population, where ds is the negated inflow (the Sobol
        # sweep's and the agent-based comparison's path)
        ("stratified-d0-euler", lambda: build_model(
            "stratified", replace(_PARAMS, d=0.0), FIG1_DIST), (0, 30), 1.0, "euler", None),
        ("classic-d0-euler", lambda: build_model("classic", replace(_PARAMS, d=0.0), FIG1_DIST),
         (0, 30), 1.0, "euler", None),
        # the one-stage RHS on two populations at d = 0, with the unit euler step
        ("bipartite-d0-euler", lambda: build_model(
            "bipartite", replace(_PARAMS, d=0.0), FIG1_DIST, _DIST2), (0, 30), 1.0, "euler", None),
        # one stage given as an explicit stage_rates entry instead of mu
        ("stratified-one-stage-rate", lambda: build_model(
            "stratified", replace(staged, stage_rates=[0.1]), FIG1_DIST),
         (0, 30), 1.0, "euler", None),
    ]
    return cases


class TestBitIdentity:
    @pytest.mark.parametrize("factory, span, dt, method, schedule",
                             [case[1:] for case in _guard_cases()],
                             ids=[case[0] for case in _guard_cases()])
    def test_matches_reference_step_loop(self, factory, span, dt, method, schedule):
        traj = integrate(factory(), span, dt, method, schedule=schedule)
        Y, dY, incidence = reference_integrate(factory(), span, dt, method, schedule)
        assert traj.Y.tobytes() == Y.tobytes()
        assert traj.dY.tobytes() == dY.tobytes()
        assert traj.incidence.tobytes() == incidence.tobytes()
        assert traj.incidence.max() > 0


class TestStepCheck:
    """StabilityError names the first failing step, as the reference
    four-reduction check does."""

    @staticmethod
    def messages(factory, span, dt, method, schedule=None):
        with pytest.raises(StabilityError) as new:
            integrate(factory(), span, dt, method, schedule=schedule)
        with pytest.raises(StabilityError) as ref:
            reference_integrate(factory(), span, dt, method, schedule)
        return str(new.value), str(ref.value)

    def test_euler_blowup(self):
        # rho' = -rho at dt = 5: rho goes 0.5 -> -2 in the first step
        new, ref = self.messages(
            lambda: build_model("classic", EpidemicParams(lam=0.0, mu=1.0, rho0=0.5)),
            (0, 30), 5.0, "euler")
        assert new == ref
        assert "at t=5;" in new

    def test_rk4_blowup(self):
        # the rk4 amplification of rho' = -rho at dt = 4 is 5: rho 0.5 -> 2.5
        new, ref = self.messages(
            lambda: build_model("classic", EpidemicParams(lam=0.0, mu=1.0, rho0=0.5)),
            (0, 40), 4.0, "rk4")
        assert new == ref
        assert "at t=4;" in new

    def test_blowup_after_treatment_epoch(self):
        # untreated infected decay at rate 0.1 (stable at dt = 3); from the
        # epoch on, 90% of them are treated and leave their stage at rate 1,
        # where the rk4 amplification at dt = 3 is 1.375 per step
        def factory():
            return build_model("hiv_msm", EpidemicParams(lam=0.0, rho0=0.5,
                                                         stage_rates=[[0.1], [1.0]]), FIG1_DIST)
        schedule = TreatmentSchedule(epochs=(30.0,), coverages=(0.9,))
        new, ref = self.messages(factory, (0, 150), 3.0, "rk4", schedule)
        assert new == ref
        failed_at = float(new.split("at t=")[1].split(";")[0])
        assert failed_at > 30.0 and failed_at % 3.0 == 0.0

    def test_blowup_without_stage_flow(self):
        # HIV blocks without stage rates have no stage flow; infected leave
        # only at the exit rate d = 1, where the rk4 amplification at dt = 50
        # is about 2.4e5 per step: the run leaves the range at the second
        # step and overflows to inf and NaN before its chunk ends
        def factory():
            return build_model("hiv_hetero", EpidemicParams(lam=0.3, rho0=1e-12, d=1.0),
                               FIG1_DIST, _DIST2)
        new, ref = self.messages(factory, (0, 5000), 50.0, "rk4")
        assert new == ref
        assert "at t=100;" in new

    def test_crossing_only_the_ceiling(self):
        # SI with replenishment (mu = 0, d > 0): infected never leave while
        # susceptibles are refilled, so the infected fraction passes 1 with
        # every entry finite and above the floor
        def factory():
            return build_model("classic", EpidemicParams(lam=0.3, mu=0.0, d=0.05, rho0=0.01))
        new, ref = self.messages(factory, (0, 40), 1.0, "euler")
        assert new == ref
        assert "at t=23;" in new
        before = integrate(factory(), (0, 22), 1.0, "euler")
        assert before.Y.min() >= 0.0 and 0.95 < before.Y[-1, 1] <= STATE_CEIL


class TestSegmentCheck:
    """The state range is checked over each segment 64 steps at a time, and
    a run that leaves it keeps stepping to the end of its chunk; the error
    still names the first failing step."""

    def test_blowup_inside_the_middle_of_three_segments(self):
        # treated infected leave their stage at rate 1, unstable for rk4 at
        # dt = 3 (amplification 1.375 per step); treatment covers 90% from
        # t = 30 to t = 90 and nobody after, so the run leaves the range
        # between the two epochs, before the repartition at t = 90
        def factory():
            return build_model("hiv_hetero", EpidemicParams(lam=0.0, rho0=0.5,
                                                            stage_rates=[[0.1], [1.0]]),
                               FIG1_DIST, _DIST2)
        schedule = TreatmentSchedule(epochs=(30.0, 90.0), coverages=(0.9, 0.0))
        new, ref = TestStepCheck.messages(factory, (0, 150), 3.0, "rk4", schedule)
        assert new == ref
        failed_at = float(new.split("at t=")[1].split(";")[0])
        assert 30.0 < failed_at < 90.0 and failed_at % 3.0 == 0.0

    def test_overflow_raises_only_stability_error(self):
        # rho' = -rho at dt = 5 multiplies rho by -4 per step: it overflows
        # to inf after about 510 of the 1000 steps, then turns NaN
        model = build_model("classic", EpidemicParams(lam=0.0, mu=1.0, rho0=0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StabilityError, match="at t=5;"):
                integrate(model, (0, 5000), 5.0, "euler")

    def test_blowup_stops_within_one_chunk(self, monkeypatch):
        # the run leaves the range in its first step; it used to step on
        # through all 100000 steps of its one segment before raising
        model = build_model("classic", EpidemicParams(lam=0.0, mu=1.0, rho0=0.5))
        calls = []
        rhs_full = model.rhs_full

        def counting(*args, **kwargs):
            calls.append(args[0])
            return rhs_full(*args, **kwargs)

        monkeypatch.setattr(model, "rhs_full", counting)
        with pytest.raises(StabilityError, match="at t=5;"):
            integrate(model, (0, 500000), 5.0, "euler")
        assert 1 <= len(calls) <= 65


class TestRhsOut:
    @pytest.mark.parametrize("factory", [case[1] for case in _guard_cases()],
                             ids=[case[0] for case in _guard_cases()])
    def test_out_is_filled_and_returned(self, factory):
        model = factory()
        y = integrate(model, (0, 4), 0.5, "rk4").Y[-1]
        dy, inflow = model.rhs_full(2.0, y)
        buf = np.full(model.dim, np.nan)
        got, got_inflow = model.rhs_full(2.0, y, out=buf)
        assert got is buf
        assert buf.tobytes() == dy.tobytes()
        assert got_inflow.tobytes() == inflow.tobytes()

    @pytest.mark.parametrize("factory", [case[1] for case in _guard_cases()],
                             ids=[case[0] for case in _guard_cases()])
    def test_inflow_is_filled_and_returned(self, factory):
        # per population, in order, s_k times its degree class's hazard: the
        # new-infection term that leaves the susceptible row when d = 0
        model = factory()
        y = integrate(model, (0, 4), 0.5, "rk4").Y[-1]
        dy, inflow = model.rhs_full(2.0, y)
        assert inflow.shape == (model.classes,)
        assert model.classes == sum(len(p.k) for p in model.populations)
        buf = np.full(model.classes, np.nan)
        got_dy, got = model.rhs_full(2.0, y, np.empty(model.dim), inflow=buf)
        assert got is buf
        assert buf.tobytes() == inflow.tobytes()
        assert got_dy.tobytes() == dy.tobytes()
        if model.d == 0:
            ds = np.concatenate([s for s, _, _ in model.blocks(dy)])
            assert (-inflow).tobytes() == ds.tobytes()

    @pytest.mark.parametrize("out", [np.empty(179), np.empty((1, 180)),
                                     np.empty(180, dtype=np.float32), [0.0] * 180])
    def test_bad_out_rejected(self, out):
        model = build_model("stratified", FIG1_PARAMS, FIG1_DIST)
        assert model.dim == 180
        with pytest.raises(DomainError, match="out"):
            model.rhs_full(0.0, model.initial_state(), out=out)

    @pytest.mark.parametrize("inflow", [np.empty(59), np.empty(180), np.empty((1, 60)),
                                        np.empty(60, dtype=np.float32), [0.0] * 60])
    def test_bad_inflow_rejected(self, inflow):
        model = build_model("stratified", FIG1_PARAMS, FIG1_DIST)
        assert model.classes == 60
        with pytest.raises(DomainError, match="inflow must be a float64 array of shape \\(60,\\)"):
            model.rhs_full(0.0, model.initial_state(), inflow=inflow)


class TestGridArguments:
    @pytest.mark.parametrize("t_span, dt, name", [
        ((0, 10), float("nan"), "dt"),
        ((0, 10), float("inf"), "dt"),
        ((0, 10), "1", "dt"),
        ((0, 10), True, "dt"),
        ((0, float("inf")), 1.0, "t_span"),
        ((float("nan"), 10), 1.0, "t_span"),
        ((0,), 1.0, "t_span"),
        ((0, 10, 20), 1.0, "t_span"),
        (10, 1.0, "t_span"),
        (("0", "10"), 1.0, "t_span"),
        ((0, 1e300), 1e-300, "t_span"),
    ])
    def test_named_domain_error(self, t_span, dt, name):
        with pytest.raises(DomainError, match=name):
            integrate(build_model("classic", FIG1_PARAMS), t_span, dt)

    # grids whose record cannot exist: 1.25 EiB is past any address space, so
    # the allocation fails at once, and past 8 EiB numpy refuses the shape
    @pytest.mark.parametrize("t1", [1e15, 1e17])
    def test_grid_too_large_to_record(self, t1):
        model = build_model("stratified", FIG1_PARAMS, FIG1_DIST)
        with pytest.raises(DomainError, match="t_span .* at dt=1.0 .* too many to record"):
            integrate(model, (0, t1), 1.0, "euler")


def _product_form_error(model, t1, dt, method):
    """The largest |s_k(t) - s_k(0) z(t)^k| over k and t, z = s_1 / s_1(0)
    (the first class is degree 1)."""
    traj = integrate(model, (0, t1), dt, method)
    s = model.blocks(traj.Y)[0][0]
    z = s[:, 0] / s[0, 0]
    return float(np.max(np.abs(s - s[0] * z[:, None] ** model.populations[0].k)))


class TestClosedForms:
    """Two exact consequences of the per-degree model that share no code with
    the RHS: the product form of the susceptible classes and the growth
    factor of the infected edge mass.  Volz, J. Math. Biol. 56, 293 (2008);
    Pastor-Satorras & Vespignani, PRL 86, 3200 (2001)."""

    # under euler dt = 1 at d = 0 one step is s_k <- s_k (1 - x_t)^k with one
    # x_t for every class, so s_k(t) = s_k(0) z(t)^k.  The bound is absolute:
    # 200 drawn configs (gamma 2.5) read at most 3.7e-16, while a relative
    # bound fails where s_k is about 1e-17
    @given(model=st.sampled_from(["stratified", "classic"]), lam=st.floats(0.01, 0.5),
           mu=st.floats(0.0, 0.5), rho0=st.floats(0.001, 0.1), k_max=st.integers(5, 150),
           gamma=st.floats(1.5, 3.5), link_mode=st.sampled_from(["active", "fixed"]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_product_form_at_euler_unit_steps(self, model, lam, mu, rho0, k_max, gamma,
                                              link_mode):
        params = EpidemicParams(lam=lam, mu=mu, rho0=rho0, link_mode=link_mode)
        built = build_model(model, params, truncated_power_law(gamma, 1, k_max))
        assert _product_form_error(built, 100, 1.0, "euler") <= 1e-14

    # negative controls: each read at least 4e-4 (stratified, gamma 2.5, k
    # 1..60, lambda 0.1, mu 0.05, rho0 0.005, t 0..100)
    @pytest.mark.parametrize("link_mode", ["active", "fixed"])
    @pytest.mark.parametrize("d, dt, method", [(0.0, 0.5, "euler"), (0.0, 0.1, "rk4"),
                                               (0.05, 1.0, "euler")],
                             ids=["euler_dt_0.5", "rk4", "d_0.05"])
    def test_product_form_fails_elsewhere(self, link_mode, d, dt, method):
        params = EpidemicParams(lam=0.1, mu=0.05, rho0=0.005, d=d, link_mode=link_mode)
        model = build_model("stratified", params, truncated_power_law(2.5, 1, 60))
        assert _product_form_error(model, 100, dt, method) > 1e-6

    # in the linear regime Theta = sum_k k I_k grows per euler unit step by
    # 1 - mu + lambda <k^2>/<k>, so lambda_c = mu <k>/<k^2> (0.00835 here).
    # At rho0 1e-9 the step-40 factor read within 7.9e-7 of it at these
    # ratios, under either link mode; the factors sit 0.005 or more from 1
    @pytest.mark.parametrize("link_mode", ["active", "fixed"])
    @pytest.mark.parametrize("ratio", [0.5, 0.9, 1.1, 2.0])
    def test_growth_factor_on_both_sides_of_the_threshold(self, link_mode, ratio):
        dist, mu = truncated_power_law(2.5, 1, 60), 0.05
        k = dist.degrees.astype(float)
        k1, k2 = k @ dist.pmf, (k * k) @ dist.pmf
        lam = ratio * mu * k1 / k2
        model = build_model("stratified", EpidemicParams(lam=lam, mu=mu, rho0=1e-9,
                                                         link_mode=link_mode), dist)
        infected = model.blocks(integrate(model, (0, 41), 1.0, "euler").Y)[0][1]
        theta = infected.sum(axis=(1, 2)) @ k
        factor = theta[41] / theta[40]
        assert abs(factor - (1.0 - mu + lam * k2 / k1)) <= 1e-6
        assert (factor > 1.0) == (ratio > 1.0)


def _reduced_incidence(dist, lam, mu, rho0, steps):
    """Incidence of the one-stage model at euler dt = 1, d = 0, link_mode
    active, from z and Theta = sum_k k I_k alone: s_k = s_k(0) z^k, p =
    Theta / (sum_k k s_k + Theta), x = lam p, and each step z <- z (1 - x),
    Theta <- (1 - mu) Theta + sum_k k s_k (1 - (1 - x)^k).  It shares no
    code with the RHS; its row i is the inflow at state i - 1 (row 0 at 0),
    as ``Trajectory.incidence``."""
    k, s0 = dist.degrees.astype(float), (1.0 - rho0) * dist.pmf
    z, theta, inflow = 1.0, rho0 * (k @ dist.pmf), []
    for _ in range(steps):
        s = s0 * z ** k
        x = lam * theta / (k @ s + theta)
        new = s * (1.0 - (1.0 - x) ** k)
        inflow.append(new.sum())
        z, theta = z * (1.0 - x), (1.0 - mu) * theta + k @ new
    return np.array([inflow[0], *inflow])


def _design_rows(n_base, seed, every):
    """Every ``every``-th row of the A and B matrices of a Saltelli design over
    gamma (2, 3), lambda (0.05, 0.15) and rho0 (0.001, 0.01), as
    ``sobol_first_order`` draws them."""
    lo, width = np.array([2.0, 0.05, 0.001]), np.array([1.0, 0.1, 0.009])
    rng = np.random.default_rng(seed)
    a, b = (lo + width * rng.random((n_base, 3)) for _ in range(2))
    return np.concatenate([a, b])[::every]


# c08's design (n_base 512, one row in 8) and sobol_sweep's (n_base 64): mu
# 0.05, k 1..60, t 0..100.  On these 256 rows the largest relative
# difference read 1.2e-13
@pytest.mark.parametrize("n_base, every", [(512, 8), (64, 1)], ids=["c08", "sobol_sweep"])
def test_reduced_oracle_matches_integrate(n_base, every):
    for gamma, lam, rho0 in _design_rows(n_base, 2025, every):
        dist = truncated_power_law(gamma, 1, 60)
        model = build_model("stratified", EpidemicParams(lam=lam, mu=0.05, rho0=rho0), dist)
        incidence = integrate(model, (0, 100), 1.0, "euler").incidence
        np.testing.assert_allclose(incidence, _reduced_incidence(dist, lam, 0.05, rho0, 100),
                                   rtol=1e-12, atol=0)
