import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from approximations import normal_approx_pmf
from netepi.errors import DomainError
from netepi.mixing import LinkProbabilities, hazard_profile, hazard_profile_two

# the kernels are closed forms; these explicit sums over link counts are the
# independent oracles they are checked against

def brute_binomial(n, k, p):
    """Exact rational-arithmetic binomial pmf."""
    q = Fraction(p)
    return float(math.comb(n, k) * q ** k * (1 - q) ** (n - k))


def brute_hazard(k, p, lam):
    """Direct enumeration of sum_{l=1..k} f(l, lam) L(k, l, p)."""
    return sum(
        (1 - (1 - lam) ** l) * math.comb(k, l) * p ** l * (1 - p) ** (k - l)
        for l in range(1, k + 1)
    )


def brute_hazard_two(k, p1, p2, lam1, lam2):
    """Full enumeration over every (k1, k2) pair with k1 + k2 <= k.

    A pair inside the slack LinkProbabilities admits above p1 + p2 = 1 is
    renormalized first, so the multinomial masses sum to one.
    """
    total_p = p1 + p2
    if total_p > 1:
        p1, p2 = p1 / total_p, p2 / total_p
    p3 = max(1 - p1 - p2, 0.0)
    total = 0.0
    for k1 in range(k + 1):
        for k2 in range(k - k1 + 1):
            coef = math.comb(k, k1) * math.comb(k - k1, k2)
            f = 1 - (1 - lam1) ** k1 * (1 - lam2) ** k2
            total += f * coef * p1 ** k1 * p2 ** k2 * p3 ** (k - k1 - k2)
    return total


UNIT = st.floats(0.0, 1.0)
PROPERTY = settings(max_examples=40, deadline=None)


class TestNormalApproxPmf:
    def test_near_exact_at_the_mode(self):
        exact = brute_binomial(100, 50, 0.5)
        assert exact == pytest.approx(0.0796, abs=5e-5)
        assert normal_approx_pmf(100, 50, 0.5) == pytest.approx(exact, abs=1e-3)

    def test_large_n_tighter(self):
        assert normal_approx_pmf(400, 200, 0.5) == pytest.approx(
            brute_binomial(400, 200, 0.5), abs=1e-4)

    def test_maximized_at_the_mean(self):
        values = [normal_approx_pmf(100, k, 0.3) for k in range(101)]
        assert int(np.argmax(values)) == 30

    def test_rejects_degenerate_p(self):
        with pytest.raises(DomainError):
            normal_approx_pmf(100, 3, 0.0)
        with pytest.raises(DomainError):
            normal_approx_pmf(100, 3, 1.0)


class TestInfectionHazard:
    def test_degree_one_recovers_bilinear_term(self):
        for p in (0.01, 0.2, 0.9):
            for lam in (0.05, 0.5):
                assert hazard_profile(np.array([1]), p, lam)[0] == pytest.approx(
                    lam * p, rel=1e-12)

    def test_hand_value(self):
        # brute force over l in {1, 2}: 0.5*0.5 + 0.75*0.25
        assert hazard_profile(np.array([2]), 0.5, 0.5)[0] == pytest.approx(0.4375, abs=1e-14)

    def test_no_infected_links(self):
        assert hazard_profile(np.array([3]), 0.0, 0.9)[0] == 0.0

    def test_matches_brute_enumeration(self):
        rng = np.random.default_rng(5)
        ks = np.array([1, 2, 7, 23])
        for _ in range(3):
            p, lam = rng.random(), rng.random()
            h = hazard_profile(ks, p, lam)
            for k, value in zip(ks, h):
                assert value == pytest.approx(brute_hazard(int(k), p, lam), abs=1e-12)

    def test_closed_form_identity(self):
        # 1 - (1 - lam p)^k is the analytic binomial average
        grid = (0.0, 0.05, 0.37, 0.9, 1.0)
        ks = np.array([1, 2, 10, 60, 133, 200])
        for p in grid:
            for lam in grid:
                h = hazard_profile(ks, p, lam)
                for k, value in zip(ks, h):
                    assert value == pytest.approx(brute_hazard(int(k), p, lam), abs=1e-10)

    def test_all_links_infected_is_contact_function(self):
        # p = 1: every one of the k links is infected, so the hazard is f(k, lam)
        assert hazard_profile(np.array([1]), 1.0, 0.3)[0] == pytest.approx(0.3, abs=1e-15)
        assert hazard_profile(np.array([2]), 1.0, 0.5)[0] == pytest.approx(0.75, abs=1e-15)
        assert hazard_profile(np.array([5]), 1.0, 1.0)[0] == 1.0

    def test_degree_zero_has_no_hazard(self):
        assert np.all(hazard_profile(np.array([0, 0]), 0.7, 0.9) == 0.0)

    def test_monotone_in_every_argument(self):
        ks = np.arange(1, 41)
        h = hazard_profile(ks, 0.3, 0.4)
        assert np.all(np.diff(h) >= -1e-15)
        ps = np.linspace(0, 1, 21)
        hp = [hazard_profile(np.array([7]), p, 0.4)[0] for p in ps]
        assert np.all(np.diff(hp) >= -1e-15)
        hl = [hazard_profile(np.array([7]), 0.3, lam)[0] for lam in ps]
        assert np.all(np.diff(hl) >= -1e-15)


class TestInfectionHazardTwo:
    def test_two_term_enumeration(self):
        probs = LinkProbabilities(0.2, 0.3)
        assert hazard_profile_two(np.array([1]), probs, 0.5, 0.1)[0] == pytest.approx(
            0.13, abs=1e-14)

    def test_no_infected_links(self):
        assert hazard_profile_two(np.array([5]), LinkProbabilities(0.0, 0.0), 0.5, 0.5)[0] == 0.0

    def test_equal_rates_collapse_to_single_group(self):
        # multinomial marginal identity, against brute-force enumeration
        ks = np.arange(1, 11)
        for p1, p2 in ((0.1, 0.2), (0.0, 0.4), (0.45, 0.45)):
            two = hazard_profile_two(ks, LinkProbabilities(p1, p2), 0.3, 0.3)
            one = hazard_profile(ks, p1 + p2, 0.3)
            for k, a, b in zip(ks, two, one):
                assert a == pytest.approx(b, abs=1e-12)
                assert a == pytest.approx(brute_hazard_two(int(k), p1, p2, 0.3, 0.3), abs=1e-12)

    def test_idle_second_group_reduces_exactly(self):
        # lam2 = 0 with p2 folded into the healthy share
        ks = np.array([1, 4, 17, 60])
        a = hazard_profile_two(ks, LinkProbabilities(0.23, 0.0), 0.37, 0.0)
        b = hazard_profile(ks, 0.23, 0.37)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_matches_brute_enumeration(self):
        rng = np.random.default_rng(11)
        ks = np.array([2, 5, 9])
        for _ in range(3):
            p1, p2 = rng.random() * 0.5, rng.random() * 0.4
            l1, l2 = rng.random(), rng.random()
            h = hazard_profile_two(ks, LinkProbabilities(p1, p2), l1, l2)
            for k, value in zip(ks, h):
                assert value == pytest.approx(brute_hazard_two(int(k), p1, p2, l1, l2),
                                              abs=1e-12)

    def test_one_group_owns_every_link(self):
        # p1 = 1 (or p2 = 1): the hazard is that group's f(k, lam)
        assert hazard_profile_two(
            np.array([1]), LinkProbabilities(1.0, 0.0), 0.4, 0.9)[0] == pytest.approx(
            0.4, abs=1e-15)
        assert hazard_profile_two(
            np.array([2]), LinkProbabilities(0.0, 1.0), 0.9, 0.5)[0] == pytest.approx(
            0.75, abs=1e-15)

    def test_slack_above_one_stays_a_probability(self):
        # p1 + p2 inside the 1e-12 slack with lam = 1 would put the base of
        # the power below zero without the clip
        probs = LinkProbabilities(0.7, 0.3 + 5e-13)
        h = hazard_profile_two(np.arange(0, 251), probs, 1.0, 1.0)
        assert h[0] == 0.0
        assert np.all(h[1:] == 1.0)


class TestKernelProperties:
    @PROPERTY
    @given(k=st.integers(0, 250), p=UNIT, lam=UNIT)
    @example(k=250, p=1.0, lam=1.0)
    def test_single_group(self, k, p, lam):
        h = hazard_profile(np.arange(k + 1), p, lam)
        assert np.all((h >= 0.0) & (h <= 1.0))
        assert np.all(np.diff(h) >= -1e-15)
        assert h[k] == pytest.approx(brute_hazard(k, p, lam), abs=1e-10)

    @PROPERTY
    @given(k=st.integers(0, 250), p1=UNIT, share=UNIT,
           excess=st.sampled_from([None, 0.0, 9e-13]), lam1=UNIT, lam2=UNIT)
    @example(k=250, p1=0.6, share=0.0, excess=9e-13, lam1=1.0, lam2=1.0)
    @example(k=120, p1=0.25, share=0.0, excess=9e-13, lam1=1.0, lam2=0.3)
    def test_two_groups(self, k, p1, share, excess, lam1, lam2):
        # excess=None spreads the remaining probability by share; otherwise
        # p1 + p2 sits at 1 + excess, up to the 1e-12 slack
        p2 = share * (1.0 - p1) if excess is None else 1.0 - p1 + excess
        probs = LinkProbabilities(p1, p2)
        h = hazard_profile_two(np.arange(k + 1), probs, lam1, lam2)
        assert np.all((h >= 0.0) & (h <= 1.0))
        assert np.all(np.diff(h) >= -1e-15)
        assert h[k] == pytest.approx(brute_hazard_two(k, p1, p2, lam1, lam2), abs=1e-10)


class TestLinkProbabilities:
    def test_rejects_invalid(self):
        with pytest.raises(DomainError):
            LinkProbabilities(-0.1, 0.0)
        with pytest.raises(DomainError):
            LinkProbabilities(0.7, 0.4)

    def test_accumulation_slack(self):
        LinkProbabilities(0.7, 0.3 + 5e-13)  # within the 1e-12 slack
