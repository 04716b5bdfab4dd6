"""The agent-based simulator's random stream, pinned, and the law of its
stub pairings.

``tests/data/abm_stream_golden.json`` holds the per-degree state counts and
per-step incidence counts of small ``simulate_epidemic`` runs.  Every output
bit depends on how many numbers the set-up and each step draw and in which
order (the class sizes and seeds, the pairing's draws, how many pairs
transmit, the order of their susceptible ends, the binomials per class), so
any change to the hot path that keeps the stream must reproduce these runs
exactly.  The treated cases run ``treatable``, a hand-built two-type model;
their counts are stored in the one-type layout, s | infected | removed per
class, with the two infected rows summed.

The simulator is a chain on the counts per degree class.  Every step, the
first one included, starts with a pairing of the configuration multigraph
(every stub pair kept, parallel ones included) that draws how many
susceptible-infected pairs transmit, each on its own at its infector's
transmissibility, and then only the susceptible ends of those pairs, as
indices into the susceptible stubs listed class by class, the ones that
transmit from a treated stub first (``_cross_stubs``); ``_stub_owners``
maps each end to its class and to a virtual node of that class.  That is a
stream of its own, so it is checked by its law rather than against another
stream: exactly, per class, against every perfect matching of small stub
sets thinned binomially, and in mean and SD against the shuffle of every
stub of per-node arrays with one infection number per pair, kept here as
the oracle.  That shuffle, with self-loops dropped and parallel edges
collapsed, is still the erased static graph of the public
``generate_network``, which no simulation step uses, and is checked
against a ``np.unique`` form of it draw for draw.

Regenerate the golden file only when the stream is meant to change:

    PYTHONPATH=src python tests/test_abm_stream.py
"""

import json
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from netepi.abm import (
    _cross_stubs,
    _new_infections,
    _shuffled_stub_pairs,
    _stub_owners,
    _unique_edges,
    generate_network,
    replica_rng,
    simulate_epidemic,
)
from netepi.degree import sample_degrees, truncated_power_law
from netepi.ode import (
    CompartmentModel,
    EpidemicParams,
    TreatmentSchedule,
    _Population,
    build_model,
)

GOLDEN = Path(__file__).parent / "data" / "abm_stream_golden.json"
N = 3000
STEPS = 60
DIST = truncated_power_law(2.2, 1, 40)
SCHEDULE = TreatmentSchedule(epochs=(10.0, 30.0), coverages=(0.5, 0.9), initial_coverage=0.1)
# name -> (replica_rng index, d, schedule); each case keeps the index it
# was pinned with
CASES = {
    "full_d0": (0, 0.0, SCHEDULE),
    "full_d0.05": (1, 0.05, SCHEDULE),
    "full_d0_untreated": (4, 0.0, None),
}


def treatable(params, dist):
    """The stratified model plus a treated type: untreated infectors
    transmit at lam, treated ones at treatment_efficacy * lam, and both
    are removed at mu.  It has hiv_msm's layout, but its infected leave at
    mu rather than exiting at d."""
    pop = _Population(dist, 2, None, params.mu, params.rho0)
    return CompartmentModel([pop], (0,), [(params.lam, params.treatment_efficacy * params.lam)],
                            (1.0, 0.0), (1.0, 0.0), d=params.d, treatable=True)


def run_case(name):
    index, d, schedule = CASES[name]
    params = EpidemicParams(lam=0.1, mu=0.05, rho0=0.02, d=d, treatment_efficacy=0.3)
    model = build_model("stratified", params, DIST) if schedule is None else treatable(params, DIST)
    return simulate_epidemic(model, N, STEPS, rng=replica_rng(20250810, index),
                             schedule=schedule)


def counts(values, n=N):
    """Fractions of n back to the integer counts they were made from."""
    out = np.rint(np.asarray(values) * n).astype(np.int64)
    assert np.array_equal(out / n, values)
    return out


def state_counts(traj, n=N):
    """Per row of a run on n nodes the counts s | infected | removed per
    class, the infected summed over types."""
    s, infected, removed = (counts(part, n) for part in traj.model.blocks(traj.Y)[0])
    return np.concatenate([s, infected.sum(axis=(1, 2)), removed], axis=1)


@pytest.mark.parametrize("name", list(CASES))
def test_stream_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert (golden["n"], golden["steps"]) == (N, STEPS)
    expected = golden["cases"][name]
    # a pinned run that never spreads would pin little of the stream
    assert sum(expected["incidence_counts"]) > N // 10
    traj = run_case(name)
    assert np.array_equal(traj.times, np.arange(STEPS + 1, dtype=float))
    assert np.array_equal(state_counts(traj), expected["Y_counts"])
    assert np.array_equal(counts(traj.incidence), expected["incidence_counts"])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d, link_mode", [(0.0, "active"), (0.05, "active"), (0.0, "fixed")])
def test_empty_second_type_draws_nothing(d, link_mode, seed):
    # a one-type model draws as a two-type one never seeding or routing into
    # its second type, whatever that type's transmissibility: the draws for
    # an empty row (binomials of 0 nodes or at p = 0) take no random number
    params = dict(lam=0.1, mu=0.05, rho0=0.02, d=d, link_mode=link_mode)
    one = build_model("stratified", EpidemicParams(**params), DIST)
    two = build_model("two_type", EpidemicParams(**params, lam2=0.3, rho0_type2=0.0, split=1.0),
                      DIST)
    a, b = (simulate_epidemic(model, N, STEPS, rng=replica_rng(7, seed)) for model in (one, two))
    assert np.array_equal(state_counts(a), state_counts(b))
    assert np.array_equal(counts(a.incidence), counts(b.incidence))
    assert sum(counts(a.incidence)) > N // 10
    assert not two.blocks(b.Y)[0][1][:, 1].any()


def span_of(node_ids):
    return int(node_ids.max()) + 1 if node_ids.size else 1


def unique_oracle(node_ids, degrees, rng):
    """Stub pairing deduplicated through np.unique (the reference form)."""
    stubs = np.repeat(node_ids, degrees)
    rng.shuffle(stubs)
    if stubs.size % 2:
        stubs = stubs[:-1]
    u, v = stubs[0::2], stubs[1::2]
    keep = u != v
    u, v = u[keep], v[keep]
    lo = np.minimum(u, v).astype(np.int64)
    hi = np.maximum(u, v).astype(np.int64)
    span = span_of(node_ids)
    key = np.unique(lo * span + hi)
    return key // span, key % span


def full_pairing(node_ids, degrees, rng):
    """generate_network's pairing: every pair but self-loops."""
    u, v = _shuffled_stub_pairs(node_ids, degrees, rng)
    keep = u != v
    return _unique_edges(u[keep], v[keep], span_of(node_ids))


def assert_same_edges(pairing, oracle, seed):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    u, v = pairing(rng_a)
    ou, ov = oracle(rng_b)
    assert u.dtype == ou.dtype and v.dtype == ov.dtype
    assert np.array_equal(u, ou) and np.array_equal(v, ov)
    # same number of draws consumed
    assert rng_a.random() == rng_b.random()
    return u, v


def assert_same_as_oracle(node_ids, degrees, seed):
    return assert_same_edges(lambda rng: full_pairing(node_ids, degrees, rng),
                             lambda rng: unique_oracle(node_ids, degrees, rng), seed)


def random_nodes(rng):
    n = int(rng.integers(2, 400))
    node_ids = np.sort(rng.choice(4 * n, size=n, replace=False)).astype(np.int64)
    return node_ids, rng.integers(0, 12, size=n)


class TestPairStubs:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_inputs_match_unique_oracle(self, seed):
        node_ids, degrees = random_nodes(np.random.default_rng(1000 + seed))
        u, v = assert_same_as_oracle(node_ids, degrees, seed)
        assert np.all(u < v)
        assert np.all(np.diff(u * (node_ids.max() + 1) + v) > 0)

    def test_dense_multi_edges_match_unique_oracle(self):
        # few nodes, many stubs: most pairs are repeats
        assert_same_as_oracle(np.arange(5, dtype=np.int64), np.full(5, 40), 7)

    def test_odd_stub_count(self):
        degrees = np.array([3, 2, 2, 1, 1])
        assert degrees.sum() % 2
        assert_same_as_oracle(np.arange(5, dtype=np.int64), degrees, 3)

    def test_all_self_loops(self):
        u, v = assert_same_as_oracle(np.array([4], dtype=np.int64), np.array([6]), 5)
        assert u.size == 0 and v.size == 0

    def test_zero_stubs(self):
        u, v = assert_same_as_oracle(np.arange(4, dtype=np.int64), np.zeros(4, dtype=np.int64), 1)
        assert u.size == 0
        u, v = assert_same_as_oracle(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 2)
        assert u.size == 0

    def test_generate_network_matches_unique_oracle(self):
        dist = truncated_power_law(2.2, 1, 40)
        net = generate_network(dist, 2000, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        degrees = sample_degrees(dist, 2000, rng)
        ou, ov = unique_oracle(np.arange(2000, dtype=np.int64), degrees, rng)
        assert np.array_equal(net.degrees, degrees)
        assert np.array_equal(net.edges_u, ou) and np.array_equal(net.edges_v, ov)


# the transmissibilities of the law tests: an untreated and a treated infector's
LAM, LAM2 = Fraction(1, 2), Fraction(1, 4)


def shuffle_oracle(degrees, infected, treated, removed, rng):
    """The re-pairing the sampler replaced: shuffle every stub, the removed
    nodes' inert ones too, keep the pairs of a susceptible and an infected
    end, and draw one infection number per pair; the susceptible ends of the
    pairs that transmit and the treated flags of their infected ends."""
    u, v = _shuffled_stub_pairs(np.arange(degrees.size, dtype=np.int64), degrees, rng)
    susceptible = ~(infected | removed)
    mixed = (infected[u] & susceptible[v]) | (susceptible[u] & infected[v])
    u, v = u[mixed], v[mixed]
    ends, infectors = np.where(infected[u], v, u), np.where(infected[u], u, v)
    transmits = rng.random(ends.size) < np.where(treated[infectors], float(LAM2), float(LAM))
    return ends[transmits], treated[infectors[transmits]]


def class_sampler(degrees, infected, treated, removed, rng, lam=LAM, lam2=LAM2):
    """The chain's draw on the class counts of these nodes: the degree class
    and virtual node of each transmitting pair's susceptible end, and how
    many of the first of them transmit from a treated stub."""
    k = np.arange(1, max(int(degrees.max(initial=0)), 1) + 1)
    susceptible = ~(infected | removed)
    s = np.bincount(degrees[susceptible], minlength=k.size + 1)[1:]
    ends, second = _cross_stubs(int(degrees[susceptible].sum()), int(degrees[infected].sum()),
                                int(degrees[treated].sum()), float(lam), float(lam2), rng,
                                inert=int(degrees[removed].sum()))
    cls, nodes = _stub_owners(k, s, ends)
    return k[cls], nodes, second


def perfect_matchings(stubs):
    if not stubs:
        yield []
        return
    first, rest = stubs[0], stubs[1:]
    for i, partner in enumerate(rest):
        for matching in perfect_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, partner)] + matching


def cross_multiset(classes, from_treated):
    """The transmitting pairs as a sorted multiset of (degree class of the
    susceptible end, whether its partner is treated): the per-class hit
    counts."""
    return tuple(sorted((int(c), bool(t)) for c, t in zip(classes, from_treated)))


def exact_cross_law(degrees, infected, treated, removed):
    """Probability of each multiset of (susceptible end's degree class,
    partner treated) over the transmitting susceptible-infected pairs, by
    listing every perfect matching (of every stub set left after an odd
    drop) and thinning its cross pairs binomially at LAM and LAM2 per kind."""
    stubs = [node for node, d in enumerate(degrees) for _ in range(d)]
    drops = range(len(stubs)) if len(stubs) % 2 else [None]
    susceptible = [not (i or r) for i, r in zip(infected, removed)]
    law = Counter()
    for drop in drops:
        kept = [s for i, s in enumerate(stubs) if i != drop]
        matchings = list(perfect_matchings(kept))
        for matching in matchings:
            cross = Counter((degrees[b], treated[a]) if infected[a] else (degrees[a], treated[b])
                            for a, b in matching
                            if (infected[a] and susceptible[b]) or (susceptible[a] and infected[b]))
            kinds = sorted(cross)
            weight = Fraction(1, len(matchings) * len(drops))
            for hits in product(*(range(cross[kind] + 1) for kind in kinds)):
                p = weight
                for (c, t), hit in zip(kinds, hits):
                    lam = LAM2 if t else LAM
                    p *= comb(cross[(c, t)], hit) * lam ** hit * (1 - lam) ** (cross[(c, t)] - hit)
                law[tuple(sorted(kind for kind, hit in zip(kinds, hits)
                                 for _ in range(hit)))] += p
    return law


@st.composite
def small_states(draw):
    """Degrees, infected, treated and removed flags of a few nodes, with the
    edge cases forced often: all susceptible, all infected, one infected
    stub, and more infected stubs than susceptible ones."""
    n = draw(st.integers(1, 12))
    degrees = np.array(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["random", "all_s", "all_i", "one_i_stub", "i_larger"]))
    infected = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if kind == "all_s":
        infected[:] = False
    elif kind == "all_i":
        infected[:] = True
    elif kind == "one_i_stub":
        degrees[0], infected[:] = 1, False
        infected[0] = True
    elif kind == "i_larger" and degrees[infected].sum() < degrees[~infected].sum():
        infected = ~infected
    treated = infected & np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    removed = ~infected & np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return degrees, infected, treated, removed


class TestCrossStubs:
    """A re-pairing draws only the susceptible ends of the transmitting
    susceptible-infected pairs of one uniform pairing of the stubs (live
    ones, and under the fixed link denominator the removed nodes' inert
    ones), parallel pairs kept (an odd total first dropping one uniformly
    chosen stub), each pair transmitting on its own, and how many of them
    transmit from a treated stub, from the class counts alone: its law is
    checked per class against full enumeration on small stub sets and
    against shuffling every stub of per-node arrays on larger ones."""

    @pytest.mark.parametrize("degrees, infected, treated, removed", [
        ([2, 1, 3, 2], [1, 0, 0, 1], [1, 0, 0, 0], [0, 0, 0, 0]),
        ([2, 1, 3, 1], [1, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]),
        ([1, 1, 1, 1, 1, 1, 1, 1], [1, 0, 0, 0, 0, 0, 1, 0], [1, 0, 0, 0, 0, 0, 0, 0],
         [0] * 8),
        ([1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0, 0], [0] * 7),
        ([3, 2, 2, 1], [0, 1, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]),
        ([4, 3], [1, 0], [1, 0], [0, 0]),
        ([2, 2, 2, 1, 1], [1, 0, 1, 0, 1], [0, 0, 1, 0, 1], [0] * 5),
        ([2, 1, 3, 2], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]),
        ([1, 2, 1, 2, 1], [1, 0, 1, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]),
    ], ids=["even_8", "odd_7", "two_infected_of_8", "infected_larger_odd", "multi_edges",
            "two_nodes_odd", "odd_5_nodes", "inert_even", "inert_odd"])
    def test_exact_law_on_small_stub_sets(self, degrees, infected, treated, removed):
        degrees = np.array(degrees)
        infected, treated, removed = (np.array(flags, dtype=bool)
                                      for flags in (infected, treated, removed))
        law = exact_cross_law(degrees.tolist(), infected.tolist(), treated.tolist(),
                              removed.tolist())
        assert sum(law.values()) == 1
        draws = 20000
        rng = np.random.default_rng(sum(degrees) * 100 + len(degrees))
        seen = Counter()
        for _ in range(draws):
            classes, _, second = class_sampler(degrees, infected, treated, removed, rng)
            seen[cross_multiset(classes, np.arange(classes.size) < second)] += 1
        assert set(seen) <= set(law)
        outcomes = sorted(law)
        expected = np.array([float(law[o]) * draws for o in outcomes])
        observed = np.array([seen[o] for o in outcomes])
        assert expected.min() >= 5
        chi2 = ((observed - expected) ** 2 / expected).sum()
        assert stats.chi2.sf(chi2, len(outcomes) - 1) > 1e-3

    @pytest.mark.parametrize("share, odd, nodes, max_degree, removed_share", [
        (0.05, False, 300, 12, 0.0), (0.3, True, 300, 12, 0.0), (0.5, False, 300, 12, 0.0),
        (0.8, True, 300, 12, 0.0), (0.4, True, 5, 80, 0.0), (0.0, True, 300, 12, 0.0),
        (1.0, False, 300, 12, 0.0), (0.3, True, 300, 12, 0.4),
    ], ids=["share_0.05", "share_0.3_odd", "share_0.5", "share_0.8_odd", "dense_multi_edges_odd",
            "all_s_odd", "all_i", "share_0.3_inert_odd"])
    def test_law_matches_shuffle_oracle(self, share, odd, nodes, max_degree, removed_share):
        # mean and SD of the transmitting pair count, of the distinct
        # susceptible nodes hit and of the pairs transmitting from a treated
        # stub over 2000 draws each
        rng = np.random.default_rng(int(share * 100) + nodes)
        degrees = rng.integers(0, max_degree + 1, size=nodes)
        if degrees.sum() % 2 != odd:
            degrees[0] += 1
        infected = rng.random(nodes) < share
        if 0 < share < 1:
            infected[:2] = True, False
        treated = infected & (rng.random(nodes) < 0.5)
        if 0 < share < 1:
            treated[0] = True
        removed = ~infected & (rng.random(nodes) < removed_share)
        removed[1] = False
        stats_of = {}
        for name in ("sampler", "oracle"):
            draw_rng = np.random.default_rng(7)
            rows = []
            for _ in range(2000):
                if name == "oracle":
                    nodes_hit, from_treated = shuffle_oracle(degrees, infected, treated, removed,
                                                             draw_rng)
                    assert not (infected | removed)[nodes_hit].any()
                    second = np.count_nonzero(from_treated)
                else:
                    _, nodes_hit, second = class_sampler(degrees, infected, treated, removed,
                                                         draw_rng)
                rows.append((nodes_hit.size, np.unique(nodes_hit).size, second))
            stats_of[name] = np.array(rows, dtype=float)
        sampler, oracle = stats_of["sampler"], stats_of["oracle"]
        if share in (0.0, 1.0):
            assert not sampler.any() and not oracle.any()
            return
        se = np.sqrt((sampler.var(axis=0, ddof=1) + oracle.var(axis=0, ddof=1)) / 2000)
        assert np.all(np.abs(sampler.mean(axis=0) - oracle.mean(axis=0)) <= 4.5 * se)
        # the SD ratio of two 2000-draw samples has a standard error of
        # about 1/sqrt(2000) = 0.022 for near-normal counts; a count that
        # never varies in the oracle must not vary in the sampler either
        sd, oracle_sd = sampler.std(axis=0, ddof=1), oracle.std(axis=0, ddof=1)
        assert np.all(np.abs(sd - oracle_sd) <= 0.12 * oracle_sd)

    @given(state=small_states(), rates=st.sampled_from([(1.0, 1.0), (0.0, 0.0), (0.5, 1.0),
                                                        (1.0, 0.0)]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=300, deadline=None)
    def test_pairs_of_small_states(self, state, rates, seed):
        degrees, infected, treated, removed = state
        classes, nodes, second = class_sampler(degrees, infected, treated, removed,
                                               np.random.default_rng(seed), *rates)
        # every end is a susceptible node of its class, and no virtual node
        # is in more pairs than its degree
        s = np.bincount(degrees[~(infected | removed)], minlength=7)[1:]
        assert np.all(nodes < s.sum())
        assert np.all(classes == 1 + np.searchsorted(np.cumsum(s), nodes, side="right"))
        assert np.all(np.bincount(nodes, minlength=s.sum())[nodes] <= classes)
        # no more pairs transmit from treated (untreated) stubs than there
        # are, and none at a transmissibility of 0
        treated_stubs = int(degrees[treated].sum())
        assert 0 <= second <= treated_stubs
        assert nodes.size - second <= int(degrees[infected].sum()) - treated_stubs
        assert rates[1] > 0 or second == 0
        assert rates[0] > 0 or nodes.size == second
        # with every pair transmitting and no inert stub, the count has the
        # parity of the smaller side after the odd drop, whose side the
        # first draw picks
        side_stubs = [int(s @ np.arange(1, 7)), int(degrees[infected].sum())]
        total = sum(side_stubs)
        if rates == (1.0, 1.0) and not degrees[removed].any():
            if side_stubs[0] and side_stubs[1] and total % 2:
                side_stubs[int(np.random.default_rng(seed).integers(total) >= side_stubs[0])] -= 1
            assert nodes.size % 2 == min(side_stubs) % 2
        assert nodes.size <= min(side_stubs)


@st.composite
def owned_ends(draw):
    """Class sizes on a degree grid and distinct susceptible stub indices in
    any order; often every stub of one virtual node is among them."""
    nk = draw(st.integers(1, 5))
    k = np.arange(draw(st.integers(1, 4)), 100)[:nk]
    s = np.array(draw(st.lists(st.integers(0, 4), min_size=nk, max_size=nk)))
    total = int(k @ s)
    ends = set(draw(st.lists(st.integers(0, max(total - 1, 0)), max_size=total)))
    if total and draw(st.booleans()):
        # every stub of one node: a class with nodes, one of them
        c = draw(st.sampled_from(np.flatnonzero(s).tolist()))
        first = int(k[:c] @ s[:c]) + draw(st.integers(0, int(s[c]) - 1)) * int(k[c])
        ends |= set(range(first, first + int(k[c])))
    ends = np.array(draw(st.permutations(sorted(ends))), dtype=np.int64)
    return k, s, ends


class TestNewInfections:
    @given(case=owned_ends(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=300, deadline=None)
    def test_counts_distinct_owners(self, case, seed):
        # a step counts each susceptible node hit through any of its stubs
        # once, in its class, however the ends are ordered
        k, s, ends = case
        new = _new_infections(k, s, ends)
        cls, nodes = _stub_owners(k, s, ends)
        _, first = np.unique(nodes, return_index=True)
        assert np.array_equal(new, np.bincount(cls[first], minlength=k.size))
        assert np.all(new <= s)
        shuffled = np.random.default_rng(seed).permutation(ends)
        assert np.array_equal(_new_infections(k, s, shuffled), new)
        assert np.array_equal(_new_infections(k, s, np.sort(ends)), new)

    def test_every_stub_of_one_node_infects_it_once(self):
        k, s = np.array([1, 2, 3]), np.array([2, 0, 3])
        # the second class-3 node holds stubs 5, 6 and 7
        new = _new_infections(k, s, np.array([7, 5, 6]))
        assert new.tolist() == [0, 0, 1]
        assert _new_infections(k, s, np.zeros(0, dtype=np.int64)).tolist() == [0, 0, 0]


if __name__ == "__main__":
    cases = {}
    for case_name in CASES:
        traj = run_case(case_name)
        cases[case_name] = {
            "Y_counts": state_counts(traj).tolist(),
            "incidence_counts": counts(traj.incidence).tolist(),
        }
    GOLDEN.write_text(json.dumps({"n": N, "steps": STEPS, "cases": cases},
                                 separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}")
