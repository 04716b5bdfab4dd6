"""The agent-based simulator's random stream, pinned.

``tests/data/abm_stream_golden.json`` holds the per-degree state counts and
per-step incidence counts of small ``simulate_epidemic`` runs.  Every output
bit depends on how many numbers each step draws and in which order (edge
list order, new-infection order), so any change to the hot path that keeps
the stream must reproduce these runs exactly.

Regenerate the file only when the stream is meant to change:

    PYTHONPATH=src python tests/test_abm_stream.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from netepi.abm import (
    _shuffled_stub_pairs,
    _unique_edges,
    generate_network,
    replica_rng,
    simulate_epidemic,
)
from netepi.degree import sample_degrees, truncated_power_law
from netepi.ode import EpidemicParams, TreatmentSchedule

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


def run_case(name):
    index, d, schedule = CASES[name]
    params = EpidemicParams(lam=0.1, mu=0.05, rho0=0.02, d=d, treatment_efficacy=0.3)
    return simulate_epidemic(DIST, N, params, STEPS, rng=replica_rng(20250810, index),
                             schedule=schedule)


def counts(values):
    """Fractions of N back to the integer counts they were made from."""
    out = np.rint(np.asarray(values) * N).astype(np.int64)
    assert np.array_equal(out / N, values)
    return out


@pytest.mark.parametrize("name", list(CASES))
def test_stream_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert (golden["n"], golden["steps"]) == (N, STEPS)
    expected = golden["cases"][name]
    # a pinned run that never spreads would pin little of the stream
    assert sum(expected["incidence_counts"]) > N // 10
    traj = run_case(name)
    assert np.array_equal(traj.times, np.arange(STEPS + 1, dtype=float))
    assert np.array_equal(traj.Y, np.asarray(expected["Y_counts"]) / N)
    assert np.array_equal(traj.incidence, np.asarray(expected["incidence_counts"]) / N)


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


def mixed_pairing(node_ids, degrees, infected, rng):
    """Full rewiring's pairing: only pairs with one infected end."""
    u, v = _shuffled_stub_pairs(node_ids, degrees, rng)
    mixed = infected[u] != infected[v]
    return _unique_edges(u[mixed], v[mixed], span_of(node_ids))


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


def assert_mixed_same_as_filtered_oracle(node_ids, degrees, infected, seed):
    def filtered_oracle(rng):
        u, v = unique_oracle(node_ids, degrees, rng)
        mixed = infected[u] != infected[v]
        return u[mixed], v[mixed]

    u, v = assert_same_edges(lambda rng: mixed_pairing(node_ids, degrees, infected, rng),
                             filtered_oracle, seed)
    assert np.all(infected[u] != infected[v])
    return u, v


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


class TestMixedPairing:
    """Full rewiring keeps only the pairs with one infected end; that must be
    the full pairing filtered afterwards, drawn from the same stream."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_masks(self, seed):
        rng = np.random.default_rng(2000 + seed)
        node_ids, degrees = random_nodes(rng)
        infected = rng.random(node_ids.max() + 1) < rng.uniform(0.05, 0.95)
        u, v = assert_mixed_same_as_filtered_oracle(node_ids, degrees, infected, seed)
        assert np.all(u < v)
        assert np.all(np.diff(u * (node_ids.max() + 1) + v) > 0)

    @pytest.mark.parametrize("everyone", [True, False])
    def test_uniform_status_pairs_nothing(self, everyone):
        node_ids, degrees = np.arange(50, dtype=np.int64), np.full(50, 4)
        infected = np.full(50, everyone)
        u, v = assert_mixed_same_as_filtered_oracle(node_ids, degrees, infected, 4)
        assert u.size == 0 and v.size == 0

    def test_dense_multi_edges(self):
        infected = np.array([True, False, True, False, False])
        assert_mixed_same_as_filtered_oracle(np.arange(5, dtype=np.int64), np.full(5, 40),
                                             infected, 8)

    def test_zero_stubs(self):
        infected = np.array([True, False, True, False])
        u, v = assert_mixed_same_as_filtered_oracle(
            np.arange(4, dtype=np.int64), np.zeros(4, dtype=np.int64), infected, 1)
        assert u.size == 0
        u, v = assert_mixed_same_as_filtered_oracle(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.zeros(0, bool), 2)
        assert u.size == 0

    def test_odd_stub_count(self):
        degrees = np.array([3, 2, 2, 1, 1])
        assert degrees.sum() % 2
        infected = np.array([True, False, False, True, False])
        for seed in range(6):
            assert_mixed_same_as_filtered_oracle(np.arange(5, dtype=np.int64), degrees,
                                                 infected, seed)


if __name__ == "__main__":
    cases = {}
    for case_name in CASES:
        traj = run_case(case_name)
        cases[case_name] = {
            "Y_counts": counts(traj.Y).tolist(),
            "incidence_counts": counts(traj.incidence).tolist(),
        }
    GOLDEN.write_text(json.dumps({"n": N, "steps": STEPS, "cases": cases},
                                 separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}")
