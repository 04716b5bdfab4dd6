"""Agent-based Monte-Carlo simulation on configuration-model random graphs.

This is the stochastic oracle the ODE models are validated against.  A run
samples every node's target degree and seeds the infected.  Each step then
mirrors the discrete-time process the euler dt=1 integration of the
stratified model approximates, all against the start-of-step state:

  1. the live nodes' stubs are paired afresh (target degrees persist), so
     the network is fully re-paired every step, the first one included,
     as the ODE's annealed links are,
  2. every susceptible is infected through each stub pair joining it to an
     infected node independently with probability lambda,
  3. every node infected at the start of the step is removed with
     probability mu and leaves the network,
  4. optional demographic replenishment adds susceptibles back toward their
     initial per-degree counts at rate d.

The pairing is the configuration multigraph: every stub pair is one
transmission chance, parallel pairs included, the process whose one-step
law the ODE's binomial link count describes (Britton, Deijfen & Martin-Lof,
J. Stat. Phys. 124, 2006).  A step draws only what can transmit, in this
order: the side of an odd stub total's dropped stub, two hypergeometric
draws for the number of susceptible-infected pairs, a third for how many
of them face a treated stub, then their susceptible ends in uniform order
(a shuffled prefix of the susceptible stubs when that side is the smaller,
a uniform ordered subset of them otherwise; the infected ends are never
listed).  Then come one infection number per pair, one removal number per
start-of-step infected node, one treated-status number per new infection in
node order and the replenishment binomials; an epoch switch first re-draws
the standing infected's treated status.  ``tests/data/abm_stream_golden.json``
pins the stream.

Removed nodes leave the arrays, which stay in ascending id order, and are
tallied per degree.  The pairing's draws depend only on the stub counts and
on the susceptible stubs in node order, so the stream is the one over the
full id range with removed nodes holding no stubs.

``generate_network`` is still the erased static generator (one shuffle of
every stub, self-loops dropped, parallel edges collapsed); no step uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .degree import DegreeDistribution, sample_degrees
from .errors import DomainError, is_integer
from .ode import EpidemicParams, Trajectory, TreatmentSchedule, build_model

# compartment codes of the live nodes; removed nodes leave the arrays
SUSCEPTIBLE = 0
INFECTED = 1
INFECTED_TREATED = 2


@dataclass
class NetworkRealization:
    """One realization of the contact network.

    ``edges_u``/``edges_v`` hold the current undirected edge list in
    canonical (u < v) order; ``degrees`` the per-node target degrees drawn
    from the distribution (realized degrees can only be lower, through
    stub discard).
    """

    n: int
    degrees: np.ndarray
    edges_u: np.ndarray
    edges_v: np.ndarray

    def realized_degrees(self) -> np.ndarray:
        counts = np.bincount(self.edges_u, minlength=self.n)
        counts += np.bincount(self.edges_v, minlength=self.n)
        return counts


def _shuffled_stub_pairs(node_ids: np.ndarray, degrees: np.ndarray,
                         rng) -> tuple[np.ndarray, np.ndarray]:
    """The two ends of each stub pair of one uniform pairing, in shuffle order.

    An odd stub count loses one stub (the shuffle makes it a uniformly
    random one).  The draws depend only on the stub count.
    """
    stubs = np.repeat(node_ids, degrees)
    rng.shuffle(stubs)
    end = stubs.size - stubs.size % 2
    return stubs[0:end:2], stubs[1:end:2]


def _unique_edges(u: np.ndarray, v: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs as a (lo, hi) edge list sorted by key, multi-edges collapsed.

    Node ids must lie in [0, span).
    """
    key = np.sort(np.minimum(u, v) * span + np.maximum(u, v))
    if key.size:
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    return np.divmod(key, span)


def _cross_stubs(degrees: np.ndarray, infected: np.ndarray, treated: np.ndarray,
                 rng) -> tuple[np.ndarray, int]:
    """The susceptible ends of the susceptible-infected pairs of one uniform
    pairing of all stubs, in uniform order, and how many of the first of them
    face a treated stub.

    Node ``i`` holds ``degrees[i]`` stubs, on the infected side where
    ``infected[i]``, treated where ``treated[i]``; an odd total first loses
    one uniformly chosen stub.  The draws depend only on the stub counts and
    on the susceptible stubs listed in node order.
    """
    susceptible = np.flatnonzero(~infected)
    s_degrees = degrees[susceptible]
    counts = [int(s_degrees.sum()), int(degrees[infected].sum())]
    if not (counts[0] and counts[1]):
        return np.zeros(0, dtype=np.int64), 0
    total, paired = counts[0] + counts[1], list(counts)
    if total % 2:
        # only the side of the stub left out matters
        paired[int(rng.integers(total) >= counts[0])] -= 1
    small = int(paired[1] < paired[0])
    a, half = paired[small], total // 2
    # a uniform pairing is a uniform stub order paired position by position:
    # x of the smaller side's a stubs come first in their pair, and the j
    # pairs holding two of them are where their seconds meet those firsts
    x = rng.hypergeometric(half, half, a)
    j = rng.hypergeometric(x, half - x, a - x)
    cross = a - 2 * j
    # given j, the cross stubs are a uniform subset of each side's stubs
    # (the left-out one among them) in a uniform bijection
    treated_stubs = int(degrees[treated].sum())
    facing = int(rng.hypergeometric(treated_stubs, counts[1] - treated_stubs, cross))
    if small:
        # the subset is drawn before the stubs are listed, so choice's
        # scratch index array is freed before the stub list is allocated
        picks = rng.choice(counts[0], cross, replace=False)
        return np.repeat(susceptible, s_degrees)[picks], facing
    stubs = np.repeat(susceptible, s_degrees)
    rng.shuffle(stubs)
    return stubs[:cross], facing


def _check_n(n):
    if not (is_integer(n) and n >= 2):
        raise DomainError(f"n must be an integer >= 2, got {n!r}")


def _generator(rng) -> np.random.Generator:
    """``rng`` as a Generator: None (fresh entropy), an integer seed >= 0 or
    a Generator, which is used as is."""
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None or (is_integer(rng) and rng >= 0):
        return np.random.default_rng(rng)
    raise DomainError(f"rng must be None, an integer seed >= 0 or a numpy Generator, got {rng!r}")


def generate_network(dist: DegreeDistribution, n: int,
                     rng: np.random.Generator | int | None) -> NetworkRealization:
    """Configuration-model graph with degrees drawn from ``dist``."""
    _check_n(n)
    rng = _generator(rng)
    degrees = sample_degrees(dist, n, rng)
    u, v = _shuffled_stub_pairs(np.arange(n, dtype=np.int64), degrees, rng)
    keep = u != v
    edges_u, edges_v = _unique_edges(u[keep], v[keep], n)
    return NetworkRealization(n=n, degrees=degrees, edges_u=edges_u, edges_v=edges_v)


def _coverage_at(schedule: TreatmentSchedule | None, t: float) -> float:
    if schedule is None:
        return 0.0
    coverage = schedule.initial_coverage
    for epoch, c in zip(schedule.epochs, schedule.coverages):
        if t >= epoch:
            coverage = c
    return coverage


def simulate_epidemic(
    dist: DegreeDistribution,
    n: int,
    params: EpidemicParams,
    steps: int,
    rng: np.random.Generator | int | None = None,
    schedule: TreatmentSchedule | None = None,
    t0: float = 0.0,
) -> Trajectory:
    """Run one stochastic epidemic for ``steps`` time steps from time ``t0``.

    Fractions are reported relative to the initial population, so the output
    aligns point for point with an euler dt=1 integration of the matching
    ODE model over [t0, t0 + steps]; treatment epochs are times on that
    axis.  Every step, the first one included, starts by pairing all live
    nodes, the ones demography added in the step before among them.
    """
    _check_n(n)
    if not (is_integer(steps) and steps >= 1):
        raise DomainError(f"steps must be an integer >= 1, got {steps!r}")
    if not (isinstance(t0, Real) and not isinstance(t0, bool) and math.isfinite(t0)):
        raise DomainError(f"t0 must be a finite real number, got {t0!r}")
    rng = _generator(rng)

    try:
        degrees = sample_degrees(dist, n, rng)
        state = np.full(n, SUSCEPTIBLE, dtype=np.int8)
    except (MemoryError, ValueError):
        raise DomainError(f"n={n} is too many nodes to allocate") from None
    eff = params.treatment_efficacy

    n_seed = int(round(params.rho0 * n))
    seed_nodes = rng.choice(n, size=n_seed, replace=False)
    coverage = _coverage_at(schedule, t0)
    treated = rng.random(n_seed) < coverage
    state[seed_nodes] = np.where(treated, INFECTED_TREATED, INFECTED)

    k_grid = dist.degrees
    nk = len(k_grid)
    # removed nodes leave the node arrays in (3), tallied here per degree
    removed_count = np.zeros(nk, dtype=np.int64)

    try:
        s_k, rho_k, removed_k = np.zeros((3, steps + 1, nk))
        incidence = np.zeros(steps + 1)
    except (MemoryError, ValueError):
        raise DomainError(f"steps={steps} is too many to record") from None

    def tally(row):
        # one bincount over the live (compartment code, degree) cells;
        # returns the per-degree susceptible counts
        counts = np.bincount(state.astype(np.intp) * nk + (degrees - dist.k_min),
                             minlength=3 * nk).reshape(3, nk)
        s_k[row] = counts[SUSCEPTIBLE] / n
        rho_k[row] = (counts[INFECTED] + counts[INFECTED_TREATED]) / n
        removed_k[row] = removed_count / n
        return counts[SUSCEPTIBLE]

    initial_susceptible = susceptible = tally(0)

    for step in range(1, steps + 1):
        prev_coverage = coverage
        coverage = _coverage_at(schedule, t0 + step - 1)
        if schedule is not None and coverage != prev_coverage:
            # epoch switch: re-draw treated status of the standing infected
            infected_idx = np.flatnonzero(state != SUSCEPTIBLE)
            treated = rng.random(infected_idx.size) < coverage
            state[infected_idx] = np.where(treated, INFECTED_TREATED, INFECTED)

        is_inf = state != SUSCEPTIBLE
        start_infected = np.flatnonzero(is_inf)

        # (1) pair the live nodes, drawing only the susceptible end of each
        # susceptible-infected pair: no other pair can transmit
        ends, facing = _cross_stubs(degrees, is_inf, state == INFECTED_TREATED, rng)

        # (2) infections, one draw per pair, the first ``facing`` from a
        # treated infector; a node hit through several pairs is infected once
        draws = rng.random(ends.size)
        hit = np.zeros(state.size, dtype=bool)
        hit[ends[:facing][draws[:facing] < eff * params.lam]] = True
        hit[ends[facing:][draws[facing:] < params.lam]] = True
        new_infected = np.flatnonzero(hit)

        # (3) removal of start-of-step infected
        removed_now = start_infected[rng.random(start_infected.size) < params.mu]

        if new_infected.size:
            treated = rng.random(new_infected.size) < coverage
            state[new_infected] = np.where(treated, INFECTED_TREATED, INFECTED)
        incidence[step] = new_infected.size / n

        # removed nodes leave the arrays, the rest keep their order
        if removed_now.size:
            removed_count += np.bincount(degrees[removed_now] - dist.k_min, minlength=nk)
            keep = np.ones(state.size, dtype=bool)
            keep[removed_now] = False
            state, degrees = state[keep], degrees[keep]

        # (4) demographic replenishment toward initial susceptible counts, with
        # the deficit taken at the start of the step like the euler dt=1 ODE
        if params.d > 0:
            deficit = np.maximum(initial_susceptible - susceptible, 0)
            additions = rng.binomial(deficit, params.d)
            total_add = int(additions.sum())
            if total_add:
                new_deg = np.repeat(k_grid, additions)
                degrees = np.concatenate([degrees, new_deg])
                state = np.concatenate([state, np.full(total_add, SUSCEPTIBLE, dtype=np.int8)])

        susceptible = tally(step)

    # the stratified one-type, one-stage layout: s_k | rho_k | removed_k
    return Trajectory(
        times=t0 + np.arange(steps + 1, dtype=float), Y=np.hstack([s_k, rho_k, removed_k]),
        dY=None, incidence=incidence, model=build_model("stratified", params, dist),
    )


@dataclass
class EnsembleSummary:
    """Per-time-point statistics over independent simulation replicas."""

    times: np.ndarray
    replicas: int
    mean_prevalence: np.ndarray
    var_prevalence: np.ndarray
    se_prevalence: np.ndarray
    mean_incidence: np.ndarray
    var_incidence: np.ndarray
    se_incidence: np.ndarray
    mean_susceptible: np.ndarray
    var_susceptible: np.ndarray
    se_susceptible: np.ndarray


def summarize_trajectories(trajectories) -> EnsembleSummary:
    """Mean/variance/standard-error bands across replica trajectories.

    Order-invariant: the statistics do not depend on replica ordering.
    """
    if len(trajectories) < 2:
        raise DomainError("ensemble statistics need at least 2 replicas")
    times = trajectories[0].times
    for traj in trajectories[1:]:
        if traj.times.shape != times.shape or np.any(traj.times != times):
            raise DomainError("replica time grids differ")
    r = len(trajectories)
    out = {"times": times.copy(), "replicas": r}
    for name, attr in (("prevalence", "prevalence"), ("incidence", "incidence"),
                       ("susceptible", "susceptible")):
        stack = np.stack([getattr(t, attr) for t in trajectories])
        var = stack.var(axis=0, ddof=1)
        out[f"mean_{name}"] = stack.mean(axis=0)
        out[f"var_{name}"] = var
        out[f"se_{name}"] = np.sqrt(var / r)
    return EnsembleSummary(**out)


def replica_rng(base_seed: int, replica: int) -> np.random.Generator:
    """Stream for one replica, derived by hashing (base_seed, replica).

    Independent of execution order, so parallel runs reproduce serial ones.
    """
    return np.random.default_rng(np.random.SeedSequence([base_seed, replica]))


def _run_replica(args):
    dist, n, params, steps, schedule, base_seed, replica, t0 = args
    return simulate_epidemic(dist, n, params, steps, rng=replica_rng(base_seed, replica),
                             schedule=schedule, t0=t0)


def run_ensemble(
    dist: DegreeDistribution,
    n: int,
    params: EpidemicParams,
    steps: int,
    replicas: int,
    base_seed: int = 0,
    schedule: TreatmentSchedule | None = None,
    n_jobs: int = 1,
    t0: float = 0.0,
) -> EnsembleSummary:
    """Run ``replicas`` independent simulations and summarize them.

    Replicas are embarrassingly parallel; results are merged in replica
    order so the summary is identical for any ``n_jobs``.
    """
    if not (is_integer(replicas) and replicas >= 2):
        raise DomainError(f"replicas must be an integer >= 2, got {replicas!r}")
    if not (is_integer(n_jobs) and n_jobs >= 1):
        raise DomainError(f"n_jobs must be an integer >= 1, got {n_jobs!r}")
    if not (is_integer(base_seed) and base_seed >= 0):
        raise DomainError(f"base_seed must be an integer >= 0, got {base_seed!r}")
    jobs = [(dist, n, params, steps, schedule, base_seed, r, t0) for r in range(replicas)]
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            trajectories = list(pool.map(_run_replica, jobs, chunksize=max(1, replicas // (4 * n_jobs))))
    else:
        trajectories = [_run_replica(job) for job in jobs]
    return summarize_trajectories(trajectories)
