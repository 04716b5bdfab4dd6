"""Agent-based Monte-Carlo simulation on configuration-model random graphs.

This is the stochastic oracle the ODE models are validated against.  Each
step mirrors the discrete-time process the euler dt=1 integration of the
stratified model approximates:

  1. every susceptible is infected through each link to an infected node
     independently with probability lambda (so a node with l infected
     neighbours converts with probability 1 - (1-lambda)^l),
  2. every node infected at the start of the step is removed with
     probability mu,
  3. removed nodes are deleted from the network,
  4. optional demographic replenishment adds susceptibles back toward their
     initial per-degree counts at rate d, the per-degree deficit taken from
     the susceptible counts at the start of the step,
  5. with rewire="full" a fresh configuration-model pairing is drawn over
     the surviving nodes (their target degrees persist).

Infections are evaluated against the start-of-step state and removals only
hit previously infected nodes, which is what makes step counts comparable
to the ODE inflow term.

Self-loops are dropped and multi-edges collapsed when pairing stubs
("erased" configuration model), so realized degrees approximate the targets
from below; the distortion is o(1) at the population sizes used here and is
measured by the tests rather than assumed away.

The random stream is part of the output: the infection pass draws one
number per live edge in edge-list order, then one treated-status number
per new infection in node order.  The edge list is therefore kept sorted
by (u, v) key (sort plus an adjacent-difference mask, not a hash set) and
new infections are collected through a boolean mask, so they come out in
ascending node order; ``tests/data/abm_stream_golden.json`` pins the
resulting stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degree import DegreeDistribution, sample_degrees
from .errors import DomainError, is_integer
from .ode import EpidemicParams, Trajectory, TreatmentSchedule, build_model

# node compartment codes
SUSCEPTIBLE = 0
INFECTED = 1
INFECTED_TREATED = 2
REMOVED = 3


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
    node_state: np.ndarray

    def realized_degrees(self) -> np.ndarray:
        counts = np.bincount(self.edges_u, minlength=self.n)
        counts += np.bincount(self.edges_v, minlength=self.n)
        return counts


def _pair_stubs(node_ids: np.ndarray, degrees: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Uniform stub pairing with self-loops dropped and multi-edges collapsed.

    An odd stub count loses one stub (the shuffle makes it a uniformly
    random one).
    """
    stubs = np.repeat(node_ids, degrees)
    rng.shuffle(stubs)
    if stubs.size % 2:
        stubs = stubs[:-1]
    u, v = stubs[0::2], stubs[1::2]
    keep = u != v
    u, v = u[keep], v[keep]
    lo = np.minimum(u, v).astype(np.int64)
    hi = np.maximum(u, v).astype(np.int64)
    span = int(node_ids.max()) + 1 if node_ids.size else 1
    key = np.sort(lo * span + hi)
    if key.size:
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    return key // span, key % span


def generate_network(dist: DegreeDistribution, n: int, rng: np.random.Generator) -> NetworkRealization:
    """Configuration-model graph with degrees drawn from ``dist``."""
    if n < 2:
        raise DomainError(f"network needs at least 2 nodes, got {n}")
    degrees = sample_degrees(dist, n, rng)
    edges_u, edges_v = _pair_stubs(np.arange(n, dtype=np.int64), degrees, rng)
    return NetworkRealization(
        n=n, degrees=degrees, edges_u=edges_u, edges_v=edges_v,
        node_state=np.full(n, SUSCEPTIBLE, dtype=np.int8),
    )


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
    rewire: str = "full",
    rng: np.random.Generator | None = None,
    schedule: TreatmentSchedule | None = None,
    initial_network: NetworkRealization | None = None,
    t0: float = 0.0,
) -> Trajectory:
    """Run one stochastic epidemic for ``steps`` time steps from time ``t0``.

    Fractions are reported relative to the initial population, so the output
    aligns point for point with an euler dt=1 integration of the matching
    ODE model over [t0, t0 + steps]; treatment epochs are times on that
    axis.  ``initial_network`` substitutes a custom starting graph
    (useful with rewire="none"); demographically added nodes join isolated
    until the next full rewiring.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if rewire not in ("full", "none"):
        raise DomainError(f"rewire must be 'full' or 'none', got {rewire!r}")
    rng = np.random.default_rng(rng)

    net = initial_network if initial_network is not None else generate_network(dist, n, rng)
    if net.n != n:
        raise DomainError("initial_network size does not match n")
    degrees = net.degrees.copy()
    state = net.node_state.copy()
    eff = params.treatment_efficacy

    n_seed = int(round(params.rho0 * n))
    seed_nodes = rng.choice(n, size=n_seed, replace=False)
    coverage = _coverage_at(schedule, t0)
    treated = rng.random(n_seed) < coverage
    state[seed_nodes] = np.where(treated, INFECTED_TREATED, INFECTED)

    edges_u, edges_v = net.edges_u, net.edges_v
    k_grid = dist.degrees
    nk = len(k_grid)
    s_k = np.zeros((steps + 1, nk))
    rho_k = np.zeros((steps + 1, nk))
    removed_k = np.zeros((steps + 1, nk))
    incidence = np.zeros(steps + 1)

    def tally(row):
        # one bincount over (compartment code, degree) cells; returns the
        # per-degree susceptible counts
        counts = np.bincount(state.astype(np.intp) * nk + (degrees - dist.k_min),
                             minlength=4 * nk).reshape(4, nk)
        s_k[row] = counts[SUSCEPTIBLE] / n
        rho_k[row] = (counts[INFECTED] + counts[INFECTED_TREATED]) / n
        removed_k[row] = counts[REMOVED] / n
        return counts[SUSCEPTIBLE]

    initial_susceptible = susceptible = tally(0)

    for step in range(1, steps + 1):
        prev_coverage = coverage
        coverage = _coverage_at(schedule, t0 + step - 1)
        if schedule is not None and coverage != prev_coverage:
            # epoch switch: re-draw treated status of the standing infected
            infected_idx = np.flatnonzero((state == INFECTED) | (state == INFECTED_TREATED))
            treated = rng.random(infected_idx.size) < coverage
            state[infected_idx] = np.where(treated, INFECTED_TREATED, INFECTED)

        is_inf = (state == INFECTED) | (state == INFECTED_TREATED)
        start_infected = np.flatnonzero(is_inf)

        # (1) infections, one independent draw per susceptible-infected edge;
        # a node hit through several edges is infected once
        hit = np.zeros(state.size, dtype=bool)
        for src, dst in ((edges_v, edges_u), (edges_u, edges_v)):
            live = (state[dst] == SUSCEPTIBLE) & is_inf[src]
            n_live = np.count_nonzero(live)
            if not n_live:
                continue
            lam_edge = np.where(state[src[live]] == INFECTED_TREATED, eff * params.lam, params.lam)
            hit[dst[live][rng.random(n_live) < lam_edge]] = True
        new_infected = np.flatnonzero(hit)

        # (2) removal of start-of-step infected
        removed_now = start_infected[rng.random(start_infected.size) < params.mu]

        if new_infected.size:
            treated = rng.random(new_infected.size) < coverage
            state[new_infected] = np.where(treated, INFECTED_TREATED, INFECTED)
        state[removed_now] = REMOVED
        incidence[step] = new_infected.size / n

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

        # (3) + (5): removed nodes leave; optionally re-pair the survivors
        if rewire == "full":
            active = np.flatnonzero(state != REMOVED)
            edges_u, edges_v = _pair_stubs(active, degrees[active], rng)
        else:
            keep = (state[edges_u] != REMOVED) & (state[edges_v] != REMOVED)
            edges_u, edges_v = edges_u[keep], edges_v[keep]

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
    dist, n, params, steps, rewire, schedule, base_seed, replica, t0 = args
    return simulate_epidemic(
        dist, n, params, steps, rewire=rewire,
        rng=replica_rng(base_seed, replica), schedule=schedule, t0=t0,
    )


def run_ensemble(
    dist: DegreeDistribution,
    n: int,
    params: EpidemicParams,
    steps: int,
    replicas: int,
    base_seed: int = 0,
    rewire: str = "full",
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
    jobs = [(dist, n, params, steps, rewire, schedule, base_seed, r, t0) for r in range(replicas)]
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            trajectories = list(pool.map(_run_replica, jobs, chunksize=max(1, replicas // (4 * n_jobs))))
    else:
        trajectories = [_run_replica(job) for job in jobs]
    return summarize_trajectories(trajectories)
