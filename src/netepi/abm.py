"""Agent-based Monte-Carlo simulation on configuration-model random graphs.

This is the stochastic oracle the ODE models are validated against: it runs
the ``CompartmentModel`` the ODE integrates, on n nodes, if the model has
one population of one stage with fixed routing (``chain_limit``).  A run
draws how many nodes fall in each degree class and seeds the infected.
Each step then mirrors the discrete-time process the euler dt=1
integration of the model approximates, all against the start-of-step state:

  1. the live nodes' stubs are paired afresh (degrees persist), so the
     network is fully re-paired every step, the first one included, as the
     ODE's annealed links are; under ``link_mode`` "fixed" the removed
     nodes' stubs stay in the pairing as inert partners, so every step
     pairs the initial stubs, the ODE's fixed link denominator,
  2. every susceptible is infected through each stub pair joining it to an
     infected node independently with the infector type's transmissibility,
  3. every node infected at the start of the step leaves the network with
     probability its type's stage rate plus the exit rate, and the new
     infections join the types at the routing shares,
  4. optional demographic replenishment adds susceptibles back toward their
     initial per-degree counts at rate d.

The pairing is the configuration multigraph: every stub pair is one
transmission chance, parallel pairs included, the process whose one-step
law the ODE's binomial link count describes (Britton, Deijfen & Martin-Lof,
J. Stat. Phys. 124, 2006).  Under it, nodes of one degree class and one
compartment are exchangeable, so the chain's state is exactly its integer
counts per class, the model's layout times n, held as one (types + 2, nk)
array in the record's row layout: s, each type's infected, removed.  No
node is kept between steps.  Given their number, the susceptible ends of
the cross pairs are a uniform subset of the susceptible stubs, and each
pair transmits on its own, so the ends of the transmitting pairs are a
uniform subset too: a step draws how many pairs transmit, then those ends
alone.  A susceptible end needs an identity only so that a node hit
through several pairs is infected once; its virtual node (the class's
susceptibles numbered in order, each holding k consecutive stubs) gives
it.  The ends are sorted first, which draws nothing: sorted ends map to
sorted virtual nodes, so a node's ends lie side by side and one comparison
with the neighbour counts it once.

A binomial of 0 trials or at p = 0 draws nothing, so a one-type model
draws as a two-type one never seeding or routing into its second type.
The chain does not call those draws at all: a one-type model has no second
row to seed or to leave, and a routing share of 0 routes nothing.

The draws come in this order.  Set-up: the class sizes (one multinomial),
the seeds per class (one multivariate hypergeometric) and, for a two-type
model, the second-type seeds (a binomial per class).  Each step: an epoch
switch first re-draws the standing infected's type (a binomial per class);
then the side of an odd stub total's dropped stub, two hypergeometric
draws for the number of pairs joining a susceptible stub to another, under
"fixed" a third for how many of those face a live infected stub, one for
how many face a second-type stub, a binomial for how many of those
transmit and one for how many of the rest do, the susceptible ends of the
transmitting pairs as a uniform ordered subset of the susceptible stubs
(the second-type ones first), and binomials per class for leaving (per
type), the type of the new infections (at a routing share above 0) and
replenishment.  ``tests/data/abm_stream_golden.json`` pins the stream.
numpy's hypergeometric draws take fewer than 1e9 items, so a run takes
fewer than 1e9 nodes, and a step pairs fewer than 2e9 stubs, fewer than 1e9
of them infected and fewer than 1e9 inert.

``generate_network`` is still the erased static generator (one shuffle of
every stub, self-loops dropped, parallel edges collapsed); no step uses it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .degree import DegreeDistribution, sample_degrees
from .errors import FINITE, SEED, DomainError, check, check_kind, count
from .ode import CompartmentModel, Trajectory, TreatmentSchedule, grid_times, time_grid

# the argument rules the config's abm rows and the CLI's options take too
NODES = count(2)
REPLICAS = count(2)
JOBS = count(1)
STEPS = count(1)


class NetworkRealization(NamedTuple):
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


# numpy's hypergeometric draws take populations below this size: the seed
# draw n nodes, the pairing draws half the paired stubs, and the later draws
# the infected and the inert stubs
_MAX_DRAW = 10 ** 9


def _cross_stubs(s_stubs: int, i_stubs: int, t_stubs: int, lam: float, lam2: float, rng,
                 inert: int = 0) -> tuple[np.ndarray, int]:
    """The susceptible ends of the transmitting susceptible-infected pairs of
    one uniform pairing of ``s_stubs`` susceptible, ``i_stubs`` infected and
    ``inert`` other stubs, as indices into the susceptible stubs in uniform
    order, and how many of the first of them transmit from one of the
    ``t_stubs`` stubs of second-type infected.

    Every pair is kept, parallel ones included; an odd total first loses one
    uniformly chosen stub.  A pair facing a second-type stub transmits with
    probability ``lam2``, any other cross pair with ``lam``.  The draws: the
    side of the dropped stub (odd totals only), two hypergeometric draws for
    the number of pairs joining a susceptible stub to another, one for how
    many of those face a live infected stub (only if ``inert``), one for how
    many of those face a second-type stub, a binomial for the second-type
    transmissions, one for the others, and the transmitting ends.
    """
    if not (s_stubs and i_stubs):
        return np.zeros(0, dtype=np.int64), 0
    total, paired = s_stubs + i_stubs + inert, [s_stubs, i_stubs + inert]
    if total % 2:
        # only the side of the stub left out matters
        paired[int(rng.integers(total) >= s_stubs)] -= 1
    a, half = min(paired), total // 2
    # a uniform pairing is a uniform stub order paired position by position:
    # x of the smaller side's a stubs come first in their pair, and the j
    # pairs holding two of them are where their seconds meet those firsts
    x = rng.hypergeometric(half, half, a)
    j = rng.hypergeometric(x, half - x, a - x)
    cross = int(a - 2 * j)
    # given j, the cross stubs are a uniform subset of each side's stubs
    # (the left-out one among them) in a uniform bijection
    if inert:
        cross = int(rng.hypergeometric(i_stubs, inert, cross))
    facing = int(rng.hypergeometric(t_stubs, i_stubs - t_stubs, cross))
    # each pair transmits on its own, so the transmitting ends are a uniform
    # subset of the susceptible stubs too, the second-type ones first
    second = int(rng.binomial(facing, lam2))
    first = int(rng.binomial(cross - facing, lam))
    return rng.choice(s_stubs, second + first, replace=False), second


def _stub_owners(k: np.ndarray, s: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degree class and virtual node of each susceptible stub index.

    The susceptible stubs are listed class by class, and so are the
    susceptible nodes; within class c each of its ``s[c]`` nodes holds
    ``k[c]`` consecutive stubs.
    """
    ks = k * s
    stub_end = np.cumsum(ks)
    cls = np.searchsorted(stub_end, idx, side="right")
    node_start = np.cumsum(s) - s
    return cls, node_start[cls] + (idx - (stub_end - ks)[cls]) // k[cls]


def _new_infections(k: np.ndarray, s: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per degree class, how many susceptible nodes own at least one of the
    stub indices ``ends`` (as ``_stub_owners`` maps them).

    Sorted ends map to sorted virtual nodes, so the ends of one node lie side
    by side and one comparison with the neighbour finds each node once.  The
    sort drops the second-type-first order ``_cross_stubs`` returns: routing
    new infections by their infector's type would have to sort each part on
    its own or carry each end's type.
    """
    cls, nodes = _stub_owners(k, s, np.sort(ends))
    first = np.empty(nodes.size, dtype=bool)
    first[:1] = True
    np.not_equal(nodes[1:], nodes[:-1], out=first[1:])
    return np.bincount(cls[first], minlength=k.size)


def _generator(rng) -> np.random.Generator:
    """``rng`` as a Generator: None (fresh entropy), an integer seed >= 0 or
    a Generator, which is used as is."""
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None or rng in SEED:
        return np.random.default_rng(rng)
    raise DomainError(f"rng must be None, an integer seed >= 0 or a numpy Generator, "
                      f"got {rng!r}", "rng")


def generate_network(dist: DegreeDistribution, n: int,
                     rng: np.random.Generator | int | None) -> NetworkRealization:
    """Configuration-model graph with degrees drawn from ``dist``."""
    check("n", n, NODES)
    rng = _generator(rng)
    degrees = sample_degrees(dist, n, rng)
    u, v = _shuffled_stub_pairs(np.arange(n, dtype=np.int64), degrees, rng)
    keep = u != v
    edges_u, edges_v = _unique_edges(u[keep], v[keep], n)
    return NetworkRealization(n=n, degrees=degrees, edges_u=edges_u, edges_v=edges_v)


def chain_limit(model: CompartmentModel) -> tuple[str, str] | None:
    """(The parameter that sets what the chain cannot run in ``model``, why),
    or None.  It runs one population of one stage with fixed routing, and no
    replenishment under the fixed link denominator; the transmissibilities,
    leave rates (stage rate plus exit rate) and d are per-step
    probabilities."""
    if len(model.populations) != 1:
        return "model", f"one population, got {len(model.populations)}"
    pop = model.populations[0]
    if pop.n_stages != 1:
        return "stage_rates", f"one infected stage, got {pop.n_stages}"
    if model.routing == "hazard":
        return "split", "fixed routing shares, got 'hazard'"
    if model.link_mode == "fixed" and model.d > 0:
        # replenished nodes would pair on top of the initial stubs
        return "d", f"d = 0 under link_mode 'fixed', got d={model.d!r}"
    # the model holds its transmissibilities and d in [0, 1]; a leave rate may pass 1
    leave = (pop.rates[:, 0] + model.exit_rate).tolist()
    if not all(p <= 1.0 for p in leave):
        return "stage_rates", f"leave rates in [0, 1], got {leave}"
    return None


def _check_model(model):
    check_kind("model", model, CompartmentModel)
    limit = chain_limit(model)
    if limit is not None:
        raise DomainError(f"the agent-based chain needs {limit[1]}", "model")


def simulate_epidemic(
    model: CompartmentModel,
    n: int,
    steps: int,
    rng: np.random.Generator | int | None = None,
    schedule: TreatmentSchedule | None = None,
    t0: float = 0.0,
) -> Trajectory:
    """Run one stochastic epidemic of ``model`` on ``n`` nodes for ``steps``
    time steps from time ``t0``.

    Fractions of the initial population are reported in the model's layout,
    aligned point for point with ``integrate(model, (t0, t0 + steps), 1.0,
    "euler", schedule)`` through the same ``time_grid`` segments, but an
    epoch outside the run is ignored there.  Every step, the first one
    included, starts by pairing all live nodes, the new ones too.
    """
    _check_model(model)
    check("n", n, NODES)
    check("steps", steps, STEPS)
    check("t0", t0, FINITE)
    try:
        segments = time_grid((float(t0), float(t0) + steps), 1.0, schedule, ignore_outside=True)
    except DomainError as err:
        if err.field != "t_span":   # the span is t0 and steps, and steps is a count
            raise
        segments = []
    if sum(n for _, n, _ in segments) != steps:   # or t0 + steps rounded onto another step
        raise DomainError(f"t0 must keep the times t0 + i, i = 0..{steps}, distinct floats, "
                          f"got {t0!r}", "t0")
    if n >= _MAX_DRAW:
        raise DomainError(f"n={n} is too many nodes: the seed draw takes fewer than "
                          f"{_MAX_DRAW}", "n")
    rng = _generator(rng)
    pop = model.populations[0]
    k, types = pop.k, pop.n_types

    try:
        # per row and class: the susceptible, each type's infected and removed counts
        record = np.zeros((steps + 1, types + 2, k.size), dtype=np.int64)
        new_total = np.zeros(steps + 1, dtype=np.int64)
    except (MemoryError, ValueError):
        raise DomainError(f"steps={steps} is too many to record", "steps") from None
    lam, lam2 = (*pop.lam, 0.0)[:2]
    fixed = model.link_mode == "fixed"
    leave = (pop.rates[:, 0] + model.exit_rate)[:, None]
    # per segment, the second-type seed and routing shares (0 for one type)
    shares = [((*m.seed, 0.0)[1], (*m.routing, 0.0)[1]) for m in
              (model if c is None else model.at_coverage(c) for _, _, c in segments)]

    # the chain's state, in the record's row layout: s, each type's infected, removed
    state = np.zeros((types + 2, k.size), dtype=np.int64)
    s, infected, removed = state[0], state[1:-1], state[-1]
    s[:] = rng.multinomial(n, pop.dist.pmf)
    seeds = rng.multivariate_hypergeometric(s, int(round(pop.rho0 * n)))
    seed_share, share = shares[0]
    s -= seeds
    infected[0] = seeds
    if types == 2:
        infected[1] = rng.binomial(seeds, seed_share)
        infected[0] -= infected[1]
    initial_s = s.copy()
    record[0] = state

    step = 0
    for (_, seg_steps, _), (_, seg_share) in zip(segments, shares):
        if seg_share != share:
            # epoch switch: re-draw the type of the standing infected
            share = seg_share
            total = infected[0] + infected[1]
            infected[1] = rng.binomial(total, share)
            np.subtract(total, infected[1], out=infected[0])
        for step in range(step + 1, step + seg_steps + 1):
            # (1) pair the stubs, drawing only the susceptible end of each
            # transmitting susceptible-infected pair: no other pair can infect.
            # Under the fixed link denominator the removed keep their stubs in
            # the pairing, inert (with d = 0, as chain_limit asks, every step
            # then pairs the initial stubs).  One product gives every row's stubs
            s_stubs, *i_stubs, r_stubs = (state @ k).tolist()
            i_total, inert = sum(i_stubs), r_stubs if fixed else 0
            if max((s_stubs + i_total + inert) // 2, i_total, inert) >= _MAX_DRAW:
                raise DomainError(f"n={n} is too many nodes: step {step} pairs "
                                  f"{s_stubs + i_total + inert} stubs, {i_total} infected and "
                                  f"{inert} inert, past numpy's hypergeometric draws", "n")
            ends, _ = _cross_stubs(s_stubs, i_total, i_stubs[1] if types == 2 else 0,
                                   lam, lam2, rng, inert=inert)

            # (2) a node hit through several pairs is infected once: its ends
            # lie side by side once sorted
            new = _new_infections(k, s, ends)

            # (3) start-of-step infected leave at their type's rate; the new
            # infections are routed at the step's shares.  A one-type model
            # has no second row to draw for, and a share of 0 routes nothing
            gone = rng.binomial(infected, leave)
            infected -= gone
            removed += gone[0] if types == 1 else gone[0] + gone[1]
            infected[0] += new
            if share:
                second = rng.binomial(new, share)
                infected[0] -= second
                infected[1] += second

            # (4) demographic replenishment toward initial susceptible counts, with
            # the deficit taken at the start of the step like the euler dt=1 ODE
            # (s never exceeds initial_s)
            if model.d > 0:
                deficit = initial_s - s
                s -= new
                s += rng.binomial(deficit, model.d)
            else:
                s -= new

            record[step] = state
            new_total[step] = new.sum()

    return Trajectory(
        times=grid_times(t0, 1.0, steps), Y=record.reshape(steps + 1, -1) / n,
        dY=None, incidence=new_total / n, model=model,
    )


class EnsembleSummary(NamedTuple):
    """Per-time-point means and standard errors over independent replicas."""

    times: np.ndarray
    replicas: int
    mean_prevalence: np.ndarray
    se_prevalence: np.ndarray
    mean_incidence: np.ndarray
    se_incidence: np.ndarray
    mean_susceptible: np.ndarray


def replica_rng(base_seed: int, replica: int) -> np.random.Generator:
    """Stream for one replica, derived by hashing (base_seed, replica).

    Independent of execution order, so parallel runs reproduce serial ones.
    """
    return np.random.default_rng(np.random.SeedSequence([base_seed, replica]))


def _run_replica(args):
    """One replica's (3, steps + 1) rows: prevalence, incidence, susceptible."""
    model, n, steps, schedule, base_seed, replica, t0 = args
    traj = simulate_epidemic(model, n, steps, rng=replica_rng(base_seed, replica),
                             schedule=schedule, t0=t0)
    return np.stack((traj.prevalence, traj.incidence, traj.susceptible))


def run_ensemble(
    model: CompartmentModel,
    n: int,
    steps: int,
    replicas: int,
    base_seed: int = 0,
    schedule: TreatmentSchedule | None = None,
    n_jobs: int = 1,
    t0: float = 0.0,
) -> EnsembleSummary:
    """Run ``replicas`` independent simulations of ``model`` and summarize them.

    Replicas are embarrassingly parallel; each returns only the three totals
    the summary reads, and they are merged in replica order so the summary
    is identical for any ``n_jobs``.  The pool has at most one process per
    replica: under the fork start method it starts all of its processes at
    the first task.
    """
    check("replicas", replicas, REPLICAS)
    check("n_jobs", n_jobs, JOBS)
    check("base_seed", base_seed, SEED)
    _check_model(model)
    jobs = [(model, n, steps, schedule, base_seed, r, t0) for r in range(replicas)]
    workers = min(n_jobs, replicas)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_replica, jobs, chunksize=max(1, replicas // (4 * workers))))
    else:
        rows = [_run_replica(job) for job in jobs]
    stack = np.stack(rows)
    mean, se = stack.mean(axis=0), np.sqrt(stack.var(axis=0, ddof=1) / replicas)
    return EnsembleSummary(grid_times(t0, 1.0, steps), replicas,
                           mean[0], se[0], mean[1], se[1], mean[2])
