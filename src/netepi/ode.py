"""Right-hand side and fixed-step integration for the network SIR models.

All models track fractions of the initial population, stratified by node
degree.  The transmission term couples degree classes through the link
probability p = <k_inf>/<k>, recomputed from the instantaneous state at
every evaluation: the links of the network are assumed to be fully redrawn
each time step, so only the degree distribution and the current compartment
masses matter.  A susceptible of degree k is then infected with the
closed-form hazard 1 - (1 - lam p)^k (two groups: 1 - (1 - lam1 p1 -
lam2 p2)^k), the link-count average computed once per population per RHS
by ``mixing.hazard_profile`` / ``hazard_profile_two``.

Every model is one ``CompartmentModel``: populations x infected types x
stages, each population laid out as s(nk) | I(types, stages, nk) |
removed(nk), and configured by data: per population a degree distribution,
weight and rho0; per target population the source population it is
infected through and one transmissibility per type; the seed and routing
shares of the types (routing may be "hazard": in proportion to each type's
own one-type hazard); an infected exit rate; and whether a treatment
coverage may set the shares, in a copy (``at_coverage``): a built model
never changes.  The six named models are builders over it, each
``builder(params, dist, dist2)`` reading every number and option from one
``EpidemicParams`` record:

classic      stratified at k = 1 with the fixed link denominator, which is
             s' = -lam rho s,  rho' = lam rho s - mu rho,  r' = mu rho
stratified   one population, one type at lam
two_type     one population, types at lam and lam2
bipartite    two populations infected across: side 2 at lam, side 1 at lam2
hiv_msm      untreated/treated types at i and efficacy * i, exit at rate d
hiv_hetero   men/women infected across: women at i, men at asymmetry * i

The demographic term d(s_k(0) - s_k(t)) replenishes susceptibles toward
their initial level in every model; in the HIV models infected nodes also
leave the network at rate d, into a cumulative removed tally that may pass
1.  Disease progression through multiple infected stages is a per-type rate
chain whose final stage feeds the removed compartment; the default is a
single stage at rate mu (the HIV models have no mu removal).

Integrators are fixed-step euler and rk4 only: determinism and the exact
step-for-step match between euler dt=1 and the agent-based process outrank
speed here.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import reduce
from numbers import Real
from sys import float_info

import numpy as np

from .degree import DegreeDistribution, mean_degree
from .errors import DomainError, StabilityError
from .mixing import LinkProbabilities, hazard_profile, hazard_profile_two

STATE_FLOOR = -1e-6   # integration aborts below this
STATE_CEIL = 1.0 + 1e-6   # ... or above this in an s or infected entry


# the interval each numeric EpidemicParams field must lie in
_INTERVALS = {"lam": "[0, 1]", "mu": "[0, 1]", "rho0": "(0, 1)", "d": "[0, 1]", "lam2": "[0, 1]",
              "rho0_2": "[0, 1)", "treatment_efficacy": "[0, 1]", "split": "[0, 1]",
              "rho0_type2": "[0, 1]", "asymmetry": "[0, 1]", "side_fraction": "(0, 1)"}


@dataclass(frozen=True)
class EpidemicParams:
    """Every number and option a named model is built from, each checked
    here; a model ignores the fields it does not read.

    ``lam2``: the second rate (two_type's group 2, bipartite's reverse
    direction); ``rho0_2``: the second population's seed (default rho0);
    ``treatment_efficacy``: the scale on treated HIV infectors; ``split``:
    two_type's routing ("hazard", or type 1's share) and ``rho0_type2`` its
    type-2 seed share; ``asymmetry``: hiv_hetero's scale on infecting men;
    ``side_fraction``: the first population's weight; ``stage_rates``: one
    rate list or one per type, replacing the one stage at mu; ``link_mode``
    "fixed": the initial edge mass as denominator (classic always).
    """

    lam: float
    mu: float = 0.0
    rho0: float = 0.01
    d: float = 0.0
    lam2: float | None = None
    rho0_2: float | None = None
    treatment_efficacy: float = 0.4
    split: float | str = "hazard"
    rho0_type2: float = 0.0
    asymmetry: float = 0.5
    side_fraction: float = 0.5
    stage_rates: tuple | None = None
    link_mode: str = "active"

    def __post_init__(self):
        for name, interval in _INTERVALS.items():
            v = getattr(self, name)
            if (v is None and name in ("lam2", "rho0_2")
                    or name == "split" and isinstance(v, str) and v == "hazard"):
                continue
            if not (_is_number(v) and (0 < v if interval[0] == "(" else 0 <= v)
                    and (v < 1 if interval[-1] == ")" else v <= 1)):
                what = "'hazard' or a fraction in" if name == "split" else "in"
                raise DomainError(f"{name} must be {what} {interval}, got {v!r}")
        _check_link_mode(self.link_mode)
        rates = self.stage_rates
        if rates is not None:
            if self.mu != 0.0:
                raise DomainError("stage_rates replaces mu; set mu=0 when providing stages")
            seq = (list, tuple)
            nested = isinstance(rates, seq) and rates and isinstance(rates[0], seq)
            rows = rates if nested else [rates]
            if not (all(isinstance(r, seq) and r and all(_is_number(v) and 0 <= v <= 1 for v in r)
                        for r in rows) and len(set(map(len, rows))) == 1):
                raise DomainError(f"stage_rates must be rates in [0, 1], one list or one per "
                                  f"type, got {rates!r}")
            rows = tuple(tuple(map(float, r)) for r in rows)   # hashable, as the record
            object.__setattr__(self, "stage_rates", rows if nested else rows[0])


def _link_fractions(degrees, s, rho_types, fixed_edge_mass=None):
    """Link probabilities (one Python float per infected type) from the
    current state.

    Active-denominator mode divides infected edge mass by the edge mass of
    all still-present nodes (removed nodes leave the network); passing
    ``fixed_edge_mass`` divides by the static initial edge mass instead.
    ``rho_types`` holds one row of infected fractions per type.  Each
    probability is clamped to [0, 1]; with no edge mass left (every node
    removed) all are 0.  A sum past the 1 + 1e-12 ``LinkProbabilities``
    allows (negative s in an rk4 stage) is scaled to 1; the step check then
    decides whether the run goes on.
    """
    masses = (rho_types @ degrees).tolist()
    denom = float(degrees @ s) + sum(masses) if fixed_edge_mass is None else fixed_edge_mass
    if denom <= 0.0:
        return [0.0] * len(masses)
    p, total = [], 0.0
    for m in masses:
        x = m / denom
        x = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
        p.append(x)
        total += x
    return [x / total for x in p] if total > 1.0 + 1e-12 else p


def _stage_matrix(stage_rates, n_types, mu):
    """Per-type stage-rate rows (EpidemicParams checks the rates); default one
    stage at rate mu."""
    if stage_rates is None:
        return np.full((n_types, 1), mu)
    rates = np.asarray(stage_rates, dtype=float)
    if rates.ndim == 1:
        rates = np.tile(rates, (n_types, 1))
    if rates.ndim != 2 or rates.shape[0] != n_types:
        raise DomainError(f"stage_rates must be one rate list or one per type ({n_types})")
    return rates


class _Population:
    """One population: degree grid, stage-rate rows, seeding and weight."""

    def __init__(self, dist: DegreeDistribution, n_types: int, stage_rates, mu: float,
                 rho0: float, weight: float = 1.0, name: str = ""):
        self.dist = dist
        self.k = dist.degrees   # integer grid; ``degrees`` is its float copy
        self.k.flags.writeable = False
        self.degrees = self.k.astype(float)
        self.nk = len(self.degrees)
        self.rates = _stage_matrix(stage_rates, n_types, mu)
        self.n_types, self.n_stages = self.rates.shape
        self.rho0, self.weight, self.name = rho0, weight, name
        self.fixed_edge_mass = weight * mean_degree(dist)


class _Block:
    """One population's place in the state vector and what the RHS needs of
    it, built once per model.  The population is laid out from ``offset`` as
    s(nk) | I(types, stages, nk) | removed(nk); the three slices and the
    infected shape here are the only place that layout is computed.  Also:
    the plan index of its source block, stage flow rates as a column (and,
    for a one-type, one-stage block, its one rate as the 0-d array
    ``mu``; else None), transmissibilities and initial susceptibles."""

    def __init__(self, pop, offset, source, rates):
        self.shape = (pop.n_types, pop.n_stages, pop.nk)
        a = offset + pop.nk
        b = a + pop.n_types * pop.n_stages * pop.nk
        self.s, self.infected, self.removed = slice(offset, a), slice(a, b), slice(b, b + pop.nk)
        self.pop, self.source, self.rates = pop, source, rates
        self.flow_rates = pop.rates[:, :, None]
        # a 0-d view: numpy scales an array by it faster than by a float
        self.mu = pop.rates[0, 0, ...] if self.shape[:2] == (1, 1) else None
        self.s0 = (1.0 - pop.rho0) * (pop.weight * pop.dist.pmf)


def _check_link_mode(link_mode):
    if link_mode not in ("active", "fixed"):
        raise DomainError(f"link_mode must be 'active' or 'fixed', got {link_mode!r}")


class CompartmentModel:
    """Populations x infected types x stages, configured by data (module
    docstring).  ``d`` is the susceptible replenishment rate; ``bounded``
    marks the s and infected entries, the ones STATE_CEIL applies to;
    ``shares`` the routing column (None for "hazard").  Never written once built."""

    def __init__(self, populations, sources, rates, seed, routing, d=0.0, exit_rate=0.0,
                 treatable=False, link_mode="active"):
        _check_link_mode(link_mode)
        self.populations = list(populations)
        self.sources = tuple(sources)
        self.rates = [tuple(r) for r in rates]
        self.seed = tuple(seed)
        self.routing = routing if isinstance(routing, str) else tuple(routing)
        types = {p.n_types for p in self.populations} | {len(r) for r in self.rates}
        types |= {len(self.seed), 2 if self.routing == "hazard" else len(self.routing)}
        n = len(self.populations)
        # one type takes every new infection: the RHS routes it unscaled
        if (len(types) != 1 or types - {1, 2} or types == {1} and self.routing != (1.0,)
                or len(self.rates) != n
                or len(self.sources) != n or any(not 0 <= i < n for i in self.sources)):
            raise DomainError("populations, sources, rates and shares do not fit together")
        self.d, self.exit_rate = d, exit_rate
        self.treatable, self.link_mode = treatable, link_mode
        self._plan, self.dim = [], 0
        for pop, source, r in zip(self.populations, self.sources, self.rates):
            self._plan.append(_Block(pop, self.dim, source, r))
            self.dim = self._plan[-1].removed.stop
        self.bounded = np.ones(self.dim, dtype=bool)
        for block in self._plan:
            self.bounded[block.removed] = False
        self.shares = None if self.routing == "hazard" else np.array(self.routing)[:, None]

    def blocks(self, y):
        """Per population the (s, infected, removed) views of a state vector
        or of every row of a (..., dim) stack; infected is shaped
        (..., types, stages, nk)."""
        if y.shape[-1:] != (self.dim,):
            raise DomainError(f"state array has shape {y.shape}, expected (..., {self.dim})")
        lead = y.shape[:-1]
        return [(y[..., b.s], y[..., b.infected].reshape(*lead, *b.shape), y[..., b.removed])
                for b in self._plan]

    def initial_state(self) -> np.ndarray:
        y = np.zeros(self.dim)
        for block in self._plan:
            pop = block.pop
            y[block.s] = block.s0
            infected = y[block.infected].reshape(block.shape)
            for t, frac in enumerate(self.seed):
                infected[t, 0] = frac * pop.rho0 * (pop.weight * pop.dist.pmf)
        return y

    def at_coverage(self, coverage):
        """A copy that seeds and routes infections untreated : treated as
        1 - c : c.  It shares this model's plan."""
        if not self.treatable:
            raise DomainError("treatment coverage requires an HIV model")
        if not (_is_number(coverage) and 0.0 <= coverage <= 1.0):
            raise DomainError(f"treatment coverage must be in [0, 1], got {coverage!r}")
        c = float(coverage)
        model = copy.copy(self)
        model.seed = model.routing = (1.0 - c, c)
        model.shares = np.array(model.routing)[:, None]
        return model

    def repartition(self, y):
        """A copy of ``y`` whose standing infected mass is reassigned to this
        model's routing shares."""
        if self.shares is None:
            raise DomainError("repartition requires fixed routing shares")
        y = y.copy()
        for _, infected, _ in self.blocks(y):
            infected[:] = np.multiply.outer(self.routing, infected.sum(axis=0))
        return y

    @staticmethod
    def _hazard_shares(block, p):
        """Share of new infections entering each type in proportion to each
        type's own one-type hazard, shaped (types, nk)."""
        h1 = hazard_profile(block.pop.degrees, p[0], block.rates[0])
        h2 = hazard_profile(block.pop.degrees, p[1], block.rates[1])
        total = h1 + h2
        w1 = np.divide(h1, total, out=np.full(len(h1), 0.5), where=total > 0)
        return np.stack([w1, 1.0 - w1])

    def rhs_full(self, t, y, out=None):
        """(dy/dt, aggregate new-infection inflow rate).  dy is written into
        ``out`` (a float64 array of shape (dim,) that does not overlap ``y``)
        when one is given, and returned.  Parts of dy are written before the
        last reads of ``y`` (a one-type, one-stage block writes its stage
        flow into the removal row, then reads it back), which is why the two
        must not overlap."""
        if y.shape != (self.dim,):
            raise DomainError(f"state array has shape {y.shape}, expected ({self.dim},)")
        if out is None:
            dy = np.empty(self.dim)
        elif not (isinstance(out, np.ndarray) and out.shape == (self.dim,)
                  and out.dtype == np.float64):
            raise DomainError(f"out must be a float64 array of shape ({self.dim},)")
        else:
            dy = out
        total_inflow = 0.0
        fixed = self.link_mode == "fixed"
        plan = self._plan
        for block in plan:
            pop, src, rates = block.pop, plan[block.source], block.rates
            s, infected = y[block.s], y[block.infected]
            src_s, src_inf = (s, infected) if src is block else (y[src.s], y[src.infected])
            if src.pop.n_stages == 1:
                rho = src_inf.reshape(src.shape[0], -1)
            else:
                rho = src_inf.reshape(src.shape).sum(axis=1)
            p = _link_fractions(src.pop.degrees, src_s, rho,
                                src.pop.fixed_edge_mass if fixed else None)
            if len(rates) == 1:
                hazard = hazard_profile(pop.degrees, p[0], rates[0])
            else:
                hazard = hazard_profile_two(pop.degrees, LinkProbabilities(p[0], p[1]), *rates)
            inflow = np.multiply(s, hazard, out=hazard)
            ds, d_inf, removal = dy[block.s], dy[block.infected], dy[block.removed]
            if self.d > 0:
                np.subtract(block.s0, s, out=ds)
                ds *= self.d
                ds -= inflow
            else:
                np.negative(inflow, out=ds)
            if block.mu is not None:
                # one type in one stage: the stage flow is the removal row,
                # and the type's routing share is 1
                np.multiply(infected, block.mu, out=removal)
                np.subtract(inflow, removal, out=d_inf)
            else:
                infected, d_inf = infected.reshape(block.shape), d_inf.reshape(block.shape)
                flow = block.flow_rates * infected
                entry = d_inf[:, 0]
                np.multiply(self.shares if self.shares is not None
                            else self._hazard_shares(block, p), inflow, out=entry)
                entry -= flow[:, 0]
                if pop.n_stages > 1:
                    np.subtract(flow[:, :-1], flow[:, 1:], out=d_inf[:, 1:])
                np.add.reduce(flow[:, -1], axis=0, out=removal)
            if self.exit_rate > 0:
                d_inf -= self.exit_rate * infected
                removal += self.exit_rate * infected.reshape(block.shape).sum(axis=(0, 1))
            total_inflow += float(np.add.reduce(inflow))
        return dy, total_inflow

    def totals(self, Y):
        """(susceptible, prevalence, removed) per row of a (rows, dim) state
        array clamped at 0: each population's s, infected and removed slices
        summed per row, then the populations added in plan order."""
        Y = np.maximum(Y, 0.0)
        parts = [[Y[:, b.s].sum(axis=1), Y[:, b.infected].sum(axis=1),
                  Y[:, b.removed].sum(axis=1)] for b in self._plan]
        return tuple(reduce(np.add, column) for column in zip(*parts))

    def degree_labels(self) -> list[str]:
        labels = []
        for pop in self.populations:
            prefix = f"{pop.name}_" if pop.name else ""
            labels += [f"{prefix}s_k{k}" for k in pop.k]
            labels += [f"{prefix}i_k{k}" for k in pop.k]
        return labels

    def degree_columns(self, Y) -> np.ndarray:
        """Per-degree table of a (rows, dim) state array in ``degree_labels()``
        order: per population s_k clamped at 0, then i_k, the infected summed
        over stages, clamped at 0 per type, then summed over types."""
        cols = []
        for s, infected, _ in self.blocks(Y):
            cols += [np.maximum(s, 0.0), np.maximum(infected.sum(axis=-2), 0.0).sum(axis=-2)]
        return np.concatenate(cols, axis=-1)


@dataclass
class Trajectory:
    """A recorded run, stored as arrays in ``model``'s state layout.

    ``Y[i]`` is the raw state vector at ``times[i]`` and ``dY[i]`` the
    right-hand side evaluated there (None for agent-based runs).
    ``incidence[i]`` is the new-infection inflow rate at the previous
    recorded state, the per-step count of new infections when dt = 1.
    ``susceptible``, ``prevalence`` and ``removed`` are totals over the
    states clamped at 0.  ``model.blocks(Y)`` / ``model.blocks(dY)`` give
    the per-population s, infected and removed arrays of every row, and
    ``model.degree_columns(Y)`` the clamped per-degree table.
    """

    times: np.ndarray
    Y: np.ndarray
    dY: np.ndarray | None
    incidence: np.ndarray
    model: CompartmentModel
    susceptible: np.ndarray = field(init=False)
    prevalence: np.ndarray = field(init=False)
    removed: np.ndarray = field(init=False)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("trajectory times must be strictly increasing")
        if self.Y.shape != (len(self.times), self.model.dim):
            raise DomainError("states and times must align 1:1")
        self.susceptible, self.prevalence, self.removed = self.model.totals(self.Y)

    def peak(self):
        """(peak prevalence, time of peak)."""
        i = int(np.argmax(self.prevalence))
        return float(self.prevalence[i]), float(self.times[i])

    def final_size(self) -> float:
        """1 - susceptible[-1], the fraction not susceptible at the end (the
        agent-based definition).  With d = 0 it is removed + prevalence; with
        d > 0 the removed tally counts exits and may pass 1, so it is not."""
        return float(1.0 - self.susceptible[-1])


@dataclass(frozen=True)
class TreatmentSchedule:
    """Piecewise-constant treatment coverage switching at epoch times."""

    epochs: tuple
    coverages: tuple
    initial_coverage: float = 0.0

    def __post_init__(self):
        if len(self.epochs) != len(self.coverages):
            raise DomainError("one coverage per epoch required")
        if not all(_is_number(e) for e in self.epochs):
            raise DomainError(f"treatment epochs must be finite numbers, got {self.epochs!r}")
        if any(b <= a for a, b in zip(self.epochs, self.epochs[1:])):
            raise DomainError("treatment epochs must be strictly increasing")
        for c in (self.initial_coverage, *self.coverages):
            if not (_is_number(c) and 0.0 <= c <= 1.0):
                raise DomainError(f"coverage must be in [0, 1], got {c}")

    def coverage_at(self, t) -> float:
        """The coverage in force at time ``t``, set by the last epoch <= t."""
        return (self.initial_coverage, *self.coverages)[bisect_right(self.epochs, t)]


def _check_grid(t0, t1, dt, what="t_span"):
    steps = (t1 - t0) / dt
    if not math.isfinite(steps):
        raise DomainError(f"{what} [{t0}, {t1}] at dt={dt} is too many steps to count")
    n = int(round(steps))
    if n < 1 or abs(t0 + n * dt - t1) > 1e-9 * max(1.0, abs(t1 - t0)):
        raise DomainError(f"{what} [{t0}, {t1}] is not a whole number of dt={dt} steps")
    return n


def _is_number(value) -> bool:
    """A real number a float holds finitely (math.isfinite raises past it); no bool."""
    return isinstance(value, Real) and not isinstance(value, bool) and abs(value) <= float_info.max


# steps between two state range checks: a run that leaves the range stops
# within this many steps, and the check costs one reduction per chunk
_CHECK_ROWS = 64


def _first_unstable(Y, bounded):
    """Index of the first row of ``Y`` outside [STATE_FLOOR, STATE_CEIL] (the
    ceiling on ``bounded`` entries only), or None.  Two whole-array
    reductions decide; the rows are searched only when they fail.  NaN
    fails both comparisons, -inf the first, +inf in an s or infected entry
    the second.  A removed entry takes only infected flows, so it turns +inf
    only through an infected flow already out of range, which leaves its
    infected entry -inf or NaN."""
    if Y.min() >= STATE_FLOOR and Y.max(initial=-np.inf, where=bounded) <= STATE_CEIL:
        return None
    ok = (Y.min(axis=1) >= STATE_FLOOR) & (
        Y.max(axis=1, initial=-np.inf, where=bounded) <= STATE_CEIL)
    return int(np.argmin(ok))


def integrate(model: CompartmentModel, t_span, dt: float, method: str = "rk4",
              schedule: TreatmentSchedule | None = None) -> Trajectory:
    """Fixed-step integration recording the state at every step.

    euler with dt=1 reproduces the discrete-time process of the agent-based
    simulator step for step.  A schedule sets every segment's coverage: its
    epochs split the run so the coverage discontinuity never falls inside an
    rk4 step, segment i runs ``model.at_coverage`` at coverage i (the first
    at ``initial_coverage``) and the standing infected mass is repartitioned
    at each epoch boundary; ``model`` itself never changes.  Each step is
    written in place into the recorded arrays; the three rk4 stage states
    reuse one buffer allocated per run.  The state range is checked
    over each segment's recorded rows, _CHECK_ROWS at a time and before any
    repartition; a failure raises StabilityError naming the time of the
    first step that left the range.
    """
    try:
        t0, t1 = t_span
    except (TypeError, ValueError):
        raise DomainError(f"t_span must be [t0, t1], got {t_span!r}") from None
    if not (_is_number(t0) and _is_number(t1)):
        raise DomainError(f"t_span must be two finite numbers, got {t_span!r}")
    if not (_is_number(dt) and dt > 0):
        raise DomainError(f"dt must be a finite positive number, got {dt!r}")
    t0, t1 = float(t0), float(t1)
    if t1 <= t0:
        raise DomainError(f"t_span end {t1} must exceed start {t0}")
    if method not in ("euler", "rk4"):
        raise DomainError(f"method must be 'euler' or 'rk4', got {method!r}")
    _check_grid(t0, t1, dt)

    bounds, models = [t0, t1], [model]   # segment i runs models[i] from bounds[i]
    if schedule is not None:
        models = [model.at_coverage(c) for c in (schedule.initial_coverage, *schedule.coverages)]
        if any(not t0 < e < t1 for e in schedule.epochs):
            raise DomainError("treatment epochs must lie strictly inside t_span")
        for e in schedule.epochs:
            _check_grid(t0, e, dt, what="treatment epoch")
        bounds = [t0, *schedule.epochs, t1]
    counts = [_check_grid(start, end, dt) for start, end in zip(bounds, bounds[1:])]

    rows = sum(counts) + 1
    try:
        Y, dY, inflow = np.empty((rows, model.dim)), np.empty((rows, model.dim)), np.empty(rows)
    except (MemoryError, ValueError):
        raise DomainError(f"t_span [{t0}, {t1}] at dt={dt} is {rows - 1} steps, too many to "
                          f"record") from None
    Y[0] = models[0].initial_state()
    stage, k2, k3, k4 = np.empty((4, model.dim))   # rk4 stage state and slopes
    row = 0
    # a run that leaves the range keeps stepping through inf and NaN to the
    # end of its chunk of _CHECK_ROWS steps; the chunk check reports it
    with np.errstate(all="ignore"):
        for seg_model, seg_start, n in zip(models, bounds, counts):
            if seg_start > t0:
                # switch epoch: repartition the infected stock, re-record the
                # boundary state post-switch (aggregates are continuous there)
                Y[row] = seg_model.repartition(Y[row])
            y = Y[row]
            for chunk in range(0, n, _CHECK_ROWS):
                first = row + 1
                for i in range(chunk, min(chunk + _CHECK_ROWS, n)):
                    t = seg_start + i * dt
                    k1, nxt = dY[row], Y[row + 1]
                    inflow[row] = seg_model.rhs_full(t, y, out=k1)[1]
                    if method == "rk4":
                        # each stage state y + h k is built as h k + y in
                        # ``stage``, and the slopes are summed in place into
                        # k2: the same roundings as the written-out formula
                        for h, k, out in ((dt / 2, k1, k2), (dt / 2, k2, k3), (dt, k3, k4)):
                            np.multiply(k, h, out=stage)
                            stage += y
                            seg_model.rhs_full(t + h, stage, out=out)
                        k2 *= 2.0
                        k2 += k1
                        k3 *= 2.0
                        k2 += k3
                        k2 += k4
                        k2 *= dt / 6
                        np.add(y, k2, out=nxt)
                    else:
                        np.multiply(k1, dt, out=nxt)
                        nxt += y
                    y = nxt
                    row += 1
                bad = _first_unstable(Y[first:row + 1], model.bounded)
                if bad is not None:
                    t = seg_start + (chunk + bad) * dt
                    raise StabilityError(f"state left [{STATE_FLOOR}, {STATE_CEIL}] at "
                                         f"t={t + dt:g}; try a smaller dt")
    inflow[row] = models[-1].rhs_full(t1, Y[row], out=dY[row])[1]

    return Trajectory(
        times=t0 + np.arange(rows) * dt, Y=Y, dY=dY,
        incidence=np.concatenate([inflow[:1], inflow[:-1]]), model=model,
    )


# the six named models: builders over CompartmentModel

_SINGLE_DEGREE = DegreeDistribution(1, 1, np.array([1.0]))


def _hiv_shares(params):
    """Seed and routing at coverage 0, where the HIV builders build."""
    if params.mu != 0.0:
        raise DomainError("hiv models have no mu removal; use d and/or stage_rates")
    return (1.0, 0.0)


def _classic(params, dist, dist2):
    """Homogeneous SIR: the degenerate network with one link per node."""
    return _stratified(replace(params, link_mode="fixed"), _SINGLE_DEGREE, None)


def _stratified(params, dist, dist2):
    pop = _Population(dist, 1, params.stage_rates, params.mu, params.rho0)
    return CompartmentModel([pop], (0,), [(params.lam,)], (1.0,), (1.0,), d=params.d,
                            link_mode=params.link_mode)


def _two_type(params, dist, dist2):
    """Group 1 gets new infections by its share of the hazard, or a fixed ``split``."""
    if params.lam2 is None:
        raise DomainError("two_type model requires lam2")
    split, rho0_type2 = params.split, params.rho0_type2
    routing = split if split == "hazard" else (float(split), 1.0 - float(split))
    pop = _Population(dist, 2, params.stage_rates, params.mu, params.rho0)
    return CompartmentModel([pop], (0,), [(params.lam, params.lam2)],
                            (1.0 - rho0_type2, rho0_type2), routing, d=params.d,
                            link_mode=params.link_mode)


def _bipartite(params, dist, dist2):
    """Side 2 is infected from side 1 at lam, side 1 from side 2 at lam2."""
    if params.lam2 is None:
        raise DomainError("bipartite model requires lam2")
    w1, w2 = params.side_fraction, 1.0 - params.side_fraction
    rho0_2 = params.rho0 if params.rho0_2 is None else params.rho0_2
    pops = [_Population(dist, 1, params.stage_rates, params.mu, params.rho0, w1, "s1"),
            _Population(dist2, 1, params.stage_rates, params.mu, rho0_2, w2, "s2")]
    return CompartmentModel(pops, (1, 0), [(params.lam2,), (params.lam,)], (1.0,), (1.0,),
                            d=params.d, link_mode=params.link_mode)


def _hiv_msm(params, dist, dist2):
    shares = _hiv_shares(params)
    pop = _Population(dist, 2, params.stage_rates, 0.0, params.rho0)
    rates = [(params.lam, params.treatment_efficacy * params.lam)]
    return CompartmentModel([pop], (0,), rates, shares, shares, d=params.d, exit_rate=params.d,
                            treatable=True, link_mode=params.link_mode)


def _hiv_hetero(params, dist, dist2):
    """Men are infected by women at asymmetry * i (default 0.5: male-to-female
    transmission is twice as likely), women by men at i."""
    shares = _hiv_shares(params)
    w_men, w_women = params.side_fraction, 1.0 - params.side_fraction
    i, eff, asymmetry = params.lam, params.treatment_efficacy, params.asymmetry
    rho0_2 = params.rho0 if params.rho0_2 is None else params.rho0_2
    pops = [_Population(dist, 2, params.stage_rates, 0.0, params.rho0, w_men, "m"),
            _Population(dist2, 2, params.stage_rates, 0.0, rho0_2, w_women, "w")]
    rates = [(asymmetry * i, eff * (asymmetry * i)), (i, eff * i)]
    return CompartmentModel(pops, (1, 0), rates, shares, shares, d=params.d,
                            exit_rate=params.d, treatable=True, link_mode=params.link_mode)


MODEL_BUILDERS = {"classic": _classic, "stratified": _stratified, "two_type": _two_type,
                  "bipartite": _bipartite, "hiv_msm": _hiv_msm, "hiv_hetero": _hiv_hetero}
MODEL_NAMES = tuple(MODEL_BUILDERS)


def build_model(name, params, dist=None, dist2=None):
    """Construct a named model from ``params``; dist2 defaults to dist for
    two-population models, and classic takes no distribution."""
    if name not in MODEL_BUILDERS:
        raise DomainError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    if dist is None and name != "classic":
        raise DomainError(f"model {name!r} requires a degree distribution")
    return MODEL_BUILDERS[name](params, dist, dist2 or dist)
