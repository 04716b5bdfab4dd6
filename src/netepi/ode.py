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

Every model is one ``CompartmentModel`` of populations x infected types x
stages with one record per population, laid out as s(nk) |
I(types, stages, nk) | removed(nk).  It is configured by data: one row
(dist, rho0, weight, name) per population, and per population the source
population it is infected through and one transmissibility per type; the
types' seed and routing shares, whose length is the type count (routing may
be "hazard": in proportion to each type's own one-type hazard); the stage
rates, one list or one per type (default one stage at 0); d, an exit rate
and whether a treatment coverage may set the shares, in a copy
(``at_coverage``): a built model never changes.  The six named models are
builders over it, each ``builder(params, dist, dist2)`` reading every
number and option from one ``EpidemicParams`` record:

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
chain whose final stage feeds the removed compartment; a builder without
``stage_rates`` passes one stage at rate mu (the HIV models' mu is 0).

Integrators are fixed-step euler and rk4 only: determinism and the exact
step-for-step match between euler dt=1 and the agent-based process outrank
speed here.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .degree import DegreeDistribution, mean_degree
from .errors import (NUMBERS, OPEN_UNIT, POSITIVE, RANGE, UNIT, Domain, DomainError,
                     Interval, StabilityError, check, check_kind, is_integer, items_in, one_of)
from .mixing import LinkProbabilities, hazard_profile, hazard_profile_two

STATE_FLOOR = -1e-6   # integration aborts below this
STATE_CEIL = 1.0 + 1e-6   # ... or above this in an s or infected entry
_FLOAT = np.dtype(np.float64)


LINK_MODES = one_of("active", "fixed")
METHODS = one_of("euler", "rk4")
# the interval each numeric EpidemicParams field must lie in, and split's
# domain; the config rows of these parameters take theirs from here
PARAM_INTERVALS = {"lam": UNIT, "mu": UNIT, "rho0": OPEN_UNIT, "d": UNIT, "lam2": UNIT,
                   "rho0_2": Interval(0, 1, hi_open=True), "treatment_efficacy": UNIT,
                   "rho0_type2": UNIT, "asymmetry": UNIT, "side_fraction": OPEN_UNIT}
SPLIT = Domain(lambda v: isinstance(v, str) and v == "hazard" or v in UNIT,
               "'hazard' or a number in [0, 1]")


def _or_none(interval):
    return Domain(lambda v: v is None or v in interval, f"None or {interval.what}")


# what EpidemicParams accepts: lam2 and rho0_2 may be None, split "hazard"
_PARAM_DOMAINS = {**PARAM_INTERVALS, "lam2": _or_none(UNIT), "split": SPLIT,
                  "rho0_2": _or_none(PARAM_INTERVALS["rho0_2"]), "link_mode": LINK_MODES}


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
        for name, domain in _PARAM_DOMAINS.items():
            check(name, getattr(self, name), domain)
        if self.stage_rates is not None:
            if self.mu != 0.0:
                raise DomainError("stage_rates replaces mu; set mu=0 when providing stages")
            object.__setattr__(self, "stage_rates", _stage_rows(self.stage_rates))


def _stage_rows(rates):
    """``rates`` as a tuple of stage rates in [0, 1], or of such rows of one
    length, one per type (hashable, as the record)."""
    seq = (list, tuple)
    nested = isinstance(rates, seq) and rates and isinstance(rates[0], seq)
    rows = rates if nested else [rates]
    if not (all(isinstance(r, seq) and r and all(map(UNIT.__contains__, r)) for r in rows)
            and len(set(map(len, rows))) == 1):
        raise DomainError(f"stage_rates must be rates in [0, 1], one list or one per type, "
                          f"got {rates!r}")
    rows = tuple(tuple(map(float, r)) for r in rows)
    return rows if nested else rows[0]


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
    masses = rho_types.dot(degrees).tolist()
    denom = float(degrees.dot(s)) + sum(masses) if fixed_edge_mass is None else fixed_edge_mass
    if denom <= 0.0:
        return [0.0] * len(masses)
    p, total = [], 0.0
    for m in masses:
        x = m / denom
        x = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
        p.append(x)
        total += x
    return [x / total for x in p] if total > 1.0 + 1e-12 else p


class _Population:
    """A population's one record, built by ``CompartmentModel`` from its row
    (dist, rho0, weight, name), ``source`` index, transmissibilities ``lam``
    and the model's stage matrix ``rates``.  Its slices (``bounded``: the s
    and infected entries), infected ``shape`` and ``rows`` (a slice per
    infected (type, stage) row) are the only place the layout s(nk) |
    I(types, stages, nk) | removed(nk) from ``offset`` is computed, and
    ``classes`` its degree classes' entries from ``first`` in the RHS's
    per-class inflow.  For the RHS: ``one_row`` (one type in one stage and
    ``exit_rate`` 0), ``type_rows``, the infected shape of one stage,
    ``flow_rates`` (None without stage flow), the 0-d ``mu``, the rate of the
    first type's first stage (a one-row population's removal rate), ``s0``,
    ``fixed_edge_mass``."""

    def __init__(self, row, source, lam, rates, offset, first, exit_rate):
        self.dist, self.rho0, self.weight, self.name = row
        self.k = self.dist.degrees   # integer grid; ``degrees`` is its float copy
        self.k.flags.writeable = False
        self.degrees = self.k.astype(float)
        self.nk = len(self.degrees)
        self.source, self.lam, self.rates = source, tuple(lam), rates
        self.n_types, self.n_stages = rates.shape
        self.one_row = rates.shape == (1, 1) and exit_rate == 0
        self.shape = (self.n_types, self.n_stages, self.nk)
        self.type_rows = (self.n_types, self.nk)
        a, b = offset + self.nk, offset + self.nk * (1 + rates.size)
        self.s, self.infected, self.removed = slice(offset, a), slice(a, b), slice(b, b + self.nk)
        self.bounded = slice(offset, b)
        self.classes = slice(first, first + self.nk)
        self.rows = tuple(slice(i, i + self.nk) for i in range(a, b, self.nk))
        self.flow_rates = rates[:, :, None] if rates.any() else None
        # a 0-d view: numpy scales an array by it faster than by a float
        self.mu = rates[0, 0, ...]
        self.s0 = (1.0 - self.rho0) * (self.weight * self.dist.pmf)
        self.fixed_edge_mass = self.weight * mean_degree(self.dist)


def _buffer(name, buf, shape):
    """``buf``, a float64 array of ``shape`` to write into, or a new one
    when it is None; anything else is a DomainError naming ``name``."""
    if buf is None:
        return np.empty(shape)
    if isinstance(buf, np.ndarray) and buf.shape == shape and buf.dtype == _FLOAT:
        return buf
    raise DomainError(f"{name} must be a float64 array of shape ({shape[0]},)")


_SHARES = items_in(UNIT.__contains__, "shares in [0, 1]")
_ROUTING = Domain(lambda v: isinstance(v, str) and v == "hazard" or v in _SHARES,
                  "'hazard' or shares in [0, 1]")
_WEIGHT = Interval(0, 1, lo_open=True)
_POPULATIONS = items_in(lambda r: (
    isinstance(r, (list, tuple)) and len(r) == 4 and isinstance(r[0], DegreeDistribution)
    and r[1] in PARAM_INTERVALS["rho0_2"] and r[2] in _WEIGHT and isinstance(r[3], str)),
    "rows (DegreeDistribution, rho0 in [0, 1), weight in (0, 1], name)")
_RATES = items_in(lambda r: isinstance(r, (list, tuple)) and all(map(UNIT.__contains__, r)),
                  "rows of transmissibilities in [0, 1]")


class CompartmentModel:
    """Populations x infected types x stages, configured by data (module
    docstring): ``populations`` holds one record per population, ``d`` is the
    replenishment rate, ``bounded`` marks the s and infected entries (the ones
    STATE_CEIL applies to), ``classes`` counts the degree classes of all
    populations (the length of the RHS's per-class inflow), ``shares`` is the
    routing column (None for "hazard").  Never written once built."""

    def __init__(self, populations, sources, rates, seed, routing, stage_rates=(0.0,), d=0.0,
                 exit_rate=0.0, treatable=False, link_mode="active"):
        check("link_mode", link_mode, LINK_MODES)
        for name, value in (("d", d), ("exit_rate", exit_rate)):
            check(name, value, UNIT)
        rows = tuple(check("populations", populations, _POPULATIONS))
        n = len(rows)
        sources = tuple(check("sources", sources, items_in(
            lambda i: is_integer(i) and 0 <= i < n, f"population indices in [0, {n})")))
        rates = tuple(check("rates", rates, _RATES))
        self.seed = tuple(check("seed", seed, _SHARES))
        check("routing", routing, _ROUTING)
        self.routing = routing if isinstance(routing, str) else tuple(routing)
        types = len(self.seed)
        # one type takes every new infection: the RHS routes it unscaled
        if (not n or types not in (1, 2) or types == 1 and self.routing != (1.0,)
                or (2 if self.routing == "hazard" else len(self.routing)) != types
                or len(sources) != n or len(rates) != n or any(len(r) != types for r in rates)):
            raise DomainError("populations, sources, rates and shares do not fit together")
        stages = np.array(_stage_rows(stage_rates))   # one rate row, or one per type
        stages = np.tile(stages, (types, 1)) if stages.ndim == 1 else stages
        if len(stages) != types:
            raise DomainError(f"stage_rates must be one rate list or one per type ({types})")
        self.d, self.exit_rate = d, exit_rate
        # 0-d copies: numpy scales an array by them faster than by a float
        self._d, self._exit = np.array(d), np.array(exit_rate)
        self.treatable, self.link_mode = treatable, link_mode
        self.populations, self.dim, self.classes = [], 0, 0
        for row, source, lam in zip(rows, sources, rates):
            pop = _Population(row, source, lam, stages, self.dim, self.classes, exit_rate)
            self.populations.append(pop)
            self.dim, self.classes = pop.removed.stop, pop.classes.stop
        self._shape, self._class_shape = (self.dim,), (self.classes,)
        self.bounded = np.zeros(self.dim, dtype=bool)
        for p in self.populations:
            self.bounded[p.bounded] = True
        self.shares = None if self.routing == "hazard" else np.array(self.routing)[:, None]

    def blocks(self, y):
        """Per population the (s, infected, removed) views of a state vector
        or of every row of a (..., dim) stack; infected is shaped
        (..., types, stages, nk)."""
        if y.shape[-1:] != (self.dim,):
            raise DomainError(f"state array has shape {y.shape}, expected (..., {self.dim})")
        lead = y.shape[:-1]
        return [(y[..., p.s], y[..., p.infected].reshape(*lead, *p.shape), y[..., p.removed])
                for p in self.populations]

    def initial_state(self) -> np.ndarray:
        y = np.zeros(self.dim)
        for pop in self.populations:
            y[pop.s] = pop.s0
            infected = y[pop.infected].reshape(pop.shape)
            for t, frac in enumerate(self.seed):
                infected[t, 0] = frac * pop.rho0 * (pop.weight * pop.dist.pmf)
        return y

    def at_coverage(self, coverage):
        """A copy that seeds and routes infections untreated : treated as
        1 - c : c.  It shares this model's populations."""
        if not self.treatable:
            raise DomainError("treatment coverage requires an HIV model")
        c = float(check("treatment coverage", coverage, UNIT))
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
    def _hazard_shares(pop, p):
        """Share of new infections entering each type in proportion to each
        type's own one-type hazard, shaped (types, nk)."""
        h1 = hazard_profile(pop.degrees, p[0], pop.lam[0])
        h2 = hazard_profile(pop.degrees, p[1], pop.lam[1])
        total = h1 + h2
        w1 = np.divide(h1, total, out=np.full(len(h1), 0.5), where=total > 0)
        return np.stack([w1, 1.0 - w1])

    def rhs_full(self, y, out=None, inflow=None):
        """(dy/dt, per-class new-infection inflow rate) at ``y``; no model reads
        a time.  The inflow holds, per population and in population order, s_k
        times the hazard of each degree class: the rate at which that class is
        newly infected (``classes`` entries; ``Trajectory.incidence`` is their
        sum).  dy is written into ``out`` (a float64 array of shape (dim,)) and
        the inflow into ``inflow`` (a float64 array of shape (classes,)) when
        they are given, and both are returned.  Neither buffer may overlap ``y``
        or the other: parts of dy are written before the last reads of ``y`` and
        of the inflow (a one-row population writes its removal row, then reads
        it back).  A one-row population forms its one link probability inline
        and its removal as mu I; every other takes ``_link_fractions``, and
        without stage flow writes its removal row as its infected rows' sum,
        scaled there by the exit rate: the bits of adding that product to a
        zeroed row, unless the product is -0.0."""
        if y.shape != self._shape:
            raise DomainError(f"state array has shape {y.shape}, expected ({self.dim},)")
        dy = _buffer("out", out, self._shape)
        rates = _buffer("inflow", inflow, self._class_shape)
        fixed = self.link_mode == "fixed"
        pops = self.populations
        for pop in pops:
            src, lam = pops[pop.source], pop.lam
            s, infected = y[pop.s], y[pop.infected]
            src_s, src_inf = (s, infected) if src is pop else (y[src.s], y[src.infected])
            if pop.one_row:
                # the same dot products as _link_fractions' (numpy takes a (1, nk)
                # row times a vector through the dot of two vectors)
                mass = float(src_inf.dot(src.degrees))
                denom = src.fixed_edge_mass if fixed else float(src.degrees.dot(src_s)) + mass
                if denom <= 0.0:
                    p = 0.0
                else:
                    p = mass / denom
                    p = 0.0 if p < 0.0 else 1.0 if p > 1.0 else p
                hazard = hazard_profile(pop.degrees, p, lam[0])
            else:
                if src.n_stages == 1:
                    rho = src_inf.reshape(src.type_rows)
                else:
                    rho = src_inf.reshape(src.shape).sum(axis=1)
                p = _link_fractions(src.degrees, src_s, rho,
                                    src.fixed_edge_mass if fixed else None)
                if len(lam) == 1:
                    hazard = hazard_profile(pop.degrees, p[0], lam[0])
                else:
                    hazard = hazard_profile_two(pop.degrees, LinkProbabilities(p[0], p[1]), *lam)
            inflow = np.multiply(s, hazard, rates[pop.classes])
            ds, d_inf, removal = dy[pop.s], dy[pop.infected], dy[pop.removed]
            if self.d > 0:
                np.subtract(pop.s0, s, ds)
                ds *= self._d
                ds -= inflow
            else:
                np.negative(inflow, ds)
            if pop.one_row:
                np.multiply(infected, pop.mu, removal)
                np.subtract(inflow, removal, d_inf)
                continue
            infected, d_inf = infected.reshape(pop.shape), d_inf.reshape(pop.shape)
            entry = d_inf[:, 0]
            np.multiply(self.shares if self.shares is not None
                        else self._hazard_shares(pop, p), inflow, entry)
            flow_free, exits = pop.flow_rates is None, self.exit_rate > 0
            if flow_free:
                # no stage flow: nothing moves between stages
                if pop.n_stages > 1:
                    d_inf[:, 1:] = 0.0
                if not exits:
                    removal.fill(0.0)
            else:
                flow = pop.flow_rates * infected
                entry -= flow[:, 0]
                if pop.n_stages > 1:
                    np.subtract(flow[:, :-1], flow[:, 1:], d_inf[:, 1:])
                np.add.reduce(flow[:, -1], axis=0, out=removal)
            if exits:
                d_inf -= self._exit * infected
                # the infected rows added left to right: the order, and so the
                # bits, of numpy's reduction over the leading axes
                stock = y[pop.rows[0]]
                for row in pop.rows[1:]:
                    stock = np.add(stock, y[row], removal if flow_free else None)
                if flow_free:
                    np.multiply(stock, self._exit, removal)
                else:
                    removal += self._exit * stock
        return dy, rates

    def totals(self, Y):
        """(susceptible, prevalence, removed) per row of a (rows, dim) state
        array clamped at 0: each population's s, infected and removed slices
        summed per row, then the populations added in order."""
        Y = np.maximum(Y, 0.0)
        parts = [[np.add.reduce(Y[:, part], 1) for part in (p.s, p.infected, p.removed)]
                 for p in self.populations]
        return tuple(reduce(np.add, column) for column in zip(*parts))

    def degree_labels(self) -> list[str]:
        return [f"{p.name}_{c}_k{k}" if p.name else f"{c}_k{k}"
                for p in self.populations for c in "si" for k in p.k]

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
    recorded state, the per-step count of new infections when dt = 1; for
    an integrated run it is the sum of the per-class inflow
    ``model.rhs_full`` returned at that state, and ``incidence[0]`` repeats
    ``incidence[1]``.
    ``susceptible``, ``prevalence`` and ``removed`` are totals over the
    states clamped at 0, computed from ``Y`` when one of them is first read
    (a Sobol sweep reads only ``incidence``).  ``model.blocks(Y)`` /
    ``model.blocks(dY)`` give the per-population s, infected and removed
    arrays of every row, and ``model.degree_columns(Y)`` the clamped
    per-degree table.
    """

    times: np.ndarray
    Y: np.ndarray
    dY: np.ndarray | None
    incidence: np.ndarray
    model: CompartmentModel

    def __post_init__(self):
        if not (self.times[1:] > self.times[:-1]).all():
            raise DomainError("trajectory times must be strictly increasing")
        if self.Y.shape != (len(self.times), self.model.dim):
            raise DomainError("states and times must align 1:1")

    @cached_property
    def _totals(self):
        return self.model.totals(self.Y)

    susceptible = property(lambda self: self._totals[0])
    prevalence = property(lambda self: self._totals[1])
    removed = property(lambda self: self._totals[2])

    def peak(self):
        """(peak prevalence, time of peak)."""
        i = int(np.argmax(self.prevalence))
        return float(self.prevalence[i]), float(self.times[i])

    def final_size(self) -> float:
        """1 - susceptible[-1], the fraction not susceptible at the end (the
        agent-based definition).  With d = 0 it is removed + prevalence; with
        d > 0 the removed tally counts exits and may pass 1, so it is not."""
        return float(1.0 - self.susceptible[-1])


COVERAGES = items_in(UNIT.__contains__, "a list of coverages in [0, 1]")


@dataclass(frozen=True)
class TreatmentSchedule:
    """Piecewise-constant treatment coverage switching at epoch times."""

    epochs: tuple
    coverages: tuple
    initial_coverage: float = 0.0

    def __post_init__(self):
        check("epochs", self.epochs, NUMBERS)
        check("coverages", self.coverages, COVERAGES)
        check("initial_coverage", self.initial_coverage, UNIT)
        if len(self.epochs) != len(self.coverages):
            raise DomainError("one coverage per epoch required")
        if any(b <= a for a, b in zip(self.epochs, self.epochs[1:])):
            raise DomainError("treatment epochs must be strictly increasing")

    def coverage_at(self, t) -> float:
        """The coverage in force at time ``t``, set by the last epoch <= t."""
        return (self.initial_coverage, *self.coverages)[bisect_right(self.epochs, t)]


def grid_times(t0, dt, last, first=0):
    """The times t0 + i * dt a run records, i = first..last."""
    return t0 + np.arange(first, last + 1) * dt


def time_grid(t_span, dt, schedule=None, ignore_outside=False):
    """``t_span`` at step ``dt`` cut at ``schedule``'s epochs into the
    segments (start, steps, coverage) a run steps through (coverage None
    without a schedule): t_span and each epoch a whole number of steps from
    t_span's start, each segment at least one step, and ``grid_times``
    strictly increasing in float64 (past 2**24 steps within 4 ulps of its
    resolution, over the first and last 2**23 steps only).  An epoch outside
    the open t_span is an error, or with ``ignore_outside`` never switches
    (one at or before the start sets the first coverage).  A failure is a
    DomainError whose ``field`` is the argument at fault: dt, t_span or schedule."""
    check("dt", dt, POSITIVE)
    t0, t1 = map(float, check("t_span", t_span, RANGE))
    check_kind("schedule", schedule, TreatmentSchedule, optional=True)

    def steps_to(t, what, field="schedule"):
        n = (t - t0) / dt
        if not math.isfinite(n):
            raise DomainError(f"{what} [{t0}, {t}] at dt={dt} is too many steps to count", field)
        n = int(round(n))
        if n < 1 or abs(t0 + n * dt - t) > 1e-9 * max(1.0, abs(t - t0)):
            raise DomainError(f"{what} [{t0}, {t}] is not a whole number of dt={dt} steps", field)
        return n

    steps = steps_to(t1, "t_span", "t_span")
    # more than 4 ulps of twice the larger end apart, the times are distinct;
    # closer, the first and last 128 chunks of 2**16 steps are compared
    if dt <= 4 * math.ulp(2 * max(abs(t0), abs(t1))):
        for lo in {*range(0, steps, 2 ** 16)[:128], *range(0, steps, 2 ** 16)[-128:]}:
            if not (np.diff(grid_times(t0, dt, min(lo + 2 ** 16, steps), lo)) > 0).all():
                raise DomainError(f"t_span [{t0}, {t1}] at dt={dt} has points t0 + i * dt "
                                  f"that float64 cannot tell apart", "t_span")
    if schedule is None:
        return [(t0, steps, None)]
    epochs = [e for e in schedule.epochs if t0 < e < t1]
    if len(epochs) < len(schedule.epochs) and not ignore_outside:
        raise DomainError("treatment epochs must lie strictly inside t_span", "schedule")
    marks = [0, *(steps_to(e, "treatment epoch") for e in epochs), steps]
    bounds, counts = [t0, *epochs, t1], [b - a for a, b in zip(marks, marks[1:])]
    if 0 in counts:   # an epoch within the slack of the next bound
        start, end = bounds[counts.index(0):][:2]
        raise DomainError(f"epoch {start!r} is not a whole number of dt={dt} steps, at least "
                          f"one, before {end!r}", "schedule")
    return [(start, n, schedule.coverage_at(start)) for start, n in zip(bounds, counts)]


def grid_index(times, t0, t1, steps):
    """The row of each of the float array ``times`` on the grid of ``steps``
    even steps from t0 to t1; one off it by more than 1e-9 (or NaN) is a DomainError."""
    dt = (t1 - t0) / steps if steps else 1.0
    i = np.clip(np.rint((times - t0) / dt), 0, steps)
    off = ~(np.abs(t0 + i * dt - times) <= 1e-9)
    if off.any():
        raise DomainError(f"observed time {float(times[off.argmax()])!r} does not lie on the "
                          f"model output grid {t0:g} + i * {dt:g}, i = 0..{steps}")
    return i.astype(np.intp)


# steps between two state range checks: a run that leaves the range stops
# within this many steps, and the check and the incidence sum cost a few
# reductions per chunk
_CHECK_ROWS = 64


def _first_unstable(Y, model):
    """Index of the first row of ``Y`` outside [STATE_FLOOR, STATE_CEIL] (the
    ceiling on ``model``'s s and infected entries only), or None.  The
    minimum and maximum of the whole array decide; only a maximum past the
    ceiling (a removed tally past 1, say) is looked up again over each
    population's bounded columns, and the rows are searched only when these
    fail.  NaN fails the first comparison (so the maxima compared after it
    hold none), -inf the first, +inf in an s or infected entry the last.  A
    removed entry takes only infected flows, so it turns +inf only through
    an infected flow already out of range, which leaves its infected entry
    -inf or NaN."""
    if (Y.min() >= STATE_FLOOR
            and (Y.max() <= STATE_CEIL
                 or max(Y[:, p.bounded].max() for p in model.populations) <= STATE_CEIL)):
        return None
    ok = (Y.min(axis=1) >= STATE_FLOOR) & (
        Y.max(axis=1, initial=-np.inf, where=model.bounded) <= STATE_CEIL)
    return int(np.argmin(ok))


def integrate(model: CompartmentModel, t_span, dt: float, method: str = "rk4",
              schedule: TreatmentSchedule | None = None) -> Trajectory:
    """Fixed-step integration recording the state at every step.

    euler with dt=1 reproduces the discrete-time process of the agent-based
    simulator step for step.  The run steps through ``time_grid``'s
    segments, so a coverage switch never falls inside an rk4 step: each
    segment of a schedule runs ``model.at_coverage`` at its coverage, and
    the standing infected mass is repartitioned at each epoch boundary;
    ``model`` itself never changes.  A step computes no time: it takes the
    next row of a buffer of _CHECK_ROWS rows for its per-class inflow,
    summed into ``incidence`` at the chunk's end.  Each step is written in
    place into the recorded arrays; the three rk4 stage states and their
    per-class inflows reuse buffers allocated per run.  The state range is
    checked over each segment's recorded rows, _CHECK_ROWS at a time and
    before any repartition; a failure raises StabilityError naming the
    time of the first step that left the range.
    """
    check_kind("model", model, CompartmentModel)
    check("method", method, METHODS)
    segments = time_grid(t_span, dt, schedule)
    t0, t1 = map(float, t_span)
    models = [model if c is None else model.at_coverage(c) for _, _, c in segments]
    rows = sum([n for _, n, _ in segments]) + 1
    try:
        Y, dY, incidence = np.empty((rows, model.dim)), np.empty((rows, model.dim)), np.empty(rows)
    except (MemoryError, ValueError):
        raise DomainError(f"t_span [{t0}, {t1}] at dt={dt} is {rows - 1} steps, too many to "
                          f"record", "t_span") from None
    # the per-class inflow of each step of a chunk, as row views made once
    rates = np.empty((min(rows - 1, _CHECK_ROWS), model.classes))
    rate_rows = list(rates)
    Y[0] = models[0].initial_state()
    # the step's factors as 0-d arrays: numpy scales an array by them
    # faster than by a float
    step = np.array(dt)
    euler = method == "euler"
    unit = euler and dt == 1.0   # y + 1.0 k1 is y + k1: one add per step
    if not euler:
        stage, k2, k3, k4 = np.empty((4, model.dim))   # rk4 stage state and slopes
        stage_rates = np.empty(model.classes)   # the stages' inflows, never read
        half, two, sixth = np.array(dt / 2), np.array(2.0), np.array(dt / 6)
    row = 0
    # a run that leaves the range keeps stepping through inf and NaN to the
    # end of its chunk of _CHECK_ROWS steps; the chunk check reports it
    with np.errstate(all="ignore"):
        for seg_model, (seg_start, n, _) in zip(models, segments):
            rhs = seg_model.rhs_full
            if seg_start > t0:
                # switch epoch: repartition the infected stock, re-record the
                # boundary state post-switch (aggregates are continuous there)
                Y[row] = seg_model.repartition(Y[row])
            y = Y[row]
            for chunk in range(0, n, _CHECK_ROWS):
                first = row
                for rate in rate_rows[:n - chunk]:
                    k1, nxt = dY[row], Y[row + 1]
                    rhs(y, k1, rate)
                    if unit:
                        np.add(y, k1, nxt)
                    elif euler:
                        np.multiply(k1, step, nxt)
                        nxt += y
                    else:
                        # each stage state y + h k is built as h k + y in
                        # ``stage``, and the slopes are summed in place into
                        # k2: the same roundings as the written-out formula
                        for scale, k, out in ((half, k1, k2), (half, k2, k3), (step, k3, k4)):
                            np.multiply(k, scale, stage)
                            stage += y
                            rhs(stage, out, stage_rates)
                        k2 *= two
                        k2 += k1
                        k3 *= two
                        k2 += k3
                        k2 += k4
                        k2 *= sixth
                        np.add(y, k2, nxt)
                    y = nxt
                    row += 1
                # each step's incidence is the inflow at the state it stepped
                # from, one row on; numpy sums each row in a 1-d array's order
                # and the populations add from 0.0: a per-call total's bits
                totals = incidence[first + 1:row + 1]
                totals.fill(0.0)
                for p in model.populations:
                    totals += np.add.reduce(rates[:row - first, p.classes], axis=1)
                bad = _first_unstable(Y[first + 1:row + 1], model)
                if bad is not None:
                    t = seg_start + (chunk + bad) * dt
                    raise StabilityError(f"state left [{STATE_FLOOR}, {STATE_CEIL}] at "
                                         f"t={t + dt:g}; try a smaller dt")
    # the final slope; the inflow at t1 starts no step, so it is not summed
    models[-1].rhs_full(Y[row], dY[row], rate_rows[0])
    incidence[0] = incidence[1]
    return Trajectory(times=grid_times(t0, dt, rows - 1), Y=Y, dY=dY, incidence=incidence,
                      model=model)


# the six named models: builders over CompartmentModel

_SINGLE_DEGREE = DegreeDistribution(1, 1, np.array([1.0]))
_UNTREATED = (1.0, 0.0)   # the seed and routing at coverage 0, where HIV models build


def _classic(params, dist, dist2):
    """Homogeneous SIR: the degenerate network with one link per node."""
    return _stratified(replace(params, link_mode="fixed"), _SINGLE_DEGREE, None)


def _stratified(params, dist, dist2):
    return CompartmentModel([(dist, params.rho0, 1.0, "")], (0,), [(params.lam,)], (1.0,), (1.0,),
                            params.stage_rates or (params.mu,), d=params.d,
                            link_mode=params.link_mode)


def _two_type(params, dist, dist2):
    """Group 1 gets new infections by its share of the hazard, or a fixed ``split``."""
    split, seed2 = params.split, params.rho0_type2
    routing = split if split == "hazard" else (float(split), 1.0 - float(split))
    return CompartmentModel([(dist, params.rho0, 1.0, "")], (0,), [(params.lam, params.lam2)],
                            (1.0 - seed2, seed2), routing, params.stage_rates or (params.mu,),
                            d=params.d, link_mode=params.link_mode)


def _bipartite(params, dist, dist2):
    """Side 2 is infected from side 1 at lam, side 1 from side 2 at lam2."""
    w1, w2 = params.side_fraction, 1.0 - params.side_fraction
    rho0_2 = params.rho0 if params.rho0_2 is None else params.rho0_2
    rows = [(dist, params.rho0, w1, "s1"), (dist2, rho0_2, w2, "s2")]
    return CompartmentModel(rows, (1, 0), [(params.lam2,), (params.lam,)], (1.0,), (1.0,),
                            params.stage_rates or (params.mu,), d=params.d,
                            link_mode=params.link_mode)


def _hiv_msm(params, dist, dist2):
    rates = [(params.lam, params.treatment_efficacy * params.lam)]
    return CompartmentModel([(dist, params.rho0, 1.0, "")], (0,), rates, _UNTREATED, _UNTREATED,
                            params.stage_rates or (params.mu,), d=params.d, exit_rate=params.d,
                            treatable=True, link_mode=params.link_mode)


def _hiv_hetero(params, dist, dist2):
    """Men are infected by women at asymmetry * i (default 0.5: male-to-female
    transmission is twice as likely), women by men at i."""
    w_men, w_women = params.side_fraction, 1.0 - params.side_fraction
    i, eff, asymmetry = params.lam, params.treatment_efficacy, params.asymmetry
    rho0_2 = params.rho0 if params.rho0_2 is None else params.rho0_2
    rows = [(dist, params.rho0, w_men, "m"), (dist2, rho0_2, w_women, "w")]
    rates = [(asymmetry * i, eff * (asymmetry * i)), (i, eff * i)]
    return CompartmentModel(rows, (1, 0), rates, _UNTREATED, _UNTREATED,
                            params.stage_rates or (params.mu,), d=params.d, exit_rate=params.d,
                            treatable=True, link_mode=params.link_mode)


MODEL_BUILDERS = {"classic": _classic, "stratified": _stratified, "two_type": _two_type,
                  "bipartite": _bipartite, "hiv_msm": _hiv_msm, "hiv_hetero": _hiv_hetero}
MODEL_NAMES = tuple(MODEL_BUILDERS)
MODELS = one_of(*MODEL_NAMES)


def build_model(name, params, dist=None, dist2=None):
    """Construct a named model from ``params``; dist2 defaults to dist for
    two-population models, and classic takes no distribution."""
    check("name", name, MODELS)
    check_kind("params", params, EpidemicParams)
    check_kind("dist", dist, DegreeDistribution, optional=True)
    check_kind("dist2", dist2, DegreeDistribution, optional=True)
    if dist is None and name != "classic":
        raise DomainError(f"model {name!r} requires a degree distribution", "dist")
    if params.lam2 is None and name in ("two_type", "bipartite"):
        raise DomainError(f"model {name!r} requires lam2", "lam2")
    if name.startswith("hiv") and params.mu != 0.0:
        raise DomainError("hiv models have no mu removal; use d and/or stage_rates", "mu")
    return MODEL_BUILDERS[name](params, dist, dist2 or dist)
