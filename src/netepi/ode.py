"""Right-hand sides and fixed-step integration for the network SIR models.

All models track fractions of the initial population, stratified by node
degree.  The transmission term couples degree classes through the link
probability p = <k_inf>/<k>, recomputed from the instantaneous state at
every evaluation: the links of the network are assumed to be fully redrawn
each time step, so only the degree distribution and the current compartment
masses matter.  A susceptible of degree k is then infected with the
closed-form hazard 1 - (1 - lam p)^k (two groups: 1 - (1 - lam1 p1 -
lam2 p2)^k), the link-count average computed once per population per RHS
by ``mixing.hazard_profile`` / ``hazard_profile_two``.

Model catalogue
---------------
classic      s' = -lam rho s,  rho' = -mu rho + lam rho s,  r' = mu rho
stratified   per-degree s_k, rho_k with binomial link mixing
two_type     two infected groups with transmissibilities lam, lam2 and
             multinomial link mixing
bipartite    two populations, infection only across sides
hiv_msm      one population, treated/untreated infected, demographic
             turnover, piecewise-constant treatment coverage
hiv_hetero   men/women populations with asymmetric transmission and the
             same treatment machinery

The demographic term d(s_k(0) - s_k(t)) replenishes susceptibles toward
their initial level; in the HIV models infected nodes additionally leave
the network at rate d (counted in the removed aggregate).  Disease
progression through multiple infected stages is available as a per-type
rate chain whose final stage feeds the removed compartment; the default is
a single stage at rate mu.

Integrators are fixed-step euler and rk4 only: determinism and the exact
step-for-step match between euler dt=1 and the agent-based process outrank
speed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degree import DegreeDistribution, mean_degree
from .errors import DomainError, StabilityError
from .mixing import LinkProbabilities, hazard_profile, hazard_profile_two

STATE_FLOOR = -1e-6   # integration aborts below this
STATE_CEIL = 1.0 + 1e-6


@dataclass(frozen=True)
class EpidemicParams:
    """Transmission/removal/demographic rates plus the initial infected
    fraction.

    ``lam2`` is the second transmission rate where a model needs one (group 2
    in two_type, the reverse direction in bipartite).  ``rho0_2`` optionally
    seeds the second population of a bipartite model differently (0 allowed);
    it defaults to ``rho0``.  ``treatment_efficacy`` scales transmission from
    treated infectors in the HIV models.
    """

    lam: float
    mu: float = 0.0
    rho0: float = 0.01
    d: float = 0.0
    lam2: float | None = None
    rho0_2: float | None = None
    treatment_efficacy: float = 0.4

    def __post_init__(self):
        for name in ("lam", "mu", "d", "treatment_efficacy"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"{name} must be in [0, 1], got {v}")
        if not 0.0 < self.rho0 < 1.0:
            raise DomainError(f"rho0 must be in (0, 1), got {self.rho0}")
        if self.lam2 is not None and not 0.0 <= self.lam2 <= 1.0:
            raise DomainError(f"lam2 must be in [0, 1], got {self.lam2}")
        if self.rho0_2 is not None and not 0.0 <= self.rho0_2 < 1.0:
            raise DomainError(f"rho0_2 must be in [0, 1), got {self.rho0_2}")


@dataclass(frozen=True)
class StratifiedState:
    """Snapshot of the compartments at one time point.

    ``s`` holds per-degree susceptible fractions, ``rho`` per-degree infected
    fractions with one row per infected type, ``r`` the aggregate removed
    fraction over all populations.  ``removed_k`` carries the per-degree
    removed split used by the healthy-group phase plots.  Second-population
    fields are None for single-population models.
    """

    degrees: np.ndarray
    s: np.ndarray
    rho: np.ndarray
    r: float
    removed_k: np.ndarray
    degrees2: np.ndarray | None = None
    s2: np.ndarray | None = None
    rho2: np.ndarray | None = None
    removed_k2: np.ndarray | None = None

    @property
    def prevalence(self) -> float:
        total = float(self.rho.sum())
        if self.rho2 is not None:
            total += float(self.rho2.sum())
        return total

    @property
    def susceptible(self) -> float:
        total = float(self.s.sum())
        if self.s2 is not None:
            total += float(self.s2.sum())
        return total


def classic_sir_rhs(state, params: EpidemicParams):
    """Time derivative (ds, drho, dr) of the classic SIR triple."""
    s, rho, r = state
    infections = params.lam * rho * s
    return (-infections, infections - params.mu * rho, params.mu * rho)


def _link_fractions(degrees, s, rho_types, fixed_edge_mass=None):
    """Link probabilities (one per infected type) from the current state.

    Active-denominator mode divides infected edge mass by the edge mass of
    all still-present nodes (removed nodes leave the network); passing
    ``fixed_edge_mass`` divides by the static initial edge mass instead.
    Returns (p_array, extinct).
    """
    infected_mass = rho_types @ degrees
    if fixed_edge_mass is None:
        denom = float(degrees @ s) + float(infected_mass.sum())
    else:
        denom = fixed_edge_mass
    if denom <= 0.0:
        return np.zeros(len(rho_types)), True
    return np.clip(infected_mass / denom, 0.0, 1.0), False


def current_link_probability(
    state: StratifiedState, dist: DegreeDistribution, mode: str = "active"
) -> LinkProbabilities:
    """Probability that a random link points at an infected node.

    p = <k_inf>/<k> with the denominator taken over still-active nodes
    (mode="active", the default: removed nodes leave the network) or over
    the static degree distribution (mode="fixed").  Two-type states get one
    probability per infected type.
    """
    if mode not in ("active", "fixed"):
        raise DomainError(f"mode must be 'active' or 'fixed', got {mode!r}")
    if state.degrees.shape != dist.degrees.shape or np.any(state.degrees != dist.degrees):
        raise DomainError("state degree support does not match the distribution")
    fixed = mean_degree(dist) if mode == "fixed" else None
    p, extinct = _link_fractions(state.degrees.astype(float), state.s, np.atleast_2d(state.rho), fixed)
    p2 = float(p[1]) if len(p) > 1 else 0.0
    return LinkProbabilities(float(p[0]), p2, extinct=extinct)


def _stage_matrix(stage_rates, n_types, mu):
    """Per-type stage-rate rows; default one stage at rate mu."""
    if stage_rates is None:
        return np.full((n_types, 1), mu)
    rates = np.asarray(stage_rates, dtype=float)
    if rates.ndim == 1:
        rates = np.tile(rates, (n_types, 1))
    if rates.ndim != 2 or rates.shape[0] != n_types:
        raise DomainError(f"stage_rates must be one rate list or one per type ({n_types})")
    if np.any(rates < 0) or np.any(rates > 1):
        raise DomainError("stage rates must be in [0, 1]")
    return rates


class _Population:
    """Per-population compartment block: s(nk) | I(types, stages, nk) | removed(nk)."""

    def __init__(self, dist: DegreeDistribution, n_types: int, stage_rates, mu: float, weight: float = 1.0):
        self.dist = dist
        self.degrees = dist.degrees.astype(float)
        self.nk = len(self.degrees)
        self.n_types = n_types
        self.rates = _stage_matrix(stage_rates, n_types, mu)
        self.n_stages = self.rates.shape[1]
        self.weight = weight
        self.size = self.nk * (1 + n_types * self.n_stages + 1)
        self.fixed_edge_mass = weight * mean_degree(dist)

    def split(self, y, offset):
        nk = self.nk
        s = y[offset:offset + nk]
        infected = y[offset + nk:offset + nk + self.n_types * self.n_stages * nk]
        infected = infected.reshape(self.n_types, self.n_stages, nk)
        removed = y[offset + nk + self.n_types * self.n_stages * nk:offset + self.size]
        return s, infected, removed

    def initial(self, rho0, type_fractions):
        base = self.weight * self.dist.pmf
        s = (1.0 - rho0) * base
        infected = np.zeros((self.n_types, self.n_stages, self.nk))
        for t, frac in enumerate(type_fractions):
            infected[t, 0] = frac * rho0 * base
        return np.concatenate([s, infected.ravel(), np.zeros(self.nk)])


class _ModelBase:
    """Shared plumbing: state layout, views, aggregates."""

    populations: list[_Population]
    block_names: tuple[str, ...]

    def __init__(self, params: EpidemicParams, link_mode: str = "active"):
        if link_mode not in ("active", "fixed"):
            raise DomainError(f"link_mode must be 'active' or 'fixed', got {link_mode!r}")
        self.params = params
        self.link_mode = link_mode

    def _finish_layout(self):
        self.offsets = np.cumsum([0] + [p.size for p in self.populations])
        self.dim = int(self.offsets[-1])
        self._s0 = [p.split(self.initial_state(), off)[0].copy()
                    for p, off in zip(self.populations, self.offsets)]

    def blocks(self, y):
        if y.shape != (self.dim,):
            raise DomainError(f"state vector has shape {y.shape}, expected ({self.dim},)")
        return [p.split(y, off) for p, off in zip(self.populations, self.offsets)]

    def initial_state(self) -> np.ndarray:
        raise NotImplementedError

    def rhs_full(self, t, y):
        """(dy/dt, aggregate new-infection inflow rate)."""
        raise NotImplementedError

    def rhs(self, t, y):
        return self.rhs_full(t, y)[0]

    def inflow_rate(self, y) -> float:
        return self.rhs_full(0.0, y)[1]

    def view(self, y, clamp: bool = True) -> StratifiedState:
        parts = []
        for pop, (s, infected, removed) in zip(self.populations, self.blocks(y)):
            rho = infected.sum(axis=1)
            if clamp:
                s, rho, removed = np.maximum(s, 0.0), np.maximum(rho, 0.0), np.maximum(removed, 0.0)
            else:
                s, removed = s.copy(), removed.copy()
            parts.append((pop.dist.degrees, s, rho, removed))
        r = float(sum(part[3].sum() for part in parts))
        first, second = parts[0], (parts[1] if len(parts) > 1 else None)
        return StratifiedState(
            degrees=first[0], s=first[1], rho=first[2], r=r, removed_k=first[3],
            degrees2=None if second is None else second[0],
            s2=None if second is None else second[1],
            rho2=None if second is None else second[2],
            removed_k2=None if second is None else second[3],
        )

    def state_labels(self) -> list[str]:
        labels = []
        for pop, name in zip(self.populations, self.block_names):
            prefix = f"{name}_" if name else ""
            labels += [f"{prefix}s_k{k}" for k in pop.dist.degrees]
            labels += [f"{prefix}i_k{k}" for k in pop.dist.degrees]
        return labels

    def state_columns(self, state: StratifiedState) -> list[float]:
        cols = list(state.s) + list(state.rho.sum(axis=0))
        if state.s2 is not None:
            cols += list(state.s2) + list(state.rho2.sum(axis=0))
        return cols

    def _stage_flow(self, pop: _Population, infected):
        """(dI from stage transitions, per-degree removal outflow)."""
        flow = pop.rates[:, :, None] * infected
        d_inf = -flow
        d_inf[:, 1:] += flow[:, :-1]
        return d_inf, flow[:, -1].sum(axis=0)


class ClassicSIR(_ModelBase):
    """Homogeneous SIR: the degenerate network with one link per node."""

    block_names = ("",)

    def __init__(self, params: EpidemicParams, link_mode: str = "active"):
        super().__init__(params, link_mode)
        self.dim = 3
        self.degrees = np.array([1])

    def initial_state(self):
        return np.array([1.0 - self.params.rho0, self.params.rho0, 0.0])

    def rhs_full(self, t, y):
        ds, drho, dr = classic_sir_rhs(y, self.params)
        return np.array([ds, drho, dr]), self.params.lam * y[1] * y[0]

    def view(self, y, clamp: bool = True):
        s, rho, r = (max(v, 0.0) for v in y) if clamp else y
        return StratifiedState(
            degrees=np.array([1]), s=np.array([s]), rho=np.array([[rho]]),
            r=float(r), removed_k=np.array([float(r)]),
        )

    def state_labels(self):
        return ["s_k1", "i_k1"]


class StratifiedSIR(_ModelBase):
    """Degree-stratified SIR with binomial link mixing."""

    block_names = ("",)

    def __init__(self, params, dist, link_mode="active", stage_rates=None):
        super().__init__(params, link_mode)
        if stage_rates is not None and params.mu != 0.0:
            raise DomainError("stage_rates replaces mu; set mu=0 when providing stages")
        self.populations = [_Population(dist, 1, stage_rates, params.mu)]
        self._finish_layout()

    def initial_state(self):
        return self.populations[0].initial(self.params.rho0, [1.0])

    def rhs_full(self, t, y):
        pop = self.populations[0]
        s, infected, _ = self.blocks(y)[0]
        rho = infected.sum(axis=1)
        fixed = pop.fixed_edge_mass if self.link_mode == "fixed" else None
        p, _ = _link_fractions(pop.degrees, s, rho, fixed)
        hazard = hazard_profile(pop.dist.degrees, float(p[0]), self.params.lam)
        inflow = s * hazard
        ds = -inflow
        if self.params.d > 0:
            ds = ds + self.params.d * (self._s0[0] - s)
        d_inf, removal = self._stage_flow(pop, infected)
        d_inf[0, 0] += inflow
        return np.concatenate([ds, d_inf.ravel(), removal]), float(inflow.sum())


class TwoTypeSIR(_ModelBase):
    """Two infected groups with transmissibilities lam and lam2.

    New infections are split between the groups by ``split``: the default
    "hazard" assigns proportionally to each group's marginal single-group
    hazard; a float fixes the fraction routed to group 1.
    """

    block_names = ("",)

    def __init__(self, params, dist, link_mode="active", split="hazard",
                 rho0_type2=0.0, stage_rates=None):
        super().__init__(params, link_mode)
        if params.lam2 is None:
            raise DomainError("two_type model requires lam2")
        if stage_rates is not None and params.mu != 0.0:
            raise DomainError("stage_rates replaces mu; set mu=0 when providing stages")
        if split != "hazard" and not 0.0 <= float(split) <= 1.0:
            raise DomainError(f"split must be 'hazard' or a fraction in [0, 1], got {split!r}")
        if not 0.0 <= rho0_type2 <= 1.0:
            raise DomainError(f"rho0_type2 must be in [0, 1], got {rho0_type2}")
        self.split = split
        self.rho0_type2 = rho0_type2
        self.populations = [_Population(dist, 2, stage_rates, params.mu)]
        self._finish_layout()

    def initial_state(self):
        return self.populations[0].initial(
            self.params.rho0, [1.0 - self.rho0_type2, self.rho0_type2])

    def _split_fractions(self, degrees, p1, p2):
        if self.split != "hazard":
            return float(self.split)
        h1 = hazard_profile(degrees, p1, self.params.lam)
        h2 = hazard_profile(degrees, p2, self.params.lam2)
        total = h1 + h2
        return np.divide(h1, total, out=np.full(len(h1), 0.5), where=total > 0)

    def rhs_full(self, t, y):
        pop = self.populations[0]
        s, infected, _ = self.blocks(y)[0]
        rho = infected.sum(axis=1)
        fixed = pop.fixed_edge_mass if self.link_mode == "fixed" else None
        p, _ = _link_fractions(pop.degrees, s, rho, fixed)
        probs = LinkProbabilities(float(p[0]), float(p[1]))
        hazard = hazard_profile_two(pop.dist.degrees, probs, self.params.lam, self.params.lam2)
        inflow = s * hazard
        ds = -inflow
        if self.params.d > 0:
            ds = ds + self.params.d * (self._s0[0] - s)
        w1 = self._split_fractions(pop.dist.degrees, float(p[0]), float(p[1]))
        d_inf, removal = self._stage_flow(pop, infected)
        d_inf[0, 0] += w1 * inflow
        d_inf[1, 0] += (1.0 - w1) * inflow
        return np.concatenate([ds, d_inf.ravel(), removal]), float(inflow.sum())


class BipartiteSIR(_ModelBase):
    """Two populations where infection only crosses between sides.

    lam is the side-1 -> side-2 transmission rate, lam2 the reverse.  Each
    side is seeded with half the population (``side_fraction`` adjusts).
    """

    block_names = ("s1", "s2")

    def __init__(self, params, dists, link_mode="active", side_fraction=0.5,
                 stage_rates=None):
        super().__init__(params, link_mode)
        if params.lam2 is None:
            raise DomainError("bipartite model requires lam2")
        if stage_rates is not None and params.mu != 0.0:
            raise DomainError("stage_rates replaces mu; set mu=0 when providing stages")
        if not 0.0 < side_fraction < 1.0:
            raise DomainError(f"side_fraction must be in (0, 1), got {side_fraction}")
        self.populations = [
            _Population(dists[0], 1, stage_rates, params.mu, weight=side_fraction),
            _Population(dists[1], 1, stage_rates, params.mu, weight=1.0 - side_fraction),
        ]
        self._finish_layout()

    def initial_state(self):
        rho0_2 = self.params.rho0 if self.params.rho0_2 is None else self.params.rho0_2
        return np.concatenate([
            self.populations[0].initial(self.params.rho0, [1.0]),
            self.populations[1].initial(rho0_2, [1.0]),
        ])

    def rhs_full(self, t, y):
        (s1, inf1, _), (s2, inf2, _) = self.blocks(y)
        pops = self.populations
        parts, total_inflow = [], 0.0
        sources = [(s2, inf2, pops[1]), (s1, inf1, pops[0])]
        rates = [self.params.lam2, self.params.lam]   # into side 1, into side 2
        for (s, infected, pop), (src_s, src_inf, src_pop), rate in zip(
                [(s1, inf1, pops[0]), (s2, inf2, pops[1])], sources, rates):
            fixed = src_pop.fixed_edge_mass if self.link_mode == "fixed" else None
            p, _ = _link_fractions(src_pop.degrees, src_s, src_inf.sum(axis=1), fixed)
            hazard = hazard_profile(pop.dist.degrees, float(p[0]), rate)
            inflow = s * hazard
            ds = -inflow
            if self.params.d > 0:
                ds = ds + self.params.d * (self._s0[len(parts)] - s)
            d_inf, removal = self._stage_flow(pop, infected)
            d_inf[0, 0] += inflow
            parts.append(np.concatenate([ds, d_inf.ravel(), removal]))
            total_inflow += float(inflow.sum())
        return np.concatenate(parts), total_inflow


class _TreatmentMixin:
    """Piecewise-constant treatment coverage shared by the HIV models."""

    @staticmethod
    def _check_coverage(c):
        if not 0.0 <= c <= 1.0:
            raise DomainError(f"treatment coverage must be in [0, 1], got {c}")
        return float(c)

    def set_coverage(self, coverage):
        self.coverage = self._check_coverage(coverage)

    def repartition(self, y, coverage):
        """Reassign the standing infected mass to match a new coverage."""
        self.set_coverage(coverage)
        y = y.copy()
        for pop, off in zip(self.populations, self.offsets):
            s, infected, _ = pop.split(y, off)
            total = infected.sum(axis=0)
            infected[0] = (1.0 - coverage) * total
            infected[1] = coverage * total
        return y


class HivMsm(_TreatmentMixin, _ModelBase):
    """HIV in one population with treated and untreated infected groups.

    Susceptibles are infected at rate i by untreated contacts and
    efficacy * i by treated ones.  There is no recovery; infected nodes
    leave through demographic turnover d, susceptibles are replenished
    toward their initial level.  ``coverage`` (set per treatment epoch) is
    the fraction of infected classed as treated: it routes new infections
    and repartitions the standing infected mass at each epoch switch.
    """

    block_names = ("",)

    def __init__(self, params, dist, link_mode="active", coverage=0.0, stage_rates=None):
        super().__init__(params, link_mode)
        if params.mu != 0.0:
            raise DomainError("hiv models have no mu removal; use d and/or stage_rates")
        self.populations = [_Population(dist, 2, stage_rates, 0.0)]
        self.coverage = self._check_coverage(coverage)
        self._finish_layout()

    def _lambdas(self):
        i = self.params.lam
        return i, self.params.treatment_efficacy * i

    def rhs_full(self, t, y):
        pop = self.populations[0]
        s, infected, _ = self.blocks(y)[0]
        rho = infected.sum(axis=1)
        fixed = pop.fixed_edge_mass if self.link_mode == "fixed" else None
        p, _ = _link_fractions(pop.degrees, s, rho, fixed)
        lam1, lam2 = self._lambdas()
        probs = LinkProbabilities(float(p[0]), float(p[1]))
        hazard = hazard_profile_two(pop.dist.degrees, probs, lam1, lam2)
        inflow = s * hazard
        d = self.params.d
        ds = -inflow + d * (self._s0[0] - s)
        d_inf, removal = self._stage_flow(pop, infected)
        d_inf[0, 0] += (1.0 - self.coverage) * inflow
        d_inf[1, 0] += self.coverage * inflow
        d_inf -= d * infected
        removal = removal + d * rho.sum(axis=0)
        return np.concatenate([ds, d_inf.ravel(), removal]), float(inflow.sum())

    def initial_state(self):
        return self.populations[0].initial(
            self.params.rho0, [1.0 - self.coverage, self.coverage])


class HivHetero(_TreatmentMixin, _ModelBase):
    """HIV across men/women populations with treated/untreated groups.

    Women are infected by men at rate i; men by women at asymmetry * i
    (default 0.5: male-to-female transmission is twice as likely).  Treated
    infectors transmit at efficacy * rate on either side.
    """

    block_names = ("m", "w")

    def __init__(self, params, dists, link_mode="active", coverage=0.0,
                 asymmetry=0.5, side_fraction=0.5, stage_rates=None):
        super().__init__(params, link_mode)
        if params.mu != 0.0:
            raise DomainError("hiv models have no mu removal; use d and/or stage_rates")
        if not 0.0 <= asymmetry <= 1.0:
            raise DomainError(f"asymmetry must be in [0, 1], got {asymmetry}")
        if not 0.0 < side_fraction < 1.0:
            raise DomainError(f"side_fraction must be in (0, 1), got {side_fraction}")
        self.asymmetry = asymmetry
        self.populations = [
            _Population(dists[0], 2, stage_rates, 0.0, weight=side_fraction),
            _Population(dists[1], 2, stage_rates, 0.0, weight=1.0 - side_fraction),
        ]
        self.coverage = self._check_coverage(coverage)
        self._finish_layout()

    def initial_state(self):
        rho0_2 = self.params.rho0 if self.params.rho0_2 is None else self.params.rho0_2
        fractions = [1.0 - self.coverage, self.coverage]
        return np.concatenate([
            self.populations[0].initial(self.params.rho0, fractions),
            self.populations[1].initial(rho0_2, fractions),
        ])

    def rhs_full(self, t, y):
        (sm, inf_m, _), (sw, inf_w, _) = self.blocks(y)
        pops = self.populations
        i = self.params.lam
        eff = self.params.treatment_efficacy
        # men are infected by women at asymmetry * i; women by men at i
        configs = [
            ((sm, inf_m, pops[0]), (sw, inf_w, pops[1]), self.asymmetry * i),
            ((sw, inf_w, pops[1]), (sm, inf_m, pops[0]), i),
        ]
        d = self.params.d
        parts, total_inflow = [], 0.0
        for idx, ((s, infected, pop), (src_s, src_inf, src_pop), rate) in enumerate(configs):
            fixed = src_pop.fixed_edge_mass if self.link_mode == "fixed" else None
            p, _ = _link_fractions(src_pop.degrees, src_s, src_inf.sum(axis=1), fixed)
            probs = LinkProbabilities(float(p[0]), float(p[1]))
            hazard = hazard_profile_two(pop.dist.degrees, probs, rate, eff * rate)
            inflow = s * hazard
            ds = -inflow + d * (self._s0[idx] - s)
            d_inf, removal = self._stage_flow(pop, infected)
            d_inf[0, 0] += (1.0 - self.coverage) * inflow
            d_inf[1, 0] += self.coverage * inflow
            d_inf -= d * infected
            removal = removal + d * infected.sum(axis=(0, 1))
            parts.append(np.concatenate([ds, d_inf.ravel(), removal]))
            total_inflow += float(inflow.sum())
        return np.concatenate(parts), total_inflow


@dataclass
class Trajectory:
    """Time-indexed states plus derived aggregates.

    ``states[i]`` is the (output-clamped) compartment snapshot at
    ``times[i]``; ``derivs[i]`` the right-hand side evaluated at the recorded
    state (None for agent-based trajectories).  ``incidence[i]`` is the
    new-infection inflow rate at the previous recorded state, the per-step
    count of new infections when dt = 1.
    """

    times: np.ndarray
    states: list
    derivs: list | None
    susceptible: np.ndarray
    prevalence: np.ndarray
    removed: np.ndarray
    incidence: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("trajectory times must be strictly increasing")
        if len(self.states) != len(self.times):
            raise DomainError("states and times must align 1:1")

    def peak(self):
        """(peak prevalence, time of peak)."""
        i = int(np.argmax(self.prevalence))
        return float(self.prevalence[i]), float(self.times[i])

    def final_size(self) -> float:
        return float(self.removed[-1] + self.prevalence[-1])


@dataclass(frozen=True)
class TreatmentSchedule:
    """Piecewise-constant treatment coverage switching at epoch times."""

    epochs: tuple
    coverages: tuple
    initial_coverage: float = 0.0

    def __post_init__(self):
        if len(self.epochs) != len(self.coverages):
            raise DomainError("one coverage per epoch required")
        if any(b <= a for a, b in zip(self.epochs, self.epochs[1:])):
            raise DomainError("treatment epochs must be strictly increasing")
        for c in (self.initial_coverage, *self.coverages):
            if not 0.0 <= c <= 1.0:
                raise DomainError(f"coverage must be in [0, 1], got {c}")


def _check_grid(t0, t1, dt, what="t_span"):
    n = int(round((t1 - t0) / dt))
    if n < 1 or abs(t0 + n * dt - t1) > 1e-9 * max(1.0, abs(t1 - t0)):
        raise DomainError(f"{what} [{t0}, {t1}] is not a whole number of dt={dt} steps")
    return n


def integrate(model, t_span, dt: float, method: str = "rk4",
              schedule: TreatmentSchedule | None = None) -> Trajectory:
    """Fixed-step integration recording the state at every step.

    euler with dt=1 reproduces the discrete-time process of the agent-based
    simulator step for step.  Treatment epochs split the run into segments so
    the coverage discontinuity never falls inside an rk4 step; the standing
    infected mass is repartitioned at each epoch boundary.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    if t1 <= t0:
        raise DomainError(f"t_span end {t1} must exceed start {t0}")
    if method not in ("euler", "rk4"):
        raise DomainError(f"method must be 'euler' or 'rk4', got {method!r}")
    _check_grid(t0, t1, dt)

    segments = []   # (t_start, t_end, coverage or None)
    if schedule is not None and schedule.epochs:
        if not hasattr(model, "repartition"):
            raise DomainError("treatment schedule requires an HIV model")
        bounds = [t0, *schedule.epochs, t1]
        if any(not t0 < e < t1 for e in schedule.epochs):
            raise DomainError("treatment epochs must lie strictly inside t_span")
        for e in schedule.epochs:
            _check_grid(t0, e, dt, what="treatment epoch")
        coverages = [schedule.initial_coverage, *schedule.coverages]
        segments = [(bounds[i], bounds[i + 1], coverages[i]) for i in range(len(coverages))]
        model.set_coverage(schedule.initial_coverage)
    else:
        segments = [(t0, t1, None)]

    y = model.initial_state()
    times, states, derivs, inflows = [t0], [model.view(y)], [], []

    def record_deriv(t, y):
        dy, inflow = model.rhs_full(t, y)
        derivs.append(model.view(dy, clamp=False))
        inflows.append(inflow)
        return dy

    step_index = 0
    for seg_start, seg_end, coverage in segments:
        if coverage is not None and seg_start > t0:
            # switch epoch: repartition the infected stock, re-record the
            # boundary state post-switch (aggregates are continuous there)
            y = model.repartition(y, coverage)
            states[-1] = model.view(y)
        n = _check_grid(seg_start, seg_end, dt)
        for i in range(n):
            t = seg_start + i * dt
            k1 = record_deriv(t, y)
            if method == "euler":
                y = y + dt * k1
            else:
                k2 = model.rhs(t + dt / 2, y + (dt / 2) * k1)
                k3 = model.rhs(t + dt / 2, y + (dt / 2) * k2)
                k4 = model.rhs(t + dt, y + dt * k3)
                y = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            step_index += 1
            if not np.isfinite(y).all() or y.min() < STATE_FLOOR or y.max() > STATE_CEIL:
                raise StabilityError(
                    f"state left [{STATE_FLOOR}, {STATE_CEIL}] at t={t + dt:g}; "
                    "try a smaller dt"
                )
            times.append(t0 + step_index * dt)
            states.append(model.view(y))
    record_deriv(t1, y)

    prevalence = np.array([st.prevalence for st in states])
    susceptible = np.array([st.susceptible for st in states])
    removed = np.array([st.r for st in states])
    incidence = np.array([inflows[0], *inflows[:-1]])
    return Trajectory(
        times=np.array(times), states=states, derivs=derivs,
        susceptible=susceptible, prevalence=prevalence, removed=removed,
        incidence=incidence,
    )


MODEL_NAMES = ("classic", "stratified", "two_type", "bipartite", "hiv_msm", "hiv_hetero")


def build_model(name, params, dist=None, dist2=None, link_mode="active", **kwargs):
    """Construct a model by name; dist2 defaults to dist for two-population
    models."""
    if name == "classic":
        return ClassicSIR(params, link_mode)
    if dist is None:
        raise DomainError(f"model {name!r} requires a degree distribution")
    if name == "stratified":
        return StratifiedSIR(params, dist, link_mode, **kwargs)
    if name == "two_type":
        return TwoTypeSIR(params, dist, link_mode, **kwargs)
    if name == "bipartite":
        return BipartiteSIR(params, (dist, dist2 or dist), link_mode, **kwargs)
    if name == "hiv_msm":
        return HivMsm(params, dist, link_mode, **kwargs)
    if name == "hiv_hetero":
        return HivHetero(params, (dist, dist2 or dist), link_mode, **kwargs)
    raise DomainError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
