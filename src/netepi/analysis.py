"""Sensitivity analysis, phase-plot extraction, model comparison, fitting.

The Sobol first-order index of parameter x_j for output Y is
S_j = Var[E(Y|x_j)] / Var(Y), estimated with the Saltelli paired-matrix
scheme: two independent sample matrices A and B plus the d hybrids AB_j
(A with column j replaced from B), for n_base * (d + 2) model evaluations
total.  Y is the incidence (or prevalence) at each output time, so the
indices drift over the course of the epidemic.

Phase plots pair a recorded state coordinate with its recorded
right-hand-side value; derivatives come from the RHS evaluations stored
during integration, never from differencing the outputs.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from .abm import EnsembleSummary
from .degree import support
from .errors import (NUMBERS, POSITIVE, RANGE, SEED, Domain, DomainError, Interval, check,
                     count, is_integer, one_of)
from .ode import Trajectory, grid_index

# relative variance below which an index is reported as undefined (NaN)
_VAR_FLOOR = 1e-12
# the argument rules the config's rows take too
OUTPUTS = one_of("incidence", "prevalence")
N_BASE = count(64)
VARIANTS = one_of("infected", "healthy")
POPULATIONS = Domain(lambda v: is_integer(v) and v in (1, 2), "1 or 2")
BAND_SIGMAS = POSITIVE
_ITERATIONS = count(1)
_NAMES = Domain(lambda v: isinstance(v, Mapping), "a mapping of parameter names")
PARAMETERS = Domain(lambda v: isinstance(v, Mapping) and len(v) > 0,
                    "a mapping of at least one parameter name")
_SERIES = Domain(lambda v: v in NUMBERS and len(v) > 0, "a nonempty sequence of finite numbers")


def _bounds(name, ranges):
    """The (lower, upper) arrays of the mapping ``ranges``, each entry RANGE."""
    for p in ranges:
        check(f"{name} {p!r}", ranges[p], RANGE)
    return np.array([ranges[p] for p in ranges], dtype=float).T


class SobolResult(NamedTuple):
    """First-order indices per output time point.

    ``indices[j, t]`` estimates S_j at times[t]; NaN marks time points whose
    output variance is too small to normalize by.  Negative estimates are
    reported as-is; ``noise_bound`` is three times the largest estimator
    standard error and bounds how far estimates can sit outside [0, 1].
    """

    parameters: tuple
    times: np.ndarray
    indices: np.ndarray
    standard_errors: np.ndarray
    noise_bound: float
    n_base: int


def _evaluate(runner, rows, parameters, output):
    return np.asarray([getattr(runner(dict(zip(parameters, row))), output) for row in rows])


def sobol_first_order(
    runner,
    ranges: dict,
    n_base: int,
    seed: int = 0,
    output: str = "incidence",
) -> SobolResult:
    """Saltelli estimate of first-order Sobol indices over output time.

    ``runner`` maps a parameter dict to a Trajectory; ``ranges`` gives one
    uniform interval per parameter.  Evaluations run in sample order.
    """
    check("n_base", n_base, N_BASE)
    check("seed", seed, SEED)
    check("ranges", ranges, PARAMETERS)
    check("output", output, OUTPUTS)
    parameters = tuple(ranges)
    lo, hi = _bounds("ranges", ranges)
    width = hi - lo
    d = len(parameters)

    rng = np.random.default_rng(seed)
    try:
        a = lo + width * rng.random((n_base, d))
        b = lo + width * rng.random((n_base, d))
    except (MemoryError, ValueError):
        raise DomainError(f"n_base={n_base} needs two {n_base} x {d} design matrices, too "
                          f"large to allocate", "n_base") from None

    f_a = _evaluate(runner, a, parameters, output)
    f_b = _evaluate(runner, b, parameters, output)
    times = runner(dict(zip(parameters, a[0]))).times

    variance = np.concatenate([f_a, f_b]).var(axis=0, ddof=1)
    defined = variance > _VAR_FLOOR * max(variance.max(), 1e-300)

    indices = np.full((d, f_a.shape[1]), np.nan)
    errors = np.full((d, f_a.shape[1]), np.nan)
    for j in range(d):
        ab = a.copy()
        ab[:, j] = b[:, j]
        f_ab = _evaluate(runner, ab, parameters, output)
        # Saltelli 2010 first-order estimator
        terms = f_b * (f_ab - f_a)
        with np.errstate(invalid="ignore", divide="ignore"):
            indices[j, defined] = terms.mean(axis=0)[defined] / variance[defined]
            errors[j, defined] = (
                terms.std(axis=0, ddof=1)[defined] / np.sqrt(n_base) / variance[defined]
            )
    noise = float(np.nanmax(errors)) * 3.0 if np.any(defined) else float("nan")
    return SobolResult(
        parameters=parameters, times=times.copy(), indices=indices,
        standard_errors=errors, noise_bound=noise, n_base=n_base,
    )


def phase_series(
    traj: Trajectory, m: int, n: int, variant: str = "infected", population: int = 1
) -> np.ndarray:
    """(T, 2) array pairing a state coordinate with its time derivative.

    variant="infected" pairs (rho_m(t), d rho_n / dt); variant="healthy"
    pairs the never-or-no-longer-infected fraction s + r per degree with its
    derivative.  Derivatives come from the recorded RHS evaluations.
    ``population`` (1 or 2) picks the population of a two-population model.
    """
    if traj.dY is None:
        raise DomainError("trajectory has no recorded RHS evaluations (agent-based run?)")
    check("variant", variant, VARIANTS)
    check("population", population, POPULATIONS)
    model = traj.model
    index = population - 1
    if index >= len(model.populations):
        raise DomainError("trajectory has no second population", "population")
    dist = model.populations[index].dist
    degrees = support(dist.k_min, dist.k_max)
    i_m, i_n = (check(name, k, degrees) - dist.k_min for name, k in (("m", m), ("n", n)))
    # states: infected summed over stages, each type clamped at 0, then summed
    # over types; s and removed clamped at 0.  Derivatives are not clamped.
    s, infected, removed = model.blocks(traj.Y)[index]
    ds, d_infected, d_removed = model.blocks(traj.dY)[index]
    if variant == "infected":
        x = np.maximum(infected.sum(axis=-2), 0.0)[..., i_m].sum(axis=-1)
        y = d_infected.sum(axis=-2)[..., i_n].sum(axis=-1)
    else:
        x = np.maximum(s[:, i_m], 0.0) + np.maximum(removed[:, i_m], 0.0)
        y = ds[:, i_n] + d_removed[:, i_n]
    return np.stack([x, y], axis=1)


class CoverageReport(NamedTuple):
    """Agreement between an ODE trajectory and an ABM ensemble band."""

    band_sigmas: float
    coverage: float
    n_points: int
    covered: np.ndarray
    ode_peak: float
    ode_peak_time: float
    ensemble_peak: float
    ensemble_peak_time: float
    peak_relative_deviation: float
    peak_time_offset: float


def compare_ode_abm(ode: Trajectory, ens: EnsembleSummary, band_sigmas: float = 3.0) -> CoverageReport:
    """Fraction of time points where the ODE prevalence lies inside the
    ensemble mean +- band_sigmas * SE, plus peak comparison statistics.

    Time grids must align exactly (run the ODE with euler dt=1).  A 1e-12
    absolute slack keeps exact matches at zero-variance points covered.
    ``band_sigmas`` is a finite positive number, as ``compare.band_sigmas``.
    """
    check("band_sigmas", band_sigmas, BAND_SIGMAS)
    if ode.times.shape != ens.times.shape or np.any(ode.times != ens.times):
        raise DomainError("ODE and ensemble time grids are not aligned")
    dev = np.abs(ode.prevalence - ens.mean_prevalence)
    covered = dev <= band_sigmas * ens.se_prevalence + 1e-12
    i_ode = int(np.argmax(ode.prevalence))
    i_ens = int(np.argmax(ens.mean_prevalence))
    ens_peak = float(ens.mean_prevalence[i_ens])
    rel = abs(float(ode.prevalence[i_ode]) - ens_peak) / ens_peak if ens_peak > 0 else float("inf")
    return CoverageReport(
        band_sigmas=band_sigmas,
        coverage=float(covered.mean()),
        n_points=len(covered),
        covered=covered,
        ode_peak=float(ode.prevalence[i_ode]),
        ode_peak_time=float(ode.times[i_ode]),
        ensemble_peak=ens_peak,
        ensemble_peak_time=float(ens.times[i_ens]),
        peak_relative_deviation=rel,
        peak_time_offset=float(ode.times[i_ode] - ens.times[i_ens]),
    )


class FitResult(NamedTuple):
    """Outcome of a least-squares parameter fit.

    ``at_bound`` names the free parameters that end on a bound of their
    range, in ``free`` order: a converged fit there may be a boundary local
    minimum, not the best fit.
    """

    parameters: dict
    residual: float
    iterations: int
    converged: bool
    at_bound: tuple


# the simplex's absolute parameter tolerance, also the reach of ``at_bound``
_XATOL = 1e-8


def fit_parameters(
    runner,
    observed_times,
    observed,
    free: dict,
    initial: dict,
    output: str = "incidence",
    max_iterations: int = 400,
) -> FitResult:
    """Minimize the sum of squared output residuals over ``free`` parameters.

    Derivative-free Nelder-Mead simplex descent with bound clipping from an
    initial guess inside the bounds; deterministic given that guess.
    Observed times must land on the runner's evenly spaced output grid
    (``ode.grid_index``).  Never returns a point worse than the initial
    guess.  A parameter within the simplex's ``xatol`` of a bound is
    reported in ``at_bound``.  ``output`` is "incidence" or "prevalence" and
    ``max_iterations`` an integer >= 1; a bad argument is a DomainError
    naming it, raised before any model run.
    """
    check("output", output, OUTPUTS)
    check("max_iterations", max_iterations, _ITERATIONS)
    observed_times = np.array(check("observed_times", observed_times, _SERIES), dtype=float)
    observed = np.array(check("observed", observed, _SERIES), dtype=float)
    if observed_times.shape != observed.shape:
        raise DomainError("observed times and values must align", "observed")
    check("free", free, PARAMETERS)
    check("initial", initial, _NAMES)
    names = tuple(free)
    lo, hi = _bounds("free", free)
    x0 = np.array([check(f"initial {p!r}", initial.get(p), Interval(*free[p])) for p in names],
                  dtype=float)
    for p in initial:   # as the config's fit.initial
        if p not in free:
            raise DomainError(f"initial {p!r}: no matching free parameter", "initial")

    rows = None

    def residual(x):
        nonlocal rows
        traj = runner(dict(zip(names, np.clip(x, lo, hi))))
        if rows is None:   # the first run's output grid
            rows = grid_index(observed_times, traj.times[0], traj.times[-1], len(traj.times) - 1)
        return float(np.sum((getattr(traj, output)[rows] - observed) ** 2))

    from scipy.optimize import minimize  # the only scipy user; loaded on the first fit

    r0 = residual(x0)
    result = minimize(
        residual, x0, method="Nelder-Mead",
        bounds=list(zip(lo, hi)),
        options={"maxiter": max_iterations, "xatol": _XATOL, "fatol": 1e-14},
    )
    if result.fun <= r0:
        best, fun = np.clip(result.x, lo, hi), float(result.fun)
    else:
        best, fun = x0, r0
    return FitResult(
        parameters=dict(zip(names, (float(v) for v in best))),
        residual=fun,
        iterations=int(result.nit),
        converged=bool(result.success),
        at_bound=tuple(p for p, v, a, b in zip(names, best, lo, hi)
                       if min(v - a, b - v) <= _XATOL),
    )
