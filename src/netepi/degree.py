"""Node-degree distributions over a finite support [k_min, k_max].

Provides the truncated power law P(k) = k^-gamma / Z used for scale-free
contact networks, arbitrary weight-based distributions, and deterministic
degree sampling for the agent-based simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import POSITIVE, Domain, DomainError, Interval, check, count, is_integer, is_sequence

PMF_TOL = 1e-12
# the degree bounds, which the config's distribution rows take too
GAMMA = POSITIVE
DEGREE = count(1)
_WEIGHT = Interval(0, float("inf"), hi_open=True)
WEIGHTS = Domain(lambda w: is_sequence(w) and all(map(_WEIGHT.__contains__, w)) and sum(w) > 0,
                 "a list of finite numbers >= 0, at least one positive")


def support(k_min, k_max) -> Domain:
    """The integer degrees from ``k_min`` to ``k_max``."""
    return Domain(lambda k: is_integer(k) and k_min <= k <= k_max,
                  f"a degree in [{k_min}, {k_max}]")


def _check_support(k_min, k_max):
    check("k_min", k_min, DEGREE)
    if not (is_integer(k_max) and k_max >= k_min):
        raise DomainError(f"k_max must be an integer >= k_min ({k_min}), got {k_max!r}", "k_max")


@dataclass(frozen=True, eq=False)
class DegreeDistribution:
    """Normalized probability mass over integer degrees k in [k_min, k_max].

    Instances are immutable and safe to share across threads; sampling takes
    a caller-owned ``numpy.random.Generator``.
    """

    k_min: int
    k_max: int
    pmf: np.ndarray

    def __post_init__(self):
        _check_support(self.k_min, self.k_max)
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.shape != (self.k_max - self.k_min + 1,):
            raise DomainError(
                f"pmf length {pmf.shape[0] if pmf.ndim == 1 else pmf.shape} does not "
                f"match degree support [{self.k_min}, {self.k_max}]"
            )
        # entries with a nonnegative minimum and a finite sum pass the first
        # two checks; any other entries fail one of them
        if not (pmf.min() >= 0 and np.isfinite(total := pmf.sum())):
            if not np.all(np.isfinite(pmf)):
                raise DomainError("pmf entries must be finite")
            if np.any(pmf < 0):
                raise DomainError("pmf entries must be nonnegative")
        if abs(total - 1.0) > PMF_TOL:
            raise DomainError(f"pmf must sum to 1 within {PMF_TOL}, got {total!r}")
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)

    @property
    def degrees(self) -> np.ndarray:
        """Integer degree grid k_min..k_max matching ``pmf``."""
        return np.arange(self.k_min, self.k_max + 1)


def truncated_power_law(gamma: float, k_min: int = 1, k_max: int = 60) -> DegreeDistribution:
    """Truncated power-law distribution P(k) = k^-gamma / Z on [k_min, k_max].

    Z is the direct finite sum over the support, so normalization is exact
    rather than a zeta-function approximation.  A support too large to
    allocate is a DomainError whose ``field`` is k_max.
    """
    check("gamma", gamma, GAMMA)
    _check_support(k_min, k_max)
    try:
        k = np.arange(k_min, k_max + 1, dtype=float)
        weights = k ** (-gamma)
        pmf = weights / weights.sum()
    except (MemoryError, ValueError):
        raise DomainError(f"k_max={k_max} is {k_max - k_min + 1} degrees from k_min={k_min}, "
                          f"too many to allocate", "k_max") from None
    return DegreeDistribution(k_min, k_max, pmf)


def from_weights(k_min: int, weights) -> DegreeDistribution:
    """Distribution proportional to the given nonnegative weights at
    degrees k_min, k_min+1, ...."""
    check("k_min", k_min, DEGREE)
    w = np.asarray(check("weights", weights, WEIGHTS), dtype=float)
    return DegreeDistribution(k_min, k_min + w.size - 1, w / w.sum())


def mean_degree(dist: DegreeDistribution) -> float:
    """Expected degree <k> = sum_k k P(k)."""
    return float(np.dot(dist.degrees, dist.pmf))


def sample_degrees(dist: DegreeDistribution, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` degrees by inverse-CDF lookup (binary search on the
    cumulative table); one uniform draw per sample."""
    cdf = np.cumsum(dist.pmf)
    cdf[-1] = 1.0
    u = rng.random(size)
    return (dist.k_min + np.searchsorted(cdf, u, side="right")).astype(np.int64)
