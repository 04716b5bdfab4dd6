"""Node-degree distributions over a finite support [k_min, k_max].

Provides the truncated power law P(k) = k^-gamma / Z used for scale-free
contact networks, arbitrary weight-based distributions, and deterministic
degree sampling for the agent-based simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

PMF_TOL = 1e-12


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
        if self.k_min < 1:
            raise DomainError(f"k_min must be >= 1, got {self.k_min}")
        if self.k_max < self.k_min:
            raise DomainError(f"k_max ({self.k_max}) must be >= k_min ({self.k_min})")
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.shape != (self.k_max - self.k_min + 1,):
            raise DomainError(
                f"pmf length {pmf.shape[0] if pmf.ndim == 1 else pmf.shape} does not "
                f"match degree support [{self.k_min}, {self.k_max}]"
            )
        if not np.all(np.isfinite(pmf)):
            raise DomainError("pmf entries must be finite")
        if np.any(pmf < 0):
            raise DomainError("pmf entries must be nonnegative")
        if abs(pmf.sum() - 1.0) > PMF_TOL:
            raise DomainError(f"pmf must sum to 1 within {PMF_TOL}, got {pmf.sum()!r}")
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)

    @property
    def degrees(self) -> np.ndarray:
        """Integer degree grid k_min..k_max matching ``pmf``."""
        return np.arange(self.k_min, self.k_max + 1)


def truncated_power_law(gamma: float, k_min: int = 1, k_max: int = 60) -> DegreeDistribution:
    """Truncated power-law distribution P(k) = k^-gamma / Z on [k_min, k_max].

    Z is the direct finite sum over the support, so normalization is exact
    rather than a zeta-function approximation.
    """
    if not gamma > 0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    if k_min < 1 or k_max < k_min:
        raise DomainError(f"invalid degree support [{k_min}, {k_max}]")
    k = np.arange(k_min, k_max + 1, dtype=float)
    weights = k ** (-gamma)
    return DegreeDistribution(k_min, k_max, weights / weights.sum())


def from_weights(k_min: int, weights) -> DegreeDistribution:
    """Distribution proportional to the given nonnegative weights at
    degrees k_min, k_min+1, ...."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DomainError("weights must be a nonempty 1-d sequence")
    if np.any(w < 0):
        raise DomainError("weights must be nonnegative")
    total = w.sum()
    if total <= 0:
        raise DomainError("at least one weight must be positive")
    return DegreeDistribution(k_min, k_min + w.size - 1, w / total)


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
