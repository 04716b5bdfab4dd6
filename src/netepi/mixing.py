"""Per-step infection hazards on a fully rewiring network.

A susceptible node of degree k shares l of its links with infected nodes
with probability L(k, l, p) = C(k,l) p^l (1-p)^(k-l), where p is the chance
that a random link points at an infected node.  The per-step infection
hazard averages the contact-infection function f(l, lambda) = 1 - (1-lambda)^l
over that distribution.  The average is one minus the probability generating
function of L evaluated at 1 - lambda, so it has the closed form

    hazard(k, p, lambda) = sum_{l=1..k} f(l, lambda) L(k, l, p)
                         = 1 - (1 - lambda p)^k

With two infected groups (different transmissibilities) L becomes a
multinomial over (k1, k2) shared links, f(k1, k2) = 1 - (1-lambda1)^k1
(1-lambda2)^k2, and the same identity gives 1 - (1 - lambda1 p1 - lambda2 p2)^k
(Newman, Phys. Rev. E 66, 016128, 2002).  The closed forms are the
production kernels; the tests keep the explicit sums as independent oracles.
A contact function other than this product form would enter as its own PGF.

Everything here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class LinkProbabilities:
    """Chance that a random link points at an infected node of each group.

    ``p1`` and ``p2`` are the two infected-group link probabilities (p2 = 0
    in single-group models).  Each must be >= 0 and their sum <= 1, both
    within a 1e-12 slack for accumulated rounding.
    """

    p1: float
    p2: float = 0.0

    def __post_init__(self):
        slack = 1e-12
        if self.p1 < -slack or self.p2 < -slack or self.p1 + self.p2 > 1.0 + slack:
            raise DomainError(
                f"invalid link probabilities p1={self.p1}, p2={self.p2}"
            )


def _check_prob(name, value):
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must be in [0, 1], got {value}")


def normal_approx_pmf(n: int, k: int, p: float) -> float:
    """de Moivre-Laplace estimate of the binomial pmf.

    Continuity-corrected mass over [k-1/2, k+1/2] taken as the midpoint
    Gaussian density with mean Np and variance Np(1-p), refined by the
    second-order Edgeworth (skewness + kurtosis) terms.  The plain Gaussian
    density is ~8e-3 off near the mode for Np(1-p) ~ 9; the refined form
    stays under 1e-3 absolute error for N >= 100, 0.1 <= p <= 0.9.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    _check_prob("p", p)
    if p in (0.0, 1.0):
        raise DomainError("normal approximation undefined for p in {0, 1} (zero variance)")
    q = 1.0 - p
    sd = math.sqrt(n * p * q)
    x = (k - n * p) / sd
    g1 = (q - p) / sd              # binomial skewness
    g2 = (1.0 - 6.0 * p * q) / (n * p * q)  # excess kurtosis
    he3 = x**3 - 3.0 * x
    he4 = x**4 - 6.0 * x * x + 3.0
    he6 = x**6 - 15.0 * x**4 + 45.0 * x * x - 15.0
    density = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) / sd
    value = density * (1.0 + g1 / 6.0 * he3 + g2 / 24.0 * he4 + g1 * g1 / 72.0 * he6)
    return max(0.0, value)


def _pgf_hazard(degrees, x: float) -> np.ndarray:
    """1 - (1 - x)^k per degree for a per-link infection chance x.

    x (lambda p, or lambda1 p1 + lambda2 p2) is clipped to [0, 1]:
    LinkProbabilities admits p1 + p2 up to 1 + 1e-12, and with lambda = 1
    the base 1 - x would otherwise turn negative.
    """
    h = np.power(1.0 - min(max(x, 0.0), 1.0), degrees)
    return np.subtract(1.0, h, out=h)


def hazard_profile(degrees: np.ndarray, p: float, lam: float) -> np.ndarray:
    """Per-degree infection hazard 1 - (1 - lambda p)^k."""
    return _pgf_hazard(degrees, lam * p)


def hazard_profile_two(
    degrees: np.ndarray, probs: LinkProbabilities, lam1: float, lam2: float
) -> np.ndarray:
    """Per-degree hazard for two infected groups, 1 - (1 - lambda1 p1 - lambda2 p2)^k.

    Equal to the multinomial average of f(k1, k2) over all (k1, k2) with
    1 <= k1 + k2 <= k, including the terms where only one group contributes;
    for lambda1 = lambda2 it reduces to the single-group hazard at p1 + p2.
    """
    return _pgf_hazard(degrees, lam1 * probs.p1 + lam2 * probs.p2)
