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


# a 0-d array: numpy subtracts an array from it faster than from a float
_ONE = np.array(1.0)
_ONE.flags.writeable = False


def hazard_profile(degrees: np.ndarray, p: float, lam: float) -> np.ndarray:
    """Per-degree infection hazard 1 - (1 - lambda p)^k, the one place the
    formula 1 - (1 - x)^k is evaluated.

    The per-link infection chance x = lambda p is clipped to [0, 1] (NaN
    passes through): LinkProbabilities admits p1 + p2 up to 1 + 1e-12, and
    with lambda = 1 the base 1 - x would otherwise turn negative.
    """
    x = lam * p
    h = np.power(1.0 - (0.0 if x < 0.0 else 1.0 if x > 1.0 else x), degrees)
    return np.subtract(_ONE, h, h)


# hazard_profile_two evaluates the formula through this private name, so
# that a wrapper counting the single-group kernel's calls counts only those
_pgf_hazard = hazard_profile


def hazard_profile_two(
    degrees: np.ndarray, probs: LinkProbabilities, lam1: float, lam2: float
) -> np.ndarray:
    """Per-degree hazard for two infected groups, 1 - (1 - lambda1 p1 - lambda2 p2)^k.

    Equal to the multinomial average of f(k1, k2) over all (k1, k2) with
    1 <= k1 + k2 <= k, including the terms where only one group contributes;
    for lambda1 = lambda2 it reduces to the single-group hazard at p1 + p2.
    The combined chance enters the formula as p at lambda 1 (x * 1 = x).
    """
    return _pgf_hazard(degrees, lam1 * probs.p1 + lam2 * probs.p2, 1.0)
