"""Closed-form approximations the tests check against exact values; no
production path uses them."""

import math

from netepi.errors import OPEN_UNIT, check


def normal_approx_pmf(n: int, k: int, p: float) -> float:
    """de Moivre-Laplace estimate of the binomial pmf.

    Continuity-corrected mass over [k-1/2, k+1/2] taken as the midpoint
    Gaussian density with mean Np and variance Np(1-p), refined by the
    second-order Edgeworth (skewness + kurtosis) terms.  The plain Gaussian
    density is ~8e-3 off near the mode for Np(1-p) ~ 9; the refined form
    stays under 1e-3 absolute error for N >= 100, 0.1 <= p <= 0.9.  p must
    lie in (0, 1): at p 0 or 1 the variance is zero.
    """
    check("p", p, OPEN_UNIT)
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
