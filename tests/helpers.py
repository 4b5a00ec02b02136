"""Oracle helpers shared by the test suite.

Everything here is written against textbook formulas, independently of the
package's closed-form pipeline, so that agreement between the two is
meaningful evidence rather than a tautology.
"""

import math

import numpy as np


def log1mexp(x: float) -> float:
    """ln(1 - e^-x) for x > 0: expm1 keeps the digits of a hot state (x << 1),
    log1p those of a cold one; the two meet at ln 2."""
    if x < math.log(2.0):
        return math.log(-math.expm1(-x))
    return math.log1p(-math.exp(-x))


def series_thermal_divergence(t: float, s: float, alpha: float) -> float:
    """Single-mode thermal-vs-thermal divergence by direct series summation.

    Both states are diagonal in the number basis, so the sandwiched operator
    has eigenvalues (1-e^-s)^(2c) e^(-2csk) (1-e^-t) e^(-tk) with
    c = (1-alpha)/(2 alpha); each is raised to alpha and summed term by term.
    """
    c = (1.0 - alpha) / (2.0 * alpha)
    ln_weight = 2.0 * c * log1mexp(s) + log1mexp(t)
    decay = t + 2.0 * c * s
    total = 0.0
    for k in range(200000):
        term = math.exp(-alpha * decay * k)
        total += term
        if term < total * 1e-19:
            break
    return (alpha * ln_weight + math.log(total)) / (alpha - 1.0)


def analytic_coherent_thermal(gamma: complex, s: float, alpha: float) -> float:
    """Rank-one sandwich formula for a coherent state vs a thermal state:

    D = -ln(1 - e^-s) + alpha/(1-alpha) |gamma|^2 (1 - e^(-s(1-alpha)/alpha)).
    """
    shrink = -math.expm1(-s * (1.0 - alpha) / alpha)
    return -log1mexp(s) + alpha / (1.0 - alpha) * abs(gamma) ** 2 * shrink


def omega(n: int) -> np.ndarray:
    """Symplectic form [[0, I], [-I, 0]] in the (Re, Im) block ordering."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def symplectic_residual(L: np.ndarray) -> float:
    n = L.shape[0] // 2
    J = omega(n)
    return float(np.max(np.abs(L.T @ J @ L - J)))
