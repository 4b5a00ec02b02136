"""Oracle helpers shared by the test suite.

Everything here is written against textbook formulas, independently of the
package's closed-form pipeline, so that agreement between the two is
meaningful evidence rather than a tautology.  The kernel-element and moment
oracles build on gauss_renyi.fock's dense states and ladder operators; they
take the pipeline's kernels and states only as the values under test.
"""

import math

import numpy as np

from gauss_renyi import GaussianState, fock
from gauss_renyi.kernel import CoherentKernel
from gauss_renyi.recipes import Recipe


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


def evaluate_kernel(kernel: CoherentKernel, u: np.ndarray, v: np.ndarray) -> complex:
    """Evaluate exp(ln c + conj(mu).u + mu.v + u.Au + u.Lam v + v.conj(A)v).

    This is the predicted matrix element <e(conj(u)) | Z | e(v)>; the dense
    Fock oracle computes the same quantity independently.
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    expo = (kernel.log_c + kernel.mu.conj() @ u + kernel.mu @ v + u @ kernel.A @ u
            + u @ kernel.lam @ v + v @ kernel.A.conj() @ v)
    return complex(np.exp(expo))


def exponential_vector(u, cutoff: int) -> np.ndarray:
    """Truncated exponential vector |e(u)>, coefficients u^k / sqrt(k!)."""
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    out = np.array([1.0 + 0j])
    for comp in u:
        coeffs = np.empty(cutoff, dtype=complex)
        coeffs[0] = 1.0
        for k in range(1, cutoff):
            coeffs[k] = coeffs[k - 1] * comp / np.sqrt(k)
        out = np.kron(out, coeffs)
    return out


def kernel_element(rho: np.ndarray, u, v, cutoff: int) -> complex:
    """Dense matrix element <e(conj(u)) | rho | e(v)>."""
    bra = exponential_vector(np.conj(np.atleast_1d(np.asarray(u, dtype=complex))), cutoff)
    ket = exponential_vector(v, cutoff)
    return complex(np.vdot(bra, rho @ ket))


def dense_moments(rho: np.ndarray, n_modes: int, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of a dense state, in the library's conventions.

    Quadrature moments are computed brute force from q = (a + a+)/sqrt(2),
    p = -i (a - a+)/sqrt(2); the returned pair uses the package's block
    ordering and sign conventions, i.e. mean = (Re conj<a>, Im conj<a>) and
    covariance J V J^T with V the (q, p) covariance.
    """
    a_ops = [fock.embed(fock.annihilator(cutoff), m, n_modes, cutoff) for m in range(n_modes)]
    gamma = np.array([np.trace(rho @ a) for a in a_ops])
    quads = [(a + a.conj().T) / np.sqrt(2) for a in a_ops] + \
            [-1j * (a - a.conj().T) / np.sqrt(2) for a in a_ops]
    x_mean = np.array([np.trace(rho @ x).real for x in quads])
    V = np.empty((2 * n_modes, 2 * n_modes))
    centered = [x - m * np.eye(x.shape[0]) for x, m in zip(quads, x_mean)]
    for i in range(2 * n_modes):
        for j in range(i, 2 * n_modes):
            V[i, j] = V[j, i] = 0.5 * np.trace(
                rho @ (centered[i] @ centered[j] + centered[j] @ centered[i])).real
    J = omega(n_modes)
    mean = np.concatenate([gamma.real, -gamma.imag])
    return mean, J @ V @ J.T


def moments_match(recipe: Recipe, state: GaussianState, cutoff: int,
                  tol: float = 1e-4) -> float:
    """Max deviation between dense moments of a recipe and a GaussianState."""
    rho = fock.state_to_fock(recipe, cutoff)
    mean, cov = dense_moments(rho, recipe.n, cutoff)
    dev = max(float(np.max(np.abs(mean - state.mean))),
              float(np.max(np.abs(cov - state.cov))))
    if dev > tol:
        raise ValueError(f"recipe moments deviate from state by {dev:.3e} > {tol:.0e}")
    return dev
