"""Oracle helpers shared by the test suite.

Everything here is written against textbook formulas, independently of the
package's closed-form pipeline, so that agreement between the two is
meaningful evidence rather than a tautology.  The kernel-element and moment
oracles build on gauss_renyi.fock's dense states and ladder operators; they
take the pipeline's kernels and states only as the values under test.
replay_divergence repeats the pipeline's formula in 60-digit mpmath, so it
separates the pipeline's rounding from its input's conditioning, but not
a wrong formula from a right one.
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


def form_matrix(A, lam):
    """M(A, lam) = I - [[Re lam, -Im lam], [Im lam, Re lam]]
    - 2 [[Re A, Im A], [Im A, -Re A]], from its definition."""
    return (np.eye(2 * A.shape[-1])
            - np.block([[lam.real, -lam.imag], [lam.imag, lam.real]])
            - 2.0 * np.block([[A.real, A.imag], [A.imag, -A.real]]))


def kernel_from_quadruple(log_c: float, mu, A, lam) -> CoherentKernel:
    """The kernel record (ln c, M, b) of the E2 parameters (ln c, mu, A, lam),
    with M = M(A, lam) and b = (Re mu, -Im mu) from their definitions."""
    return CoherentKernel(float(log_c), form_matrix(A, lam), np.concatenate([mu.real, -mu.imag]))


def evaluate_kernel(kernel: CoherentKernel, u: np.ndarray, v: np.ndarray) -> complex:
    """Evaluate exp(ln c + conj(mu).u + mu.v + u.Au + u.Lam v + v.conj(A)v).

    This is the predicted matrix element <e(conj(u)) | Z | e(v)>; the dense
    Fock oracle computes the same quantity independently.
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    mu, A, lam = kernel.quadruple()
    expo = (kernel.log_c + mu.conj() @ u + mu @ v + u @ A @ u + u @ lam @ v
            + v @ A.conj() @ v)
    return complex(np.exp(expo))


def replay_divergence(rho_prime: GaussianState, s, alpha: float,
                      dps: int = 60) -> tuple[float, list]:
    """(D_alpha, t_Z ascending), replayed at dps digits from the float rho'
    and s that entropy.reduce_to_thermal returns.

    With G = (I/2 + S')^{-1}, Xi = diag(I, -I) and the mean m': M = J G J^T,
    b = M Xi m' and ln c = -ln det(I/2 + S')/2 - (Xi m') . b.  The
    contraction K~ = diag(k, k), k = e^(-s (1-alpha)/(2 alpha)), gives
    M_K = I - K~ (I - M) K~, b_K = K~ b and
    ln Tr Z = ln c - ln det M_K / 2 + b_K . M_K^{-1} b_K.  t_Z comes from the
    symplectic eigenvalues d_Z of S_Z = J^T M_K^{-1} J - I/2, the positive
    eigenvalues of i R^T J R with S_Z = R R^T.  rho' must have no pure mode.
    """
    import mpmath

    with mpmath.workdps(dps):
        mp = mpmath.mp
        n = rho_prime.n
        eye = mp.eye(2 * n)
        J = mp.zeros(2 * n)
        for j in range(n):
            J[j, n + j], J[n + j, j] = 1, -1
        C = mp.matrix(rho_prime.cov.tolist()) + eye / 2
        M = J * mp.inverse(C) * J.T
        xm = mp.matrix([x if j < n else -x for j, x in enumerate(rho_prime.mean.tolist())])
        b = M * xm
        log_c = -mp.log(mp.det(C)) / 2 - mp.fdot(xm, b)
        k = [mp.exp(-mp.mpf(x) * (1 - mp.mpf(alpha)) / (2 * mp.mpf(alpha))) for x in s]
        Kt = mp.diag(k + k)
        MK = eye - Kt * (eye - M) * Kt
        bK = Kt * b
        MK_inv = mp.inverse(MK)
        log_trace = log_c - mp.log(mp.det(MK)) / 2 + mp.fdot(bK, MK_inv * bK)
        R = mp.cholesky(J.T * MK_inv * J - eye / 2)
        d = sorted(mp.eighe(1j * (R.T * J * R), eigvals_only=True), key=mp.re)[n:]
        t_z = [mp.log((mp.re(x) + mp.mpf(0.5)) / (mp.re(x) - mp.mpf(0.5))) for x in d]

        def log_p(ts):
            return mp.fsum(mp.log(-mp.expm1(-t)) for t in ts)

        a = mp.mpf(alpha)
        log_t_alpha = ((1 - a) * log_p([mp.mpf(x) for x in s]) + a * log_p(t_z)
                       - log_p([a * t for t in t_z]) + a * log_trace)
        return float(log_t_alpha / (a - 1)), sorted(float(t) for t in t_z)


def gaussian_channel(state: GaussianState, X: np.ndarray, Y: np.ndarray) -> GaussianState:
    """The Gaussian channel S -> X S X^T + Y, a 2n' x 2n X and a 2n' x 2n' Y,
    applied to a state.  As in gaussian_transform, the covariance pairs with
    the mean's phase-space vector x = mean[swap], which maps to X x and is
    stored swapped back."""
    def swap(n):
        return np.concatenate([np.arange(n, 2 * n), np.arange(n)])

    cov = X @ state.cov @ X.T + Y
    return GaussianState((X @ state.mean[swap(state.n)])[swap(X.shape[0] // 2)],
                         0.5 * (cov + cov.T))


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
