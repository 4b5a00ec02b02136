"""Sandwiched Renyi relative entropy of Gaussian states, order 0 < alpha < 1.

Pipeline: bring the reference state sigma to a zero-mean thermal product
state by a Gaussian unitary applied to both states, absorb sigma's
fractional powers into a diagonal contraction sandwich on the transformed
rho, take the closed-form trace and the sandwich's own thermal spectrum,
and assemble

    T_alpha = p(s)^(1-alpha) * p(t_Z)^alpha / p(alpha t_Z) * (Tr Z)^alpha
    D_alpha = ln(T_alpha) / (alpha - 1)

where p(t) = prod_j (1 - e^(-t_j)) and p(inf) = 1.  All products of p and
the trace are accumulated in the log domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AlphaRangeError, ModeMismatchError, NotFaithfulError
from .kernel import CoherentKernel, apply_contraction, log_kernel_trace, kernel_to_state, state_to_kernel
from .states import GaussianState, gaussian_transform, require_physical
from .williamson import symplectic_eigenvalues, williamson_decompose, d_to_t

#: kernels whose pair block A is below this are treated as pair-free; their
#: thermal spectrum is then read off Lambda directly (corrections enter at
#: order |A|^2)
PAIR_FREE_GATE = 1e-7
#: ... but only while Lambda stays clearly inside the trace-class region
LAMBDA_GATE = 0.5
#: covariance-path spectral gaps above 1/2 below this are eigensolver noise
COV_GAP_FLOOR = 1e-13


def log_thermal_norm(t) -> float:
    """ln p(t) = sum_j ln(1 - e^(-t_j)); contributions from t = inf are 0."""
    t = np.asarray(t, dtype=float)
    finite = t[np.isfinite(t)]
    return float(np.sum(np.log(-np.expm1(-finite))))


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise AlphaRangeError(f"order must satisfy 0<alpha<1, got {alpha}")
    return alpha


def fractional_power_contraction(s, alpha: float) -> np.ndarray:
    """Diagonal contraction k_j = e^(-s_j (1-alpha)/(2 alpha)).

    The second quantization of diag(k) carries the (1-alpha)/(2 alpha)
    fractional power of a thermal state with parameters s, up to the scalar
    prefactor p(s)^((1-alpha)/(2 alpha)).
    """
    alpha = _check_alpha(alpha)
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise NotFaithfulError("fractional powers need finite thermal parameters "
                               "(sigma must be faithful)")
    return np.exp(-s * (1.0 - alpha) / (2.0 * alpha))


def reduce_to_thermal(rho: GaussianState, sigma: GaussianState
                      ) -> tuple[GaussianState, np.ndarray]:
    """Apply the sigma-normalizing Gaussian unitary to rho.

    Returns (rho', s) where the same transform sends sigma to the zero-mean
    thermal state with ascending parameters s (read-only), to within the
    Williamson diagonalization residue.  Mode counts are compared before any
    factorization; sigma's physicality is checked by its own Williamson
    decomposition, after the checks that need no factorization.  Raises
    ModeMismatchError, UnphysicalStateError for an unphysical rho or sigma,
    and NotFaithfulError if sigma has a pure mode.
    """
    if rho.n != sigma.n:
        raise ModeMismatchError(f"mode mismatch: rho has {rho.n}, sigma has {sigma.n}")
    require_physical(rho, "rho")
    form = require_physical(sigma, "sigma", williamson_decompose)
    if not np.all(np.isfinite(form.t)):
        raise NotFaithfulError(
            "sigma must be faithful: every symplectic eigenvalue above 1/2; "
            f"got d = {np.array2string(form.d, precision=10)}")
    rho_prime = gaussian_transform(rho, form.L, shift=sigma.mean)
    return rho_prime, form.t


@dataclass(frozen=True)
class EntropyReport:
    """Inputs, output and intermediate quantities of one divergence evaluation.

    divergence = ln(T_alpha)/(alpha - 1) and
    T_alpha = p_s^(1-alpha) * p_tZ^alpha / p_alpha_tZ * trace_Z^alpha.
    """

    alpha: float
    divergence: float
    T_alpha: float
    trace_Z: float
    s: np.ndarray
    t_Z: np.ndarray
    p_s: float
    p_tZ: float
    p_alpha_tZ: float


def _contracted_thermal_parameters(z: CoherentKernel) -> np.ndarray:
    """Thermal parameters t_Z of the contracted sandwich, ascending.

    The final assembly needs alpha * t_Z, so t_Z must stay accurate even
    when a strong contraction makes it large.  With a negligible pair
    block A the eigenvalues of Lambda are e^(-t_Z) directly and keep full
    relative precision at any size; the fallback goes through the
    covariance, whose spectral gap above 1/2 resolves e^(-t_Z) only down
    to the eigensolver noise floor.  That covariance comes from the form
    matrix's Cholesky factor that log_kernel_trace has already taken.
    """
    if (float(np.max(np.abs(z.A))) <= PAIR_FREE_GATE
            and float(np.linalg.norm(z.lam, 2)) <= LAMBDA_GATE):
        lam = np.linalg.eigvalsh(z.lam)
        with np.errstate(divide="ignore"):
            t = np.where(lam > 0.0, -np.log(np.where(lam > 0.0, lam, 1.0)), np.inf)
        return np.sort(t)
    cov_z = kernel_to_state(z).cov
    t = np.atleast_1d(d_to_t(symplectic_eigenvalues(cov_z), pure_tol=COV_GAP_FLOOR))
    return np.sort(t)


def _evaluate(kernel_prime: CoherentKernel, s: np.ndarray, alpha: float) -> EntropyReport:
    k = fractional_power_contraction(s, alpha)
    z = apply_contraction(kernel_prime, k)
    ln_trace = log_kernel_trace(z)
    t_z = _contracted_thermal_parameters(z)
    ln_ps = log_thermal_norm(s)
    ln_ptz = log_thermal_norm(t_z)
    ln_patz = log_thermal_norm(alpha * t_z)
    ln_t_alpha = (1.0 - alpha) * ln_ps + alpha * ln_ptz - ln_patz + alpha * ln_trace
    return EntropyReport(
        alpha=alpha,
        divergence=float(ln_t_alpha / (alpha - 1.0)),
        T_alpha=float(np.exp(ln_t_alpha)),
        trace_Z=float(np.exp(ln_trace)),
        s=s,
        t_Z=np.asarray(t_z, dtype=float),
        p_s=float(np.exp(ln_ps)),
        p_tZ=float(np.exp(ln_ptz)),
        p_alpha_tZ=float(np.exp(ln_patz)),
    )


def sandwiched_renyi(rho: GaussianState, sigma: GaussianState, alpha: float) -> EntropyReport:
    """Sandwiched Renyi relative entropy of order alpha in (0, 1), in nats.

    rho and sigma must be physical n-mode Gaussian states and sigma must be
    faithful (no pure modes).  Returns a report carrying the divergence and
    every intermediate of the closed-form evaluation.
    """
    alpha = _check_alpha(alpha)
    rho_prime, s = reduce_to_thermal(rho, sigma)
    return _evaluate(state_to_kernel(rho_prime), s, alpha)


def sandwiched_renyi_sweep(rho: GaussianState, sigma: GaussianState,
                           alphas) -> list[EntropyReport]:
    """Evaluate the divergence for several orders, reducing sigma only once."""
    alphas = [_check_alpha(a) for a in np.atleast_1d(np.asarray(alphas, dtype=float))]
    rho_prime, s = reduce_to_thermal(rho, sigma)
    kernel_prime = state_to_kernel(rho_prime)
    return [_evaluate(kernel_prime, s, alpha) for alpha in alphas]
