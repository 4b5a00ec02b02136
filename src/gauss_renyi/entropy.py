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

The reduction runs once per call.  The per-order stage (contraction, trace,
t_Z and assembly) runs once per stack of orders: every formula takes a
leading order axis, and its factorizations are numpy.linalg's stacked
routines.  A single order is the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AlphaRangeError, ModeMismatchError, NotFaithfulError
# kernel_to_state is not called here, but stays bound: perfbench's tracer
# wraps every stage name of the pipeline in this module
from .kernel import (CoherentKernel, apply_contraction, kernel_covariance,  # noqa: F401
                     kernel_to_state, log_kernel_trace, state_to_kernel)
from .states import PURE_TOL, GaussianState, gaussian_transform, require_physical
from .williamson import symplectic_eigenvalues, williamson_decompose, d_to_t

#: kernels whose pair block A is below this are treated as pair-free; their
#: thermal spectrum is then read off Lambda directly (corrections enter at
#: order |A|^2)
PAIR_FREE_GATE = 1e-7
#: ... but only while Lambda stays clearly inside the trace-class region
LAMBDA_GATE = 0.5
#: covariance-path spectral gaps above 1/2 below this are eigensolver noise
COV_GAP_FLOOR = 1e-13
#: entries of the 2n x 2n form matrices stacked per pass of the per-order
#: stage, which bounds a sweep's memory: every order of a 64-order sweep at
#: n <= 8, 4 orders at n = 32, one at a time from n = 64
_STACK_ENTRIES = 16384


def log_thermal_norm(t):
    """ln p(t) = sum_j ln(1 - e^(-t_j)) along the last axis; t = inf adds 0."""
    total = np.log(-np.expm1(-np.asarray(t, dtype=float))).sum(axis=-1)
    return total if total.ndim else float(total)


def _check_alphas(alpha) -> np.ndarray:
    """alpha as a float array of orders, each in (0, 1), else AlphaRangeError."""
    alpha = np.asarray(alpha, dtype=float)
    bad = [a for a in alpha.reshape(-1).tolist() if not 0.0 < a < 1.0]
    if bad:
        raise AlphaRangeError(f"order must satisfy 0<alpha<1, got {bad[0]}")
    return alpha


def fractional_power_contraction(s, alpha) -> np.ndarray:
    """Diagonal contraction k_j = e^(-s_j (1-alpha)/(2 alpha)), one row per
    order when alpha is an array of orders.

    The second quantization of diag(k) carries the (1-alpha)/(2 alpha)
    fractional power of a thermal state with parameters s, up to the scalar
    prefactor p(s)^((1-alpha)/(2 alpha)).
    """
    alpha = _check_alphas(alpha)[..., None]
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
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
    if not np.isfinite(form.t).all():
        raise NotFaithfulError(
            "sigma must be faithful: every symplectic eigenvalue d must exceed 1/2 by "
            f"more than PURE_TOL = {PURE_TOL:.0e} (thermal parameter t below "
            f"{np.log1p(1.0 / PURE_TOL):.3g}), or its mode counts as pure; "
            f"got d - 1/2 = {np.array2string(form.d - 0.5, precision=3)}")
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
    """Thermal parameters t_Z of each contracted sandwich of a stack, ascending.

    The final assembly needs alpha * t_Z, so t_Z must stay accurate even
    when a strong contraction makes it large.  With a negligible pair
    block A and ||Lambda||_2 <= LAMBDA_GATE, the eigenvalues of Lambda are
    e^(-t_Z) directly and keep full relative precision at any size.  For a
    hermitian Lambda the 2-norm is its largest eigenvalue modulus, so one
    stacked eigvalsh gives both; max_j Lambda_jj <= lambda_max screens out,
    before any eigensolve, the orders whose norm must exceed the gate.  The
    other orders fall back on the covariance, whose spectral gap above 1/2
    resolves e^(-t_Z) only down to the eigensolver noise floor; it comes
    from the form-matrix Cholesky factor that log_kernel_trace has taken.
    """
    t = np.empty(z.mu.shape)
    free = ((abs(z.A).max(axis=(-2, -1)) <= PAIR_FREE_GATE)
            & (z.lam.diagonal(0, -2, -1).real.max(axis=-1) <= LAMBDA_GATE))
    if free.any():
        lam = np.linalg.eigvalsh(z.lam[free])
        inside = abs(lam).max(axis=-1) <= LAMBDA_GATE  # ||Lambda||_2 <= LAMBDA_GATE
        free[free] = inside
        lam = lam[inside]
        t[free] = np.where(lam > 0.0, -np.log(np.where(lam > 0.0, lam, 1.0)), np.inf)
    if not free.all():
        cov, _ = kernel_covariance(z, ~free)
        t[~free] = d_to_t(symplectic_eigenvalues(cov), pure_tol=COV_GAP_FLOOR)
    t.sort(axis=-1)
    return t


def _stack(kernel_prime: CoherentKernel, s: np.ndarray, alpha: np.ndarray) -> list[EntropyReport]:
    """Reports for a stack of orders alpha, from rho's kernel in sigma's frame."""
    z = apply_contraction(kernel_prime, fractional_power_contraction(s, alpha))
    ln_trace = log_kernel_trace(z)
    t_z = _contracted_thermal_parameters(z)
    ln_ps = log_thermal_norm(s)
    ln_ptz = log_thermal_norm(t_z)
    ln_patz = log_thermal_norm(alpha[:, None] * t_z)
    ln_t_alpha = (1.0 - alpha) * ln_ps + alpha * ln_ptz - ln_patz + alpha * ln_trace
    divergence = ln_t_alpha / (alpha - 1.0)
    p_s = float(np.exp(ln_ps))
    columns = zip(alpha.tolist(), divergence.tolist(),
                  *np.exp([ln_t_alpha, ln_trace, ln_ptz, ln_patz]).tolist(), t_z)
    return [EntropyReport(alpha=a, divergence=d, T_alpha=T, trace_Z=tr, s=s, t_Z=t,
                          p_s=p_s, p_tZ=p_tz, p_alpha_tZ=p_atz)
            for a, d, T, tr, p_tz, p_atz, t in columns]


def sandwiched_renyi(rho: GaussianState, sigma: GaussianState, alpha: float) -> EntropyReport:
    """Sandwiched Renyi relative entropy of order alpha in (0, 1), in nats.

    rho and sigma must be physical n-mode Gaussian states and sigma must be
    faithful (no pure modes).  Returns a report carrying the divergence and
    every intermediate of the closed-form evaluation.
    """
    return sandwiched_renyi_sweep(rho, sigma, (float(alpha),))[0]


def sandwiched_renyi_sweep(rho: GaussianState, sigma: GaussianState,
                           alphas) -> list[EntropyReport]:
    """Evaluate the divergence for several orders, in the order given.

    sigma is reduced and rho's kernel built once; the per-order stage runs
    on stacks of up to _STACK_ENTRIES // (2n)^2 orders at a time.
    """
    alphas = _check_alphas(alphas).reshape(-1)
    rho_prime, s = reduce_to_thermal(rho, sigma)
    kernel_prime = state_to_kernel(rho_prime)
    step = max(1, _STACK_ENTRIES // (2 * s.size) ** 2)
    reports = []
    for i in range(0, alphas.size, step):
        reports += _stack(kernel_prime, s, alphas[i:i + step])
    return reports
