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

Each order reads t_Z off its sandwich's K Lambda K while a bound on the
pair block A allows it, and off the sandwich's covariance otherwise.

sigma is faithful, so the sandwich has as many pure modes as rho: as many
of its largest t_Z as rho has pure modes (williamson.pure_mode_count, read
off the spectrum of its physicality check) are inf.  For a pure rho that
is every t_Z, and the t_Z stage is skipped.

The reduction runs once per call.  The per-order stage (contraction, trace,
t_Z and assembly) runs once per stack of orders: every formula takes a
leading order axis, and its factorizations are numpy.linalg's stacked
routines.  A single order is the stack of one, and every order of a stack
scales the one bordered base of rho's kernel (kernel.ContractedKernel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AlphaRangeError, ModeMismatchError, NotFaithfulError
# kernel_to_state is not called here, but stays bound: perfbench's tracer
# wraps every stage name of the pipeline in this module
from .kernel import (CoherentKernel, ContractedKernel, apply_contraction,  # noqa: F401
                     form_inverse, kernel_to_state, log_kernel_trace, state_to_kernel)
from .states import GaussianState, gaussian_transform, require_physical
from .williamson import (PURE_TOL, d_to_t, pure_mode_count, symplectic_eigenvalues,
                         williamson_decompose)

#: relative error in e^(-t_Z) that reading t_Z off K Lambda K may leave: an
#: order's is at most 4 ||K A K||_F^2 / (1 - ||K Lambda K||_2^2) (equal for
#: one mode), and this is that bound at |K A K| = 1e-7, ||K Lambda K||_2 = 1/2
PAIR_FREE_ERROR = 4 * 1e-7 ** 2 / (1 - 0.5 ** 2)
#: covariance-path gaps |d - 1/2| up to this are rounding noise: d is 1/2
COV_GAP_FLOOR = 1e-13
#: entries of the 2n x 2n form matrices stacked per pass of the per-order
#: stage, which bounds a sweep's memory (a real stack of 256 KiB): every order
#: of a 64-order sweep at n <= 8, 8 orders at n = 32, 2 at n = 64, one at a
#: time from n = 128
_STACK_ENTRIES = 32768


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
    alpha = _check_alphas(alpha)
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise NotFaithfulError("fractional powers need finite thermal parameters "
                               "(sigma must be faithful)")
    return _contraction(s, alpha)


def _contraction(s: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """fractional_power_contraction of parameters and orders already checked."""
    alpha = alpha[..., None]
    return np.exp(-s * (1.0 - alpha) / (2.0 * alpha))


def reduce_to_thermal(rho: GaussianState, sigma: GaussianState
                      ) -> tuple[GaussianState, np.ndarray, int]:
    """Apply the sigma-normalizing Gaussian unitary to rho.

    Returns (rho', s, p) where the same transform sends sigma to the
    zero-mean thermal state with ascending parameters s (read-only), to
    within the Williamson diagonalization residue, and p counts rho's pure
    modes (williamson.pure_mode_count of the spectrum of rho's physicality
    check).  Mode counts are compared before any factorization; sigma's
    physicality is checked by its own Williamson decomposition, after the
    checks that need no factorization.  Raises
    ModeMismatchError, UnphysicalStateError for an unphysical rho or sigma,
    and NotFaithfulError unless each of sigma's d - 1/2 exceeds PURE_TOL.
    """
    if rho.n != sigma.n:
        raise ModeMismatchError(f"mode mismatch: rho has {rho.n}, sigma has {sigma.n}")
    d = require_physical(rho, "rho")
    form = require_physical(sigma, "sigma", williamson_decompose)
    if not (form.d - 0.5 > PURE_TOL).all():
        raise NotFaithfulError(
            "sigma must be faithful: every symplectic eigenvalue d must exceed 1/2 by "
            f"more than the faithfulness margin PURE_TOL = {PURE_TOL:.0e} (thermal "
            f"parameter t below {np.log1p(1.0 / PURE_TOL):.3g}); "
            f"got d - 1/2 = {np.array2string(form.d - 0.5, precision=3)}")
    rho_prime = gaussian_transform(rho, form.L, shift=sigma.mean)
    return rho_prime, form.t, pure_mode_count(d)


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


def _contracted_thermal_parameters(z: ContractedKernel) -> np.ndarray:
    """Thermal parameters t_Z of each contracted sandwich of a stack, ascending.

    The final assembly needs alpha * t_Z, so t_Z must stay accurate even
    when a strong contraction makes it large.  The eigenvalues of K Lambda K
    are e^(-t_Z) to a relative error of at most
    4 ||K A K||_F^2 / (1 - ||K Lambda K||_2^2), at any size of t_Z, and an
    order reads t_Z off them iff that is at most PAIR_FREE_ERROR.
    4 ||K A K||_F^2 = (k^2)^T |2A|^2 (k^2) comes off the parent kernel's
    halves (CoherentKernel._halves) and screens out, before any eigensolve,
    the orders above PAIR_FREE_ERROR itself; the stacked eigvalsh of the
    rest gives the 2-norm as its largest modulus.  The other orders fall
    back on the symplectic spectrum of the covariance, one stacked real SVD
    (williamson._spectrum), whose gap above 1/2 resolves e^(-t_Z) only down
    to its rounding.  It is taken of M^{-1} - I/2 = J S J^T, which has the
    spectrum of the covariance S without its J-congruence, and M^{-1} comes
    from the form-matrix Cholesky factor that log_kernel_trace has taken.
    That matrix is handed on unnamed, so the spectrum's stage frees it once
    it has its symmetrized copy.
    """
    k, (p11, p21, q11, q12) = z.k, z.parent._halves
    t = np.empty(k.shape)
    k2 = k * k
    pair = ((k2 @ (q11 * q11 + q12 * q12)) * k2).sum(axis=-1)  # 4 ||K A K||_F^2
    free = pair <= PAIR_FREE_ERROR
    if free.any():
        kf = k[free]
        lam = np.linalg.eigvalsh(kf[:, :, None] * kf[:, None, :] * -(p11 + 1j * p21))
        inside = pair[free] <= PAIR_FREE_ERROR * (1.0 - abs(lam).max(axis=-1) ** 2)
        free[free] = inside
        lam = lam[inside]
        t[free] = np.where(lam > 0.0, -np.log(np.where(lam > 0.0, lam, 1.0)), np.inf)
    if not free.all():
        d = symplectic_eigenvalues(form_inverse(z, ~free) - 0.5 * np.eye(2 * k.shape[-1]))
        d[abs(d - 0.5) <= COV_GAP_FLOOR] = 0.5
        t[~free] = d_to_t(d)
    t.sort(axis=-1)
    return t


def _stack(kernel_prime: CoherentKernel, s: np.ndarray, alpha: np.ndarray,
           pure: int) -> list[EntropyReport]:
    """Reports for a stack of orders alpha, from rho's kernel in sigma's frame
    and the count of rho's pure modes."""
    z = apply_contraction(kernel_prime, _contraction(s, alpha))
    ln_trace = log_kernel_trace(z)
    mixed = s.size - pure  # t_z ascends: the pure modes' (noise) t_Z come last
    t_z = _contracted_thermal_parameters(z) if mixed else np.full(z.k.shape, np.inf)
    t_z[:, mixed:] = np.inf
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

    sigma is reduced, rho's pure modes counted and rho's kernel built once; the
    per-order stage runs on stacks of up to _STACK_ENTRIES // (2n)^2 orders
    at a time.
    """
    alphas = _check_alphas(alphas).reshape(-1)
    rho_prime, s, pure = reduce_to_thermal(rho, sigma)
    kernel_prime = state_to_kernel(rho_prime)
    step = max(1, _STACK_ENTRIES // (2 * s.size) ** 2)
    reports = []
    for i in range(0, alphas.size, step):
        reports += _stack(kernel_prime, s, alphas[i:i + step], pure)
    return reports
