"""Coherent-vector generating kernels of positive trace-class operators.

A positive operator Z on n modes whose matrix elements between exponential
(unnormalized coherent) vectors take the Gaussian form

    <e(conj(u)) | Z | e(v)> = c * exp(l.u + mu.v + u.A u + u.Lam v + v.B v)

is described here by the quadruple (c, mu, A, Lam); positivity forces
l = conj(mu) and B = conj(A), with A complex symmetric and Lam hermitian
positive semidefinite.  Gaussian states, their fractional-power sandwiches
and their traces all have closed forms in this parametrization.

A stack of contractions (apply_contraction) gives a stack of kernels that
share c: mu, A and Lam carry a leading axis, one entry per contraction, and
form_matrix, log_kernel_trace and kernel_covariance work on every entry at
once through numpy.linalg's stacked (..., m, m) routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import NotTraceClassError, UnphysicalStateError
from .states import GaussianState

#: max asymmetry / non-hermiticity accepted in kernel matrices
KERNEL_SYM_TOL = 1e-12
#: Lam may dip this far below PSD before we reject it
LAM_PSD_TOL = 1e-10
#: minimum squared Cholesky pivot of the real form matrix for trace-class
#: operators
FORM_MIN_EIG = 1e-12


@dataclass(frozen=True)
class CoherentKernel:
    """Parameters (c, mu, A, lam) of a positive Gaussian generating kernel."""

    c: float
    mu: np.ndarray
    A: np.ndarray
    lam: np.ndarray

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=complex).reshape(-1)
        n = mu.size
        A = np.asarray(self.A, dtype=complex).reshape(n, n)
        lam = np.asarray(self.lam, dtype=complex).reshape(n, n)
        if not self.c > 0:
            raise ValueError(f"kernel scale c must be positive, got {self.c}")
        if np.max(np.abs(A - A.T)) > KERNEL_SYM_TOL:
            raise ValueError("kernel matrix A must be complex symmetric")
        if np.max(np.abs(lam - lam.conj().T)) > KERNEL_SYM_TOL:
            raise ValueError("kernel matrix lam must be hermitian")
        if np.linalg.eigvalsh(lam).min() < -LAM_PSD_TOL:
            raise ValueError("kernel matrix lam must be positive semidefinite")
        _set_fields(self, self.c, mu, A, lam)

    @property
    def n(self) -> int:
        return self.mu.shape[-1]

    @cached_property
    def _form_factor(self):
        """Lower factor L of the numpy.linalg Cholesky M(A, lam) = L L^T, shared
        by the trace and the covariance, or None unless M is positive definite
        with every squared pivot above FORM_MIN_EIG (for a stack: every M of
        it).  The factorization is the definiteness test, so no eigensolve
        runs; a squared pivot is never below the smallest eigenvalue, so the
        margin bounds pivots, not the spectrum.
        """
        try:
            L = np.linalg.cholesky(form_matrix(self.A, self.lam))
        except np.linalg.LinAlgError:
            return None
        return L if float(L.diagonal(0, -2, -1).min()) ** 2 > FORM_MIN_EIG else None


def _set_fields(kernel: CoherentKernel, c, mu, A, lam) -> CoherentKernel:
    for name, arr in (("mu", mu), ("A", A), ("lam", lam)):
        arr.flags.writeable = False
        object.__setattr__(kernel, name, arr)
    object.__setattr__(kernel, "c", float(c))
    return kernel


def form_matrix(A: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Real symmetric 2n x 2n quadratic-form matrix of a kernel, per entry of
    any leading axes of A and lam.

    M = I - [[Re lam, -Im lam], [Im lam, Re lam]]
          - 2 [[Re A, Im A], [Im A, -Re A]]

    M(-A, lam) = J^T M(A, lam) J, whose inverse recovers the state's moments.
    """
    A = np.asarray(A, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    n = A.shape[-1]
    a_re, a_im = 2.0 * A.real, 2.0 * A.imag
    # the subtracted blocks, written in place, negated, then I added
    M = np.empty(A.shape[:-2] + (2 * n, 2 * n))
    np.add(lam.real, a_re, out=M[..., :n, :n])
    np.subtract(a_im, lam.imag, out=M[..., :n, n:])
    np.add(lam.imag, a_im, out=M[..., n:, :n])
    np.subtract(lam.real, a_re, out=M[..., n:, n:])
    np.negative(M, out=M)
    _add_to_diagonal(M, 1.0)
    M = M + M.swapaxes(-1, -2)
    M *= 0.5
    return M


def _add_to_diagonal(M: np.ndarray, value: float) -> None:
    """M_jj += value in place, for each matrix of a C-contiguous stack M."""
    M.reshape(M.shape[:-2] + (-1,))[..., ::M.shape[-1] + 1] += value


def log_kernel_trace(kernel: CoherentKernel):
    """ln Tr Z for a positive kernel, or an array of them for a stack of
    kernels; raises NotTraceClassError unless M(A, lam) is positive definite
    with every squared Cholesky pivot above 1e-12.

    Tr Z = c / sqrt(det M) * exp(b . M^{-1} b) with b = (Re mu, -Im mu);
    the sign on the imaginary block comes from the conjugate slot of the
    coherent-vector resolution of the identity.  With the Cholesky factor
    M = L L^T kept for kernel_covariance, b . M^{-1} b = |L^{-1} b|^2 by one
    LU solve with L (NumPy has no triangular solver); ln det M = 2 sum ln L_jj.
    """
    L = kernel._form_factor
    if L is None:
        raise NotTraceClassError(
            "not trace class: form matrix not positive definite "
            f"(needs min eigenvalue > {FORM_MIN_EIG:.0e})")
    logdet = 2.0 * np.log(L.diagonal(0, -2, -1)).sum(axis=-1)
    b = np.concatenate([kernel.mu.real, -kernel.mu.imag], axis=-1)
    y = np.linalg.solve(L, b[..., None])
    trace = np.log(kernel.c) - 0.5 * logdet + (y.swapaxes(-1, -2) @ y)[..., 0, 0]
    return trace if trace.ndim else float(trace)


def state_to_kernel(state: GaussianState) -> CoherentKernel:
    """Kernel parameters of a Gaussian state with mean m and covariance S.

    With G = (I/2 + S)^{-1} partitioned into n x n blocks Gij and
    m = mean[:n] + i mean[n:]:

        A   = ((G11 - G22) + i (G12 + G21)) / 4
        lam = I - ((G11 + G22) + i (G21 - G12)) / 2
        mu  = m - 2 conj(A) conj(m) - conj(lam) m
        c   = det(I/2 + S)^{-1/2}
              * exp(-|m|^2 + 2 Re(m.A m) + m.lam conj(m))

    The mean enters exactly as a displacement acting on the zero-mean
    kernel, which fixes every conjugation above.  Raises NotTraceClassError
    when c underflows, which a displacement |m| above about 27 can cause.

    The state is taken to be physical (require_physical), so CoherentKernel's
    checks and their eigensolve are not run: A and lam are symmetrized above,
    and a state that passes require_physical has
    lambda_min(lam) >= d_min - 1/2 >= -PHYSICAL_TOL = -LAM_PSD_TOL.
    """
    n = state.n
    C = 0.5 * np.eye(2 * n) + state.cov
    try:
        L = np.linalg.cholesky(0.5 * (C + C.T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded upstream
        raise UnphysicalStateError(f"covariance shifted by I/2 not positive definite: {exc}")
    logdet = 2.0 * float(np.log(L.diagonal()).sum())
    Li = np.linalg.inv(L.T)  # L^{-T}: the LU of an upper-triangular matrix swaps no rows
    G = Li @ Li.T

    g11, g12 = G[:n, :n], G[:n, n:]
    g21, g22 = G[n:, :n], G[n:, n:]
    A = 0.25 * ((g11 - g22) + 1j * (g12 + g21))
    lam = np.eye(n) - 0.5 * ((g11 + g22) + 1j * (g21 - g12))
    A = 0.5 * (A + A.T)
    lam = 0.5 * (lam + lam.conj().T)

    m = state.mean[:n] + 1j * state.mean[n:]
    mu = m - 2.0 * A.conj() @ m.conj() - lam.conj() @ m
    quad = float((-m.conj() @ m + 2.0 * (m @ A @ m) + m @ lam @ m.conj()).real)
    log_c = -0.5 * logdet + quad
    c = float(np.exp(log_c))
    if c == 0.0:
        raise NotTraceClassError(
            f"kernel scale c = exp({log_c:.6g}) underflows to 0 in double precision, "
            "whose limit is ln c > -745; the displacement is too large")
    return _set_fields(object.__new__(CoherentKernel), c, mu, A, lam)


def kernel_covariance(kernel: CoherentKernel, orders=...) -> tuple[np.ndarray, np.ndarray]:
    """Covariance S of the state of a normalizable kernel, and the M^{-1} it
    comes from; for a stack of kernels, of the entries that orders selects.

    S = M(-A, lam)^{-1} - I/2 = J^T M(A, lam)^{-1} J - I/2, since
    M(-A, lam) = J^T M(A, lam) J exactly.  M^{-1} = L^{-T} L^{-1}, with L
    the Cholesky factor that log_kernel_trace shares, and J^T X J =
    [[X22, -X21], [-X12, X11]] is copied block by block, which gives the
    bits of the two products with J.  Raises UnphysicalStateError when the form
    matrix is singular or indefinite.
    """
    L = kernel._form_factor
    if L is None:
        raise UnphysicalStateError(
            "kernel parameters do not describe a normalizable gaussian state")
    n = kernel.n
    Li = np.linalg.inv(L[orders].swapaxes(-1, -2))  # L^{-T}, as in state_to_kernel
    inv = Li @ Li.swapaxes(-1, -2)
    cov = np.empty(inv.shape)
    cov[..., :n, :n] = inv[..., n:, n:]
    np.negative(inv[..., n:, :n], out=cov[..., :n, n:])
    np.negative(inv[..., :n, n:], out=cov[..., n:, :n])
    cov[..., n:, n:] = inv[..., :n, :n]
    _add_to_diagonal(cov, -0.5)
    cov = cov + cov.swapaxes(-1, -2)
    cov *= 0.5
    return cov, inv


def kernel_to_state(kernel: CoherentKernel) -> GaussianState:
    """Recover (mean, covariance) from a normalizable Gaussian kernel.

    The covariance is kernel_covariance's, and the mean inverts the
    displacement map of state_to_kernel: m_r = Xi M(A, lam)^{-1} Xi mu_r
    where Xi negates the imaginary block.  Raises UnphysicalStateError when
    the form matrix is singular or indefinite.
    """
    cov, inv = kernel_covariance(kernel)
    xi = np.repeat([1.0, -1.0], kernel.n)
    mean = xi * (inv @ (xi * np.concatenate([kernel.mu.real, kernel.mu.imag])))
    return GaussianState(mean, cov)


def apply_contraction(kernel: CoherentKernel, k: np.ndarray) -> CoherentKernel:
    """Parameters of Gamma(K) Z Gamma(K) for a diagonal contraction K.

    Gamma(K) is the second quantization of K = diag(k); sandwiching maps
    (c, mu, A, lam) to (c, K mu, K A K, K lam K).  Entries of k must lie
    in [0, 1].  A stack of contractions k of shape (m, n) gives the stack
    of m sandwiched kernels.  A real diagonal K keeps A symmetric and lam
    hermitian PSD, so CoherentKernel's checks and their eigensolve are not
    run again.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim not in (1, 2) or k.shape[-1] != kernel.n:
        raise ValueError(f"contraction has shape {k.shape} for {kernel.n} modes")
    if (k < 0.0).any() or (k > 1.0 + 1e-12).any():
        raise ValueError(f"contraction violation: diagonal entries must be in [0, 1], got {k}")
    outer = k[..., :, None] * k[..., None, :]
    return _set_fields(object.__new__(CoherentKernel), kernel.c, k * kernel.mu,
                       outer * kernel.A, outer * kernel.lam)


def evaluate_kernel(kernel: CoherentKernel, u: np.ndarray, v: np.ndarray) -> complex:
    """Evaluate c * exp(conj(mu).u + mu.v + u.Au + u.Lam v + v.conj(A)v).

    This is the predicted matrix element <e(conj(u)) | Z | e(v)>; the dense
    Fock oracle computes the same quantity independently.
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    expo = (kernel.mu.conj() @ u + kernel.mu @ v + u @ kernel.A @ u
            + u @ kernel.lam @ v + v @ kernel.A.conj() @ v)
    return complex(kernel.c * np.exp(expo))
