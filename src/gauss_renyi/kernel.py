"""Coherent-vector generating kernels of positive trace-class operators.

A positive operator Z on n modes whose matrix elements between exponential
(unnormalized coherent) vectors take the Gaussian form

    <e(conj(u)) | Z | e(v)> = c * exp(l.u + mu.v + u.A u + u.Lam v + v.B v)

has the E2 parameters (ln c, mu, A, Lam); positivity forces l = conj(mu)
and B = conj(A), with A complex symmetric and Lam hermitian positive
semidefinite.  A kernel is kept as the real record (ln c, M, b)
(CoherentKernel): the form matrix

    M = I - [[Re Lam, -Im Lam], [Im Lam, Re Lam]] - 2 [[Re A, Im A], [Im A, -Re A]]

and the linear term b = (Re mu, -Im mu).  A Gaussian state's M is
J G J^T with G = (I/2 + S)^{-1}, a copy of G's blocks (state_to_kernel),
and the complex quadruple is formed only where it is shown
(CoherentKernel.quadruple).

Every form matrix built from M and b comes from one base per kernel, the
bordered B = [[M - I, b], [b^T, _BORDER]] (CoherentKernel._form_base).  A diagonal
contraction K = diag(k) maps M to I - K~ (I - M) K~ and b to K~ b, with
K~ = diag(k, k), so a contracted kernel is the record (parent, k)
(ContractedKernel), and its bordered form matrices, one per row of a stack
of contractions, are w w^T o B + diag(1, ..., 1, 0), w = (k, k, 1), for one
stacked Cholesky.  The t_Z stage's screen and quadruple read the n x n
halves of M's Lam and pair parts, formed once per kernel
(CoherentKernel._halves).
log_kernel_trace and form_inverse work on every entry at once through
numpy.linalg's stacked (..., m, m) routines.  Only the trace asks for a
pivot margin (FORM_MIN_EIG) on its factor; kernel_to_state, the inverse
map, factors the record's M itself and needs M positive definite alone.
NumPy has no triangular solver, so Cholesky factors are never handed to
its LU-based solve or inv: the trace reads b . M^{-1} b off the bordered
factor, and inverses of factors come from lower_triangular_inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import NotTraceClassError, UnphysicalStateError
from .states import GaussianState
from .williamson import lower_triangular_inverse

#: minimum squared Cholesky pivot of the real form matrix for trace-class
#: operators
FORM_MIN_EIG = 1e-12
#: corner of the bordered form matrix [[M, b], [b^T, _BORDER]], whose last
#: squared pivot is _BORDER - b . M^{-1} b.  A state's kernel, contracted or
#: not, has Tr Z <= 1 and M <= 2I, so b . M^{-1} b <= n ln 2 - ln c, where
#: -ln c grows as the squared displacement; the border is the one limit on it
_BORDER = 1e300
#: the other reason a bordered factor fails, besides an indefinite M
_PAST_BORDER = (f"b . M^-1 b, which grows as the squared displacement, is past {_BORDER:.0e}, "
                "the corner of the bordered form matrix (a displacement of about 1e150)")


@dataclass(frozen=True)
class CoherentKernel:
    """Real record (ln c, M, b) of a positive Gaussian generating kernel."""

    log_c: float
    M: np.ndarray
    b: np.ndarray

    @property
    def n(self) -> int:
        return self.b.shape[-1] // 2

    @cached_property
    def _form_base(self) -> np.ndarray:
        """The bordered base [[M - I, b], [b^T, _BORDER]] that contractions scale."""
        m = 2 * self.n
        B = np.empty((m + 1, m + 1))
        B[:m, :m] = self.M - np.eye(m)
        B[m, :m] = B[:m, m] = self.b
        B[m, m] = _BORDER
        return B

    @cached_property
    def _halves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The n x n halves (P11, P21, Q11, Q12) of M's Lam part P = (M + J^T M J)/2 - I
        and pair part Q = (M - J^T M J)/2: Lam = -(P11 + i P21), A = -(Q11 + i Q12)/2."""
        n = self.n
        M11, M12, M21, M22 = self.M[:n, :n], self.M[:n, n:], self.M[n:, :n], self.M[n:, n:]
        return (0.5 * (M11 + M22) - np.eye(n), 0.5 * (M21 - M12),
                0.5 * (M11 - M22), 0.5 * (M12 + M21))

    def quadruple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The complex (mu, A, Lam) of the kernel, read off b and M's halves:
        mu = b1 - i b2, A = -(Q11 + i Q12)/2 and Lam = -(P11 + i P21)."""
        n = self.n
        p11, p21, q11, q12 = self._halves
        return self.b[:n] - 1j * self.b[n:], -0.5 * (q11 + 1j * q12), -(p11 + 1j * p21)


@dataclass(frozen=True)
class ContractedKernel:
    """Gamma(K) Z Gamma(K), K = diag(k), of a plain kernel Z (parent), kept as
    the record (parent, k); a stack of them for contractions k of shape
    (m, n).  Its bordered form matrices scale the parent's base, so its own
    M = I - K~ (I - M) K~ and b = K~ b are never formed."""

    parent: CoherentKernel
    k: np.ndarray

    @cached_property
    def _form_factor(self):
        """Lower numpy.linalg Cholesky factor F of w w^T o B + diag(1, ..., 1, 0),
        w = (k, k, 1), from the parent's base B, or None unless M is positive
        definite with every squared pivot above FORM_MIN_EIG and
        b . M^{-1} b < _BORDER (for a stack: every entry).  The factorization
        is the definiteness test, so no eigensolve runs; a squared pivot is
        never below the smallest eigenvalue, so the margin bounds pivots, not
        the spectrum.  F's leading block is M's factor L, and its last row is
        y = L^{-1} b, so the trace's b . M^{-1} b = |y|^2 needs no solve.
        """
        k = self.k
        w = np.concatenate([k, k, np.ones(k.shape[:-1] + (1,))], axis=-1)
        bordered = w[..., :, None] * w[..., None, :]
        bordered *= self.parent._form_base
        _add_to_diagonal(bordered, 1.0)  # the corner keeps _BORDER: 1 is below its ulp
        try:
            F = np.linalg.cholesky(bordered)
        except np.linalg.LinAlgError:
            return None
        return F if float(F.diagonal(0, -2, -1)[..., :-1].min()) ** 2 > FORM_MIN_EIG else None


def _turn(X: np.ndarray) -> np.ndarray:
    """J X J^T = J^T X J = [[X22, -X21], [-X12, X11]] of a 2n x 2n X, copied
    block by block, which gives the bits of the two products with J."""
    n = X.shape[-1] // 2
    out = np.empty(X.shape)
    out[:n, :n] = X[n:, n:]
    np.negative(X[n:, :n], out=out[:n, n:])
    np.negative(X[:n, n:], out=out[n:, :n])
    out[n:, n:] = X[:n, :n]
    return out


def _add_to_diagonal(M: np.ndarray, value: float) -> None:
    """M_jj += value in place, for each matrix of a C-contiguous stack M."""
    M.reshape(M.shape[:-2] + (-1,))[..., ::M.shape[-1] + 1] += value


def log_kernel_trace(z: ContractedKernel):
    """ln Tr Z for a contracted positive kernel, or an array of them for a
    stack of contractions; raises NotTraceClassError unless M is positive
    definite with every squared pivot above 1e-12 and b . M^{-1} b < _BORDER.

    ln Tr Z = ln c - ln det M / 2 + b . M^{-1} b with b = (Re mu, -Im mu);
    the sign on the imaginary block comes from the conjugate slot of the
    coherent-vector resolution of the identity.  Both come from the
    bordered Cholesky factor (_form_factor): ln det M = 2 sum ln L_jj over
    its leading block L, and b . M^{-1} b = |y|^2 over its last row
    y = L^{-1} b, with no solve.
    """
    F = z._form_factor
    if F is None:
        raise NotTraceClassError(
            "not trace class: form matrix not positive definite "
            f"(needs min eigenvalue > {FORM_MIN_EIG:.0e}), or {_PAST_BORDER}")
    logdet = 2.0 * np.log(F.diagonal(0, -2, -1)[..., :-1]).sum(axis=-1)
    y = F[..., -1:, :-1]
    trace = z.parent.log_c - 0.5 * logdet + (y @ y.swapaxes(-1, -2))[..., 0, 0]
    return trace if trace.ndim else float(trace)


def state_to_kernel(state: GaussianState) -> CoherentKernel:
    """Kernel record (ln c, M, b) of a Gaussian state with mean m and
    covariance S.

    With G = (I/2 + S)^{-1} and Xi = diag(I, -I):

        M = J G J^T,   b = M Xi m,   ln c = -ln det(I/2 + S) / 2 - (Xi m) . b

    M is G's blocks swapped, two of them negated (_turn), so it holds G to
    relative rounding.  The mean enters exactly as a displacement acting on
    the zero-mean kernel.  Only ln c is formed, as c is subnormal from a
    squared displacement of 708.4; NotTraceClassError once (Xi m) . b
    overflows.

    One Cholesky factor I/2 + S = L L^T gives both: ln det = 2 sum ln L_jj,
    and G = L^{-T} L^{-1} with L^{-1} from lower_triangular_inverse.

    The state is taken to be physical (require_physical), so the kernel is
    not checked again: a state that passes require_physical has
    lambda_min(Lam) >= d_min - 1/2 >= -PHYSICAL_TOL.
    """
    n = state.n
    C = 0.5 * np.eye(2 * n) + state.cov
    try:
        L = np.linalg.cholesky(0.5 * (C + C.T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded upstream
        raise UnphysicalStateError(f"covariance shifted by I/2 not positive definite: {exc}")
    logdet = 2.0 * float(np.log(L.diagonal()).sum())
    Li = lower_triangular_inverse(L)
    M = _turn(Li.T @ Li)
    xm = np.repeat([1.0, -1.0], n) * state.mean
    b = M @ xm
    with np.errstate(over="ignore", invalid="ignore"):
        quad = float(xm @ b)
    if not np.isfinite(quad):
        raise NotTraceClassError("not trace class: the squared displacement |m|^2 in ln c "
                                 "overflows a double (a displacement past about 1.3e154)")
    M.flags.writeable = b.flags.writeable = False
    return CoherentKernel(-0.5 * logdet - quad, M, b)


def form_inverse(z: ContractedKernel, orders=...) -> np.ndarray:
    """M^{-1} = L^{-T} L^{-1} of a contracted kernel whose trace
    log_kernel_trace has taken; for a stack of them, of the entries that
    orders selects.

    L is the leading block of the bordered Cholesky factor that
    log_kernel_trace shares, inverted by lower_triangular_inverse.
    M^{-1} - I/2 = J S J^T is the covariance S of the kernel's state turned
    by the symplectic J, so it has S's symplectic spectrum.
    """
    Li = lower_triangular_inverse(z._form_factor[orders, :-1, :-1])
    return Li.swapaxes(-1, -2) @ Li


def kernel_to_state(kernel: CoherentKernel) -> GaussianState:
    """Recover (mean, covariance) from a normalizable Gaussian kernel.

    S = J^T M^{-1} J - I/2 and mean = Xi M^{-1} b, Xi = diag(I, -I), invert
    state_to_kernel.  M^{-1} = L^{-T} L^{-1} comes from the record's M and
    its own plain Cholesky factor L, not the trace's bordered one, so it
    needs M positive definite and nothing more: neither the trace's pivot
    margin FORM_MIN_EIG nor its border applies here.  M holds
    G = (I/2 + S)^{-1} to relative rounding, so a hot mode (symplectic
    eigenvalue d) comes back to a few eps relative, up to overflow.  Raises
    UnphysicalStateError when the form matrix is not positive definite.
    """
    n = kernel.n
    try:
        L = np.linalg.cholesky(kernel.M)
    except np.linalg.LinAlgError:
        raise UnphysicalStateError(
            "kernel parameters do not describe a normalizable gaussian state") from None
    Li = lower_triangular_inverse(L)
    inv = Li.T @ Li
    cov = _turn(inv)
    _add_to_diagonal(cov, -0.5)
    mean = np.repeat([1.0, -1.0], n) * (inv @ kernel.b)
    return GaussianState(mean, 0.5 * (cov + cov.T))


def apply_contraction(kernel: CoherentKernel, k: np.ndarray) -> ContractedKernel:
    """Parameters of Gamma(K) Z Gamma(K) for a diagonal contraction K.

    Gamma(K) is the second quantization of K = diag(k); sandwiching maps
    (ln c, mu, A, Lam) to (ln c, K mu, K A K, K Lam K), that is (ln c, M, b)
    to (ln c, I - K~ (I - M) K~, K~ b).  Entries of k must lie in [0, 1],
    and NaN or inf raises ValueError.  A stack of contractions k of shape
    (m, n) gives the stack of m sandwiched kernels.  A real diagonal K
    keeps Lam positive semidefinite, so nothing is checked again.  The
    result is the record (parent, k) (ContractedKernel).
    """
    k = np.array(k, dtype=float)
    if k.ndim not in (1, 2) or k.shape[-1] != kernel.n:
        raise ValueError(f"contraction has shape {k.shape} for {kernel.n} modes")
    if not 0.0 <= k.min() <= k.max() <= 1.0 + 1e-12:  # false for NaN too
        if not np.isfinite(k).all():
            raise ValueError(f"contraction entries must be finite, got {k}")
        raise ValueError(f"contraction violation: diagonal entries must be in [0, 1], got {k}")
    k.flags.writeable = False
    return ContractedKernel(kernel, k)
