"""Coherent-vector generating kernels of positive trace-class operators.

A positive operator Z on n modes whose matrix elements between exponential
(unnormalized coherent) vectors take the Gaussian form

    <e(conj(u)) | Z | e(v)> = c * exp(l.u + mu.v + u.A u + u.Lam v + v.B v)

is described here by the quadruple (ln c, mu, A, Lam); positivity forces
l = conj(mu) and B = conj(A), with A complex symmetric and Lam hermitian
positive semidefinite.  Gaussian states, their fractional-power sandwiches
and their traces all have closed forms in this parametrization.

Everything built from the real form matrix M of a kernel and its linear
term b = (Re mu, -Im mu) comes from one base per kernel, the bordered
B = [[M - I, b], [b^T, _BORDER]] (CoherentKernel._form_base).  A diagonal
contraction K = diag(k) maps M to I - K~ (I - M) K~ and b to K~ b, with
K~ = diag(k, k), so a contracted kernel is the record (parent, k)
(ContractedKernel), and its bordered form matrices, one per row of a stack
of contractions, are w w^T o B + diag(1, ..., 1, 0), w = (k, k, 1), for one
stacked Cholesky.  A plain kernel is traced as its contraction by k = 1,
and kernel_to_state reads M off the same base.  B is kept as its Lam part
(with the border) and its pair part, each scaled by w w^T before they are
added.  That order fixes the rounding of the t_Z covariance fallback's
values, which acceptance criterion 7 rests on: one summed base moved
small-alpha fallback values by up to 4e-5.  The split can go with the
fallback.
log_kernel_trace and form_inverse work on every entry at once through
numpy.linalg's stacked (..., m, m) routines.  NumPy has no triangular
solver, so Cholesky factors are never handed to its LU-based solve or inv:
the trace reads b . M^{-1} b off the bordered factor, and inverses of
factors come from lower_triangular_inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import NotTraceClassError, UnphysicalStateError
from .states import GaussianState
from .williamson import PHYSICAL_TOL, SYMMETRY_TOL

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
#: lower_triangular_inverse hands diagonal blocks of at most this size to
#: numpy.linalg.inv
_TRI_LEAF = 16


@dataclass(frozen=True)
class CoherentKernel:
    """Parameters (ln c, mu, A, lam) of a positive Gaussian generating kernel."""

    log_c: float
    mu: np.ndarray
    A: np.ndarray
    lam: np.ndarray

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=complex).reshape(-1)
        n = mu.size
        A = np.asarray(self.A, dtype=complex).reshape(n, n)
        lam = np.asarray(self.lam, dtype=complex).reshape(n, n)
        for name, arr in (("log_c", self.log_c), ("mu", mu), ("A", A), ("lam", lam)):
            if not np.isfinite(arr).all():
                raise ValueError(f"kernel {name} has non-finite entries")
        if np.max(np.abs(A - A.T)) > SYMMETRY_TOL:
            raise ValueError("kernel matrix A must be complex symmetric")
        if np.max(np.abs(lam - lam.conj().T)) > SYMMETRY_TOL:
            raise ValueError("kernel matrix lam must be hermitian")
        # a physical state's kernel has lambda_min(lam) >= d_min - 1/2 >= -PHYSICAL_TOL
        if np.linalg.eigvalsh(lam).min() < -PHYSICAL_TOL:
            raise ValueError("kernel matrix lam must be positive semidefinite")
        _set_fields(self, self.log_c, mu, A, lam)

    @property
    def n(self) -> int:
        return self.mu.shape[-1]

    @cached_property
    def _form_base(self) -> tuple[np.ndarray, np.ndarray]:
        """The bordered base [[M - I, b], [b^T, _BORDER]], b = (Re mu, -Im mu),
        as P + Q, with P = -[[Re lam, -Im lam], [Im lam, Re lam]] bordered by
        b and _BORDER, and Q = -2 [[Re A, Im A], [Im A, -Re A]] by zeros.  A
        contraction scales both by w w^T, and they are summed after the
        scaling: the t_Z fallback's values, and acceptance criterion 7, rest
        on that rounding (see the module docstring).
        """
        n, m = self.n, 2 * self.n
        lam, A = self.lam, self.A
        P = np.empty((m + 1, m + 1))
        Q = np.zeros((m + 1, m + 1))
        np.negative(lam.real, out=P[:n, :n])
        P[:n, n:m] = lam.imag
        np.negative(lam.imag, out=P[n:m, :n])
        P[n:m, n:m] = P[:n, :n]
        np.multiply(A.real, -2.0, out=Q[:n, :n])
        np.negative(Q[:n, :n], out=Q[n:m, n:m])
        np.multiply(A.imag, -2.0, out=Q[:n, n:m])
        Q[n:m, :n] = Q[:n, n:m]
        P[m, :n] = self.mu.real
        np.negative(self.mu.imag, out=P[m, n:m])
        P[:m, m] = P[m, :m]
        P[m, m] = _BORDER
        return P, Q


@dataclass(frozen=True)
class ContractedKernel:
    """Gamma(K) Z Gamma(K), K = diag(k), of a plain kernel Z (parent), kept as
    the record (parent, k); a stack of them for contractions k of shape
    (m, n).  Its bordered form matrices scale the parent's base, so its
    quadruple (ln c, K mu, K A K, K lam K) is never formed."""

    parent: CoherentKernel
    k: np.ndarray

    @property
    def log_c(self) -> float:
        return self.parent.log_c

    @property
    def n(self) -> int:
        return self.k.shape[-1]

    @cached_property
    def _form_factor(self):
        """Lower numpy.linalg Cholesky factor F of w w^T o P + w w^T o Q +
        diag(1, ..., 1, 0), w = (k, k, 1), from the parent's base, or None
        unless M is positive definite with every squared pivot above
        FORM_MIN_EIG and b . M^{-1} b < _BORDER (for a stack: every entry).
        F's leading block is M's factor L, and its last row is y = L^{-1} b,
        so the trace's b . M^{-1} b = |y|^2 needs no solve.
        """
        k = self.k
        n = k.shape[-1]
        w = np.empty(k.shape[:-1] + (2 * n + 1,))
        w[..., :n] = w[..., n:-1] = k
        w[..., -1] = 1.0
        P, Q = self.parent._form_base
        bordered = w[..., :, None] * w[..., None, :]
        pairs = bordered * Q
        bordered *= P
        bordered += pairs
        del pairs  # the factor can take its memory
        _add_to_diagonal(bordered, 1.0)  # the corner keeps _BORDER: 1 is below its ulp
        return _cholesky_factor(bordered, 2 * n)


def _bordered_factor(kernel: CoherentKernel | ContractedKernel):
    """Bordered factor of a contracted kernel, or of a plain one contracted by k = 1."""
    if isinstance(kernel, CoherentKernel):
        kernel = ContractedKernel(kernel, np.ones(kernel.n))
    return kernel._form_factor


def _set_fields(kernel: CoherentKernel, log_c, mu, A, lam) -> CoherentKernel:
    for name, arr in (("mu", mu), ("A", A), ("lam", lam)):
        arr.flags.writeable = False
        object.__setattr__(kernel, name, arr)
    object.__setattr__(kernel, "log_c", float(log_c))
    return kernel


def _cholesky_factor(matrix: np.ndarray, m: int):
    """Lower numpy.linalg Cholesky factor of matrix, or None unless it is
    positive definite with its first m squared pivots above FORM_MIN_EIG
    (for a stack: every entry).  The factorization is the definiteness
    test, so no eigensolve runs; a squared pivot is never below the smallest
    eigenvalue, so the margin bounds pivots, not the spectrum.
    """
    try:
        F = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return None
    return F if float(F.diagonal(0, -2, -1)[..., :m].min()) ** 2 > FORM_MIN_EIG else None


def _add_to_diagonal(M: np.ndarray, value: float) -> None:
    """M_jj += value in place, for each matrix of a C-contiguous stack M."""
    M.reshape(M.shape[:-2] + (-1,))[..., ::M.shape[-1] + 1] += value


def lower_triangular_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular L, or of each matrix of a stack (..., m, m).

    Blocked: L = [[L11, 0], [L21, L22]] has the inverse
    [[L11^{-1}, 0], [-L22^{-1} L21 L11^{-1}, L22^{-1}]], recursing on the
    halves; the off-diagonal block takes two matmuls.  Diagonal blocks of
    at most _TRI_LEAF go to numpy.linalg.inv transposed, since the LU of an
    upper-triangular matrix swaps no rows, so the result is exactly
    lower triangular.
    """
    m = L.shape[-1]
    if m <= _TRI_LEAF:
        return np.linalg.inv(L.swapaxes(-1, -2)).swapaxes(-1, -2)
    h = m // 2
    inv = np.zeros(L.shape)
    i11 = inv[..., :h, :h] = lower_triangular_inverse(L[..., :h, :h])
    i22 = inv[..., h:, h:] = lower_triangular_inverse(L[..., h:, h:])
    np.negative(i22 @ (L[..., h:, :h] @ i11), out=inv[..., h:, :h])
    return inv


def log_kernel_trace(kernel: CoherentKernel | ContractedKernel):
    """ln Tr Z for a positive kernel, or an array of them for a stack of
    contractions; raises NotTraceClassError unless M(A, lam) is positive
    definite with every squared pivot above 1e-12 and b . M^{-1} b < _BORDER.

    ln Tr Z = ln c - ln det M / 2 + b . M^{-1} b with b = (Re mu, -Im mu);
    the sign on the imaginary block comes from the conjugate slot of the
    coherent-vector resolution of the identity.  Both come from the
    bordered Cholesky factor (_form_factor): ln det M = 2 sum ln L_jj over
    its leading block L, and b . M^{-1} b = |y|^2 over its last row
    y = L^{-1} b, with no solve.
    """
    F = _bordered_factor(kernel)
    if F is None:
        raise NotTraceClassError(
            "not trace class: form matrix not positive definite "
            f"(needs min eigenvalue > {FORM_MIN_EIG:.0e}), or {_PAST_BORDER}")
    logdet = 2.0 * np.log(F.diagonal(0, -2, -1)[..., :-1]).sum(axis=-1)
    y = F[..., -1:, :-1]
    trace = kernel.log_c - 0.5 * logdet + (y @ y.swapaxes(-1, -2))[..., 0, 0]
    return trace if trace.ndim else float(trace)


def state_to_kernel(state: GaussianState) -> CoherentKernel:
    """Kernel parameters of a Gaussian state with mean m and covariance S.

    With G = (I/2 + S)^{-1} partitioned into n x n blocks Gij and
    m = mean[:n] + i mean[n:]:

        A   = ((G11 - G22) + i (G12 + G21)) / 4
        lam = I - ((G11 + G22) + i (G21 - G12)) / 2
        mu  = m - 2 conj(A) conj(m) - conj(lam) m
        ln c = -ln det(I/2 + S) / 2 - |m|^2 + 2 Re(m.A m) + m.lam conj(m)

    The mean enters exactly as a displacement acting on the zero-mean
    kernel, which fixes every conjugation above.  Only ln c is formed, as c
    is subnormal from |m|^2 = 708.4; NotTraceClassError once |m|^2 overflows.

    One Cholesky factor I/2 + S = L L^T gives both: ln det = 2 sum ln L_jj,
    and G = L^{-T} L^{-1} with L^{-1} from lower_triangular_inverse.

    The state is taken to be physical (require_physical), so CoherentKernel's
    checks and their eigensolve are not run: A and lam are symmetrized above,
    and a state that passes require_physical has
    lambda_min(lam) >= d_min - 1/2 >= -PHYSICAL_TOL.
    """
    n = state.n
    C = 0.5 * np.eye(2 * n) + state.cov
    try:
        L = np.linalg.cholesky(0.5 * (C + C.T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded upstream
        raise UnphysicalStateError(f"covariance shifted by I/2 not positive definite: {exc}")
    logdet = 2.0 * float(np.log(L.diagonal()).sum())
    Li = lower_triangular_inverse(L)
    G = Li.T @ Li

    g11, g12 = G[:n, :n], G[:n, n:]
    g21, g22 = G[n:, :n], G[n:, n:]
    A = 0.25 * ((g11 - g22) + 1j * (g12 + g21))
    lam = np.eye(n) - 0.5 * ((g11 + g22) + 1j * (g21 - g12))
    A = 0.5 * (A + A.T)
    lam = 0.5 * (lam + lam.conj().T)

    m = state.mean_complex()
    mu = m - 2.0 * A.conj() @ m.conj() - lam.conj() @ m
    with np.errstate(over="ignore", invalid="ignore"):
        quad = float((-m.conj() @ m + 2.0 * (m @ A @ m) + m @ lam @ m.conj()).real)
    if not np.isfinite(quad):
        raise NotTraceClassError("not trace class: the squared displacement |m|^2 in ln c "
                                 "overflows a double (a displacement past about 1.3e154)")
    return _set_fields(object.__new__(CoherentKernel), -0.5 * logdet + quad, mu, A, lam)


def form_inverse(kernel: CoherentKernel | ContractedKernel, orders=...) -> np.ndarray:
    """M(A, lam)^{-1} = L^{-T} L^{-1} of a normalizable kernel; for a stack of
    kernels, of the entries that orders selects.

    L is the leading block of the bordered Cholesky factor that
    log_kernel_trace shares, inverted by lower_triangular_inverse.
    M^{-1} - I/2 = J S J^T is the covariance S of the kernel's state turned
    by the symplectic J, so it has S's symplectic spectrum.  Raises
    UnphysicalStateError when the form matrix is singular or indefinite, or
    b . M^{-1} b >= _BORDER.
    """
    F = _bordered_factor(kernel)
    if F is None:
        raise UnphysicalStateError(
            f"kernel parameters do not describe a normalizable gaussian state, or {_PAST_BORDER}")
    Li = lower_triangular_inverse(F[orders, :-1, :-1])
    return Li.swapaxes(-1, -2) @ Li


def kernel_to_state(kernel: CoherentKernel) -> GaussianState:
    """Recover (mean, covariance) from a normalizable Gaussian kernel.

    S = M(-A, lam)^{-1} - I/2 = J^T M(A, lam)^{-1} J - I/2, since
    M(-A, lam) = J^T M(A, lam) J exactly.  M^{-1} = L^{-T} L^{-1} comes from
    M's own Cholesky factor L, not the trace's bordered one, so the
    displacement has no limit here below overflow.  J^T X J =
    [[X22, -X21], [-X12, X11]] is copied block by block, which gives the
    bits of the two products with J.  The mean inverts the displacement map
    of state_to_kernel: m_r = Xi M(A, lam)^{-1} Xi mu_r where Xi negates the
    imaginary block.  Raises UnphysicalStateError when the form matrix is
    singular or indefinite (a squared pivot at most FORM_MIN_EIG).

    M = P + Q + I comes off the kernel's base (_form_base).  It holds
    I - lam to absolute rounding, so a hot mode (symplectic eigenvalue d)
    comes back to about eps * d relative, and fails from d ~ 1/FORM_MIN_EIG.
    """
    n = kernel.n
    P, Q = kernel._form_base
    M = P[:2 * n, :2 * n] + Q[:2 * n, :2 * n]
    _add_to_diagonal(M, 1.0)
    L = _cholesky_factor(M, 2 * n)
    if L is None:
        raise UnphysicalStateError(
            "kernel parameters do not describe a normalizable gaussian state")
    Li = lower_triangular_inverse(L)
    inv = Li.T @ Li
    cov = np.empty(inv.shape)
    cov[:n, :n] = inv[n:, n:]
    np.negative(inv[n:, :n], out=cov[:n, n:])
    np.negative(inv[:n, n:], out=cov[n:, :n])
    cov[n:, n:] = inv[:n, :n]
    _add_to_diagonal(cov, -0.5)
    xi = np.repeat([1.0, -1.0], n)
    mean = xi * (inv @ (xi * np.concatenate([kernel.mu.real, kernel.mu.imag])))
    return GaussianState(mean, 0.5 * (cov + cov.T))


def apply_contraction(kernel: CoherentKernel | ContractedKernel, k: np.ndarray) -> ContractedKernel:
    """Parameters of Gamma(K) Z Gamma(K) for a diagonal contraction K.

    Gamma(K) is the second quantization of K = diag(k); sandwiching maps
    (ln c, mu, A, lam) to (ln c, K mu, K A K, K lam K).  Entries of k must lie
    in [0, 1], and NaN or inf raises ValueError.  A stack of contractions k
    of shape (m, n) gives the stack of m sandwiched kernels.  A real
    diagonal K keeps A symmetric and lam hermitian PSD, so CoherentKernel's
    checks and their eigensolve are not run again.  The result is the
    record (parent, k) (ContractedKernel); contracting a contracted kernel
    multiplies the contractions, Gamma(K2) Gamma(K1) = Gamma(K2 K1), so the
    parent is always a plain kernel, which has the base.
    """
    k = np.array(k, dtype=float)
    if k.ndim not in (1, 2) or k.shape[-1] != kernel.n:
        raise ValueError(f"contraction has shape {k.shape} for {kernel.n} modes")
    if not 0.0 <= k.min() <= k.max() <= 1.0 + 1e-12:  # false for NaN too
        if not np.isfinite(k).all():
            raise ValueError(f"contraction entries must be finite, got {k}")
        raise ValueError(f"contraction violation: diagonal entries must be in [0, 1], got {k}")
    if isinstance(kernel, ContractedKernel):
        kernel, k = kernel.parent, kernel.k * k
    k.flags.writeable = False
    return ContractedKernel(kernel, k)
