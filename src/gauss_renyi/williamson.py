"""Williamson normal form of a physical covariance matrix.

Any real symmetric positive definite 2n x 2n matrix S can be brought to
diagonal form D = diag(d_1..d_n, d_1..d_n) by a symplectic congruence
L^T S L = D.  For a physical covariance the d_j are >= 1/2 and map to
per-mode thermal parameters t_j via d = coth(t/2)/2.  Every check of a
covariance lives here: real, finite, symmetric (SYMMETRY_TOL), positive
definite, and the verdicts on an input's d: the Heisenberg bound (require_heisenberg,
run by williamson_decompose and rho's check) and pure modes (pure_mode_count).

One Cholesky factor S = R R^T, also the positive-definiteness test, gives d
and the congruence L.  d without vectors (rho's check, the t_Z fallback) is
the smaller of each sorted pair of singular values of the real skew R^T J R;
L comes from the hermitian i R^T J R, whose +d_j eigenvectors V span the
symplectic basis: R^{-T} V = i J R V / d.
The spectrum of one matrix carries its input's noise floor tau(S), read off
the same factor (_snap_pure): each d_j within tau of 1/2 is returned as
exactly 1/2, so the Heisenberg slack is max(PHYSICAL_TOL, tau), and a mode
is pure iff its d <= 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DecompositionError, UnphysicalStateError

#: max allowed asymmetry of a covariance matrix
SYMMETRY_TOL = 1e-12
#: slack on the symplectic-eigenvalue bound d >= 1/2
PHYSICAL_TOL = 1e-10
#: residue allowed in the symplectic condition L^T J L = J
SYMPLECTIC_TOL = 1e-10
#: faithfulness margin of a reference state: each d - 1/2 must exceed it
#: (entropy.reduce_to_thermal)
PURE_TOL = 1e-9
#: a computed d_j within PURE_FLOOR eps max(kappa_s, ||S||_F) of 1/2 is
#: exactly 1/2 (_snap_pure): its input cannot tell it from 1/2
PURE_FLOOR = 4.0
#: residue allowed in L^T S L - D, relative to max(1, d_max)
DIAG_TOL = 1e-8
#: lower_triangular_inverse hands diagonal blocks of at most this size to
#: numpy.linalg.inv
_TRI_LEAF = 16


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n block form J = [[0, I], [-I, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def require_heisenberg(d) -> None:
    """Raise UnphysicalStateError if a symplectic eigenvalue in d is below
    1/2 - PHYSICAL_TOL or NaN; the message says how far below 1/2 the lowest one is."""
    low = float(d.min())  # NaN if any d is
    if not low >= 0.5 - PHYSICAL_TOL:
        raise UnphysicalStateError(
            "symplectic eigenvalue d is NaN" if np.isnan(low) else
            f"symplectic eigenvalue d = 0.5 - {0.5 - low:.3g} is below the Heisenberg "
            f"bound 0.5 by more than the slack PHYSICAL_TOL = {PHYSICAL_TOL:.0e}")


def pure_mode_count(d) -> int:
    """Number of pure modes, the d_j <= 1/2, in a symplectic_eigenvalues spectrum."""
    return int((d <= 0.5).sum())


def _real(x, name: str) -> np.ndarray:
    """x as a float array; ValueError if it has a nonzero imaginary part."""
    if np.iscomplexobj(x) and np.imag(x).any():
        raise ValueError(f"{name} must be real, got a nonzero imaginary part")
    return np.asarray(np.real(x), dtype=float)


class _NotCovariance(DecompositionError):
    """The matrix is not finite, symmetric and positive definite; problem says how."""

    def __init__(self, problem: str) -> None:
        super().__init__(f"matrix {problem}")
        self.problem = problem


def _check_symmetric(S: np.ndarray) -> np.ndarray:
    """S as a float array of 2n x 2n matrices, over any leading axes, symmetrized;
    _NotCovariance if an entry is not finite or the asymmetry > SYMMETRY_TOL."""
    S = _real(S, "matrix")
    if S.ndim < 2 or S.shape[-1] != S.shape[-2] or S.shape[-1] % 2 or not S.size:
        raise ValueError(f"expected a 2n x 2n matrix, got shape {S.shape}")
    if not np.isfinite(S).all():
        raise _NotCovariance("has non-finite entries")
    St = S.swapaxes(-1, -2)
    asym = float(np.abs(S - St).max())
    if asym > SYMMETRY_TOL:
        raise _NotCovariance(f"not symmetric: max asymmetry {asym:.3e} > {SYMMETRY_TOL:.0e}")
    return 0.5 * (S + St)


def _spectrum(S: np.ndarray, vectors: bool = False):
    """Symplectic eigenvalues d of a symmetric S, descending, and optionally L.

    Returns (d, L), L the congruence of the normal form if vectors, else None.
    With S = R R^T (Cholesky), R = S^{1/2} Q for an orthogonal Q, so the real
    skew R^T J R has the singular values d, each twice, and i R^T J R the
    eigenvalues +-d.  Without vectors, d (..., n) is the smaller of each sorted
    singular pair, which rounds closest to d; the larger reads high (README).
    With V the +d eigenvectors, L = R^{-T} [sqrt2 Im V, sqrt2 Re V] diag(sqrt d,
    sqrt d): Re and Im of each column are orthogonal with equal norms, so
    L^T J L = J (Im V as the q block gives +J, not -J), and any orthonormal
    basis of a degenerate eigenspace works.  No solve is needed: i R^T (J R) V
    = V diag(d) gives R^{-T} V = i W / d with W = (J R) V, so
    L = sqrt2 [Re W, -Im W] diag(1/sqrt d, 1/sqrt d).  Each
    column's phase makes V's largest-modulus entry positive imaginary, so L is
    deterministic, and a failed Cholesky raises _NotCovariance.  One matrix's d
    go through _snap_pure; a stack must be a C-contiguous copy it may overwrite.
    """
    try:
        R = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        min_eig = float(np.min(np.linalg.eigvalsh(S)[..., 0]))
        raise _NotCovariance(f"not positive definite: min eigenvalue {min_eig:.3e}") from None
    n = S.shape[-1] // 2
    # J R: R's row blocks swapped, one negated.  A stack's buffer holds J R, and
    # R is freed once the skew exists; one matrix keeps S and R for _snap_pure
    stack = S.ndim > 2
    jr = np.concatenate([R[..., n:, :], -R[..., :n, :]], axis=-2, out=S if stack else None)
    skew = R.swapaxes(-1, -2) @ jr
    if not vectors:  # each d twice: the smaller of each sorted pair
        if stack:
            del R
            return np.linalg.svd(skew, compute_uv=False)[..., 1::2], None
        return _snap_pure(S, R, np.linalg.svd(skew, compute_uv=False)[1::2]), None
    ev, V = np.linalg.eigh(0.5j * (skew - skew.T))
    d, V = ev[::-1][:n], V[:, ::-1][:, :n]
    top = V[np.argmax(np.abs(V), axis=0), np.arange(n)]
    V = V * (1j * top.conj() / np.abs(top))
    L = jr @ np.hstack([V.real, -V.imag]) * np.sqrt(2.0 / np.concatenate([d, d]))
    return _snap_pure(S, R, d), L


def _snap_pure(S: np.ndarray, R: np.ndarray, d: np.ndarray) -> np.ndarray:
    """d of one S = R R^T with each d_j within tau of 1/2, which S does not
    resolve from 1/2, set to exactly 1/2.  tau = PURE_FLOOR eps
    max(kappa_s, ||S||_F) with kappa_s = ||D^{-1/2} S D^{-1/2}||_F
    max_i S_ii (S^{-1})_ii, D = diag(S): the rounding of d follows this scaled
    conditioning (Bhatia & Jain, J. Math. Phys. 56 (2015)), and pure modes
    read at most 2.21 eps max(kappa_s, ||S||_F) (README).  R^{-1}, whose
    squared column norms are (S^{-1})_ii, is formed only for a d_j between
    sqrt(2n) <= kappa_s (unit diagonal, S_ii (S^{-1})_ii >= 1) and 2n ||S||_F^2
    / d_min^2 (entries <= 1, lambda_min(S) >= d_min^2 / lambda_max(S))."""
    low = float(d[-1])  # d descends; require_heisenberg rejects NaN and d <= 0
    if not low > 0.0:
        return d
    m, fro, unit = S.shape[0], math.sqrt(np.vdot(S, S)), PURE_FLOOR * 2.0 ** -52
    high = unit * max(m * (fro / low) * (fro / low), fro)
    if low - 0.5 > high:
        return d
    gap, tau = abs(d - 0.5), unit * max(math.sqrt(m), fro)
    if ((gap > tau) & (gap <= high)).any():
        Ri, diag = lower_triangular_inverse(R), S.diagonal()
        scaled = S / np.sqrt(np.multiply.outer(diag, diag))
        kappa = math.sqrt(np.vdot(scaled, scaled)) * (diag * (Ri * Ri).sum(axis=0)).max()
        tau = unit * max(kappa, fro)
    return np.where(gap <= tau, 0.5, d)


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


def d_to_t(d):
    """Map symplectic eigenvalues to thermal parameters, t = ln((d+1/2)/(d-1/2)),
    elementwise over an array of any shape.

    Every d <= 1/2 maps to inf.  It judges nothing: an input state's spectrum
    goes through require_heisenberg first, the pipeline's own spectra do not.
    """
    d = np.asarray(d, dtype=float)
    gap = d - 0.5
    t = np.where(gap > 0, np.log1p(1.0 / np.where(gap > 0, gap, 1.0)), np.inf)
    return t if t.ndim else float(t)


def t_to_d(t):
    """Inverse of d_to_t: d = coth(t/2)/2, with t = inf giving exactly 1/2."""
    t = np.asarray(t, dtype=float)
    d = 0.5 / np.tanh(0.5 * t)
    return d if d.ndim else float(d)


def symplectic_eigenvalues(S: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a symmetric positive definite S, sorted descending,
    each d_j that S cannot tell from 1/2 as exactly 1/2 (_snap_pure); for a
    stack of matrices (..., 2n, 2n), one spectrum per matrix, not snapped."""
    S = _check_symmetric(S)  # drops this frame's hold on an argument passed unnamed
    return _spectrum(S)[0]


@dataclass(frozen=True)
class WilliamsonForm:
    """Symplectic congruence L with L^T S L = diag(d, d) and t = d_to_t(d).

    d is sorted descending, hence t ascending.
    """

    L: np.ndarray
    d: np.ndarray
    t: np.ndarray


def williamson_decompose(S: np.ndarray) -> WilliamsonForm:
    """Compute the Williamson normal form of a physical covariance matrix.

    The congruence matrix is read off the eigenvectors of the hermitian
    i R^T J R, with S = R R^T (see _spectrum), so degenerate symplectic
    eigenvalues need no special handling.  Raises DecompositionError if S is
    not positive definite or a symplectic or (relative) diagonalization residue
    exceeds tolerance, and UnphysicalStateError if d fails require_heisenberg.
    """
    S = _check_symmetric(S)
    if S.ndim > 2:
        raise ValueError(f"expected one 2n x 2n matrix, got a stack of shape {S.shape}")
    n = S.shape[0] // 2
    d, L = _spectrum(S, vectors=True)
    require_heisenberg(d)
    t = d_to_t(d)

    # J L is L's row blocks swapped, one negated: one product, none with J
    res_j = float(abs(L.T @ np.concatenate([L[n:], -L[:n]]) - symplectic_form(n)).max())
    if res_j > SYMPLECTIC_TOL:
        raise DecompositionError(
            f"symplectic residue {res_j:.3e} > {SYMPLECTIC_TOL:.0e}; "
            "degenerate eigenvalue cluster could not be resolved")
    D = np.diag(np.concatenate([d, d]))
    # rounding in L^T S L grows with the matrix's scale, d_max = d[0]
    res_d = float(abs(L.T @ S @ L - D).max()) / max(1.0, float(d[0]))
    if res_d > DIAG_TOL:
        raise DecompositionError(f"diagonalization residue {res_d:.3e} > {DIAG_TOL:.0e}")

    for a in (d, t, L):
        a.flags.writeable = False
    return WilliamsonForm(L=L, d=d, t=t)
