"""Williamson normal form of a physical covariance matrix.

Any real symmetric positive definite 2n x 2n matrix S can be brought to
diagonal form D = diag(d_1..d_n, d_1..d_n) by a symplectic congruence
L^T S L = D.  For a physical covariance the d_j are >= 1/2 and map to
per-mode thermal parameters t_j via d = coth(t/2)/2.

Both the spectrum d and the congruence L come from one Cholesky factor
S = R R^T, which is also the positive-definiteness test, and one
hermitian eigensolve of i R^T J R, whose eigenvalues are +-d_j and whose
+d_j eigenvectors V span the symplectic basis.  Since i R^T (J R) V =
V diag(d), R^{-T} V = i (J R) V / d carries V back without a solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DecompositionError
from .states import PURE_TOL, SYMPLECTIC_TOL, require_heisenberg, symplectic_form

#: residue allowed in L^T S L - D
DIAG_TOL = 1e-8


class _NotPositiveDefinite(DecompositionError):
    """The matrix is not positive definite; min_eig is its smallest eigenvalue."""

    def __init__(self, min_eig: float) -> None:
        super().__init__(f"matrix not positive definite: min eigenvalue {min_eig:.3e}")
        self.min_eig = min_eig


def _check_symmetric(S: np.ndarray) -> np.ndarray:
    """S as a float array of 2n x 2n matrices, over any leading axes, symmetrized."""
    S = np.asarray(S, dtype=float)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2] or S.shape[-1] % 2:
        raise ValueError(f"expected a 2n x 2n matrix, got shape {S.shape}")
    if not np.isfinite(S).all():
        raise ValueError("array must not contain infs or NaNs")
    St = S.swapaxes(-1, -2)
    asym = float(np.abs(S - St).max())
    if asym > SYMPLECTIC_TOL:
        raise DecompositionError(f"matrix not symmetric: max asymmetry {asym:.3e}")
    return 0.5 * (S + St)


def _spectrum(S: np.ndarray, vectors: bool = False):
    """Symplectic eigenvalues d of a symmetric S, descending, and optionally L.

    Returns (d, L), L the congruence of the normal form if vectors, else None.
    Without vectors, S may be a stack (..., 2n, 2n), and d is (..., n).
    With S = R R^T (Cholesky), R = S^{1/2} Q for an orthogonal Q, so i R^T J R
    has the spectrum +-d of i S^{1/2} J S^{1/2}.  With V its +d eigenvectors,
    L = R^{-T} [sqrt2 Im V, sqrt2 Re V] diag(sqrt d, sqrt d): Re and Im of each
    column are orthogonal with equal norms, so L^T J L = J (Im V as the q block
    gives +J, not -J), and any orthonormal basis of a degenerate eigenspace
    works.  No solve is needed: i R^T (J R) V = V diag(d) gives R^{-T} V =
    i W / d with W = (J R) V, so L = sqrt2 [Re W, -Im W] diag(1/sqrt d, 1/sqrt d).
    Each column's phase makes V's largest-modulus entry positive imaginary, so
    L is deterministic.  Raises _NotPositiveDefinite when the Cholesky fails.
    """
    try:
        R = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise _NotPositiveDefinite(float(np.min(np.linalg.eigvalsh(S)[..., 0]))) from None
    n = S.shape[-1] // 2
    # J R: R's row blocks swapped, one negated
    jr = np.concatenate([R[..., n:, :], -R[..., :n, :]], axis=-2)
    skew = R.swapaxes(-1, -2) @ jr
    herm = 0.5j * (skew - skew.swapaxes(-1, -2))
    if not vectors:
        return np.linalg.eigvalsh(herm)[..., ::-1][..., :n], None
    ev, V = np.linalg.eigh(herm)
    d, V = ev[::-1][:n], V[:, ::-1][:, :n]
    top = V[np.argmax(np.abs(V), axis=0), np.arange(n)]
    V = V * (1j * top.conj() / np.abs(top))
    return d, jr @ np.hstack([V.real, -V.imag]) * np.sqrt(2.0 / np.concatenate([d, d]))


def d_to_t(d, pure_tol: float = PURE_TOL):
    """Map symplectic eigenvalues to thermal parameters, t = ln((d+1/2)/(d-1/2)),
    elementwise over an array of any shape.

    Values within pure_tol of 1/2 map to inf; values below 1/2 - PHYSICAL_TOL
    raise UnphysicalStateError.
    """
    d = np.asarray(d, dtype=float)
    require_heisenberg(d)
    gap = np.maximum(d - 0.5, 0.0)
    t = np.where(gap <= pure_tol, np.inf, np.log1p(1.0 / np.where(gap > 0, gap, 1.0)))
    return t if t.ndim else float(t)


def t_to_d(t):
    """Inverse of d_to_t: d = coth(t/2)/2, with t = inf giving exactly 1/2."""
    t = np.asarray(t, dtype=float)
    d = 0.5 / np.tanh(0.5 * t)
    return d if d.ndim else float(d)


def symplectic_eigenvalues(S: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a symmetric positive definite S, sorted descending;
    for a stack of matrices (..., 2n, 2n), one spectrum per matrix.

    Computed as the positive eigenvalues of the hermitian matrix i R^T J R,
    with R the Cholesky factor of S, which is numerically stable and keeps
    the result exactly real.
    """
    return _spectrum(_check_symmetric(S))[0]


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
    eigenvalues need no special handling.  Raises DecompositionError if S
    is not positive definite or the symplectic or diagonalization residues
    exceed tolerance, and UnphysicalStateError below the Heisenberg bound.
    """
    S = _check_symmetric(S)
    n = S.shape[0] // 2
    d, L = _spectrum(S, vectors=True)
    t = d_to_t(d)  # raises UnphysicalStateError below the Heisenberg bound

    J = symplectic_form(n)
    res_j = float(abs(L.T @ J @ L - J).max())
    if res_j > SYMPLECTIC_TOL:
        raise DecompositionError(
            f"symplectic residue {res_j:.3e} > {SYMPLECTIC_TOL:.0e}; "
            "degenerate eigenvalue cluster could not be resolved")
    D = np.diag(np.concatenate([d, d]))
    res_d = float(abs(L.T @ S @ L - D).max())
    if res_d > DIAG_TOL:
        raise DecompositionError(f"diagonalization residue {res_d:.3e} > {DIAG_TOL:.0e}")

    d.flags.writeable = False
    t.flags.writeable = False
    L.flags.writeable = False
    return WilliamsonForm(L=L, d=d, t=t)
