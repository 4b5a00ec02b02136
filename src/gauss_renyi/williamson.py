"""Williamson normal form of a physical covariance matrix.

Any real symmetric positive definite 2n x 2n matrix S can be brought to
diagonal form D = diag(d_1..d_n, d_1..d_n) by a symplectic congruence
L^T S L = D.  For a physical covariance the d_j are >= 1/2 and map to
per-mode thermal parameters t_j via d = coth(t/2)/2.  Every check of a
covariance lives here: real, finite, symmetric (SYMMETRY_TOL), positive
definite, and the verdicts read off d with their thresholds: the Heisenberg
bound (require_heisenberg), faithful (d_to_t) and pure modes (pure_mode_count).

Both the spectrum d and the congruence L come from one Cholesky factor
S = R R^T, which is also the positive-definiteness test, and one
hermitian eigensolve of i R^T J R, whose eigenvalues are +-d_j and whose
+d_j eigenvectors V span the symplectic basis.  Since i R^T (J R) V =
V diag(d), R^{-T} V = i (J R) V / d carries V back without a solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DecompositionError, UnphysicalStateError

#: max allowed asymmetry of a covariance matrix
SYMMETRY_TOL = 1e-12
#: slack on the symplectic-eigenvalue bound d >= 1/2
PHYSICAL_TOL = 1e-10
#: residue allowed in the symplectic condition L^T J L = J
SYMPLECTIC_TOL = 1e-10
#: symplectic eigenvalues within this of 1/2 are treated as pure
PURE_TOL = 1e-9
#: a state counts as pure when max_ij |S_ij| <= PURE_FRAME and every
#: computed d_j - 1/2 <= PURE_NOISE (7.1e-15).  PURE_TOL is far too coarse
#: for this: a mode with d - 1/2 = 5e-10 has t = 21.4 and is mixed.  The
#: rounding of a computed d grows with the squeezing of the frame, roughly
#: as eps max|S|^2: a mode with d - 1/2 = 1e-13 (t = 29.9) squeezed by 3 in
#: a random frame (max|S| = 120) reads -5.9e-13.  Up to max|S| = 2 it stays
#: within 7.0, 9.5, 12.6 and 27.2 eps at n = 1, 4, 16 and 64, so in every
#: frame a mode counts as pure only from t ~ 32 on; with d exact (an
#: unsqueezed thermal mode) from t = 32.6 on: thermal_state(32) has
#: d - 1/2 = 1.3e-14 and is mixed, thermal_state(33) 4.7e-15.  That moves
#: D_alpha by -ln(1 - e^(-alpha t_Z)) / (1 - alpha), about e^(-alpha t_Z) at
#: moderate alpha (1.4e-2 for t = 33 against s = 1.2 at alpha = 0.1); but
#: as alpha -> 0, alpha t_Z -> s (1 - alpha) and it tends to
#: -ln(1 - e^(-s)) (0.25 at alpha = 0.01, 0.36 in the limit, for s = 1.2).
#: Pure states of squeeze <= 0.5 in random frames (max|S| <= 1.36) read at
#: most 2.5, 4.0, 6.0, 6.5, 7.5 and 12.5 eps at n = 1, 4, 16, 32, 64 and 128.
PURE_NOISE = 32 * np.finfo(float).eps
PURE_FRAME = 2.0
#: residue allowed in L^T S L - D, relative to max(1, d_max)
DIAG_TOL = 1e-8


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


def pure_mode_count(d, cov) -> int:
    """Number of pure modes in the symplectic spectrum d of cov: those with
    d_j - 1/2 <= PURE_NOISE, none unless max_ij |cov_ij| <= PURE_FRAME."""
    return int((d - 0.5 <= PURE_NOISE).sum()) if float(abs(cov).max()) <= PURE_FRAME else 0


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
    Without vectors, S may be a stack (..., 2n, 2n), and d is (..., n).
    With S = R R^T (Cholesky), R = S^{1/2} Q for an orthogonal Q, so i R^T J R
    has the spectrum +-d of i S^{1/2} J S^{1/2}.  With V its +d eigenvectors,
    L = R^{-T} [sqrt2 Im V, sqrt2 Re V] diag(sqrt d, sqrt d): Re and Im of each
    column are orthogonal with equal norms, so L^T J L = J (Im V as the q block
    gives +J, not -J), and any orthonormal basis of a degenerate eigenspace
    works.  No solve is needed: i R^T (J R) V = V diag(d) gives R^{-T} V =
    i W / d with W = (J R) V, so L = sqrt2 [Re W, -Im W] diag(1/sqrt d, 1/sqrt d).
    Each column's phase makes V's largest-modulus entry positive imaginary, so
    L is deterministic.  Raises _NotCovariance when the Cholesky fails.
    Without vectors, S must be a C-contiguous array of the caller's own
    (_check_symmetric's), which is overwritten.
    """
    try:
        R = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        min_eig = float(np.min(np.linalg.eigvalsh(S)[..., 0]))
        raise _NotCovariance(f"not positive definite: min eigenvalue {min_eig:.3e}") from None
    n = S.shape[-1] // 2
    # J R: R's row blocks swapped, one negated.  Without vectors, S's buffer
    # holds J R and then skew - skew^T, so that each temporary is freed as
    # soon as the next exists
    out = None if vectors else S
    jr = np.concatenate([R[..., n:, :], -R[..., :n, :]], axis=-2, out=out)
    skew = R.swapaxes(-1, -2) @ jr
    del R
    diff = np.subtract(skew, skew.swapaxes(-1, -2), out=out)
    del skew
    herm = 0.5j * diff
    del diff
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
    for a stack of matrices (..., 2n, 2n), one spectrum per matrix."""
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
    eigenvalues need no special handling.  Raises DecompositionError if S
    is not positive definite or the symplectic or (relative)
    diagonalization residues exceed tolerance, and UnphysicalStateError below the Heisenberg bound.
    """
    S = _check_symmetric(S)
    if S.ndim > 2:
        raise ValueError(f"expected one 2n x 2n matrix, got a stack of shape {S.shape}")
    n = S.shape[0] // 2
    d, L = _spectrum(S, vectors=True)
    t = d_to_t(d)  # raises UnphysicalStateError below the Heisenberg bound

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
