"""Gaussian states of n bosonic modes.

A state is described by a real mean vector of length 2n, ordered as
(Re m_1 .. Re m_n, Im m_1 .. Im m_n), and a real symmetric 2n x 2n
covariance matrix in the same block ordering.  The vacuum covariance is
I/2 and a state is physical iff every symplectic eigenvalue of the
covariance is >= 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .exceptions import UnphysicalStateError

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
#: cap on the squeezing parameter accepted by the builders
MAX_SQUEEZE = 5.0


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n block form J = [[0, I], [-I, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def _as_real_vector(x, length: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (length,):
        raise ValueError(f"{name} must have shape ({length},), got {v.shape}")
    return v


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of an n-mode Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        cov = np.array(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
            raise ValueError(f"cov must be a 2n x 2n matrix, got shape {cov.shape}")
        mean = _as_real_vector(self.mean, cov.shape[0], "mean")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n(self) -> int:
        """Number of modes."""
        return self.cov.shape[0] // 2

    def mean_complex(self) -> np.ndarray:
        """Mean as a complex length-n vector Re + i Im."""
        n = self.n
        return self.mean[:n] + 1j * self.mean[n:]


def validate_state(state: GaussianState) -> list[str]:
    """Return a list of violations; an empty list means the state is physical.

    Checks: finite entries, covariance symmetry, positive definiteness and
    the Heisenberg bound (all symplectic eigenvalues >= 1/2 - PHYSICAL_TOL).
    """
    return _violations(state, _heisenberg_spectrum)[0]


def _heisenberg_spectrum(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of cov; UnphysicalStateError below 1/2 - PHYSICAL_TOL."""
    from .williamson import symplectic_eigenvalues  # deferred, avoids an import cycle

    d = symplectic_eigenvalues(cov)
    require_heisenberg(d)
    return d


def require_heisenberg(d) -> None:
    """Raise UnphysicalStateError if a symplectic eigenvalue in d is below
    1/2 - PHYSICAL_TOL; the message says how far below 1/2 the lowest one is."""
    low = float(d.min())
    if low < 0.5 - PHYSICAL_TOL:
        raise UnphysicalStateError(
            f"symplectic eigenvalue d = 0.5 - {0.5 - low:.3g} is below the Heisenberg "
            f"bound 0.5 by more than the slack PHYSICAL_TOL = {PHYSICAL_TOL:.0e}")


def _violations(state: GaussianState, factorize):
    """Violations found without a factorization, then those found by factorize(cov).

    factorize runs once cov is finite and symmetric; a
    williamson._NotPositiveDefinite or UnphysicalStateError it raises
    becomes a violation.  Returns (violations, its result), the result
    being None when it did not run or raised.
    """
    from .williamson import _NotPositiveDefinite

    violations: list[str] = []
    if not np.isfinite(state.mean).all():
        violations.append("mean has non-finite entries")
    if not np.isfinite(state.cov).all():
        violations.append("cov has non-finite entries")
        return violations, None
    asym = float(abs(state.cov - state.cov.T).max())
    if asym > SYMMETRY_TOL:
        violations.append(f"cov not symmetric: max asymmetry {asym:.3e} > {SYMMETRY_TOL:.0e}")
        return violations, None
    try:
        return violations, factorize(state.cov)
    except _NotPositiveDefinite as exc:
        violations.append(f"cov not positive definite: min eigenvalue {exc.min_eig:.3e}")
    except UnphysicalStateError as exc:
        violations.append(str(exc))
    return violations, None


def require_physical(state: GaussianState, label: str = "state",
                     factorize=_heisenberg_spectrum):
    """factorize(cov) as the physicality check; returns its result.

    factorize defaults to the symplectic spectrum under the Heisenberg
    bound; williamson_decompose checks a state by its own normal form.
    Raises UnphysicalStateError ("<label> is unphysical: ...") naming every
    violation found.
    """
    violations, result = _violations(state, factorize)
    if violations:
        raise UnphysicalStateError(f"{label} is unphysical: " + "; ".join(violations))
    return result


def thermal_state(t) -> GaussianState:
    """Thermal product state with covariance diag(d, d), d_j = coth(t_j/2)/2.

    Modes keep the order given; t_j = inf builds a vacuum mode.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float)).reshape(-1)
    if arr.size == 0:
        raise ValueError("thermal_state needs at least one mode")
    if np.any(arr <= 0) or np.any(np.isnan(arr)):
        raise UnphysicalStateError(f"thermal parameters must be positive, got {arr}")
    d = 0.5 / np.tanh(0.5 * arr)
    cov = np.diag(np.concatenate([d, d]))
    return GaussianState(np.zeros(2 * arr.size), cov)


def coherent_state(gamma) -> GaussianState:
    """Coherent state with mean (Re gamma, Im gamma) and vacuum covariance.

    The sign convention of the imaginary part is pinned by the
    generating-kernel audit against the dense Fock oracle.
    """
    g = np.atleast_1d(np.asarray(gamma, dtype=complex))
    mean = np.concatenate([g.real, g.imag])
    return GaussianState(mean, 0.5 * np.eye(2 * g.size))


def squeezed_vacuum(r: float) -> GaussianState:
    """Single-mode squeezed vacuum with covariance diag(e^{2r}, e^{-2r})/2."""
    if abs(r) > MAX_SQUEEZE:
        raise ValueError(f"|r| = {abs(r)} too large, max supported is {MAX_SQUEEZE}")
    cov = 0.5 * np.diag([np.exp(2.0 * r), np.exp(-2.0 * r)])
    return GaussianState(np.zeros(2), cov)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Tensor product; block ordering stays (all Re parts, all Im parts)."""
    na, nb = a.n, b.n
    n = na + nb
    idx_a = np.concatenate([np.arange(na), n + np.arange(na)])
    idx_b = np.concatenate([na + np.arange(nb), n + na + np.arange(nb)])
    mean = np.zeros(2 * n)
    mean[idx_a] = a.mean
    mean[idx_b] = b.mean
    cov = np.zeros((2 * n, 2 * n))
    cov[np.ix_(idx_a, idx_a)] = a.cov
    cov[np.ix_(idx_b, idx_b)] = b.cov
    return GaussianState(mean, cov)


def gaussian_transform(state: GaussianState, L: np.ndarray,
                       shift: np.ndarray | None = None) -> GaussianState:
    """Apply the Gaussian unitary that congruence-transforms the covariance.

    The covariance maps to L^T S L.  The mean is first shifted by -shift and
    then transformed with the block-swapped congruence matrix (the Re and Im
    blocks of the mean exchange roles relative to the covariance blocks);
    this pairing is the one that matches the dense Fock oracle and it keeps
    the divergence of a pair of states invariant when applied to both.
    """
    L = np.asarray(L, dtype=float)
    n = state.n
    if L.shape != (2 * n, 2 * n):
        raise ValueError(f"L must have shape {(2 * n, 2 * n)}, got {L.shape}")
    delta = state.mean if shift is None else state.mean - _as_real_vector(shift, 2 * n, "shift")
    swap = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    mean = (L.T @ delta[swap])[swap]
    cov = L.T @ state.cov @ L
    return GaussianState(mean, 0.5 * (cov + cov.T))
