"""Gaussian states of n bosonic modes.

A state is described by a real mean vector of length 2n, ordered as
(Re m_1 .. Re m_n, Im m_1 .. Im m_n), and a real symmetric 2n x 2n
covariance matrix in the same block ordering.  The vacuum covariance is
I/2 and a state is physical iff every symplectic eigenvalue of the
covariance is >= 1/2.  williamson owns every check of the covariance, from
finite, real and symmetric to that spectrum; those here add a finite mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import williamson
from .exceptions import UnphysicalStateError

#: cap on the squeezing parameter accepted by the builders
MAX_SQUEEZE = 5.0


def _as_real_vector(x, length: int, name: str) -> np.ndarray:
    v = williamson._real(x, name)
    if v.shape != (length,):
        raise ValueError(f"{name} must have shape ({length},), got {v.shape}")
    return v


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of an n-mode Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        cov = np.array(williamson._real(self.cov, "cov"))
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2 or not cov.size:
            raise ValueError(f"cov must be a 2n x 2n matrix, got shape {cov.shape}")
        mean = np.array(_as_real_vector(self.mean, cov.shape[0], "mean"))
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n(self) -> int:
        """Number of modes."""
        return self.cov.shape[0] // 2


def validate_state(state: GaussianState) -> list[str]:
    """Return a list of violations; an empty list means the state is physical.

    Checks a finite mean, then, in williamson, finite and symmetric (SYMMETRY_TOL)
    cov, positive definite, and all symplectic eigenvalues >= 1/2 - PHYSICAL_TOL
    once those within the spectrum's noise floor are set to 1/2.
    """
    return _violations(state, _heisenberg_spectrum)[0]


def _heisenberg_spectrum(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of cov; UnphysicalStateError below the Heisenberg bound."""
    d = williamson.symplectic_eigenvalues(cov)
    williamson.require_heisenberg(d)
    return d


def _violations(state: GaussianState, factorize):
    """Violations of the mean, then those found by factorize(cov).

    factorize checks cov in williamson; a williamson._NotCovariance (not
    finite, symmetric or positive definite) or UnphysicalStateError it
    raises becomes a violation.  Returns (violations, its result), the
    result being None when it raised.
    """
    violations: list[str] = []
    if not np.isfinite(state.mean).all():
        violations.append("mean has non-finite entries")
    try:
        return violations, factorize(state.cov)
    except williamson._NotCovariance as exc:
        violations.append(f"cov {exc.problem}")
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
    L = williamson._real(L, "L")
    n = state.n
    if L.shape != (2 * n, 2 * n):
        raise ValueError(f"L must have shape {(2 * n, 2 * n)}, got {L.shape}")
    delta = state.mean if shift is None else state.mean - _as_real_vector(shift, 2 * n, "shift")
    swap = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    mean = (L.T @ delta[swap])[swap]
    cov = L.T @ state.cov @ L
    return GaussianState(mean, 0.5 * (cov + cov.T))
