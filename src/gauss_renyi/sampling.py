"""Random physical states and symplectic matrices for tests and demos."""

from __future__ import annotations

import numpy as np

from .states import GaussianState, thermal_state, gaussian_transform


def random_orthogonal_symplectic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish orthogonal symplectic block matrix [[X, Y], [-Y, X]] from a
    random unitary X + iY."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    top = np.hstack([u.real, u.imag])
    return np.vstack([top, np.hstack([-u.imag, u.real])])


def random_symplectic(rng: np.random.Generator, n: int, max_squeeze: float = 0.6) -> np.ndarray:
    """Random symplectic via Euler form: orthogonal * squeeze * orthogonal."""
    r = rng.uniform(-max_squeeze, max_squeeze, size=n)
    z = np.diag(np.concatenate([np.exp(r), np.exp(-r)]))
    return random_orthogonal_symplectic(rng, n) @ z @ random_orthogonal_symplectic(rng, n)


def random_faithful_state(rng: np.random.Generator, n: int, *, mean_scale: float = 0.5,
                          max_squeeze: float = 0.6) -> GaussianState:
    """Random faithful Gaussian state: symplectic twirl of a thermal state
    with t in [0.25, 2.2) plus a Gaussian-distributed mean."""
    t = np.sort(rng.uniform(0.25, 2.2, size=n))
    base = thermal_state(t)
    twirled = gaussian_transform(base, random_symplectic(rng, n, max_squeeze))
    mean = rng.normal(scale=mean_scale, size=2 * n)
    return GaussianState(mean, twirled.cov)
