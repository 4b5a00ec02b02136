"""Truncated Fock-space oracle.

Dense matrix realizations of Gaussian states and of the sandwiched Renyi
divergence, built only from ladder operators and matrix exponentials.
Everything here is brute force on purpose: no Williamson decomposition and
no generating-kernel algebra, so results can cross-check the closed forms.

All operators act on the n-mode truncated space (C^cutoff)^(tensor n) with
basis |k_1 .. k_n>, k_i < cutoff, mode 1 as the leftmost tensor factor.
SciPy, for expm, is imported only inside the functions that call it, so
importing this module, or verify, which imports it, does not load it.
"""

from __future__ import annotations

import functools

import numpy as np

from .exceptions import AlphaRangeError, NotFaithfulError
from .recipes import Recipe

#: dense matrices must be hermitian to this max-abs tolerance
HERMITIAN_TOL = 1e-10
#: eigenvalues below this are treated as outside the support
EIG_FLOOR = 1e-12
#: parameter bounds keeping truncation error under control at cutoff >= 40
MAX_DISPLACE = 3.0
MAX_SQUEEZE_Z = 1.0

DEFAULT_CUTOFF_1MODE = 60
DEFAULT_CUTOFF_THERMAL = 200
DEFAULT_CUTOFF_2MODE = 20


def annihilator(cutoff: int) -> np.ndarray:
    """Single-mode annihilation operator, a |k> = sqrt(k) |k-1>."""
    return np.diag(np.sqrt(np.arange(1, cutoff)), k=1).astype(complex)


def embed(op: np.ndarray, mode: int, n_modes: int, cutoff: int) -> np.ndarray:
    """Embed a single-mode operator at the given mode index via kron."""
    out = np.array([[1.0 + 0j]])
    for m in range(n_modes):
        out = np.kron(out, op if m == mode else np.eye(cutoff, dtype=complex))
    return out


def thermal_density(t: float, cutoff: int) -> np.ndarray:
    """Truncated thermal state (1 - e^-t) sum_k e^-kt |k><k|; t = inf is vacuum."""
    if not t > 0:
        raise ValueError(f"thermal parameter must be positive, got {t}")
    k = np.arange(cutoff)
    if np.isinf(t):
        w = np.zeros(cutoff)
        w[0] = 1.0
    else:
        w = (1.0 - np.exp(-t)) * np.exp(-t * k)
    return np.diag(w).astype(complex)


def displace(gamma: complex, cutoff: int) -> np.ndarray:
    """Displacement unitary expm(gamma a+ - conj(gamma) a)."""
    if abs(gamma) > MAX_DISPLACE:
        raise ValueError(f"|gamma| = {abs(gamma):.3f} exceeds {MAX_DISPLACE}")
    a = annihilator(cutoff)
    import scipy.linalg
    return scipy.linalg.expm(gamma * a.conj().T - np.conj(gamma) * a)


def squeeze(z: complex, cutoff: int) -> np.ndarray:
    """Squeeze unitary expm((conj(z) a^2 - z a+^2)/2)."""
    if abs(z) > MAX_SQUEEZE_Z:
        raise ValueError(f"|z| = {abs(z):.3f} exceeds {MAX_SQUEEZE_Z}")
    a = annihilator(cutoff)
    import scipy.linalg
    return scipy.linalg.expm(0.5 * (np.conj(z) * (a @ a) - z * (a.conj().T @ a.conj().T)))


@functools.lru_cache(maxsize=8)
def beamsplitter(theta: float, cutoff: int) -> np.ndarray:
    """Two-mode beam splitter expm(theta (a1+ a2 - a1 a2+))."""
    a1 = embed(annihilator(cutoff), 0, 2, cutoff)
    a2 = embed(annihilator(cutoff), 1, 2, cutoff)
    gen = a1.conj().T @ a2 - a1 @ a2.conj().T
    import scipy.linalg
    return scipy.linalg.expm(theta * gen)


def phase_plate(phi: float, cutoff: int) -> np.ndarray:
    """Phase unitary expm(i phi a+ a), diagonal in the number basis."""
    return np.diag(np.exp(1j * phi * np.arange(cutoff)))


def state_to_fock(recipe: Recipe, cutoff: int) -> np.ndarray:
    """Dense density matrix of a recipe-built Gaussian state.

    Displacement parameters are conjugated relative to the recipe: the
    library's mean convention pairs a recipe displacement gamma with the
    dense coherent amplitude conj(gamma).  Pinned by the moment and
    generating-kernel audits in the test suite.
    """
    n = recipe.n
    rho = np.array([[1.0 + 0j]])
    for t in recipe.thermal:
        rho = np.kron(rho, thermal_density(t, cutoff))
    for op in recipe.ops:
        if op[0] == "squeeze":
            _, mode, r = op
            u = embed(squeeze(float(r), cutoff), int(mode), n, cutoff)
        elif op[0] == "displace":
            _, mode, gamma = op
            u = embed(displace(np.conj(gamma), cutoff), int(mode), n, cutoff)
        elif op[0] == "phase":
            _, mode, phi = op
            u = embed(phase_plate(float(phi), cutoff), int(mode), n, cutoff)
        else:
            u = beamsplitter(float(op[1]), cutoff)
        rho = u @ rho @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


def gamma_contraction(k, n_modes: int, cutoff: int) -> np.ndarray:
    """Second quantization of a diagonal contraction: diag over |k1..kn> of
    prod_i k_i^{k_i}."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    out = np.array([[1.0 + 0j]])
    for i in range(n_modes):
        out = np.kron(out, np.diag(k[i] ** np.arange(cutoff)).astype(complex))
    return out


def _checked_hermitian(mat: np.ndarray, label: str) -> np.ndarray:
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if dev > HERMITIAN_TOL:
        raise ValueError(f"{label} is not hermitian: max deviation {dev:.3e}")
    return 0.5 * (mat + mat.conj().T)


def dense_sandwiched_renyi(rho: np.ndarray, sigma: np.ndarray, alpha: float,
                           eig_floor: float = EIG_FLOOR) -> float:
    """Brute-force divergence ln Tr[(sigma^c rho sigma^c)^alpha] / (alpha - 1)
    with c = (1 - alpha)/(2 alpha), via dense eigendecompositions.

    Eigenvalues of sigma below eig_floor are treated as zero (projected out
    of the support); tiny negative eigenvalues of the sandwich are clipped.
    """
    if not 0.0 < alpha < 1.0:
        raise AlphaRangeError(f"sandwiched divergence needs 0<alpha<1, got {alpha}")
    rho = _checked_hermitian(np.asarray(rho, dtype=complex), "rho")
    sigma = _checked_hermitian(np.asarray(sigma, dtype=complex), "sigma")
    w, v = np.linalg.eigh(sigma)
    power = np.where(w > eig_floor, np.maximum(w, eig_floor) ** ((1.0 - alpha) / (2.0 * alpha)), 0.0)
    half = (v * power) @ v.conj().T
    sand = half @ rho @ half
    ev = np.linalg.eigh(0.5 * (sand + sand.conj().T))[0]
    ev = np.clip(ev, 0.0, None)
    total = float(np.sum(ev[ev > 0.0] ** alpha))
    if total <= 0.0:
        raise NotFaithfulError("sandwiched operator has empty support at this cutoff")
    return float(np.log(total) / (alpha - 1.0))


def dense_renyi_converged(rho_recipe: Recipe, sigma_recipe: Recipe, alpha: float,
                          cutoff: int, guard_cutoff: int | None = None,
                          eig_floor: float = EIG_FLOOR) -> tuple[float, float]:
    """Oracle divergence plus a truncation-guard residual.

    Evaluates the dense divergence at cutoff and again at guard_cutoff
    (default 2 * cutoff) and returns (value_at_guard, |difference|).  Callers
    treat a large residual as "cutoff not converged" rather than as a
    disagreement with the closed form.

    Note the floor cuts sigma's support at a cutoff-independent depth, so
    its truncation bias is invisible to the residual; comparisons tighter
    than about 1e-6 should lower eig_floor.
    """
    if guard_cutoff is None:
        guard_cutoff = 2 * cutoff
    lo = dense_sandwiched_renyi(state_to_fock(rho_recipe, cutoff),
                                state_to_fock(sigma_recipe, cutoff), alpha,
                                eig_floor=eig_floor)
    hi = dense_sandwiched_renyi(state_to_fock(rho_recipe, guard_cutoff),
                                state_to_fock(sigma_recipe, guard_cutoff), alpha,
                                eig_floor=eig_floor)
    return hi, abs(hi - lo)
