"""Benchmark inputs and their independent reference values.

Everything here is plain NumPy written for the benchmark: no state builder,
sampler or oracle of the package under test is used, so editing those cannot
move the benchmark's numbers.  The package receives the pairs only as
(mean, cov) arrays.

Conventions (those of the package's state format): the covariance is in
(q_1..q_n, p_1..p_n) order with vacuum I/2, and the stored mean has its two
blocks exchanged relative to the covariance blocks, so the phase-space vector
paired with the covariance is ``x = mean[swap]``.

Families
  a  pure rho (vacuum -> random symplectic -> displacement) against a faithful
     sigma built from known Williamson data (M, s).  Reference: the rank-one
     sandwich formula
         D = alpha/(alpha-1) [p ln p(s) - ln p(p s) + ln Tr(rho sigma_ps)],
     p = (1-alpha)/alpha, p(t) = prod(1 - e^-t), sigma_ps = sigma rebuilt
     with thermal parameters p s, and the Gaussian overlap
         ln Tr(rho1 rho2) = -1/2 ln det(V1+V2) - D^T (V1+V2)^-1 D.
  b  rho a product of one-mode thermal and coherent modes, sigma a thermal
     product, one random Gaussian unitary applied to both.  Reference: the
     sum over modes of the one-mode thermal and coherent closed forms.
  c  a random faithful pair.  Reference: none in closed form; checked by
     invariance under a second joint Gaussian unitary and by additivity over
     tensor products (see checks.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: range of sigma's thermal parameters (family a and b)
S_RANGE = (0.3, 2.5)
#: range of rho's thermal parameters (family c)
T_RANGE = (0.3, 2.5)
#: family b keeps e^-t below the pair-free gate's Lambda bound (0.5), so the
#: t_Z branch, and with it the factorization count, does not depend on the seed
T_RANGE_B = (0.75, 2.5)
#: squeezing of the random symplectics, |r| <= MAX_SQUEEZE
MAX_SQUEEZE = 0.5
#: standard deviation of random displacements
MEAN_SCALE = 0.5


def swap(n: int) -> np.ndarray:
    return np.concatenate([np.arange(n, 2 * n), np.arange(n)])


def thermal_d(t) -> np.ndarray:
    """Symplectic eigenvalues coth(t/2)/2 of thermal parameters t."""
    return 0.5 / np.tanh(0.5 * np.asarray(t, dtype=float))


def log_p(t) -> float:
    """ln p(t) = sum ln(1 - e^-t)."""
    t = np.asarray(t, dtype=float)
    return float(np.sum(np.log(-np.expm1(-t))))


def random_orthogonal_symplectic(rng: np.random.Generator, n: int) -> np.ndarray:
    """[[Re U, -Im U], [Im U, Re U]] for a Haar-random unitary U."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def random_symplectic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Euler form O1 diag(e^r, e^-r) O2 with |r| <= MAX_SQUEEZE."""
    r = rng.uniform(-MAX_SQUEEZE, MAX_SQUEEZE, size=n)
    squeeze = np.concatenate([np.exp(r), np.exp(-r)])
    return (random_orthogonal_symplectic(rng, n) * squeeze) @ random_orthogonal_symplectic(rng, n)


def _sym(cov: np.ndarray) -> np.ndarray:
    return 0.5 * (cov + cov.T)


@dataclass(frozen=True)
class Pair:
    """One (rho, sigma) input with what its reference value needs.

    ``x_*`` are phase-space means (paired with the covariance); the package
    receives ``mean = x[swap]``.  ``ref`` holds the family's reference data:
    family a (M, s, x_sigma), family b (t, gamma2, s) with t = inf for a
    coherent mode and gamma2 = |gamma|^2, family c nothing.
    """

    family: str
    x_rho: np.ndarray
    cov_rho: np.ndarray
    x_sigma: np.ndarray
    cov_sigma: np.ndarray
    ref: tuple = ()

    @property
    def n(self) -> int:
        return self.cov_rho.shape[0] // 2

    def means(self) -> tuple[np.ndarray, np.ndarray]:
        sw = swap(self.n)
        return self.x_rho[sw], self.x_sigma[sw]

    def transformed(self, sym: np.ndarray, shift: np.ndarray) -> "Pair":
        """The pair after one joint Gaussian unitary x -> sym x + shift."""
        return Pair(self.family, sym @ self.x_rho + shift, _sym(sym @ self.cov_rho @ sym.T),
                    sym @ self.x_sigma + shift, _sym(sym @ self.cov_sigma @ sym.T), self.ref)


def make_pair(rng: np.random.Generator, family: str, n: int) -> Pair:
    if family == "a":
        r = random_symplectic(rng, n)
        m = random_symplectic(rng, n)
        s = rng.uniform(*S_RANGE, size=n)
        d = np.tile(thermal_d(s), 2)
        x_rho = rng.normal(scale=MEAN_SCALE, size=2 * n)
        x_sigma = rng.normal(scale=MEAN_SCALE, size=2 * n)
        return Pair("a", x_rho, _sym(0.5 * r @ r.T), x_sigma, _sym((m * d) @ m.T), (m, s, x_sigma))
    if family == "b":
        s = rng.uniform(*S_RANGE, size=n)
        coherent = rng.random(n) < 0.5
        t = np.where(coherent, np.inf, rng.uniform(*T_RANGE_B, size=n))
        gamma = np.where(coherent, rng.normal(scale=MEAN_SCALE, size=n)
                         + 1j * rng.normal(scale=MEAN_SCALE, size=n), 0.0)
        x_rho = np.concatenate([gamma.real, gamma.imag])
        base = Pair("b", x_rho, np.diag(np.tile(thermal_d(t), 2)), np.zeros(2 * n),
                    np.diag(np.tile(thermal_d(s), 2)), (t, np.abs(gamma) ** 2, s))
        return base.transformed(random_symplectic(rng, n),
                                rng.normal(scale=MEAN_SCALE, size=2 * n))
    if family == "c":
        covs = []
        for _ in range(2):
            sym = random_symplectic(rng, n)
            covs.append(_sym((sym * np.tile(thermal_d(rng.uniform(*T_RANGE, size=n)), 2)) @ sym.T))
        return Pair("c", rng.normal(scale=MEAN_SCALE, size=2 * n), covs[0],
                    rng.normal(scale=MEAN_SCALE, size=2 * n), covs[1])
    raise ValueError(f"unknown family {family!r}")


#: sigma's thermal parameters in the F1 reproduction (cycled to n modes)
F1_S = (1.7, 0.4, 1.1, 2.0, 0.6, 1.4, 0.9, 0.3)
#: the one-mode F1 case needs a joint unitary to put rounding noise into
#: Lambda; this generator seed gives one on which F1 fires
F1_ONE_MODE_SEED = 7


def fault_pair(fault: str, n: int) -> Pair:
    """Fixed inputs, independent of the run's seed, on which a known fault fires.

    F1  coherent(0.5)^n against thermal(F1_S): the pair-free t_Z branch reads
        rounding noise in Lambda as a finite t_Z (wrong at alpha = 0.1).
    F2  thermal(0.3)^n against thermal(2.0, 1.5, 2.4, ...): the contraction
        underflows for alpha <~ 1e-3 and p(alpha t_Z) is dropped.
    Both are family b pairs, so ``reference`` gives their exact values.
    """
    if fault == "F1":
        s = np.resize(F1_S, n)
        t, gamma = np.full(n, np.inf), np.full(n, 0.5 + 0j)
    elif fault == "F2":
        s = np.resize([2.0, 1.5, 2.4], n)
        t, gamma = np.full(n, 0.3), np.zeros(n, dtype=complex)
    else:
        raise ValueError(f"unknown fault {fault!r}")
    pair = Pair(fault, np.concatenate([gamma.real, gamma.imag]), np.diag(np.tile(thermal_d(t), 2)),
                np.zeros(2 * n), np.diag(np.tile(thermal_d(s), 2)), (t, np.abs(gamma) ** 2, s))
    if fault == "F1" and n == 1:
        pair = pair.transformed(random_symplectic(np.random.default_rng(F1_ONE_MODE_SEED), 1),
                                np.zeros(2))
    return pair


def log_overlap(x1, v1, x2, v2) -> float:
    """ln Tr(rho1 rho2) of two Gaussian states (vacuum covariance I/2)."""
    total = v1 + v2
    chol = np.linalg.cholesky(total)
    delta = np.linalg.solve(chol, x1 - x2)
    return float(-np.sum(np.log(np.diag(chol))) - delta @ delta)


def thermal_mode(t: float, s: float, alpha: float) -> float:
    """One-mode thermal rho (t) against thermal sigma (s): the sandwich is
    diagonal with a geometric spectrum, summed in closed form."""
    ln_t = (alpha * math.log(-math.expm1(-t)) + (1.0 - alpha) * math.log(-math.expm1(-s))
            - math.log(-math.expm1(-(alpha * t + (1.0 - alpha) * s))))
    return ln_t / (alpha - 1.0)


def coherent_mode(gamma2: float, s: float, alpha: float) -> float:
    """One-mode coherent rho (|gamma|^2 = gamma2) against thermal sigma (s)."""
    p = (1.0 - alpha) / alpha
    return -math.log(-math.expm1(-s)) + alpha / (1.0 - alpha) * gamma2 * -math.expm1(-p * s)


def reference(pair: Pair, alpha: float) -> float | None:
    """Closed-form divergence of a family a or b pair or a fault case;
    None for family c."""
    if pair.family == "a":
        m, s, x_sigma = pair.ref
        p = (1.0 - alpha) / alpha
        cov_ps = (m * np.tile(thermal_d(p * s), 2)) @ m.T
        return alpha / (alpha - 1.0) * (p * log_p(s) - log_p(p * s)
                                        + log_overlap(pair.x_rho, pair.cov_rho, x_sigma, cov_ps))
    if pair.family in ("b", "F1", "F2"):
        t, gamma2, s = pair.ref
        return sum(coherent_mode(g2, sj, alpha) if math.isinf(tj) else thermal_mode(tj, sj, alpha)
                   for tj, g2, sj in zip(t, gamma2, s))
    return None
