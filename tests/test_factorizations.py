"""Dense factorizations per evaluation, counted by wrapping numpy/scipy.linalg.

Each quantity of the pipeline has one route.  Per call: a Cholesky per
state, one SVD for rho's physicality, one eigensolve for sigma's Williamson
form, and one Cholesky for the kernel of rho'; that kernel's Lambda is not
checked again, since rho's physicality already bounds it.
test_factorization_count holds the per-call budget (one more than that, 8
and 9 below) and the per-order one, and pins the route: every symplectic
spectrum without vectors is an SVD, so a call runs one SVD plus one per
fallback order, a fallback order no eigvalsh, and a pair-free order no SVD;
test_rho_kernel_factorizations pins the per-call total exactly.  Per
order: one Cholesky of the contracted kernel's form matrix, which serves
the trace and, on the fallback branch, the covariance, and the t_Z spectrum
(one eigvalsh of K Lambda K, or on the fallback branch the covariance's
Cholesky and one SVD).  The contracted kernel's Lambda is not checked again.
A pure rho skips the t_Z spectrum (every t_Z is inf): 6 per call, and per
order the trace's Cholesky alone.  A mode is pure iff its d <= 1/2, so a
rho whose every d sits within the Heisenberg slack below 1/2 costs the same.

The per-order stage runs on stacks of orders, so a stacked (..., m, m)
argument counts once per matrix, as perfbench's LinalgCounter counts it.
The bindings inside numpy.linalg's implementation module are wrapped too,
so a factorization that a helper such as norm(x, 2) runs is counted.

No Cholesky factor goes through an LU: test_no_solve_and_small_inverses
pins that the pipeline calls numpy.linalg.solve nowhere and inv only on the
diagonal blocks of williamson.lower_triangular_inverse.
"""

import importlib

import numpy as np
import numpy.linalg
import pytest
import scipy.linalg

import gauss_renyi.entropy as entropy
from gauss_renyi.kernel import state_to_kernel
from gauss_renyi.states import (GaussianState, coherent_state, squeezed_vacuum, tensor,
                                thermal_state)

NUMPY_NAMES = ("eigh", "eigvalsh", "eig", "eigvals", "cholesky", "svd", "qr")
#: numpy.linalg's implementation module: helpers call these bindings
try:
    NUMPY_LINALG_IMPL = importlib.import_module("numpy.linalg._linalg")
except ImportError:  # NumPy 1.x
    NUMPY_LINALG_IMPL = importlib.import_module("numpy.linalg.linalg")
FACTORIZATIONS = {
    numpy.linalg: NUMPY_NAMES,
    NUMPY_LINALG_IMPL: NUMPY_NAMES,
    scipy.linalg: ("eigh", "eigvalsh", "eig", "eigvals", "eig_banded", "schur",
                   "cholesky", "cho_factor", "svd", "qr", "lu", "lu_factor", "ldl",
                   "sqrtm", "expm", "logm", "fractional_matrix_power"),
}

SIGMA = thermal_state([0.8, 1.5])
#: thermal with a displacement: A stays 0, so t_Z is read off Lambda
PAIR_FREE_RHO = GaussianState(np.array([0.3, -0.2, 0.1, 0.4]), thermal_state([0.6, 1.1]).cov)
#: a squeezed mode gives a pair block A, so t_Z takes the covariance fallback
FALLBACK_RHO = tensor(squeezed_vacuum(0.4), thermal_state(1.0))
#: pure, with a pair block A and a displacement: no t_Z spectrum at all
PURE_RHO = GaussianState(np.array([0.3, -0.2, 0.1, 0.4]),
                         tensor(squeezed_vacuum(0.4), coherent_state(0.0)).cov)
#: every d = 1/2 - 5e-11, inside the Heisenberg slack: pure, so no t_Z spectrum
SUB_HALF_RHO = GaussianState(np.zeros(4), np.diag([0.5 - 5e-11] * 4))
#: hot and thermal against a hot sigma: A = 0 with ||K Lambda K||_2 > 1/2 at
#: every order counted (0.75 at alpha = 0.3), and t_Z is still read off Lambda
HOT_RHO, HOT_SIGMA = thermal_state([0.05, 0.3]), thermal_state([0.1, 0.2])
#: ten modes, so the 20 x 20 factors are inverted by blocks
SIGMA_10 = thermal_state(np.linspace(0.8, 1.5, 10))
PAIR_FREE_RHO_10 = GaussianState(np.linspace(-0.4, 0.5, 20),
                                 thermal_state(np.linspace(0.7, 1.2, 10)).cov)
FALLBACK_RHO_10 = tensor(squeezed_vacuum(0.4), thermal_state(np.linspace(0.7, 1.2, 9)))


def matrices(args) -> int:
    """Number of matrices in a possibly stacked first argument."""
    shape = np.shape(args[0]) if args else ()
    return max(int(np.prod(shape[:-2], dtype=int)), 1)


@pytest.fixture
def counts(monkeypatch):
    """Outermost factorizations per matrix, per name, and the orders whose
    t_Z stage took the covariance fallback (the matrices it hands to
    entropy.symplectic_eigenvalues)."""
    tally = {"factorizations": 0, "fallbacks": 0}
    depth = [0]

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            if not depth[0]:
                tally["factorizations"] += matrices(args)
                tally[name] = tally.get(name, 0) + matrices(args)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for module, names in FACTORIZATIONS.items():
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name), name))
    spectrum = entropy.symplectic_eigenvalues

    def fallback(cov):
        tally["fallbacks"] += matrices((cov,))
        return spectrum(cov)

    monkeypatch.setattr(entropy, "symplectic_eigenvalues", fallback)
    return tally


def factorizations(counts, call) -> tuple[int, int]:
    counts.clear()
    counts["factorizations"] = counts["fallbacks"] = 0
    call()
    return counts["factorizations"], counts["fallbacks"]


@pytest.mark.parametrize("rho,per_call,per_order,branch", [
    (PAIR_FREE_RHO, 8, 2, 0),
    (FALLBACK_RHO, 9, 3, 1),
    (PURE_RHO, 6, 1, 0),
    (SUB_HALF_RHO, 6, 1, 0),
    ((HOT_RHO, HOT_SIGMA), 8, 2, 0),
])
def test_factorization_count(counts, rho, per_call, per_order, branch):
    rho, sigma = rho if isinstance(rho, tuple) else (rho, SIGMA)  # (rho, its own sigma)
    single, fallbacks = factorizations(
        counts, lambda: entropy.sandwiched_renyi(rho, sigma, 0.5))
    assert fallbacks == branch
    assert single <= per_call
    # rho's check and each fallback order; sigma's Williamson form takes eigh
    assert counts.get("svd", 0) == 1 + branch
    one, _ = factorizations(counts, lambda: entropy.sandwiched_renyi_sweep(rho, sigma, [0.5]))
    one_svd, one_eigvalsh = counts.get("svd", 0), counts.get("eigvalsh", 0)
    three, fallbacks = factorizations(
        counts, lambda: entropy.sandwiched_renyi_sweep(rho, sigma, [0.3, 0.5, 0.7]))
    assert fallbacks == 3 * branch
    # a fallback order runs one SVD and no eigvalsh; a pair-free order runs no
    # SVD, since the t_Z bound reads Lambda's norm off its eigvalsh
    assert counts.get("svd", 0) - one_svd == 2 * branch
    if branch:
        assert counts.get("eigvalsh", 0) == one_eigvalsh
    assert one == single
    assert (three - one) / 2 <= per_order


@pytest.mark.parametrize("rho,per_call", [(PAIR_FREE_RHO, 7), (FALLBACK_RHO, 8), (PURE_RHO, 6),
                                          (SUB_HALF_RHO, 6)])
def test_rho_kernel_factorizations(counts, rho, per_call):
    """rho's kernel costs its Cholesky alone: no eigensolve of its Lambda."""
    rho_prime, _, _ = entropy.reduce_to_thermal(rho, SIGMA)
    kernel, _ = factorizations(counts, lambda: state_to_kernel(rho_prime))
    assert kernel == 1
    single, _ = factorizations(counts, lambda: entropy.sandwiched_renyi(rho, SIGMA, 0.5))
    assert single == per_call


@pytest.fixture
def solves(monkeypatch):
    """(name, matrix size, matrices) of each numpy.linalg solve and inv call."""
    calls = []

    def recorded(fn, name):
        def wrapper(*args, **kwargs):
            calls.append((name, np.shape(args[0])[-1], matrices(args)))
            return fn(*args, **kwargs)
        return wrapper

    for module in (numpy.linalg, NUMPY_LINALG_IMPL):
        for name in ("solve", "inv"):
            monkeypatch.setattr(module, name, recorded(getattr(module, name), name))
    return calls


@pytest.mark.parametrize("rho,sigma,branch", [
    (PAIR_FREE_RHO, SIGMA, 0),
    (FALLBACK_RHO, SIGMA, 1),
    (PAIR_FREE_RHO_10, SIGMA_10, 0),
    (FALLBACK_RHO_10, SIGMA_10, 1),
], ids=["pair-free-2", "fallback-2", "pair-free-10", "fallback-10"])
def test_no_solve_and_small_inverses(counts, solves, rho, sigma, branch):
    for orders, call in ((1, lambda: entropy.sandwiched_renyi(rho, sigma, 0.5)),
                         (3, lambda: entropy.sandwiched_renyi_sweep(rho, sigma, [0.3, 0.5, 0.7]))):
        solves.clear()
        _, fallbacks = factorizations(counts, call)
        assert fallbacks == branch * orders
        assert [call for call in solves if call[0] == "solve"] == []
        sizes = {size for _, size, _ in solves}
        assert sizes and max(sizes) <= 16  # williamson._TRI_LEAF
        # the diagonal blocks of each inverted 2n x 2n factor add up to 2n:
        # one factor for rho's kernel and, on the fallback, one per order
        inverted = sum(size * count for _, size, count in solves)
        assert inverted == 2 * rho.n * (1 + branch * orders)
