"""Dense factorizations per evaluation, counted by wrapping numpy/scipy.linalg.

Each quantity of the pipeline has one route.  Per call: a Cholesky and an
eigensolve per state (physicality of rho, Williamson form of sigma) and one
Cholesky for the kernel of rho'; that kernel's Lambda is not checked again,
since rho's physicality already bounds it.  test_factorization_count holds
the per-call budget (one more than that, 8 and 9 below) and the per-order
one; test_rho_kernel_factorizations pins the per-call total exactly.  Per
order: one Cholesky of the contracted kernel's form matrix, which serves
the trace and, on the fallback branch, the covariance, and the t_Z spectrum
(one eigensolve, or on the fallback branch the covariance's Cholesky and
one eigensolve).  The contracted kernel's Lambda is not checked again.

The per-order stage runs on stacks of orders, so a stacked (..., m, m)
argument counts once per matrix, as perfbench's LinalgCounter counts it.
The bindings inside numpy.linalg's implementation module are wrapped too,
so a factorization that a helper such as norm(x, 2) runs is counted.
"""

import importlib

import numpy as np
import numpy.linalg
import pytest
import scipy.linalg

import gauss_renyi.entropy as entropy
from gauss_renyi.kernel import state_to_kernel
from gauss_renyi.states import GaussianState, squeezed_vacuum, tensor, thermal_state

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
])
def test_factorization_count(counts, rho, per_call, per_order, branch):
    single, fallbacks = factorizations(
        counts, lambda: entropy.sandwiched_renyi(rho, SIGMA, 0.5))
    assert fallbacks == branch
    assert single <= per_call
    assert counts.get("svd", 0) == 0  # the t_Z gate reads Lambda's norm off its eigvalsh
    one, _ = factorizations(counts, lambda: entropy.sandwiched_renyi_sweep(rho, SIGMA, [0.5]))
    three, fallbacks = factorizations(
        counts, lambda: entropy.sandwiched_renyi_sweep(rho, SIGMA, [0.3, 0.5, 0.7]))
    assert fallbacks == 3 * branch
    assert counts.get("svd", 0) == 0
    assert one == single
    assert (three - one) / 2 <= per_order


@pytest.mark.parametrize("rho,per_call", [(PAIR_FREE_RHO, 7), (FALLBACK_RHO, 8)])
def test_rho_kernel_factorizations(counts, rho, per_call):
    """rho's kernel costs its Cholesky alone: no eigensolve of its Lambda."""
    rho_prime, _ = entropy.reduce_to_thermal(rho, SIGMA)
    kernel, _ = factorizations(counts, lambda: state_to_kernel(rho_prime))
    assert kernel == 1
    single, _ = factorizations(counts, lambda: entropy.sandwiched_renyi(rho, SIGMA, 0.5))
    assert single == per_call
