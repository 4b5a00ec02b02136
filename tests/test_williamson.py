"""Williamson normal form: frozen cases and residue properties."""

import math

import numpy as np
import pytest

from helpers import symplectic_residual
from gauss_renyi.exceptions import DecompositionError, UnphysicalStateError
from gauss_renyi.sampling import random_faithful_state, random_symplectic
from gauss_renyi.states import (MAX_SQUEEZE, gaussian_transform, squeezed_vacuum, tensor,
                                thermal_state)
from gauss_renyi.williamson import (WilliamsonForm, _check_symmetric, _spectrum, d_to_t,
                                    pure_mode_count, require_heisenberg, symplectic_eigenvalues,
                                    t_to_d, williamson_decompose)

LN2 = math.log(2.0)


def test_d_to_t_frozen_points():
    assert np.isclose(d_to_t(1.5), LN2, atol=1e-14)
    assert d_to_t(0.5) == math.inf
    assert np.isclose(t_to_d(LN2), 1.5, atol=1e-14)
    assert t_to_d(math.inf) == 0.5
    # one purity verdict: a mode inside the Heisenberg slack below 1/2 is pure
    # for the count and for d_to_t alike
    d = symplectic_eigenvalues(np.diag([1.5, 0.5 - 5e-11] * 2))
    assert d[-1] == 0.5 - 5e-11 and pure_mode_count(d) == 1
    assert d_to_t(d)[-1] == math.inf


def test_d_t_round_trip():
    d = np.array([0.5000001, 0.75, 1.5, 4.0, 40.0])
    assert np.allclose(t_to_d(d_to_t(d)), d, rtol=1e-10)
    t = np.array([0.05, 0.4, LN2, 2.0, 9.0])
    assert np.allclose(d_to_t(t_to_d(t)), t, rtol=1e-10)


@pytest.mark.parametrize("d", [0.49, np.nan])
def test_require_heisenberg_rejects_sub_heisenberg(d):
    # NaN compares false with the bound, so the check must not read "d < bound"
    with pytest.raises(UnphysicalStateError, match="NaN" if np.isnan(d) else "below"):
        require_heisenberg(np.array([d]))


def test_d_to_t_judges_nothing():
    # the verdict is require_heisenberg's, on input states: d_to_t only maps
    assert d_to_t(0.49) == math.inf


def test_symplectic_eigenvalues_thermal():
    t = np.array([0.4, 1.1, 2.0])
    d = symplectic_eigenvalues(thermal_state(t).cov)
    assert np.allclose(d, np.sort(0.5 / np.tanh(0.5 * t))[::-1], atol=1e-12)


def test_symplectic_eigenvalues_invariant_under_symplectics(rng):
    state = random_faithful_state(rng, 3)
    L = random_symplectic(rng, 3)
    d0 = symplectic_eigenvalues(state.cov)
    d1 = symplectic_eigenvalues(L.T @ state.cov @ L)
    assert np.allclose(d0, d1, atol=1e-9)


def test_frozen_one_mode_form():
    # S = diag(1.5 e, 1.5/e) is thermal(ln 2) squeezed by L = diag(e^-1/2, e^1/2)
    S = np.diag([1.5 * math.e, 1.5 / math.e])
    form = williamson_decompose(S)
    assert np.allclose(form.d, [1.5], atol=1e-12)
    assert np.allclose(form.t, [LN2], atol=1e-12)
    assert np.allclose(np.abs(form.L),
                       np.diag([math.exp(-0.5), math.exp(0.5)]), atol=1e-10)
    assert np.allclose(form.L.T @ S @ form.L, 1.5 * np.eye(2), atol=1e-12)


def assert_normal_form(cov):
    form = williamson_decompose(cov)
    D = np.diag(np.concatenate([form.d, form.d]))
    assert symplectic_residual(form.L) < 1e-10
    assert np.max(np.abs(form.L.T @ cov @ form.L - D)) < 1e-8
    assert np.all(np.diff(form.d) <= 1e-12)  # descending
    assert np.allclose(form.d, symplectic_eigenvalues(cov), atol=1e-8)
    return form


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_residues(rng, n):
    for _ in range(5):
        assert_normal_form(random_faithful_state(rng, n).cov)


def test_ill_conditioned_residues():
    # a thermal product under a random symplectic and a strong squeeze:
    # the covariance has condition number about 4e6
    L = random_symplectic(np.random.default_rng(3), 3)
    squeeze = np.diag(np.exp([4.0, -1.0, 2.0, -4.0, 1.0, -2.0]))
    cov = squeeze @ L.T @ thermal_state([0.5, 1.0, 2.0]).cov @ L @ squeeze
    assert np.linalg.cond(cov) > 1e6
    form = assert_normal_form(cov)
    assert np.allclose(form.d, t_to_d(np.array([0.5, 1.0, 2.0])), atol=1e-10)


@pytest.mark.parametrize("t", [2e-8, 1e-9, 1e-12])
def test_hot_state_residue_is_relative(t):
    # d = coth(t/2)/2 up to 1e12: L^T S L rounds at about eps d, above 1e-8
    # from d ~ 1e8, so the residue is taken relative to d_max
    form = williamson_decompose(thermal_state(t).cov)
    assert np.allclose(form.d, t_to_d(t), rtol=1e-15)


def test_degenerate_spectrum(rng):
    base = thermal_state([0.9, 0.9])
    L = random_symplectic(rng, 2)
    cov = (L.T @ base.cov @ L)
    form = williamson_decompose(cov)
    assert np.allclose(form.d, [t_to_d(0.9)] * 2, atol=1e-9)
    assert symplectic_residual(form.L) < 1e-10


def test_pure_squeezed_maps_to_inf():
    for r in (0.5, MAX_SQUEEZE):
        form = williamson_decompose(squeezed_vacuum(r).cov)
        assert np.allclose(form.d, [0.5], atol=1e-12)
        assert form.t[0] == math.inf
    # d - 1/2 = 5e-10 is resolved, so the mode stays mixed
    form = williamson_decompose(thermal_state([21.4, 1.0]).cov)
    assert math.isclose(form.t[-1], 21.4, rel_tol=1e-6)


def test_unphysical_covariance_rejected():
    with pytest.raises(UnphysicalStateError):
        williamson_decompose(0.3 * np.eye(2))


def _bad(entry, value):
    bad = np.eye(2)
    bad[entry] = value
    return bad


_NOT_COVARIANCE = {
    "asymmetry-1e-2": (_bad((0, 1), 0.01), DecompositionError,
                       r"matrix not symmetric: max asymmetry 1\.000e-02"),
    "asymmetry-1e-11": (_bad((0, 1), 1e-11), DecompositionError,
                        r"matrix not symmetric: max asymmetry 1\.000e-11 > 1e-12"),
    "nan": (_bad((0, 0), np.nan), DecompositionError, "matrix has non-finite entries"),
    "imaginary": (np.eye(2) + 1j * np.array([[0, 1], [-1, 0]]), ValueError, "matrix must be real"),
    "empty": (np.zeros((0, 0)), ValueError, r"got shape \(0, 0\)"),
}


@pytest.mark.parametrize("check,bad,error,message", [
    pytest.param(check, *case, id=f"{check.__name__}-{name}")
    for check in (symplectic_eigenvalues, williamson_decompose)
    for name, case in _NOT_COVARIANCE.items()
] + [pytest.param(williamson_decompose, np.stack([np.eye(2)] * 3), ValueError,
                  r"stack of shape \(3, 2, 2\)", id="williamson_decompose-stack")])
def test_asymmetric_rejected(check, bad, error, message):
    # the verdicts GaussianState and validate_state give, with williamson's own
    # messages; symplectic_eigenvalues takes a stack, the normal form one matrix
    with pytest.raises(error, match=message):
        check(bad)


def test_three_mode_ordering(rng):
    state = random_faithful_state(rng, 3)
    form = williamson_decompose(state.cov)
    assert isinstance(form, WilliamsonForm)
    assert np.all(np.diff(form.t) >= -1e-12)  # ascending


def _scale(S: np.ndarray) -> float:
    """max(kappa_s, ||S||_F), the scale of a spectrum's rounding (_snap_pure)."""
    diag = S.diagonal()
    scaled = S / np.sqrt(np.multiply.outer(diag, diag))
    kappa = np.linalg.norm(scaled) * (diag * np.linalg.inv(S).diagonal()).max()
    return max(kappa, np.linalg.norm(S))


def _spectrum_cases():
    """(label, cov, pure modes): pure, partly pure and mixed products of vacuum
    and thermal modes in random frames squeezed by up to 2, and a squeezed
    vacuum up to r = 5, alone and next to a thermal mode in a random frame."""
    rng = np.random.default_rng(26)
    for n in (1, 2, 3, 4, 8, 16, 32, 64):
        for squeeze in (0.3, 1.0, 2.0):
            for pure in sorted({n, n // 2, 0}):
                t = np.concatenate([rng.uniform(0.3, 3.0, n - pure), np.full(pure, np.inf)])
                state = gaussian_transform(thermal_state(t), random_symplectic(rng, n, squeeze))
                yield f"n={n} squeeze={squeeze} pure={pure}", state.cov, pure
    for r in (1.0, 2.0, 3.0, 4.0, 5.0):
        yield f"squeezed vacuum r={r}", squeezed_vacuum(r).cov, 1
        for _ in range(4):
            state = tensor(squeezed_vacuum(r), thermal_state(1.0))
            yield f"squeezed vacuum r={r} in a frame", gaussian_transform(
                state, random_symplectic(rng, 2)).cov, 1


def test_svd_spectra_agree_with_hermitian_eigensolve():
    # rho's check and the stacked route (the t_Z fallback's) read d off one
    # real SVD of R^T J R, the smaller value of each pair, and only one matrix
    # is snapped; williamson_decompose reads d off the hermitian eigensolve of
    # i R^T J R, also snapped.  Both SVD spectra agree with that independent
    # route to the snap's rounding scale, and the snapped ones count the same
    # pure modes
    for label, cov, pure in _spectrum_cases():
        cov = 0.5 * (cov + cov.T)
        hermitian = _spectrum(_check_symmetric(cov), vectors=True)[0]
        single, stacked = symplectic_eigenvalues(cov), symplectic_eigenvalues(cov[None])[0]
        for d in (single, stacked):
            assert abs(d - hermitian).max() <= 2 * 2.0 ** -52 * _scale(cov), label
        assert pure_mode_count(single) == pure_mode_count(hermitian) == pure, label
