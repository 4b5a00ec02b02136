"""Dense truncated-Fock oracle: operator algebra, recipes, brute-force divergence."""

import math

import numpy as np
import pytest

from helpers import evaluate_kernel, kernel_element, moments_match, series_thermal_divergence
from gauss_renyi import fock
from gauss_renyi.exceptions import AlphaRangeError
from gauss_renyi.recipes import Recipe, recipe_to_state

LN2 = math.log(2.0)


def test_dense_oracle_shares_nothing_with_the_pipeline():
    # the module docstring's promise: no Williamson decomposition and no
    # generating-kernel algebra, so agreement with the closed forms is evidence
    pipeline = {f"gauss_renyi.{name}" for name in ("states", "williamson", "kernel", "entropy")}
    borrowed = {name for name, obj in vars(fock).items()
                if callable(obj) and getattr(obj, "__module__", None) in pipeline}
    assert borrowed == set()


def test_annihilator_commutator():
    cutoff = 12
    a = fock.annihilator(cutoff)
    comm = a @ a.conj().T - a.conj().T @ a
    # exact canonical commutator away from the truncation corner
    assert np.allclose(comm[:-1, :-1], np.eye(cutoff - 1))


def test_thermal_density_statistics():
    t, cutoff = 0.9, 120
    rho = fock.thermal_density(t, cutoff)
    num = np.diag(np.arange(cutoff))
    assert np.isclose(np.trace(rho).real, 1.0, atol=1e-12)
    assert np.isclose(np.trace(rho @ num).real, 1.0 / math.expm1(t), atol=1e-10)


def test_thermal_density_vacuum_limit():
    rho = fock.thermal_density(math.inf, 30)
    assert np.isclose(rho[0, 0].real, 1.0)
    assert np.isclose(np.abs(rho).sum(), 1.0)


@pytest.mark.parametrize("gamma", [0.7, 0.4 - 0.6j])
def test_displace_builds_coherent_coefficients(gamma):
    cutoff = 40
    vec = fock.displace(gamma, cutoff)[:, 0]
    k = np.arange(cutoff)
    fact = np.cumprod(np.concatenate([[1.0], np.sqrt(k[1:])]))
    expected = math.exp(-abs(gamma) ** 2 / 2) * gamma ** k / fact
    assert np.allclose(vec, expected, atol=1e-12)


def test_displace_unitary():
    u = fock.displace(0.8 + 0.2j, 50)
    assert np.allclose((u @ u.conj().T)[:40, :40], np.eye(40), atol=1e-10)


def test_squeeze_vacuum_structure():
    r, cutoff = 0.5, 60
    vec = fock.squeeze(r, cutoff)[:, 0]
    assert np.isclose(abs(vec[0]) ** 2, 1.0 / math.cosh(r), atol=1e-12)
    assert np.allclose(vec[1::2], 0.0, atol=1e-14)  # even photon numbers only


def test_phase_plate_is_number_diagonal():
    u = fock.phase_plate(0.7, 10)
    assert np.allclose(u, np.diag(np.exp(1j * 0.7 * np.arange(10))))


def test_beamsplitter_preserves_photon_number():
    cutoff = 8
    u = fock.beamsplitter(0.5, cutoff)
    n_tot = (fock.embed(np.diag(np.arange(cutoff)).astype(complex), 0, 2, cutoff)
             + fock.embed(np.diag(np.arange(cutoff)).astype(complex), 1, 2, cutoff))
    assert np.max(np.abs(u @ n_tot - n_tot @ u)) < 1e-10
    assert np.allclose(u @ u.conj().T, np.eye(cutoff ** 2), atol=1e-10)


RECIPES_1MODE = [
    Recipe((0.8,)),
    Recipe((0.8,), (("displace", 0, 0.6 - 0.4j),)),
    Recipe((1.2,), (("squeeze", 0, 0.4), ("displace", 0, 0.5),)),
    Recipe((0.9,), (("squeeze", 0, 0.3), ("phase", 0, 0.8),
                    ("displace", 0, 0.3 + 0.5j))),
    Recipe((math.inf,), (("squeeze", 0, -0.5),)),
]


@pytest.mark.parametrize("recipe", RECIPES_1MODE)
def test_recipe_moments_agree_one_mode(recipe):
    dev = moments_match(recipe, recipe_to_state(recipe), cutoff=50, tol=1e-6)
    assert dev < 1e-6


def test_recipe_moments_agree_two_mode():
    # second moments converge slowly in the truncation; the deviation must
    # shrink with the cutoff on top of being small
    recipe = Recipe((0.7, 1.1), (("squeeze", 0, 0.3), ("beamsplit", 0.6),
                                 ("phase", 1, 0.5), ("displace", 1, 0.4j)))
    state = recipe_to_state(recipe)
    coarse = moments_match(recipe, state, cutoff=18, tol=1e-1)
    fine = moments_match(recipe, state, cutoff=26, tol=1e-3)
    assert fine < 1e-3
    assert fine < 0.2 * coarse


@pytest.mark.parametrize("recipe", RECIPES_1MODE)
def test_dense_kernel_elements_match_closed_form(recipe):
    from gauss_renyi.kernel import state_to_kernel
    cutoff = 60
    rho = fock.state_to_fock(recipe, cutoff)
    kernel = state_to_kernel(recipe_to_state(recipe))
    for u in (0.0, 0.25, 0.2 - 0.1j):
        for v in (0.0, -0.15j, 0.1 + 0.2j):
            dense = kernel_element(rho, u, v, cutoff)
            closed = evaluate_kernel(kernel, [u], [v])
            assert abs(dense - closed) < 1e-8


def test_gamma_contraction_diagonal_action():
    cutoff = 6
    g = fock.gamma_contraction([0.5, 0.8], 2, cutoff)
    idx = 3 * cutoff + 2  # |3> x |2>
    assert np.isclose(g[idx, idx].real, 0.5 ** 3 * 0.8 ** 2)
    assert np.allclose(g, np.diag(np.diag(g)))


def test_gamma_thermal_sandwich_trace():
    t, kval, cutoff = 0.8, 0.6, 200
    rho = fock.thermal_density(t, cutoff)
    g = fock.gamma_contraction([kval], 1, cutoff)
    got = float(np.trace(g @ rho @ g).real)
    expected = (1.0 - math.exp(-t)) / (1.0 - kval ** 2 * math.exp(-t))
    assert np.isclose(got, expected, atol=1e-12)


def test_dense_divergence_matches_series():
    cutoff = 200
    for t, s, alpha in [(LN2, 2 * LN2, 0.5), (0.5, 1.4, 0.3), (1.8, 0.7, 0.65)]:
        dense = fock.dense_sandwiched_renyi(fock.thermal_density(t, cutoff),
                                            fock.thermal_density(s, cutoff),
                                            alpha, eig_floor=1e-60)
        assert abs(dense - series_thermal_divergence(t, s, alpha)) < 1e-9


def test_dense_divergence_identity_is_zero():
    # limited by the eigh noise floor of the dense oracle, not by truncation
    rho = fock.state_to_fock(Recipe((0.9,), (("displace", 0, 0.5),)), 60)
    assert abs(fock.dense_sandwiched_renyi(rho, rho, 0.5)) < 1e-8


def test_dense_divergence_alpha_domain():
    rho = fock.thermal_density(1.0, 20)
    for alpha in (0.0, 1.0, 1.3):
        with pytest.raises(AlphaRangeError):
            fock.dense_sandwiched_renyi(rho, rho, alpha)


def test_convergence_guard_reports_truncation():
    rho = Recipe((0.4,), (("displace", 0, 1.2),))
    sigma = Recipe((0.8,))
    _, residual_small = fock.dense_renyi_converged(rho, sigma, 0.5, 60)
    _, residual_big = fock.dense_renyi_converged(rho, sigma, 0.5, 6)
    assert residual_small < 1e-8
    assert residual_big > 1e-4


def test_builder_bounds():
    with pytest.raises(ValueError):
        fock.displace(3.5, 20)
    with pytest.raises(ValueError):
        fock.squeeze(1.4, 20)
    with pytest.raises(ValueError):
        fock.thermal_density(-0.2, 20)
