"""Generating kernels: frozen parameters, round trips, traces."""

import json
import math

import numpy as np
import pytest

from helpers import analytic_coherent_thermal, evaluate_kernel, form_matrix, kernel_from_quadruple
from gauss_renyi.cli import main
from gauss_renyi.entropy import (fractional_power_contraction, reduce_to_thermal,
                                 sandwiched_renyi, sandwiched_renyi_sweep)
from gauss_renyi.exceptions import NotTraceClassError, UnphysicalStateError
from gauss_renyi.kernel import (CoherentKernel, apply_contraction, kernel_to_state, log_kernel_trace,
                                lower_triangular_inverse, state_to_kernel)
from gauss_renyi.recipes import phase_congruence
from gauss_renyi.sampling import random_faithful_state, random_symplectic
from gauss_renyi.statefile import json_number, state_to_json
from gauss_renyi.states import (GaussianState, coherent_state, gaussian_transform,
                                squeezed_vacuum, tensor, thermal_state)
from gauss_renyi.williamson import symplectic_form

LN2 = math.log(2.0)


def contracted_quadruple(kernel, k):
    """(K mu, K A K, K lam K) of a plain kernel and one contraction k."""
    k = np.asarray(k, dtype=float)
    outer = np.outer(k, k)
    mu, A, lam = kernel.quadruple()
    return k * mu, outer * A, outer * lam


def test_vacuum_quadruple():
    k = state_to_kernel(coherent_state(0.0))
    mu, A, lam = k.quadruple()
    assert np.isclose(k.log_c, 0.0, atol=1e-14)
    assert np.allclose(mu, 0.0)
    assert np.allclose(A, 0.0)
    assert np.allclose(lam, 0.0)


@pytest.mark.parametrize("t", [0.4, LN2, 2.5])
def test_thermal_quadruple(t):
    # thermal kernel: c = 1 - e^-t, lam = e^-t, A = mu = 0
    k = state_to_kernel(thermal_state(t))
    mu, A, lam = k.quadruple()
    assert np.isclose(k.log_c, math.log1p(-math.exp(-t)), atol=1e-13)
    assert np.allclose(lam, math.exp(-t) * np.eye(1), atol=1e-13)
    assert np.allclose(A, 0.0, atol=1e-14)
    assert np.allclose(mu, 0.0)


@pytest.mark.parametrize("gamma", [1.0, 0.6 - 0.8j, -1.3 + 0.4j])
def test_coherent_quadruple(gamma):
    k = state_to_kernel(coherent_state(gamma))
    mu, A, lam = k.quadruple()
    assert np.isclose(k.log_c, -abs(gamma) ** 2, atol=1e-13)
    assert np.allclose(mu, [gamma], atol=1e-13)
    assert np.allclose(A, 0.0, atol=1e-14)
    assert np.allclose(lam, 0.0, atol=1e-14)


@pytest.mark.parametrize("r", [0.3, -0.7])
def test_squeezed_quadruple(r):
    # pure squeezed vacuum: c = sech r, A = -tanh(r)/2, lam = 0
    k = state_to_kernel(squeezed_vacuum(r))
    mu, A, lam = k.quadruple()
    assert np.isclose(k.log_c, -math.log(math.cosh(r)), atol=1e-13)
    assert np.allclose(A, [[-0.5 * math.tanh(r)]], atol=1e-13)
    assert np.allclose(lam, 0.0, atol=1e-12)
    assert np.allclose(mu, 0.0)


@pytest.mark.parametrize("d", [1e2, 1e4, 1e8, 1e10, 1e11, 1e12, 1e15, 1e50, 1e150, 1e300])
def test_hot_state_round_trip_within_eps_d(d):
    # the kernel's M holds 1/(d + 1/2) to relative rounding, so the round
    # trip of cov = diag(d, d) comes back to a few eps relative (at most
    # 1.9 eps over 200 random d in [1, 1e11], 0.94 eps at these d); M's
    # smallest squared pivot 1/(d + 1/2) is far below the trace's
    # FORM_MIN_EIG from d = 1e12, which the round trip does not ask for
    state = GaussianState(np.zeros(2), d * np.eye(2))
    back = kernel_to_state(state_to_kernel(state))
    assert np.max(np.abs(back.cov - state.cov)) / d <= 4 * np.finfo(float).eps
    assert np.array_equal(back.mean, state.mean)


@pytest.mark.parametrize("d", [1e8, 1e10, 3.2e11])
def test_squeezed_hot_state_round_trip(d):
    # three modes at d in one frame squeezed by up to e^1: at d = 3.2e11
    # M's smallest squared pivot is below the trace's FORM_MIN_EIG, which
    # the round trip does not ask for; 200 d in [1e8, 3.2e11] read at most
    # 1.8e-15 of max|S|
    L = random_symplectic(np.random.default_rng(0), 3, 1.0)
    state = GaussianState(np.zeros(6), d * (L @ L.T))
    back = kernel_to_state(state_to_kernel(state))
    assert np.max(np.abs(back.cov - state.cov)) <= 16 * np.finfo(float).eps * np.max(np.abs(state.cov))
    assert np.array_equal(back.mean, state.mean)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_trip_random(rng, n):
    for _ in range(8):
        state = random_faithful_state(rng, n)
        back = kernel_to_state(state_to_kernel(state))
        assert np.max(np.abs(back.mean - state.mean)) < 1e-10
        assert np.max(np.abs(back.cov - state.cov)) < 1e-10


def test_state_kernels_have_unit_trace(rng):
    for n in (1, 2, 3):
        for _ in range(5):
            state = random_faithful_state(rng, n)
            kernel = state_to_kernel(state)
            assert abs(log_kernel_trace(apply_contraction(kernel, np.ones(n)))) < 1e-10


def test_form_matrix_negated_a_inverts_shifted_cov(rng):
    state = random_faithful_state(rng, 2)
    k = state_to_kernel(state)
    # M(-A, lam) = J^T M(A, lam) J exactly, which kernel_to_state relies on
    J = symplectic_form(2)
    _, A, lam = k.quadruple()
    N = J.T @ form_matrix(A, lam) @ J
    assert np.array_equal(N, form_matrix(-A, lam))
    G = np.linalg.inv(0.5 * np.eye(4) + state.cov)
    assert np.max(np.abs(N - G)) < 1e-10


def test_contraction_identity_and_collapse(rng):
    state = random_faithful_state(rng, 1)
    k = state_to_kernel(state)
    # k = 1 keeps the parent, and the state's unit trace
    same = apply_contraction(k, np.array([1.0]))
    assert same.parent is k
    assert abs(log_kernel_trace(same)) < 1e-12
    # k = 0 projects onto the vacuum: Tr Gamma(0) Z Gamma(0) = c
    collapsed = apply_contraction(k, np.array([0.0]))
    assert np.isclose(log_kernel_trace(collapsed), k.log_c, atol=1e-12)


@pytest.mark.parametrize("t,kval", [(0.8, 0.6), (LN2, 0.9), (2.0, 0.25)])
def test_contracted_thermal_matches_geometric_series(t, kval):
    # Gamma(k) rho_t Gamma(k) has lam' = k^2 e^-t and trace p(t)/(1 - k^2 e^-t)
    kernel = state_to_kernel(thermal_state(t))
    lam = contracted_quadruple(kernel, [kval])[2]
    assert np.isclose(complex(lam[0, 0]).real, kval ** 2 * math.exp(-t), atol=1e-13)
    z = apply_contraction(kernel, np.array([kval]))
    expected = (1.0 - math.exp(-t)) / (1.0 - kval ** 2 * math.exp(-t))
    assert np.isclose(math.exp(log_kernel_trace(z)), expected, rtol=1e-12)


def test_contraction_rejects_out_of_range(rng):
    k = state_to_kernel(random_faithful_state(rng, 2))
    with pytest.raises(ValueError):
        apply_contraction(k, np.array([0.5, 1.2]))
    with pytest.raises(ValueError):
        apply_contraction(k, np.array([-0.1, 0.5]))
    with pytest.raises(ValueError):
        apply_contraction(k, np.array([0.5]))


def test_contraction_rejects_non_finite_entries():
    k = state_to_kernel(thermal_state(1.0))
    for bad in ([math.nan], [math.inf], [[0.5], [math.nan]]):
        with pytest.raises(ValueError, match="contraction entries must be finite"):
            apply_contraction(k, np.array(bad))


def test_not_trace_class_guard():
    # lam = I makes the form matrix singular: the operator has no trace
    bad = kernel_from_quadruple(0.0, np.zeros(1), np.zeros((1, 1)), np.eye(1))
    with pytest.raises(NotTraceClassError):
        log_kernel_trace(apply_contraction(bad, np.ones(1)))


def test_kernel_to_state_rejects_non_normalizable():
    bad = kernel_from_quadruple(0.0, np.zeros(1), 0.6 * np.ones((1, 1)), np.zeros((1, 1)))
    with pytest.raises(UnphysicalStateError):
        kernel_to_state(bad)


def test_trace_invariant_under_phase_rotation(rng):
    # one-mode phase plates commute with diagonal contractions, so the
    # contracted trace must not depend on the phase convention
    state = random_faithful_state(rng, 1)
    rotated = gaussian_transform(state, phase_congruence(1, 0, 0.9))
    k = np.array([0.7])
    t0 = log_kernel_trace(apply_contraction(state_to_kernel(state), k))
    t1 = log_kernel_trace(apply_contraction(state_to_kernel(rotated), k))
    assert np.isclose(t0, t1, atol=1e-11)


def test_evaluate_kernel_matches_manual(rng):
    state = random_faithful_state(rng, 2)
    k = state_to_kernel(state)
    u = np.array([0.2 - 0.1j, 0.05 + 0.12j])
    v = np.array([-0.15 + 0.2j, 0.1])
    mu, A, lam = k.quadruple()
    manual = np.exp(k.log_c + mu.conj() @ u + mu @ v + u @ A @ u
                    + u @ lam @ v + v @ A.conj() @ v)
    assert np.isclose(evaluate_kernel(k, u, v), manual, rtol=1e-14)


def random_lower_factors(rng, shape, m):
    """Cholesky factors of well-conditioned random SPD matrices."""
    x = rng.normal(size=shape + (m, m))
    return np.linalg.cholesky(x @ x.swapaxes(-1, -2) / m + np.eye(m))


@pytest.mark.parametrize("m", [2, 6, 34, 128])
@pytest.mark.parametrize("shape", [(), (3,)])
def test_lower_triangular_inverse(rng, shape, m):
    # 34 and 128 halve through odd sizes (17) and several levels of blocks
    L = random_lower_factors(rng, shape, m)
    inv = lower_triangular_inverse(L)
    assert inv.shape == L.shape
    assert np.array_equal(np.triu(inv, 1), np.zeros(L.shape))
    assert np.max(np.abs(inv @ L - np.eye(m))) <= 1e-13
    assert np.max(np.abs(inv - np.linalg.inv(L))) <= 1e-13


def independent_bordered(kernel, k) -> np.ndarray:
    """[[M, b], [b^T, 1e300]] of Gamma(K) Z Gamma(K), with M = M(K A K, K lam K)
    and b = (Re K mu, -Im K mu) built from their definitions."""
    mu, A, lam = contracted_quadruple(kernel, k)
    b = np.concatenate([mu.real, -mu.imag])[:, None]
    return np.block([[form_matrix(A, lam), b], [b.T, 1e300]])


def independent_log_trace(kernel, k) -> float:
    """ln Tr Gamma(K) Z Gamma(K) = ln c - ln det(M)/2 + b . M^{-1} b, with
    M and b from independent_bordered, evaluated by slogdet and a solve."""
    B = independent_bordered(kernel, k)
    M, b = B[:-1, :-1], B[:-1, -1]
    sign, logdet = np.linalg.slogdet(M)
    assert sign > 0
    return kernel.log_c - 0.5 * logdet + float(b @ np.linalg.solve(M, b))


def test_bordered_trace_matches_slogdet_and_solve(rng):
    for n in (1, 3, 8):
        for _ in range(4):
            kernel = state_to_kernel(random_faithful_state(rng, n, mean_scale=2.0))
            contractions = rng.uniform(0.2, 1.0, size=(3, n))
            stacked = log_kernel_trace(apply_contraction(kernel, contractions))
            for k, value in zip(contractions, stacked):
                z = apply_contraction(kernel, k)
                expected = independent_log_trace(kernel, k)
                assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))
                assert log_kernel_trace(z) == value


def test_contracted_bordered_form_is_the_contracted_kernels(rng):
    # the factor of the parent's base scaled by w w^T, w = (k, k, 1), is the
    # factor of the bordered form matrix [[M(K A K, K lam K), K~ b], [., 1e300]]
    # built from the contracted (K mu, K A K, K lam K), at k = 0, k = 1 and random k
    for n in (1, 3, 8):
        for _ in range(3):
            kernel = state_to_kernel(random_faithful_state(rng, n, mean_scale=2.0))
            contractions = np.vstack([np.zeros(n), np.ones(n), rng.uniform(size=(3, n))])
            z = apply_contraction(kernel, contractions)
            F = z._form_factor
            for f, k in zip(F, contractions):
                assert np.allclose(f @ f.T, independent_bordered(kernel, k),
                                   rtol=1e-13, atol=1e-12)
            for k, value in zip(contractions, log_kernel_trace(z)):
                assert log_kernel_trace(apply_contraction(kernel, k)) == value


def test_bordered_trace_of_large_displacement():
    # coherent_state(26) in the frame of thermal_state(1.0): c = e^-676 and
    # b . M^{-1} b = 676 cancel to Tr = 1
    rho_prime, s, _ = reduce_to_thermal(coherent_state(26.0), thermal_state(1.0))
    kernel = state_to_kernel(rho_prime)
    plain = log_kernel_trace(apply_contraction(kernel, np.ones(1)))
    assert math.isclose(plain - kernel.log_c, 676.0, rel_tol=1e-14)
    assert abs(plain) < 1e-12
    for alpha in (0.3, 0.5, 0.9):
        k = fractional_power_contraction(s, alpha)
        z = apply_contraction(kernel, k)
        expected = independent_log_trace(kernel, k)
        assert abs(log_kernel_trace(z) - expected) <= 1e-14 * 676.0
        report = sandwiched_renyi(coherent_state(26.0), thermal_state(1.0), alpha)
        exact = analytic_coherent_thermal(26.0, 1.0, alpha)
        assert abs(report.divergence - exact) <= 1e-12 * exact
    # far beyond any state's kernel, the border still leaves a positive pivot
    huge = kernel_from_quadruple(0.0, np.array([1e3, 2e3j]), np.zeros((2, 2)), np.zeros((2, 2)))
    assert math.isclose(log_kernel_trace(apply_contraction(huge, np.ones(2))), 5e6,
                        rel_tol=1e-15)


def test_bordered_trace_rejects_indefinite_form_matrix():
    # one mode of lam above 1 makes M indefinite whatever the border holds
    bad = kernel_from_quadruple(0.0, np.array([0.3 + 0.2j, -1.0]), np.zeros((2, 2)),
                                np.diag([0.2, 1.5]))
    with pytest.raises(NotTraceClassError, match="form matrix not positive definite"):
        log_kernel_trace(apply_contraction(bad, np.ones(2)))
    stack = apply_contraction(bad, np.array([[0.5, 0.5], [1.0, 1.0]]))
    with pytest.raises(NotTraceClassError, match="form matrix not positive definite"):
        log_kernel_trace(stack)


def test_evaluation_path_forms_no_quadruple(monkeypatch, rng, tmp_path, capsys):
    # the complex (mu, A, Lam) is read off the kernel only where it is shown
    read_off = CoherentKernel.quadruple

    def refuse(kernel):
        raise AssertionError("the evaluation path formed the complex quadruple")

    monkeypatch.setattr(CoherentKernel, "quadruple", refuse)
    mean = np.array([0.3, -0.2, 0.1, 0.4])
    sigma = thermal_state([0.8, 1.5])
    for rho in (GaussianState(mean, thermal_state([0.6, 1.1]).cov),  # pair-free t_Z
                tensor(squeezed_vacuum(0.4), thermal_state(1.0)),  # covariance fallback
                GaussianState(mean, tensor(squeezed_vacuum(0.4), coherent_state(0.0)).cov)):
        reports = sandwiched_renyi_sweep(rho, sigma, [0.3, 0.7])
        assert all(np.isfinite(r.divergence) and r.divergence > 0 for r in reports)
    kernel = state_to_kernel(random_faithful_state(rng, 2))
    assert abs(log_kernel_trace(apply_contraction(kernel, np.ones(2)))) < 1e-10

    shown = []

    def record(kernel):
        shown.append(read_off(kernel))
        return shown[-1]

    monkeypatch.setattr(CoherentKernel, "quadruple", record)
    state = GaussianState(mean[:2], squeezed_vacuum(0.4).cov)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json(state)))
    assert main(["convert", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    [(mu, A, lam)] = shown
    assert np.abs(A).max() > 0.1

    def pair(z):
        return [json_number(z.real), json_number(z.imag)]

    assert payload["mu"] == [pair(z) for z in mu]
    assert payload["A"] == [[pair(z) for z in row] for row in A]
    assert payload["Lambda"] == [[pair(z) for z in row] for row in lam]
