"""Generating-kernel quadruples: frozen parameters, round trips, traces."""

import math

import numpy as np
import pytest

from gauss_renyi.exceptions import NotTraceClassError, UnphysicalStateError
from gauss_renyi.kernel import (CoherentKernel, apply_contraction,
                                evaluate_kernel, form_matrix, kernel_to_state,
                                log_kernel_trace, state_to_kernel)
from gauss_renyi.recipes import phase_congruence
from gauss_renyi.sampling import random_faithful_state
from gauss_renyi.states import (coherent_state, gaussian_transform,
                                squeezed_vacuum, symplectic_form, thermal_state)

LN2 = math.log(2.0)


def test_vacuum_quadruple():
    k = state_to_kernel(coherent_state(0.0))
    assert np.isclose(k.c, 1.0, atol=1e-14)
    assert np.allclose(k.mu, 0.0)
    assert np.allclose(k.A, 0.0)
    assert np.allclose(k.lam, 0.0)


@pytest.mark.parametrize("t", [0.4, LN2, 2.5])
def test_thermal_quadruple(t):
    # thermal kernel: c = 1 - e^-t, lam = e^-t, A = mu = 0
    k = state_to_kernel(thermal_state(t))
    assert np.isclose(k.c, 1.0 - math.exp(-t), atol=1e-13)
    assert np.allclose(k.lam, math.exp(-t) * np.eye(1), atol=1e-13)
    assert np.allclose(k.A, 0.0, atol=1e-14)
    assert np.allclose(k.mu, 0.0)


@pytest.mark.parametrize("gamma", [1.0, 0.6 - 0.8j, -1.3 + 0.4j])
def test_coherent_quadruple(gamma):
    k = state_to_kernel(coherent_state(gamma))
    assert np.isclose(k.c, math.exp(-abs(gamma) ** 2), atol=1e-13)
    assert np.allclose(k.mu, [gamma], atol=1e-13)
    assert np.allclose(k.A, 0.0, atol=1e-14)
    assert np.allclose(k.lam, 0.0, atol=1e-14)


@pytest.mark.parametrize("r", [0.3, -0.7])
def test_squeezed_quadruple(r):
    # pure squeezed vacuum: c = sech r, A = -tanh(r)/2, lam = 0
    k = state_to_kernel(squeezed_vacuum(r))
    assert np.isclose(k.c, 1.0 / math.cosh(r), atol=1e-13)
    assert np.allclose(k.A, [[-0.5 * math.tanh(r)]], atol=1e-13)
    assert np.allclose(k.lam, 0.0, atol=1e-12)
    assert np.allclose(k.mu, 0.0)


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
            assert abs(log_kernel_trace(state_to_kernel(state))) < 1e-10


def test_form_matrix_negated_a_inverts_shifted_cov(rng):
    state = random_faithful_state(rng, 2)
    k = state_to_kernel(state)
    # M(-A, lam) = J^T M(A, lam) J exactly, which kernel_to_state relies on
    J = symplectic_form(2)
    N = J.T @ form_matrix(k.A, k.lam) @ J
    assert np.array_equal(N, form_matrix(-k.A, k.lam))
    G = np.linalg.inv(0.5 * np.eye(4) + state.cov)
    assert np.max(np.abs(N - G)) < 1e-10


def test_contraction_identity_and_collapse(rng):
    state = random_faithful_state(rng, 1)
    k = state_to_kernel(state)
    same = apply_contraction(k, np.array([1.0]))
    assert np.allclose(same.mu, k.mu)
    assert np.allclose(same.lam, k.lam)
    # k = 0 projects onto the vacuum: Tr Gamma(0) Z Gamma(0) = c
    collapsed = apply_contraction(k, np.array([0.0]))
    assert np.isclose(log_kernel_trace(collapsed), math.log(k.c), atol=1e-12)


@pytest.mark.parametrize("t,kval", [(0.8, 0.6), (LN2, 0.9), (2.0, 0.25)])
def test_contracted_thermal_matches_geometric_series(t, kval):
    # Gamma(k) rho_t Gamma(k) has lam' = k^2 e^-t and trace p(t)/(1 - k^2 e^-t)
    z = apply_contraction(state_to_kernel(thermal_state(t)), np.array([kval]))
    assert np.isclose(complex(z.lam[0, 0]).real, kval ** 2 * math.exp(-t), atol=1e-13)
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


def test_not_trace_class_guard():
    # lam = I makes the form matrix singular: the operator has no trace
    bad = CoherentKernel(c=1.0, mu=np.zeros(1), A=np.zeros((1, 1)),
                         lam=np.eye(1))
    with pytest.raises(NotTraceClassError):
        log_kernel_trace(bad)


def test_kernel_to_state_rejects_non_normalizable():
    bad = CoherentKernel(c=1.0, mu=np.zeros(1), A=0.6 * np.ones((1, 1)),
                         lam=np.zeros((1, 1)))
    with pytest.raises(UnphysicalStateError):
        kernel_to_state(bad)


def test_quadruple_validation():
    with pytest.raises(ValueError):
        CoherentKernel(c=-1.0, mu=np.zeros(1), A=np.zeros((1, 1)),
                       lam=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        CoherentKernel(c=1.0, mu=np.zeros(2), A=np.array([[0.0, 0.2], [0.0, 0.0]]),
                       lam=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        CoherentKernel(c=1.0, mu=np.zeros(1), A=np.zeros((1, 1)),
                       lam=-0.5 * np.eye(1))


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
    manual = k.c * np.exp(k.mu.conj() @ u + k.mu @ v + u @ k.A @ u
                          + u @ k.lam @ v + v @ k.A.conj() @ v)
    assert np.isclose(evaluate_kernel(k, u, v), manual, rtol=1e-14)
