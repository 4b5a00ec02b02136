"""Closed-form divergence pipeline: frozen values, invariances, error paths."""

import math
import re

import numpy as np
import pytest

from helpers import analytic_coherent_thermal, series_thermal_divergence
import gauss_renyi.entropy as entropy
from gauss_renyi.entropy import (EntropyReport, fractional_power_contraction,
                                 log_thermal_norm, reduce_to_thermal,
                                 sandwiched_renyi, sandwiched_renyi_sweep)
from gauss_renyi.exceptions import (AlphaRangeError, NotFaithfulError,
                                    NotTraceClassError, UnphysicalStateError)
from gauss_renyi.kernel import LAM_PSD_TOL, apply_contraction, state_to_kernel
from gauss_renyi.sampling import random_faithful_state, random_symplectic
from gauss_renyi.states import (GaussianState, coherent_state,
                                gaussian_transform, tensor, thermal_state)
from gauss_renyi.verify import thermal_series_divergence

LN2 = math.log(2.0)

#: frozen from the series oracle: D(thermal(ln2) || thermal(ln4)) at alpha=1/2
THERMAL_PAIR_FROZEN = 0.108299916535


def test_thermal_pair_frozen_value():
    report = sandwiched_renyi(thermal_state(LN2), thermal_state(2 * LN2), 0.5)
    assert abs(report.divergence - THERMAL_PAIR_FROZEN) < 1e-11
    assert abs(report.divergence - series_thermal_divergence(LN2, 2 * LN2, 0.5)) < 1e-12


@pytest.mark.parametrize("alpha", [0.15, 0.4, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("t,s", [(0.4, 1.3), (2.1, 0.7), (LN2, 2 * LN2)])
def test_thermal_pairs_match_series(t, s, alpha):
    report = sandwiched_renyi(thermal_state(t), thermal_state(s), alpha)
    assert abs(report.divergence - series_thermal_divergence(t, s, alpha)) < 1e-11


@pytest.mark.parametrize("t,s,alpha", [(0.3, 3.0, 0.1), (0.5, 2.8, 0.15)])
def test_thermal_strong_contraction_matches_series(t, s, alpha):
    # small alpha against a hot reference: e^(-t_Z) drops below any sane
    # covariance-side purity threshold while alpha * t_Z stays order one,
    # so the contracted spectrum must come out finite and accurate
    report = sandwiched_renyi(thermal_state(t), thermal_state(s), alpha)
    assert abs(report.divergence - series_thermal_divergence(t, s, alpha)) < 1e-12
    t_z_expected = t + s * (1.0 - alpha) / alpha
    assert np.all(np.isfinite(report.t_Z))
    assert abs(report.t_Z[0] - t_z_expected) < 1e-9 * t_z_expected


def test_coherent_thermal_frozen_value():
    # gamma=1, s=ln2, alpha=1/2 gives exactly ln2 + 1/2
    report = sandwiched_renyi(coherent_state(1.0), thermal_state(LN2), 0.5)
    assert abs(report.divergence - (LN2 + 0.5)) < 1e-12


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 0.8 + 0.6j])
def test_coherent_thermal_pure_sandwich_branch(gamma, alpha):
    report = sandwiched_renyi(coherent_state(gamma), thermal_state(1.5), alpha)
    assert abs(report.divergence - analytic_coherent_thermal(gamma, 1.5, alpha)) < 1e-11
    # pure rho sandwiches to a rank-one operator: t_Z is infinite
    assert np.all(np.isinf(report.t_Z))
    assert report.p_tZ == 1.0
    assert report.p_alpha_tZ == 1.0


def test_report_assembly_consistency(rng):
    for n in (1, 2):
        rho = random_faithful_state(rng, n)
        sigma = random_faithful_state(rng, n)
        report = sandwiched_renyi(rho, sigma, 0.6)
        assert isinstance(report, EntropyReport)
        reassembled = (report.p_s ** 0.4 * report.p_tZ ** 0.6
                       / report.p_alpha_tZ * report.trace_Z ** 0.6)
        assert np.isclose(report.T_alpha, reassembled, rtol=1e-12)
        assert np.isclose(report.divergence,
                          math.log(report.T_alpha) / (0.6 - 1.0), rtol=1e-10)
        assert np.isclose(report.T_alpha, math.exp(-0.4 * report.divergence),
                          rtol=1e-12)


def test_identity_vanishes(rng):
    for n in (1, 2, 3):
        state = random_faithful_state(rng, n)
        for alpha in (0.2, 0.5, 0.85):
            assert abs(sandwiched_renyi(state, state, alpha).divergence) < 1e-9


def test_divergence_nonnegative(rng):
    for _ in range(6):
        rho = random_faithful_state(rng, 2)
        sigma = random_faithful_state(rng, 2)
        assert sandwiched_renyi(rho, sigma, 0.5).divergence > -1e-10


def test_additive_over_tensor_factors(rng):
    rho1, sigma1 = (random_faithful_state(rng, 1) for _ in range(2))
    rho2, sigma2 = (random_faithful_state(rng, 1) for _ in range(2))
    alpha = 0.45
    joint = sandwiched_renyi(tensor(rho1, rho2), tensor(sigma1, sigma2), alpha)
    parts = (sandwiched_renyi(rho1, sigma1, alpha).divergence
             + sandwiched_renyi(rho2, sigma2, alpha).divergence)
    assert abs(joint.divergence - parts) < 1e-10


def test_unitary_invariance(rng):
    for n in (1, 2):
        rho = random_faithful_state(rng, n)
        sigma = random_faithful_state(rng, n)
        L = random_symplectic(rng, n)
        shift = rng.normal(scale=0.4, size=2 * n)
        moved_rho = gaussian_transform(rho, L, shift=shift)
        moved_sigma = gaussian_transform(sigma, L, shift=shift)
        d0 = sandwiched_renyi(rho, sigma, 0.6).divergence
        d1 = sandwiched_renyi(moved_rho, moved_sigma, 0.6).divergence
        assert abs(d0 - d1) < 1e-8


def test_alpha_monotone(rng):
    alphas = [0.1, 0.3, 0.5, 0.7, 0.9]
    for _ in range(4):
        rho = random_faithful_state(rng, 1)
        sigma = random_faithful_state(rng, 1)
        values = [sandwiched_renyi(rho, sigma, a).divergence for a in alphas]
        assert all(b - a > -1e-9 for a, b in zip(values, values[1:]))


def test_sweep_matches_single_calls(rng):
    rho = random_faithful_state(rng, 2)
    sigma = random_faithful_state(rng, 2)
    alphas = [0.2, 0.5, 0.8]
    swept = sandwiched_renyi_sweep(rho, sigma, alphas)
    for alpha, report in zip(alphas, swept):
        assert report.divergence == sandwiched_renyi(rho, sigma, alpha).divergence


def assert_same_report(a: EntropyReport, b: EntropyReport) -> None:
    """Every field of the two reports is bit-identical."""
    for name in EntropyReport.__dataclass_fields__:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def fallback_orders(monkeypatch) -> list:
    """Record how many orders of each stack take the covariance fallback."""
    seen = []
    spectrum = entropy.symplectic_eigenvalues

    def counted(cov):
        seen.append(len(cov))
        return spectrum(cov)

    monkeypatch.setattr(entropy, "symplectic_eigenvalues", counted)
    return seen


#: rho at t = 0.3 in every mode against sigma's [2.0, 1.5, 2.4]: the contracted
#: Lambda = k^2 e^-0.3 passes LAMBDA_GATE at low orders, and above about
#: alpha = 0.79 t_Z takes the covariance fallback
MIXED_RHO, MIXED_SIGMA, MIXED_S = thermal_state([0.3] * 3), thermal_state([2.0, 1.5, 2.4]), (2.0, 1.5, 2.4)


def test_mixed_branch_sweep_matches_series_and_single_calls(monkeypatch):
    grid = np.linspace(0.3, 0.99, 64)
    fallbacks = fallback_orders(monkeypatch)
    reports = sandwiched_renyi_sweep(MIXED_RHO, MIXED_SIGMA, grid)
    assert len(fallbacks) == 1 and 0 < fallbacks[0] < grid.size  # one stack, both branches
    for alpha, report in zip(grid, reports):
        assert report.alpha == alpha
        series = sum(thermal_series_divergence(0.3, s, alpha) for s in MIXED_S)
        assert abs(report.divergence - series) < 1e-12
        assert_same_report(report, sandwiched_renyi(MIXED_RHO, MIXED_SIGMA, alpha))


def test_sweep_splits_stacks_at_large_n(rng, monkeypatch):
    # at n = 32 the per-order stage stacks 16384 // 64^2 = 4 orders at a time
    rho, sigma = random_faithful_state(rng, 32), random_faithful_state(rng, 32)
    alphas = np.linspace(0.35, 0.95, 10)
    stacks = []
    contract = entropy.apply_contraction

    def recorded(kernel, k):
        stacks.append(len(k))
        return contract(kernel, k)

    monkeypatch.setattr(entropy, "apply_contraction", recorded)
    reports = sandwiched_renyi_sweep(rho, sigma, alphas)
    assert stacks == [4, 4, 2]
    for alpha, report in zip(alphas, reports):
        assert_same_report(report, sandwiched_renyi(rho, sigma, alpha))


def test_sweep_keeps_input_order():
    reports = sandwiched_renyi_sweep(MIXED_RHO, MIXED_SIGMA, [0.9, 0.3, 0.9])
    assert [r.alpha for r in reports] == [0.9, 0.3, 0.9]
    for report in reports:
        assert_same_report(report, sandwiched_renyi(MIXED_RHO, MIXED_SIGMA, report.alpha))
    assert_same_report(reports[0], reports[2])
    assert sandwiched_renyi_sweep(MIXED_RHO, MIXED_SIGMA, []) == []


def test_lambda_gate_uses_the_spectral_norm(monkeypatch):
    # a 50:50 beam splitter on rho leaves A = 0 but makes Lambda non-diagonal:
    # its diagonal then passes LAMBDA_GATE at orders where its norm does not,
    # and those orders must still take the covariance fallback
    o = np.sqrt(0.5) * np.array([[1.0, 1.0], [-1.0, 1.0]])
    rho = gaussian_transform(thermal_state([0.1, 3.0]), np.kron(np.eye(2), o))
    sigma = thermal_state([1.0, 1.3])
    kernel = state_to_kernel(reduce_to_thermal(rho, sigma)[0])
    grid = np.linspace(0.3, 0.99, 24)
    expected, diagonal_only = [], 0
    for alpha in grid:
        lam = apply_contraction(kernel, fractional_power_contraction([1.0, 1.3], alpha)).lam
        expected.append(np.linalg.norm(lam, 2) > entropy.LAMBDA_GATE)
        diagonal_only += expected[-1] and np.max(np.diag(lam).real) <= entropy.LAMBDA_GATE
    assert 0 < diagonal_only and not all(expected)
    fallbacks = fallback_orders(monkeypatch)
    for alpha, fallback in zip(grid, expected):
        fallbacks.clear()
        sandwiched_renyi(rho, sigma, alpha)
        assert fallbacks == ([1] if fallback else [])


def test_reduce_to_thermal_orders_parameters(rng):
    sigma = random_faithful_state(rng, 3)
    rho = random_faithful_state(rng, 3)
    _, s = reduce_to_thermal(rho, sigma)
    assert np.all(np.diff(s) >= -1e-12)


def test_sigma_must_be_faithful():
    with pytest.raises(NotFaithfulError, match="faithful"):
        sandwiched_renyi(thermal_state(1.0), coherent_state(0.3), 0.5)


def test_near_pure_sigma_names_the_pure_limit():
    # t = 30 puts d - 1/2 at 9e-14, inside PURE_TOL: the message names that limit
    with pytest.raises(NotFaithfulError) as err:
        sandwiched_renyi(thermal_state(1.0), thermal_state(30.0), 0.5)
    message = str(err.value)
    assert "PURE_TOL = 1e-09" in message and "t below 20.7" in message
    assert "got d - 1/2 = [9.3" in message


def test_mode_count_mismatch(rng):
    with pytest.raises(ValueError):
        sandwiched_renyi(random_faithful_state(rng, 1),
                         random_faithful_state(rng, 2), 0.5)


def test_unphysical_input_rejected():
    bad = GaussianState(np.zeros(2), 0.2 * np.eye(2))
    with pytest.raises(UnphysicalStateError):
        sandwiched_renyi(bad, thermal_state(1.0), 0.5)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
def test_alpha_domain(alpha):
    with pytest.raises(AlphaRangeError, match="0<alpha<1"):
        sandwiched_renyi(thermal_state(1.0), thermal_state(0.8), alpha)


def test_thermal_norm_values():
    assert np.isclose(math.exp(log_thermal_norm(LN2)), 0.5, atol=1e-15)
    assert log_thermal_norm([math.inf, math.inf]) == 0.0
    assert np.isclose(log_thermal_norm([LN2, 2 * LN2]),
                      math.log(0.5) + math.log(0.75), atol=1e-14)


def test_fractional_power_contraction_values():
    k = fractional_power_contraction(np.array([LN2]), 0.5)
    assert np.isclose(k[0], 2.0 ** -0.5, atol=1e-15)
    # alpha -> 1 keeps everything, alpha -> 0 kills everything
    assert fractional_power_contraction(np.array([1.0]), 0.999)[0] > 0.999
    assert fractional_power_contraction(np.array([1.0]), 0.001)[0] < 1e-100
    with pytest.raises(NotFaithfulError):
        fractional_power_contraction(np.array([math.inf]), 0.5)
    with pytest.raises(AlphaRangeError):
        fractional_power_contraction(np.array([1.0]), 1.0)


def test_displaced_reference_handled(rng):
    # sigma with a mean: reduction must cancel it exactly
    rho = random_faithful_state(rng, 1)
    sigma_base = random_faithful_state(rng, 1)
    shift = np.array([0.8, -0.5])
    sigma = GaussianState(sigma_base.mean + shift, sigma_base.cov)
    rho_moved = GaussianState(rho.mean + shift, rho.cov)
    d0 = sandwiched_renyi(rho, sigma_base, 0.5).divergence
    d1 = sandwiched_renyi(rho_moved, sigma, 0.5).divergence
    assert abs(d0 - d1) < 1e-10


#: bad (mean, cov) inputs, keyed by the violation their message names
UNPHYSICAL = {
    "Heisenberg bound": ([0.0, 0.0], [[0.3, 0.0], [0.0, 0.3]]),
    "not symmetric": ([0.0, 0.0], [[1.0, 1e-3], [0.0, 1.0]]),
    "not positive definite: min eigenvalue": ([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]]),
    "non-finite": ([np.nan, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
}


def assert_rejected_as(role, mean, cov):
    """Single and sweep evaluations reject the bad state in the given role,
    with a message that names the role and the input's violation."""
    text = next(key for key, case in UNPHYSICAL.items() if case[1] == cov)
    pair = {"rho": thermal_state(1.0), "sigma": thermal_state(1.0),
            role: GaussianState(np.array(mean), np.array(cov))}
    pattern = f"^{role} is unphysical: .*{re.escape(text)}"
    with pytest.raises(UnphysicalStateError, match=pattern):
        sandwiched_renyi(pair["rho"], pair["sigma"], 0.5)
    with pytest.raises(UnphysicalStateError, match=pattern):
        sandwiched_renyi_sweep(pair["rho"], pair["sigma"], [0.3, 0.7])


@pytest.mark.parametrize("mean,cov", UNPHYSICAL.values())
def test_unphysical_sigma_rejected(mean, cov):
    assert_rejected_as("sigma", mean, cov)


@pytest.mark.parametrize("mean,cov", UNPHYSICAL.values())
def test_unphysical_rho_rejected(mean, cov):
    assert_rejected_as("rho", mean, cov)


def test_large_displacement_is_a_domain_error():
    # |gamma| = 20 is still exact; at 30 the kernel scale c underflows
    exact = analytic_coherent_thermal(20.0, 1.0, 0.5)
    assert np.isclose(sandwiched_renyi(coherent_state(20.0), thermal_state(1.0), 0.5).divergence,
                      exact, rtol=1e-12)
    with pytest.raises(NotTraceClassError, match="underflows"):
        sandwiched_renyi(coherent_state(30.0), thermal_state(1.0), 0.5)


def _squeeze(n: int, r: float) -> np.ndarray:
    """Symplectic squeeze of mode 0 by r, in the (Re, Im) block ordering."""
    z = np.ones(2 * n)
    z[0], z[n] = math.exp(r), math.exp(-r)
    return np.diag(z)


#: frames a near-bound mode is seen in: name -> symplectic built from an rng.
#: A squeeze of 5 composed with a random symplectic is left out: there the
#: computed spectrum is off by up to ~2e-8, so rounding sets the verdict.
NEAR_BOUND_FRAMES = {
    "diagonal": lambda rng: np.eye(4),
    "random": lambda rng: random_symplectic(rng, 2),
    "squeeze 2, random": lambda rng: _squeeze(2, 2.0) @ random_symplectic(rng, 2),
    "squeeze 5": lambda rng: _squeeze(2, 5.0),
}


@pytest.mark.parametrize("frame", NEAR_BOUND_FRAMES)
@pytest.mark.parametrize("gap,accepted", [(-2e-10, False), (-5e-11, True), (1e-11, True)])
def test_near_bound_verdict_is_frame_invariant(frame, gap, accepted):
    # rho's one physicality check is its symplectic spectrum, which gives the
    # same verdict in every frame; a check on the kernel's Lambda alone would
    # not, since in a frame squeezed by r it sees (d - 1/2) sech^2 r
    thermal = thermal_state([0.9, 1.6])
    for seed in range(5):
        L = NEAR_BOUND_FRAMES[frame](np.random.default_rng(seed))
        base = GaussianState(np.zeros(4), np.diag([0.5 + gap, 1.2, 0.5 + gap, 1.2]))
        state = gaussian_transform(base, L)
        for role, rho, sigma in (("rho", state, thermal), ("sigma", thermal, state)):
            for evaluate in (lambda: sandwiched_renyi(rho, sigma, 0.5),
                             lambda: sandwiched_renyi_sweep(rho, sigma, [0.3, 0.7])):
                if not accepted:
                    with pytest.raises(UnphysicalStateError) as err:
                        evaluate()
                    assert str(err.value) == (
                        f"{role} is unphysical: symplectic eigenvalue d = 0.5 - 2e-10 is below "
                        "the Heisenberg bound 0.5 by more than the slack PHYSICAL_TOL = 1e-10")
                elif role == "sigma":
                    with pytest.raises(NotFaithfulError):  # physical, but pure
                        evaluate()
                else:
                    evaluate()
        if accepted:
            assert np.linalg.eigvalsh(state_to_kernel(state).lam).min() >= -LAM_PSD_TOL


@pytest.mark.parametrize("r", [0.0, 2.0])
@pytest.mark.parametrize("gap", [1e-6, 5e-10])
def test_near_pure_rho_matches_series(gap, r):
    # a nearly pure thermal rho, jointly squeezed with its reference
    rho = GaussianState(np.zeros(2), (0.5 + gap) * np.eye(2))
    sigma = thermal_state(1.2)
    L = _squeeze(1, r)
    value = sandwiched_renyi(gaussian_transform(rho, L), gaussian_transform(sigma, L), 0.5)
    assert abs(value.divergence - thermal_series_divergence(math.log1p(1.0 / gap), 1.2, 0.5)) < 1e-10
