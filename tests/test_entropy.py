"""Closed-form divergence pipeline: frozen values, invariances, error paths."""

import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import analytic_coherent_thermal, gaussian_channel, series_thermal_divergence
import gauss_renyi.entropy as entropy
from gauss_renyi.entropy import (EntropyReport, fractional_power_contraction,
                                 log_thermal_norm, reduce_to_thermal,
                                 sandwiched_renyi, sandwiched_renyi_sweep)
from gauss_renyi.exceptions import (AlphaRangeError, NotFaithfulError,
                                    NotTraceClassError, UnphysicalStateError)
from gauss_renyi.kernel import state_to_kernel
from gauss_renyi.sampling import (random_faithful_state, random_orthogonal_symplectic,
                                  random_symplectic)
from gauss_renyi.states import (GaussianState, coherent_state, gaussian_transform,
                                squeezed_vacuum, tensor, thermal_state)
from gauss_renyi.verify import coherent_thermal_divergence, thermal_series_divergence
from gauss_renyi.williamson import PHYSICAL_TOL

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


@pytest.mark.parametrize("alpha,bound", [(0.05, 1e-3), (0.1, 1e-8)])
def test_joint_unitary_invariance_at_small_alpha(alpha, bound):
    # pins COV_GAP_FLOOR's role in the t_Z fallback: it snaps to 1/2 the
    # d - 1/2 that are rounding noise, which differs from frame to frame.
    # At alpha = 0.05 the spread reads 5.3e-5 (median 8.5e-7) with the snap
    # and 0.6 (median 0.015) without it; ROADMAP item 5's one t_Z route
    # should tighten 1e-3.  At alpha = 0.1 it reads 6.4e-9 against criterion
    # 7's 1e-8: the fallback takes the smaller value of each singular pair
    # (the complex eigensolve it replaced read 3.2e-8).
    spread = []
    for seed in range(40):
        rng = np.random.default_rng(5000 + seed)
        rho, sigma = random_faithful_state(rng, 8), random_faithful_state(rng, 8)
        L, shift = random_symplectic(rng, 8), rng.normal(scale=0.5, size=16)
        d0 = sandwiched_renyi(rho, sigma, alpha).divergence
        d1 = sandwiched_renyi(gaussian_transform(rho, L, shift=shift),
                              gaussian_transform(sigma, L, shift=shift), alpha).divergence
        spread.append(abs(d1 - d0) / d0)
    assert max(spread) <= bound, (int(np.argmax(spread)), max(spread))


def _test_channels(rng, n: int) -> dict:
    """(X, Y) of S -> X S X^T + Y for each channel of the data-processing test."""
    eye = np.eye(2 * n)
    loss = (math.sqrt(0.7) * eye, 0.3 * (0.2 + 0.5) * eye)  # eta = 0.7, N = 0.2
    keep = [j for j in range(2 * n) if j not in (n - 1, 2 * n - 1)]
    return {
        "thermal loss": loss,
        "amplifier": (math.sqrt(1.5) * eye, 0.25 * eye),  # quantum limited, G = 1.5
        "additive noise": (eye, 0.3 * eye),
        "partial trace": (eye[keep], np.zeros((len(keep), len(keep)))),
        "passive, then loss": (loss[0] @ random_orthogonal_symplectic(rng, n), loss[1]),
    }


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_data_processing_inequality(n):
    # a channel applied to both states does not increase D_alpha for alpha >= 1/2
    alphas = [0.5, 0.7, 0.9, 0.99]
    for seed in range(15):
        rng = np.random.default_rng(1000 * n + seed)
        rho, sigma = random_faithful_state(rng, n), random_faithful_state(rng, n)
        before = sandwiched_renyi_sweep(rho, sigma, alphas)
        for name, (X, Y) in _test_channels(rng, n).items():
            after = sandwiched_renyi_sweep(gaussian_channel(rho, X, Y),
                                           gaussian_channel(sigma, X, Y), alphas)
            for alpha, old, new in zip(alphas, before, after):
                assert new.divergence <= old.divergence * (1.0 + 1e-12), (seed, name, alpha)


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


#: rho at t = 0.3 in every mode against sigma's [2.0, 1.5, 2.4]: A = 0, so
#: every order reads t_Z off K Lambda K = k^2 e^-0.3, up to 0.73 at alpha = 0.99
MIXED_RHO, MIXED_SIGMA, MIXED_S = thermal_state([0.3] * 3), thermal_state([2.0, 1.5, 2.4]), (2.0, 1.5, 2.4)


def test_mixed_branch_sweep_matches_series_and_single_calls(monkeypatch):
    grid = np.linspace(0.3, 0.99, 64)
    fallbacks = fallback_orders(monkeypatch)
    reports = sandwiched_renyi_sweep(MIXED_RHO, MIXED_SIGMA, grid)
    assert fallbacks == []  # pair-free at every order
    for alpha, report in zip(grid, reports):
        assert report.alpha == alpha
        series = sum(thermal_series_divergence(0.3, s, alpha) for s in MIXED_S)
        assert abs(report.divergence - series) < 1e-12
        assert_same_report(report, sandwiched_renyi(MIXED_RHO, MIXED_SIGMA, alpha))


def test_sweep_splits_stacks_at_large_n(rng, monkeypatch):
    # at n = 32 the per-order stage stacks 32768 // 64^2 = 8 orders at a time
    rho, sigma = random_faithful_state(rng, 32), random_faithful_state(rng, 32)
    alphas = np.linspace(0.35, 0.95, 10)
    stacks = []
    contract = entropy.apply_contraction

    def recorded(kernel, k):
        stacks.append(len(k))
        return contract(kernel, k)

    monkeypatch.setattr(entropy, "apply_contraction", recorded)
    reports = sandwiched_renyi_sweep(rho, sigma, alphas)
    assert stacks == [8, 2]
    for alpha, report in zip(alphas, reports):
        assert_same_report(report, sandwiched_renyi(rho, sigma, alpha))


#: tracemalloc peak, in bytes, of the sweep below when each stack of 4 orders
#: built its complex contracted kernels and real form matrices anew and the
#: covariance fallback kept all its temporaries to the eigensolve: 1,561,580
#: to 1,563,795 over five runs (NumPy 2.4, Python 3.11); the lowest is the bound
FALLBACK_SWEEP_PEAK_BEFORE = 1_561_580


def test_fallback_sweep_peak_memory(rng, monkeypatch):
    # stacks of 8 orders at n = 32 scale one real base per call, and the
    # fallback frees each temporary once the next exists, in no more memory
    rho, sigma = random_faithful_state(rng, 32), random_faithful_state(rng, 32)
    alphas = np.linspace(0.3, 0.99, 64)
    fallbacks = fallback_orders(monkeypatch)
    sandwiched_renyi_sweep(rho, sigma, alphas)
    assert sum(fallbacks) == alphas.size  # every order takes the fallback
    monkeypatch.undo()
    tracemalloc.start()
    try:
        sandwiched_renyi_sweep(rho, sigma, alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= FALLBACK_SWEEP_PEAK_BEFORE


def test_sweep_keeps_input_order():
    reports = sandwiched_renyi_sweep(MIXED_RHO, MIXED_SIGMA, [0.9, 0.3, 0.9])
    assert [r.alpha for r in reports] == [0.9, 0.3, 0.9]
    for report in reports:
        assert_same_report(report, sandwiched_renyi(MIXED_RHO, MIXED_SIGMA, report.alpha))
    assert_same_report(reports[0], reports[2])
    assert sandwiched_renyi_sweep(MIXED_RHO, MIXED_SIGMA, []) == []


#: a 50:50 beam splitter on both modes, as the block matrix of gaussian_transform
BEAM_SPLITTER = np.kron(np.eye(2), np.sqrt(0.5) * np.array([[1.0, 1.0], [-1.0, 1.0]]))


def contracted_blocks(rho, s, alpha):
    """K A K and K Lambda K of rho's contracted kernel in the frame of thermal(s)."""
    kernel = state_to_kernel(reduce_to_thermal(rho, thermal_state(s))[0])
    _, A, lam = kernel.quadruple()
    k = fractional_power_contraction(s, alpha)
    return np.outer(k, k) * A, np.outer(k, k) * lam


def test_pair_free_without_pairs_at_every_order(monkeypatch):
    # the beam splitter leaves A = 0 but makes Lambda non-diagonal; the orders
    # where ||K Lambda K||_2 passes 1/2 read t_Z off K Lambda K too, within
    # 1e-13 of the covariance route
    rho = gaussian_transform(thermal_state([0.1, 3.0]), BEAM_SPLITTER)
    sigma, grid = thermal_state([1.0, 1.3]), np.linspace(0.3, 0.99, 24)
    hot = [np.linalg.norm(contracted_blocks(rho, [1.0, 1.3], a)[1], 2) > 0.5 for a in grid]
    assert 0 < sum(hot) < grid.size
    fallbacks = fallback_orders(monkeypatch)
    reports = [sandwiched_renyi(rho, sigma, alpha) for alpha in grid]
    assert fallbacks == []
    monkeypatch.setattr(entropy, "PAIR_FREE_ERROR", -1.0)  # every order falls back
    for report, moved in zip(reports, hot):
        if moved:
            covariance = sandwiched_renyi(rho, sigma, report.alpha)
            assert abs(report.divergence - covariance.divergence) < 1e-13
            assert np.abs(report.t_Z - covariance.t_Z).max() < 1e-13


def test_pair_free_bound_reads_the_spectral_norm(monkeypatch):
    # a hot rho squeezed by 3e-7 in the beam splitter's frame: its orders
    # cross the bound inside one stack, and take the fallback exactly where
    # 4 ||K A K||_F^2 / (1 - ||K Lambda K||_2^2) exceeds PAIR_FREE_ERROR; with
    # Lambda's largest diagonal entry in place of its norm, some would not
    r = 3e-7
    rho = gaussian_transform(thermal_state([0.1, 3.0]),
                             BEAM_SPLITTER @ np.diag(np.exp([r, r, -r, -r])))
    sigma, grid = thermal_state([1.0, 1.3]), np.linspace(0.3, 0.99, 64)
    expected, diagonal_only = [], 0
    for alpha in grid:
        pairs, lam = contracted_blocks(rho, [1.0, 1.3], alpha)
        pair = 4 * np.linalg.norm(pairs) ** 2
        expected.append(pair > entropy.PAIR_FREE_ERROR * (1 - np.linalg.norm(lam, 2) ** 2))
        diagonal = pair > entropy.PAIR_FREE_ERROR * (1 - np.diag(lam).real.max() ** 2)
        diagonal_only += expected[-1] and not diagonal
    assert 0 < diagonal_only and 0 < sum(expected) < grid.size
    fallbacks = fallback_orders(monkeypatch)
    reports = sandwiched_renyi_sweep(rho, sigma, grid)
    assert fallbacks == [sum(expected)]  # one stack, both branches
    for alpha, report, fallback in zip(grid, reports, expected):
        fallbacks.clear()
        assert_same_report(report, sandwiched_renyi(rho, sigma, alpha))
        assert fallbacks == ([1] if fallback else [])


def branch_exp_t_z(monkeypatch, rho, s, alpha, pair_free: bool) -> np.ndarray:
    """e^-t_Z of one order, ascending, with every order forced onto one branch."""
    monkeypatch.setattr(entropy, "PAIR_FREE_ERROR", np.inf if pair_free else -1.0)
    kernel = state_to_kernel(reduce_to_thermal(rho, thermal_state(s))[0])
    z = entropy.apply_contraction(kernel, fractional_power_contraction(s, [alpha]))
    return np.sort(np.exp(-entropy._contracted_thermal_parameters(z)[0]))


#: relative rounding of the covariance fallback's e^-t_Z on these inputs: at
#: most 9.2e-14 over 200 unsqueezed pairs, where the bound is 0
FALLBACK_ROUNDING = 2e-13


def test_pair_free_error_bound(rng, monkeypatch):
    # reading t_Z off K Lambda K misses the fallback's e^-t_Z by at most
    # 4 ||K A K||_F^2 / (1 - lambda_max^2) relative, for pairs squeezed by
    # 1e-6 to 1e-3, which is what PAIR_FREE_ERROR bounds
    worst = 0.0
    for trial in range(40):
        n, eps = 2 + trial % 3, 10.0 ** rng.uniform(-6, -3)
        r = rng.uniform(-eps, eps, size=n)
        frame = (random_orthogonal_symplectic(rng, n) @ np.diag(np.exp(np.concatenate([r, -r])))
                 @ random_orthogonal_symplectic(rng, n))
        rho = gaussian_transform(thermal_state(rng.uniform(0.25, 2.2, size=n)), frame)
        s, alpha = np.sort(rng.uniform(0.5, 2.0, size=n)), rng.uniform(0.3, 0.95)
        free = branch_exp_t_z(monkeypatch, rho, s, alpha, True)
        error = np.abs(free / branch_exp_t_z(monkeypatch, rho, s, alpha, False) - 1).max()
        pairs, _ = contracted_blocks(rho, s, alpha)
        bound = 4 * np.linalg.norm(pairs) ** 2 / (1 - free.max() ** 2)
        assert error <= bound + FALLBACK_ROUNDING
        worst = max(worst, error / bound)
    assert 0.2 < worst  # the bound is not loose by orders of magnitude
    # one mode meets it with equality: K Lambda K is low by 4 |K A K|^2 / (1 - lambda^2)
    for t, s, alpha, r in [(0.3, 1.0, 0.5, 1e-3), (0.1, 0.5, 0.9, 1e-3), (0.05, 0.2, 0.95, 1e-4)]:
        rho = gaussian_transform(thermal_state(t), np.diag([np.exp(r), np.exp(-r)]))
        free = branch_exp_t_z(monkeypatch, rho, [s], alpha, True)
        error = 1 - free[0] / branch_exp_t_z(monkeypatch, rho, [s], alpha, False)[0]
        pairs, _ = contracted_blocks(rho, [s], alpha)
        assert abs(error * (1 - free[0] ** 2) / abs(pairs[0, 0]) ** 2 - 4) < 1e-4


def test_reduce_to_thermal_orders_parameters(rng):
    sigma = random_faithful_state(rng, 3)
    rho = random_faithful_state(rng, 3)
    _, s, _ = reduce_to_thermal(rho, sigma)
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
    assert "counts as pure" not in message  # such a mode is mixed, and fails the margin


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
    # the one displacement limit is the corner 1e300 of the trace's bordered
    # factor, which b . M^{-1} b = e^-1 |gamma|^2 passes between 1e149 and 1e151
    value = sandwiched_renyi(coherent_state(1e149), thermal_state(1.0), 0.5).divergence
    exact = analytic_coherent_thermal(1e149, 1.0, 0.5)
    assert abs(value - exact) <= 1e-12 * exact
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotTraceClassError, match=r"squared displacement, is past 1e\+300"):
            sandwiched_renyi(coherent_state(1e151), thermal_state(1.0), 0.5)
    # from |gamma| = 1.3e154 |gamma|^2 overflows a double, and the kernel's
    # ln c check raises without a RuntimeWarning; at alpha = 0.01 the
    # contraction would keep b . M^{-1} b below the border
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for alpha in (0.5, 0.01):
            with pytest.raises(NotTraceClassError, match=r"\|m\|\^2 in ln c overflows"):
                sandwiched_renyi(coherent_state(1e155), thermal_state(1.0), alpha)


@pytest.mark.parametrize("s", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("gamma", [26.6, 27.0, 27.28, 30.0, 100.0, 1000.0, 1e5, 1e12])
def test_large_displacement_matches_closed_form(gamma, s):
    # ln c = -|gamma|^2 is carried as a log: c = e^(ln c) is subnormal past
    # |gamma| = 26.6 and 0 past 27.3, and limits nothing
    reports = sandwiched_renyi_sweep(coherent_state(gamma), thermal_state(s),
                                     [0.01, 0.1, 0.5, 0.9])
    for report in reports:
        exact = analytic_coherent_thermal(gamma, s, report.alpha)
        assert abs(report.divergence - exact) <= 1e-12 * exact, report.alpha


#: 50-digit mpmath values at alpha = 0.5 of coherent 0.5 and thermal 0.3
#: against hot references thermal_state(s), whose d = coth(s/2)/2 reaches 1e12
HOT_SIGMA = {2e-8: (17.727533578392420075, 15.135393988581744451),
             1e-9: (20.723265837696411094, 18.131126135231662193),
             1e-12: (27.631021115929298228, 25.038881407541316519)}


@pytest.mark.parametrize("s", sorted(HOT_SIGMA))
def test_hot_sigma_matches_mpmath(s):
    # Williamson's residue scales with d_max, so a hot sigma is not rejected
    # on rounding alone
    for rho, exact in zip((coherent_state(0.5), thermal_state(0.3)), HOT_SIGMA[s]):
        value = sandwiched_renyi(rho, thermal_state(s), 0.5).divergence
        assert abs(value - exact) <= 1e-15 * exact


#: 50-digit mpmath values at alpha = 0.5 of rho = diag(d, d) against thermal 1.0
HOT_RHO = {1e11: 23.921606909207622212, 1e12: 26.22419200218329445,
           1e13: 28.526777095175502789}


@pytest.mark.parametrize("d", sorted(HOT_RHO))
def test_hot_rho_oracles_and_pipeline_match_mpmath(d):
    # ln(1 - e^-t) at t ~ 1/d keeps its digits only as log(-expm1(-t))
    exact, t = HOT_RHO[d], math.log1p(1.0 / (d - 0.5))
    rho = GaussianState(np.zeros(2), d * np.eye(2))
    for value in (thermal_series_divergence(t, 1.0, 0.5),
                  series_thermal_divergence(t, 1.0, 0.5),
                  sandwiched_renyi(rho, thermal_state(1.0), 0.5).divergence):
        assert abs(value - exact) <= 1e-15 * exact


def test_coherent_oracles_match_mpmath_against_hot_sigma():
    exact = 13.815511307964107483  # 50-digit mpmath, gamma = 0.5, s = 1e-6
    for value in (coherent_thermal_divergence(0.5, 1e-6, 0.5),
                  analytic_coherent_thermal(0.5, 1e-6, 0.5),
                  sandwiched_renyi(coherent_state(0.5), thermal_state(1e-6), 0.5).divergence):
        assert abs(value - exact) <= 1e-15 * exact


def test_displacement_limit_is_not_per_mode():
    # sum_j |gamma_j|^2 = 740 puts ln c below -708.4, although each |gamma_j|
    # is far below 26.6
    report = sandwiched_renyi(coherent_state([3.4] * 64), thermal_state([1.0] * 64), 0.5)
    exact = 64 * analytic_coherent_thermal(3.4, 1.0, 0.5)
    assert abs(report.divergence - exact) <= 1e-12 * exact


def test_strongly_displaced_mixed_pair_is_unitary_invariant():
    # means of scale 150, so ln c is about -1e5 in either frame
    rng = np.random.default_rng(3)
    rho, sigma = (random_faithful_state(rng, 3, mean_scale=150.0) for _ in range(2))
    L, shift = random_symplectic(rng, 3), rng.normal(scale=150.0, size=6)
    frame = lambda state: gaussian_transform(state, L, shift=shift)
    alphas = [0.1, 0.5, 0.9]
    before = sandwiched_renyi_sweep(rho, sigma, alphas)
    after = sandwiched_renyi_sweep(frame(rho), frame(sigma), alphas)
    for a, b in zip(before, after):
        assert a.divergence > 1e4
        assert abs(a.divergence - b.divergence) <= 1e-12 * a.divergence, a.alpha


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
            assert np.linalg.eigvalsh(state_to_kernel(state).quadruple()[2]).min() >= -PHYSICAL_TOL


@pytest.mark.parametrize("r", [0.0, 2.0, 5.0])
@pytest.mark.parametrize("gap", [1e-6, 5e-10, 1e-10])
def test_near_pure_rho_matches_series(gap, r):
    # a nearly pure thermal rho, jointly squeezed with its reference
    rho = GaussianState(np.zeros(2), (0.5 + gap) * np.eye(2))
    sigma = thermal_state(1.2)
    L = _squeeze(1, r)
    value = sandwiched_renyi(gaussian_transform(rho, L), gaussian_transform(sigma, L), 0.5)
    assert abs(value.divergence - thermal_series_divergence(math.log1p(1.0 / gap), 1.2, 0.5)) < 1e-10


@pytest.mark.parametrize("r", [4.0, 5.0])
def test_squeezed_vacuum_in_a_random_frame_is_accepted(r):
    # a pure mode squeezed by r, next to a thermal one, in a random frame: its
    # computed d strays from 1/2 by up to 3.4e-10 at r = 4 and 1.5e-8 at r = 5
    # on these seeds, past PHYSICAL_TOL, but within its floor tau, so the mode
    # counts as pure, and the value is the closed form's
    exact = (pure_product_divergence([r], [0.9], 0.5)
             + thermal_series_divergence(1.0, 1.6, 0.5))
    for seed in range(20):
        L = random_symplectic(np.random.default_rng(seed), 2)
        rho = gaussian_transform(tensor(squeezed_vacuum(r), thermal_state(1.0)), L)
        report = sandwiched_renyi(rho, gaussian_transform(thermal_state([0.9, 1.6]), L), 0.5)
        assert np.isinf(report.t_Z).sum() == 1
        assert abs(report.divergence - exact) <= 1e-12 * exact, seed


#: orders down to the range where the contraction underflows
PURE_ALPHAS = [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 0.9]


def pure_product_divergence(modes, s, alpha: float) -> float:
    """Rank-one closed form for a product of coherent (complex gamma) and
    squeezed-vacuum (real r) modes against thermal(s):
    D = alpha/(alpha-1) ln <psi| sigma^p |psi>, p = (1-alpha)/alpha, with
    sigma^p = (1-e^-s)^p e^(-p s N) per mode, <gamma|e^(-xN)|gamma> =
    exp(-|gamma|^2 (1-e^-x)) and <r|e^(-xN)|r> = 1/(cosh r sqrt(1-tanh^2 r e^-2x))
    from the squeezed vacuum's photon-number generating function."""
    p = (1.0 - alpha) / alpha
    ln_overlap = 0.0
    for mode, sj in zip(modes, s):
        ln_overlap += p * math.log(-math.expm1(-sj))
        if isinstance(mode, complex):
            ln_overlap += abs(mode) ** 2 * math.expm1(-p * sj)
        else:
            ln_overlap -= (math.log(math.cosh(mode))
                           + 0.5 * math.log1p(-math.tanh(mode) ** 2 * math.exp(-2.0 * p * sj)))
    return alpha / (alpha - 1.0) * ln_overlap


@pytest.mark.parametrize("n", [1, 4, 8])
@pytest.mark.parametrize("first", ["coherent", "squeezed"])
def test_pure_rho_in_random_frames_matches_rank_one_form(n, first):
    rng = np.random.default_rng(n)
    modes = [complex(*rng.normal(scale=0.7, size=2)) if (j % 2 == 0) == (first == "coherent")
             else float(rng.uniform(-0.5, 0.5)) for j in range(n)]
    states = [coherent_state(m) if isinstance(m, complex) else squeezed_vacuum(m) for m in modes]
    rho = functools.reduce(tensor, states)
    s = rng.uniform(0.3, 2.5, size=n)
    L, shift = random_symplectic(rng, n), rng.normal(size=2 * n)
    frame = lambda state: gaussian_transform(state, L, shift=shift)
    reports = sandwiched_renyi_sweep(frame(rho), frame(thermal_state(s)), PURE_ALPHAS)
    for alpha, report in zip(PURE_ALPHAS, reports):
        assert np.isinf(report.t_Z).all()
        exact = pure_product_divergence(modes, s, alpha)
        assert abs(report.divergence - exact) <= 1e-12 * abs(exact), alpha


@pytest.mark.parametrize("alpha", [0.1, 0.02, 0.01])
def test_coherent_product_f1_case_is_exact(alpha):
    # a pure rho whose t_Z used to come from rounding noise in Lambda (F1)
    s = [1.7, 0.4, 1.1, 2.0, 0.6, 1.4, 0.9, 0.3]
    report = sandwiched_renyi(coherent_state([0.5] * 8), thermal_state(s), alpha)
    exact = sum(coherent_thermal_divergence(0.5, sj, alpha) for sj in s)
    assert abs(report.divergence - exact) <= 1e-12 * exact


@pytest.mark.parametrize("n,seed", [(2, 2), (2, 3), (4, 1), (4, 2), (8, 0), (8, 1)])
def test_partly_pure_rho_in_random_frames_matches_closed_forms(n, seed):
    # coherent (pure) and thermal (mixed) modes under one joint unitary: the
    # t_Z stage reads the sandwich's pure modes as rounding noise, finite
    # (F1), so they are taken as inf from rho's count.  On these seeds the
    # noise moved the value by 3e-3 to 3e-2.  The count holds in frames
    # squeezed by up to 2 too
    for max_squeeze in (0.3, 1.0, 2.0):
        rng = np.random.default_rng(seed)
        gamma = [complex(*rng.normal(scale=0.5, size=2)) for _ in range(n // 2)]
        t = rng.uniform(1.0, 2.5, size=n - n // 2)
        s = rng.uniform(0.3, 2.5, size=n)
        L = random_symplectic(rng, n, max_squeeze=max_squeeze)
        shift = rng.normal(scale=0.5, size=2 * n)
        frame = lambda state: gaussian_transform(state, L, shift=shift)
        rho = frame(tensor(coherent_state(gamma), thermal_state(t)))
        for alpha in (0.5, 0.1):
            report = sandwiched_renyi(rho, frame(thermal_state(s)), alpha)
            assert np.isinf(report.t_Z).sum() == n // 2
            exact = (sum(analytic_coherent_thermal(g, sj, alpha) for g, sj in zip(gamma, s))
                     + sum(series_thermal_divergence(tj, sj, alpha)
                           for tj, sj in zip(t, s[n // 2:])))
            assert abs(report.divergence - exact) <= 1e-12 * exact, (max_squeeze, alpha)


@pytest.mark.parametrize("rho", [
    thermal_state(32.0),  # d - 1/2 = 1.3e-14: above the purity noise floor
    thermal_state(33.0),  # d - 1/2 = 4.7e-15: above its floor tau = 1.3e-15
    thermal_state(math.log1p(1.0 / 5e-10)),  # inside sigma's PURE_TOL, but mixed (t = 21.4)
], ids=["t=32", "t=33", "gap=5e-10"])
def test_nearly_pure_rho_keeps_finite_t_z(rho):
    report = sandwiched_renyi(rho, thermal_state(1.2), 0.1)
    t = math.log1p(1.0 / (rho.cov[0, 0] - 0.5))  # of the stored covariance
    # t_Z = t + s (1-alpha)/alpha, where e^(-t) carries the stored d - 1/2's
    # relative rounding of about eps/(d - 1/2), 1 % at t = 32, and the same
    # again from rho's kernel (I/2 + S rounds it too)
    assert np.isfinite(report.t_Z).all()
    assert abs(report.t_Z[0] - (t + 1.2 * (1.0 - 0.1) / 0.1)) < 0.05
    # so the value is the mixed one, to within that rounding (2e-3 of the gap
    # at t = 32), not the pure one that drops p(alpha t_Z)
    mixed = thermal_series_divergence(t, 1.2, 0.1)
    pure = thermal_series_divergence(math.inf, 1.2, 0.1)
    assert abs(report.divergence - mixed) < 1e-2 * abs(pure - mixed)


def test_nearly_pure_rho_in_a_squeezed_frame_counts_as_pure():
    # d - 1/2 = 1e-13 (t = 29.9), squeezed by 3 in a random frame shared with
    # sigma: the float covariance does not resolve that gap.  Its exact gap is
    # 1.95e-13, and changes of at most 1 ulp in its three entries move it over
    # [-1.5e-12, 1.9e-12] (60-digit mpmath); its floor is tau = 2.7e-11, so the
    # mode is taken as the vacuum, to 1.4e-12 of the pure value
    L = _squeeze(1, 3.0) @ random_symplectic(np.random.default_rng(0), 1)
    rho = gaussian_transform(GaussianState(np.zeros(2), (0.5 + 1e-13) * np.eye(2)), L)
    report = sandwiched_renyi(rho, gaussian_transform(thermal_state(1.2), L), 0.01)
    assert np.isinf(report.t_Z).all()
    assert math.isclose(report.divergence, coherent_thermal_divergence(0.0, 1.2, 0.01),
                        rel_tol=1e-11)


def test_thermal_rho_past_the_noise_floor_counts_as_pure():
    # thermal_state(35) has d - 1/2 = 6.7e-16, within its floor tau = 1.3e-15,
    # so it is taken as the vacuum, which drops p(alpha t_Z),
    # t_Z = 35 + 1.2 (1-alpha)/alpha
    alpha = 0.1
    report = sandwiched_renyi(thermal_state(35.0), thermal_state(1.2), alpha)
    assert np.isinf(report.t_Z).all()
    assert math.isclose(report.divergence, coherent_thermal_divergence(0.0, 1.2, alpha),
                        rel_tol=1e-12)
    dropped = -math.log1p(-math.exp(-alpha * (35.0 + 1.2 * (1.0 - alpha) / alpha)))
    assert math.isclose(report.divergence - thermal_series_divergence(35.0, 1.2, alpha),
                        dropped / (1.0 - alpha), rel_tol=1e-6)


@pytest.mark.parametrize("alpha", [0.1, 0.01])
def test_thermal_mode_past_the_noise_floor_in_a_mixed_rho_counts_as_pure(alpha):
    # rho's pure modes are counted one by one, so the t = 35 mode is taken as
    # the vacuum next to a mixed one (tau = 1.8e-15); the cost is that mode's
    # dropped p(alpha t_Z), as for thermal_state(35) alone: 1.0e-2 at
    # alpha = 0.1 and 0.25 at 0.01.  A t = 32 mode stays mixed
    report = sandwiched_renyi(thermal_state([35.0, 1.0]), thermal_state([1.2, 0.8]), alpha)
    assert np.isinf(report.t_Z).sum() == 1
    rest = thermal_series_divergence(1.0, 0.8, alpha)
    assert math.isclose(report.divergence, coherent_thermal_divergence(0.0, 1.2, alpha) + rest,
                        rel_tol=1e-12)
    dropped = -math.log1p(-math.exp(-alpha * (35.0 + 1.2 * (1.0 - alpha) / alpha)))
    mixed = thermal_series_divergence(35.0, 1.2, alpha) + rest
    assert math.isclose(report.divergence - mixed, dropped / (1.0 - alpha), rel_tol=1e-6)
    report = sandwiched_renyi(thermal_state([32.0, 1.0]), thermal_state([1.2, 0.8]), alpha)
    assert np.isfinite(report.t_Z).all()


def test_repeated_sweep_faults_in_no_pages(rng):
    # the package keeps freed temporaries in the heap (gauss_renyi._heap), so
    # a second sweep reuses the pages of the first; with glibc's default
    # malloc thresholds an n = 32 sweep faults in about 5,100 of them again
    from gauss_renyi._heap import keep_freed_memory

    if not keep_freed_memory():
        pytest.skip("malloc thresholds are set only under glibc")
    resource = pytest.importorskip("resource")
    rho, sigma = random_faithful_state(rng, 32), random_faithful_state(rng, 32)
    alphas = np.linspace(0.3, 0.99, 64)
    sandwiched_renyi_sweep(rho, sigma, alphas)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sandwiched_renyi_sweep(rho, sigma, alphas)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100
