"""End-to-end acceptance checks for the divergence pipeline.

Each test covers one acceptance criterion at its stated tolerance and
records a one-line verdict; conftest echoes the lines after the run so the
per-criterion outcomes are visible in the pytest output.
"""

import math

import numpy as np

from conftest import ACCEPTANCE_LINES
from helpers import (analytic_coherent_thermal, evaluate_kernel, kernel_element,
                     series_thermal_divergence, symplectic_residual)
from gauss_renyi import fock
from gauss_renyi.entropy import fractional_power_contraction, sandwiched_renyi
from gauss_renyi.kernel import (apply_contraction, kernel_to_state,
                                log_kernel_trace, state_to_kernel)
from gauss_renyi.recipes import Recipe, recipe_to_state
from gauss_renyi.sampling import random_faithful_state, random_symplectic
from gauss_renyi.states import coherent_state, gaussian_transform, thermal_state
from gauss_renyi.williamson import williamson_decompose

LN2 = math.log(2.0)
ALPHA_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)


def _verdict(label: str, passed: bool, detail: str) -> None:
    line = f"[{label}] {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def test_1_identity_divergence_vanishes():
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(25):
        state = random_faithful_state(rng, i % 3 + 1)
        for alpha in ALPHA_GRID:
            value = abs(sandwiched_renyi(state, state, alpha).divergence)
            worst = max(worst, value)
    _verdict("1 identity", worst <= 1e-9,
             f"max |D(rho||rho)| = {worst:.3e} over 125 evaluations, tol 1e-9")


def test_2_thermal_pairs_vs_series_and_dense():
    rng = np.random.default_rng(202)
    worst_series, worst_dense = 0.0, 0.0
    for _ in range(20):
        t = float(rng.uniform(0.3, 2.5))
        s = float(rng.uniform(0.8, 3.0))
        # thermal matrices are diagonal: a deep eigenvalue floor is exact
        # and avoids cutting the slowly decaying sandwich tails at large alpha
        rho_d = fock.thermal_density(t, 200)
        sigma_d = fock.thermal_density(s, 200)
        for alpha in ALPHA_GRID:
            closed = sandwiched_renyi(thermal_state(t), thermal_state(s),
                                      alpha).divergence
            worst_series = max(worst_series,
                               abs(closed - series_thermal_divergence(t, s, alpha)))
            dense = fock.dense_sandwiched_renyi(rho_d, sigma_d, alpha,
                                                eig_floor=1e-60)
            worst_dense = max(worst_dense, abs(closed - dense))
    ok = worst_series <= 1e-10 and worst_dense <= 1e-7
    _verdict("2 thermal pairs", ok,
             f"series dev {worst_series:.3e} (tol 1e-10), "
             f"dense dev {worst_dense:.3e} (tol 1e-7), 20 pairs x 5 alphas")


def test_3_coherent_vs_thermal_analytic():
    worst = 0.0
    pure_branch = True
    for gamma in (0.5, 1.0, 2.0):
        for s in (LN2, 1.5):
            for alpha in (0.3, 0.5, 0.7):
                report = sandwiched_renyi(coherent_state(gamma),
                                          thermal_state(s), alpha)
                worst = max(worst, abs(report.divergence
                                       - analytic_coherent_thermal(gamma, s, alpha)))
                pure_branch &= bool(np.all(np.isinf(report.t_Z)))
    _verdict("3 coherent vs thermal", worst <= 1e-9 and pure_branch,
             f"max dev {worst:.3e} over 18 combos, tol 1e-9, "
             f"infinite-parameter branch exercised: {pure_branch}")


def _one_mode_instances():
    """Squeezed-displaced rho (|r| <= 0.5, |gamma| <= 1.5) against thermal or
    squeezed-thermal sigma, deterministic seed."""
    rng = np.random.default_rng(404)
    instances = []
    for i in range(8):
        r = float(rng.uniform(-0.5, 0.5))
        gamma = 1.5 * math.sqrt(float(rng.uniform(0.02, 1.0)))
        gamma = gamma * np.exp(1j * float(rng.uniform(0, 2 * math.pi)))
        rho = Recipe((float(rng.uniform(0.6, 1.6)),),
                     (("squeeze", 0, r), ("displace", 0, complex(gamma))))
        s0 = float(rng.uniform(0.6, 1.6))
        if i % 2:
            sigma = Recipe((s0,), (("squeeze", 0, float(rng.uniform(-0.3, 0.3))),))
        else:
            sigma = Recipe((s0,))
        instances.append((rho, sigma, (0.5, 0.6, 0.7)[i % 3]))
    return instances


def test_4_oracle_equivalence_noncommuting():
    worst1, worst_guard1 = 0.0, 0.0
    for rho_recipe, sigma_recipe, alpha in _one_mode_instances():
        closed = sandwiched_renyi(recipe_to_state(rho_recipe),
                                  recipe_to_state(sigma_recipe), alpha).divergence
        # deep floor: the default one bites sigma's Fock tail at this tolerance
        oracle, residual = fock.dense_renyi_converged(rho_recipe, sigma_recipe,
                                                      alpha, 60, eig_floor=1e-18)
        worst1 = max(worst1, abs(closed - oracle))
        worst_guard1 = max(worst_guard1, residual)

    two_mode = [
        (Recipe((0.8, 1.1), (("squeeze", 0, 0.25), ("beamsplit", 0.6),
                             ("displace", 1, 0.3))),
         Recipe((0.9, 0.7), (("beamsplit", -0.4),)), 0.5),
        (Recipe((0.7, 1.0), (("beamsplit", 0.5), ("displace", 0, 0.3 - 0.2j))),
         Recipe((1.2, 0.8), (("squeeze", 1, -0.2), ("beamsplit", 0.3))), 0.6),
        (Recipe((1.0, 0.6), (("squeeze", 0, 0.3), ("beamsplit", -0.7))),
         Recipe((0.8, 1.3), (("displace", 0, 0.4j),)), 0.5),
    ]
    worst2, worst_guard2 = 0.0, 0.0
    for rho_recipe, sigma_recipe, alpha in two_mode:
        closed = sandwiched_renyi(recipe_to_state(rho_recipe),
                                  recipe_to_state(sigma_recipe), alpha).divergence
        oracle, residual = fock.dense_renyi_converged(rho_recipe, sigma_recipe,
                                                      alpha, 20, guard_cutoff=28)
        worst2 = max(worst2, abs(closed - oracle))
        worst_guard2 = max(worst_guard2, residual)

    ok = (worst1 <= 1e-6 and worst_guard1 <= 1e-7
          and worst2 <= 1e-4 and worst_guard2 <= 5e-5)
    _verdict("4 dense oracle", ok,
             f"1-mode dev {worst1:.3e} (tol 1e-6, guard {worst_guard1:.1e}); "
             f"2-mode dev {worst2:.3e} (tol 1e-4, guard {worst_guard2:.1e})")


def test_5_contracted_trace_formula():
    worst, worst_guard = 0.0, 0.0
    count = 0
    for rho_recipe, sigma_recipe, alpha in _one_mode_instances():
        s = np.array(sigma_recipe.thermal)
        k = fractional_power_contraction(s, alpha)
        z = apply_contraction(state_to_kernel(recipe_to_state(rho_recipe)), k)
        closed = math.exp(log_kernel_trace(z))

        values = []
        for cutoff in (60, 120):
            rho_d = fock.state_to_fock(rho_recipe, cutoff)
            g = fock.gamma_contraction(k, 1, cutoff)
            values.append(float(np.trace(g @ rho_d @ g).real))
        worst = max(worst, abs(closed - values[1]))
        worst_guard = max(worst_guard, abs(values[1] - values[0]))
        count += 1
    ok = worst <= 1e-8 and worst_guard <= 1e-9
    _verdict("5 trace formula", ok,
             f"max |closed - dense| = {worst:.3e} over {count} instances, "
             f"tol 1e-8, guard {worst_guard:.1e}")


def test_6_round_trips():
    rng = np.random.default_rng(606)
    worst_kernel, worst_diag, worst_symp = 0.0, 0.0, 0.0
    for i in range(100):
        state = random_faithful_state(rng, i % 3 + 1)
        back = kernel_to_state(state_to_kernel(state))
        worst_kernel = max(worst_kernel,
                           float(np.max(np.abs(back.mean - state.mean))),
                           float(np.max(np.abs(back.cov - state.cov))))
        form = williamson_decompose(state.cov)
        D = np.diag(np.concatenate([form.d, form.d]))
        worst_diag = max(worst_diag,
                         float(np.max(np.abs(form.L.T @ state.cov @ form.L - D))))
        worst_symp = max(worst_symp, symplectic_residual(form.L))
    ok = worst_kernel <= 1e-10 and worst_diag <= 1e-8 and worst_symp <= 1e-10
    _verdict("6 round trips", ok,
             f"kernel {worst_kernel:.3e} (tol 1e-10), diagonalization "
             f"{worst_diag:.3e} (tol 1e-8), symplectic {worst_symp:.3e} (tol 1e-10)")


def test_7_invariance_and_monotonicity():
    rng = np.random.default_rng(707)
    worst_inv, worst_slack = 0.0, 0.0
    for i in range(20):
        n = i % 2 + 1
        rho = random_faithful_state(rng, n)
        sigma = random_faithful_state(rng, n)
        L = random_symplectic(rng, n)
        shift = rng.normal(scale=0.4, size=2 * n)
        alpha = ALPHA_GRID[i % 5]
        d0 = sandwiched_renyi(rho, sigma, alpha).divergence
        d1 = sandwiched_renyi(gaussian_transform(rho, L, shift=shift),
                              gaussian_transform(sigma, L, shift=shift),
                              alpha).divergence
        worst_inv = max(worst_inv, abs(d0 - d1))

        values = [sandwiched_renyi(rho, sigma, a).divergence for a in ALPHA_GRID]
        drop = max(a - b for a, b in zip(values, values[1:]))
        worst_slack = max(worst_slack, drop)
    ok = worst_inv <= 1e-8 and worst_slack <= 1e-9
    _verdict("7 invariance+monotone", ok,
             f"unitary invariance dev {worst_inv:.3e} (tol 1e-8), "
             f"max monotonicity violation {worst_slack:.3e} (slack 1e-9), 20 pairs")


def test_8_generating_function_audit():
    grid = (0.0, 0.3, -0.3, 0.21 + 0.21j, -0.15 - 0.25j)
    states = {
        "vacuum": Recipe((math.inf,)),
        "thermal": Recipe((0.8,)),
        "coherent": Recipe((math.inf,), (("displace", 0, 0.7 - 0.4j),)),
        "squeezed": Recipe((math.inf,), (("squeeze", 0, 0.45),)),
    }
    cutoff = 60
    worst = 0.0
    for recipe in states.values():
        rho_d = fock.state_to_fock(recipe, cutoff)
        kernel = state_to_kernel(recipe_to_state(recipe))
        for u in grid:
            for v in grid:
                dense = kernel_element(rho_d, u, v, cutoff)
                closed = evaluate_kernel(kernel, [u], [v])
                worst = max(worst, abs(dense - closed))
    _verdict("8 kernel audit", worst <= 1e-6,
             f"max element dev {worst:.3e} over 4 states x 5x5 grid, tol 1e-6")
