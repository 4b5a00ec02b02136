"""The defect ledger: one strict xfail per open defect of README "Known limits".

Each test states the defect's measured size and asserts what a fix must
deliver, so a change that mends a defect turns its test from xfail to
XPASS, which fails the run until the marker goes.  References are the
60-digit closed forms of the float inputs, the pipeline's formula replayed
at 150 digits (helpers.replay_divergence), or the benchmark's family b
closed forms (perfbench/families.py).
"""

import math
import pathlib
import sys

import mpmath
import numpy as np
import pytest

from helpers import replay_divergence
from gauss_renyi import NotTraceClassError, sandwiched_renyi, sandwiched_renyi_sweep, thermal_state
from gauss_renyi.entropy import reduce_to_thermal
from gauss_renyi.sampling import random_faithful_state
from gauss_renyi.states import GaussianState

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import families  # noqa: E402


def thermal_closed_form(t: float, s: float, alpha: float) -> float:
    """D_alpha of thermal_state(t) against thermal_state(s), at 60 digits from
    the float covariances: t = ln((d + 1/2)/(d - 1/2)) of each stored d."""
    with mpmath.workdps(60):
        def exact_t(x):
            d = mpmath.mpf(thermal_state(x).cov[0, 0])
            return mpmath.log((d + 0.5) / (d - 0.5))

        t, s, a = exact_t(t), exact_t(s), mpmath.mpf(alpha)
        log_t_alpha = (a * mpmath.log(-mpmath.expm1(-t)) + (1 - a) * mpmath.log(-mpmath.expm1(-s))
                       - mpmath.log(-mpmath.expm1(-(a * t + (1 - a) * s))))
        return float(log_t_alpha / (a - 1))


@pytest.mark.xfail(strict=True, reason="small orders on generic mixed pairs (ROADMAP item 5): the "
                   "covariance fallback returns t_Z of 40-100 as inf; this pair returns 1.0943 "
                   "where the 150-digit replay gives 0.08506")
def test_small_order_generic_mixed_pair():
    rng = np.random.default_rng(1000 * 4 + 3)
    rho, sigma = random_faithful_state(rng, 4), random_faithful_state(rng, 4)
    exact, _ = replay_divergence(*reduce_to_thermal(rho, sigma)[:2], 0.02, dps=150)
    assert abs(exact - 0.08506) < 1e-5
    assert abs(sandwiched_renyi(rho, sigma, 0.02).divergence - exact) <= 1e-12 * abs(exact)


@pytest.mark.xfail(strict=True, reason="partly pure rho at small orders (benchmark family b, "
                   "ROADMAP item 5): seed 1007 at n = 4 reads t_Z = 71.2 where 103.5 is exact, "
                   "and D is 0.143 off at alpha = 0.02")
def test_small_order_partly_pure_rho():
    pair = families.make_pair(np.random.default_rng(1007), "b", 4)
    exact = families.reference(pair, 0.02)
    mean_rho, mean_sigma = pair.means()
    value = sandwiched_renyi(GaussianState(mean_rho, pair.cov_rho),
                             GaussianState(mean_sigma, pair.cov_sigma), 0.02).divergence
    assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact))


@pytest.mark.xfail(strict=True, reason="F2 (ROADMAP item 16): the contraction k underflows, so "
                   "thermal 0.3 against 2.0 returns 0.146765 at alpha = 1e-3 (9.394e-4 exact) "
                   "and 0.145548 at 1e-4 (9.388e-5 exact)")
@pytest.mark.parametrize("alpha", [1e-3, 1e-4])
def test_f2_contraction_underflow(alpha):
    exact = thermal_closed_form(0.3, 2.0, alpha)
    value = sandwiched_renyi(thermal_state(0.3), thermal_state(2.0), alpha).divergence
    assert abs(value - exact) <= 1e-12 * abs(exact)


@pytest.mark.xfail(strict=True, reason="orders near 1 (ROADMAP item 2): ln T_alpha cancels to "
                   "O(1 - alpha), so thermal 0.3 against 2.0 is 6.7e-5 off relative at "
                   "1 - alpha = 1e-12")
def test_order_near_one():
    alpha = 1.0 - 1e-12
    exact = thermal_closed_form(0.3, 2.0, alpha)
    value = sandwiched_renyi(thermal_state(0.3), thermal_state(2.0), alpha).divergence
    assert abs(value - exact) <= 1e-12 * abs(exact)


@pytest.mark.xfail(strict=True, reason="divergences near zero (ROADMAP item 3): D(sigma||sigma) "
                   "has an absolute floor of a few eps, and 34 of these 90 cases read below 0, "
                   "down to -1.9e-14")
def test_divergence_of_a_state_with_itself_is_not_negative():
    values = []
    for seed in range(10):
        for n in (1, 4, 16):
            sigma = random_faithful_state(np.random.default_rng(seed), n)
            values += [r.divergence for r in sandwiched_renyi_sweep(sigma, sigma, [0.1, 0.5, 0.9])]
    assert min(values) >= 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="divergences near zero (ROADMAP item 3): thermal_state(1.0) "
                   "displaced by delta = 1e-6 against thermal_state(1.0) at alpha = 1/2 reads "
                   "D / delta^2 = 0.46224 where the 60-digit replay gives 0.46212, 2.7e-4 off")
def test_small_displacement_keeps_its_digits():
    sigma = thermal_state(1.0)
    rho = GaussianState(np.array([1e-6, 0.0]), sigma.cov)
    exact, _ = replay_divergence(*reduce_to_thermal(rho, sigma)[:2], 0.5)
    assert abs(exact / 1e-12 - 0.4621172) < 1e-7
    assert abs(sandwiched_renyi(rho, sigma, 0.5).divergence - exact) <= 1e-9 * exact


@pytest.mark.xfail(strict=True, raises=NotTraceClassError,
                   reason="hot against hot (ROADMAP item 14): the contracted form matrix cancels "
                   "and its exact squared pivots, 1.1e-13 to 2.1e-13, fall below FORM_MIN_EIG, so "
                   "these physical pairs raise 'not trace class'")
@pytest.mark.parametrize("s,alpha", [(1e-12, 0.9), (1e-12, 0.99), (1e-11, 0.99)])
def test_hot_against_hot(s, alpha):
    exact = thermal_closed_form(1e-13, s, alpha)
    value = sandwiched_renyi(thermal_state(1e-13), thermal_state(s), alpha).divergence
    assert math.isclose(value, exact, rel_tol=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="hot against hot (ROADMAP item 14): thermal t = 1e-12 "
                   "against s = 1e-13 at alpha = 0.99 returns 1.40630 without raising, where "
                   "the closed form gives 1.39851, 5.6e-3 off")
def test_hot_against_hot_without_a_raise():
    exact = thermal_closed_form(1e-12, 1e-13, 0.99)
    value = sandwiched_renyi(thermal_state(1e-12), thermal_state(1e-13), 0.99).divergence
    assert math.isclose(value, exact, rel_tol=1e-12)
