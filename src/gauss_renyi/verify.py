"""Built-in cross-checks of the closed-form divergence against oracles.

Five row groups compare independent computations:

  thermal   thermal pairs against a direct eigenvalue-series sum and
            against the dense truncated oracle
  coherent  coherent state vs thermal reference against the rank-one
            analytic formula (the branch where the sandwich is pure)
  squeezed  squeezed/displaced single-mode instances against the dense oracle
  twomode   beam-splitter-correlated pairs against the dense oracle
  trace     the contracted-kernel trace against a dense diagonal-contraction
            sandwich

One loop judges a table of cases.  Dense oracles are evaluated at two
cutoffs and a large residual marks the row "skip (cutoff not converged)"
instead of failing, so small --verify-cutoff values degrade gracefully.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .entropy import fractional_power_contraction, sandwiched_renyi
from .exceptions import GaussRenyiError
from .fock import (DEFAULT_CUTOFF_1MODE, DEFAULT_CUTOFF_2MODE,
                   DEFAULT_CUTOFF_THERMAL, dense_renyi_converged,
                   gamma_contraction, state_to_fock)
from .kernel import apply_contraction, log_kernel_trace, state_to_kernel
from .recipes import Recipe, recipe_to_state
from .states import coherent_state, thermal_state

#: each group's row tolerance and default dense-oracle cutoff, in report
#: order (coherent rows have no dense oracle)
GROUPS = {
    "thermal": (1e-10, DEFAULT_CUTOFF_THERMAL),
    "coherent": (1e-9, None),
    "squeezed": (1e-6, DEFAULT_CUTOFF_1MODE),
    "twomode": (1e-4, DEFAULT_CUTOFF_2MODE),
    "trace": (1e-8, DEFAULT_CUTOFF_1MODE),
}
#: tolerance of the thermal rows judged by the dense oracle
THERMAL_DENSE_TOL = 1e-7

#: dense rows are adjudicable only while the truncation residual stays below
#: this fraction of the row tolerance
GUARD_FRACTION = 0.5

LN2 = math.log(2.0)


@dataclass(frozen=True)
class VerifyRow:
    """One suite entry: a closed-form value, an oracle value, and a verdict."""

    name: str
    group: str
    alpha: float
    closed: float
    oracle: float
    diff: float
    tol: float
    status: str  # "pass" | "fail" | "skip"
    note: str = ""


class _Case(NamedTuple):
    """A row before evaluation.  oracle(cutoff) returns the oracle value and
    its truncation residual; tol None takes the group's tolerance."""

    group: str
    name: str
    alpha: float
    closed: Callable[[], float]
    oracle: Callable[[int], tuple[float, float]]
    tol: float | None = None


def _log1mexp(x: float) -> float:
    """ln(1 - e^-x) for x > 0, to full relative precision on both sides of ln 2."""
    return math.log(-math.expm1(-x)) if x < LN2 else math.log1p(-math.exp(-x))


def thermal_series_divergence(t: float, s: float, alpha: float) -> float:
    """Divergence of two single-mode thermal states by direct summation.

    The fractional-power sandwich of commuting thermal states is diagonal in
    the number basis with a geometric spectrum, so the trace power is a plain
    scalar series; summing it term by term shares nothing with the kernel
    pipeline.
    """
    q = math.exp(-(alpha * t + (1.0 - alpha) * s))
    total, term = 0.0, 1.0
    while total == 0.0 or term > total * 1e-18:
        total += term
        term *= q
        if term < 1e-300:
            break
    ln_t_alpha = (1.0 - alpha) * _log1mexp(s) + alpha * _log1mexp(t) + math.log(total)
    return ln_t_alpha / (alpha - 1.0)


def coherent_thermal_divergence(gamma: complex, s: float, alpha: float) -> float:
    """Closed expression for a coherent state against a thermal reference.

    The fractional-power sandwich of a coherent state is rank one, so the
    trace power is elementary:
    D = -ln(1 - e^-s) + alpha |gamma|^2 (1 - e^(-s(1-alpha)/alpha)) / (1-alpha).
    """
    shrink = -math.expm1(-s * (1.0 - alpha) / alpha)
    return -_log1mexp(s) + alpha * abs(gamma) ** 2 * shrink / (1.0 - alpha)


def _divergence(rho, sigma, alpha: float) -> float:
    return sandwiched_renyi(rho, sigma, alpha).divergence


def _exact(oracle: Callable[..., float], *args) -> Callable[[int], tuple[float, float]]:
    """An oracle without truncation: it ignores the cutoff, residual 0."""
    return lambda cutoff: (oracle(*args), 0.0)


def _pair(group: str, name: str, rho: Recipe, sigma: Recipe, alpha: float,
          oracle, tol: float | None = None) -> _Case:
    closed = partial(_divergence, recipe_to_state(rho), recipe_to_state(sigma), alpha)
    return _Case(group, name, alpha, closed, oracle, tol)


def _dense_twomode(rho: Recipe, sigma: Recipe, alpha: float,
                   cutoff: int) -> tuple[float, float]:
    # full doubling is slow in two modes; +8 per mode resolves the guard
    return dense_renyi_converged(rho, sigma, alpha, cutoff, cutoff + 8)


def _contracted_trace(state, k: np.ndarray) -> float:
    return math.exp(log_kernel_trace(apply_contraction(state_to_kernel(state), k)))


def _dense_contraction_trace(recipe: Recipe, k: np.ndarray,
                             cutoff: int) -> tuple[float, float]:
    def at(c: int) -> float:
        rho = state_to_fock(recipe, c)
        g = gamma_contraction(k, recipe.n, c)
        return float(np.trace(g @ rho @ g).real)

    lo, hi = at(cutoff), at(2 * cutoff)
    return hi, abs(hi - lo)


def _cases() -> list[_Case]:
    """Every row of the suite in report order; nothing is evaluated yet."""
    thermal = [(LN2, 2 * LN2), (0.35, 1.1), (2.3, 0.8)]
    cases = [_pair("thermal", f"thermal series t={t:.3g} s={s:.3g}",
                   Recipe((t,)), Recipe((s,)), alpha,
                   _exact(thermal_series_divergence, t, s, alpha))
             for t, s in thermal for alpha in (0.1, 0.5, 0.9)]
    # Thermal matrices are diagonal, so their eigenvalues carry no eigh
    # noise; a deep floor keeps the support cut far below the row tolerance
    # even when the sandwich spectrum decays slowly (large alpha).
    cases += [_pair("thermal", f"thermal dense t={t:.3g} s={s:.3g}",
                    Recipe((t,)), Recipe((s,)), alpha,
                    partial(dense_renyi_converged, Recipe((t,)), Recipe((s,)),
                            alpha, eig_floor=1e-60),
                    THERMAL_DENSE_TOL)
              for t, s in thermal[:2] for alpha in (0.3, 0.7)]
    # small alpha against a hot reference drives the contracted thermal
    # parameters far into the tail; guards the deep-contraction spectrum path
    cases += [_pair("thermal", f"thermal deep t={t:.3g} s={s:.3g}",
                    Recipe((t,)), Recipe((s,)), alpha,
                    _exact(thermal_series_divergence, t, s, alpha))
              for t, s, alpha in ((0.3, 3.0, 0.1), (0.5, 2.8, 0.15))]
    # products of thermal modes: the divergence is additive over modes
    cases.append(_pair(
        "thermal", "thermal product 2-mode",
        Recipe((0.6, 1.3)), Recipe((0.9, 0.5)), 0.45,
        _exact(lambda: thermal_series_divergence(0.6, 0.9, 0.45)
               + thermal_series_divergence(1.3, 0.5, 0.45))))

    cases += [_Case("coherent", f"coherent g={gamma:g} s={s:.3g}", alpha,
                    partial(_divergence, coherent_state(gamma), thermal_state(s), alpha),
                    _exact(coherent_thermal_divergence, gamma, s, alpha))
              for gamma in (0.5, 1.0, 2.0, 0.3 + 0.4j)
              for s in (LN2, 1.5) for alpha in (0.3, 0.5, 0.7)]

    squeezed = [
        ("squeezed displaced vs thermal",
         Recipe((0.9,), (("squeeze", 0, 0.3), ("displace", 0, 0.5 + 0.2j))),
         Recipe((0.7,)), 0.5),
        ("squeezed displaced vs squeezed thermal",
         Recipe((0.9,), (("squeeze", 0, 0.3), ("displace", 0, 0.5 + 0.2j))),
         Recipe((0.6,), (("squeeze", 0, -0.25),)), 0.6),
        ("pure squeezed vs displaced squeezed thermal",
         Recipe((math.inf,), (("squeeze", 0, 0.4), ("displace", 0, -0.3j))),
         Recipe((1.2,), (("squeeze", 0, 0.2), ("displace", 0, 0.3))), 0.7),
        ("phase-mixed pair",
         Recipe((0.8,), (("squeeze", 0, 0.35), ("phase", 0, 0.7),
                         ("displace", 0, 0.4 - 0.2j))),
         Recipe((0.9,), (("phase", 0, -0.5), ("squeeze", 0, 0.2))), 0.55),
    ]
    cases += [_pair("squeezed", name, rho, sigma, alpha,
                    partial(dense_renyi_converged, rho, sigma, alpha))
              for name, rho, sigma, alpha in squeezed]

    twomode = [
        ("beamsplit correlated vs thermal",
         Recipe((0.8, 1.1), (("squeeze", 0, 0.25), ("beamsplit", 0.6),
                             ("displace", 1, 0.3))),
         Recipe((0.9, 0.7), (("beamsplit", -0.4),)), 0.5),
        ("beamsplit phase pair",
         Recipe((0.7, 0.9), (("beamsplit", 0.5), ("phase", 0, 0.6))),
         Recipe((1.0, 1.2), (("squeeze", 1, -0.2), ("beamsplit", 0.3))), 0.7),
    ]
    cases += [_pair("twomode", name, rho, sigma, alpha,
                    partial(_dense_twomode, rho, sigma, alpha))
              for name, rho, sigma, alpha in twomode]

    trace = [
        ("trace displaced thermal",
         Recipe((0.8,), (("displace", 0, 0.6 + 0.3j),)), (0.9,), 0.4),
        ("trace squeezed displaced",
         Recipe((1.1,), (("squeeze", 0, 0.3), ("displace", 0, -0.4j))), (0.7,), 0.6),
        ("trace phase mixed",
         Recipe((0.9,), (("squeeze", 0, 0.25), ("phase", 0, 0.8),
                         ("displace", 0, 0.5))), (1.3,), 0.6),
    ]
    for name, recipe, s_vec, alpha in trace:
        k = fractional_power_contraction(np.asarray(s_vec), alpha)
        cases.append(_Case("trace", name, alpha,
                           partial(_contracted_trace, recipe_to_state(recipe), k),
                           partial(_dense_contraction_trace, recipe, k)))
    return cases


def run_suite(groups=None, cutoff: int | None = None) -> list[VerifyRow]:
    """Run the cross-validation suite and return its rows.

    groups selects a subset of GROUPS (None runs everything); cutoff
    overrides every dense-oracle cutoff.  Unknown or empty selections raise
    GaussRenyiError.
    """
    if groups is None:
        selected = set(GROUPS)
    else:
        selected = set(groups)
        unknown = sorted(selected - set(GROUPS))
        if unknown:
            raise GaussRenyiError(
                f"unknown verify group(s) {unknown}; choose from {', '.join(GROUPS)}")
        if not selected:
            raise GaussRenyiError(
                f"empty verify selection; choose from {', '.join(GROUPS)}")
    if cutoff is not None and cutoff < 2:
        raise GaussRenyiError(f"verify cutoff must be at least 2, got {cutoff}")
    rows = []
    for case in _cases():
        if case.group not in selected:
            continue
        tol, default_cutoff = GROUPS[case.group]
        if case.tol is not None:
            tol = case.tol
        closed = case.closed()
        oracle, residual = case.oracle(default_cutoff if cutoff is None else cutoff)
        diff = abs(closed - oracle)
        if residual > GUARD_FRACTION * tol:
            status, note = "skip", f"cutoff not converged (residual {residual:.1e})"
        else:
            status, note = "pass" if diff <= tol else "fail", ""
        rows.append(VerifyRow(case.name, case.group, case.alpha, closed, oracle,
                              diff, tol, status, note))
    return rows


def suite_passed(rows) -> bool:
    """True when no row failed (skipped rows do not fail the suite)."""
    return all(row.status != "fail" for row in rows)
