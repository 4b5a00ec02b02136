"""Workload rounds, how each operation is run, and how its output is checked.

A run repeats whole rounds.  Every round holds the same slots: seeded pairs of
families a, b and c at fixed orders, plus the fixed F1 and F2 cases, so the
share of failed evaluations is the same in every run whatever its seed or
length.  The seeded slots use only orders at which their family's reference
is trusted on every input (see README.md); the fault cases carry the known
failures.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from families import MEAN_SCALE, Pair, fault_pair, make_pair, random_symplectic, reference, swap

#: relative tolerance of every check, scaled by max(1, |D|).  The references
#: agree with the pipeline to ~1e-14 where no fault fires.  F1 and F2 miss by
#: 1e-3 and more at the single-call orders; in a sweep, F1's error falls with
#: alpha and is last counted at 0.46, where it is 1.7e-9.
TOL = 1e-9

#: (label, order) slots of one single-call round
SINGLE_SLOTS = (("a", 0.3), ("a", 0.5), ("a", 0.7), ("a", 0.9),
                ("b", 0.8), ("b", 0.9), ("b", 0.95),
                ("c", 0.3), ("c", 0.5), ("c", 0.7), ("c", 0.9),
                ("F1", 0.1), ("F2", 1e-3))

#: 64-order sweep grids: families a and c from 0.3, family b from 0.8 (below
#: it F1 fires on some seeded pairs and not others), and the fault cases over
#: (0, 1) down to 1e-4
GRID_AC = tuple(np.linspace(0.3, 0.99, 64))
GRID_B = tuple(np.linspace(0.8, 0.99, 64))
GRID_FULL = (1e-4, 1e-3, 1e-2) + tuple(np.geomspace(0.02, 0.3, 13, endpoint=False)) \
    + tuple(np.linspace(0.3, 0.99, 48))
SWEEP_SLOTS = (("a", GRID_AC), ("b", GRID_B), ("c", GRID_AC), ("F1", GRID_FULL), ("F2", GRID_FULL))

#: one CLI round: 7 processes, 15 evaluations
CLI_GRID = (0.3, 0.5, 0.7, 0.9, 0.99)
CLI_SLOTS = (("a", (0.5,)), ("b", (0.9,)), ("c", (0.7,)), ("a", CLI_GRID), ("c", CLI_GRID),
             ("F1", (0.1,)), ("F2", (1e-3,)))


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    mode: str  # "single", "sweep" or "cli"


WORKLOADS = {w.name: w for w in (Workload("pairs-small", 1, "single"),
                                  Workload("pairs-large", 64, "single"),
                                  Workload("alpha-sweep", 32, "sweep"),
                                  Workload("cli", 4, "cli"))}


@dataclass
class Op:
    """One timed call: a single order, a sweep, or one CLI process."""

    label: str
    pair: Pair
    alphas: tuple
    sweep: bool
    twin: Pair | None = None  # family c: the pair after a second joint unitary
    rho: object = None
    sigma: object = None

    @property
    def evals(self) -> int:
        return len(self.alphas)


def states(pair: Pair):
    from gauss_renyi import GaussianState

    mean_rho, mean_sigma = pair.means()
    return GaussianState(mean_rho, pair.cov_rho), GaussianState(mean_sigma, pair.cov_sigma)


def make_round(workload: Workload, rng: np.random.Generator) -> list[Op]:
    n = workload.n
    if workload.mode == "single":
        slots = [(label, (alpha,)) for label, alpha in SINGLE_SLOTS]
    elif workload.mode == "sweep":
        slots = list(SWEEP_SLOTS)
    else:
        slots = list(CLI_SLOTS)
    ops = []
    for label, alphas in slots:
        twin = None
        if label in ("F1", "F2"):
            pair = fault_pair(label, n)
        else:
            pair = make_pair(rng, label, n)
            if label == "c":
                twin = pair.transformed(random_symplectic(rng, n),
                                        rng.normal(scale=MEAN_SCALE, size=2 * n))
        op = Op(label, pair, tuple(float(a) for a in alphas),
                workload.mode == "sweep" or len(alphas) > 1, twin)
        if workload.mode != "cli":
            op.rho, op.sigma = states(pair)
        ops.append(op)
    return ops


def call_api(op: Op, rho=None, sigma=None) -> list[float]:
    """The timed call of an API operation; returns one divergence per order."""
    from gauss_renyi import sandwiched_renyi, sandwiched_renyi_sweep

    rho = op.rho if rho is None else rho
    sigma = op.sigma if sigma is None else sigma
    if op.sweep:
        return [r.divergence for r in sandwiched_renyi_sweep(rho, sigma, list(op.alphas))]
    return [sandwiched_renyi(rho, sigma, op.alphas[0]).divergence]


def _state_json(x: np.ndarray, cov: np.ndarray) -> dict:
    n = cov.shape[0] // 2
    return {"n": n, "mean": x[swap(n)].tolist(), "cov": cov.tolist()}


def write_state_files(op: Op, stem) -> tuple[str, str]:
    paths = []
    for suffix, x, cov in (("rho", op.pair.x_rho, op.pair.cov_rho),
                           ("sigma", op.pair.x_sigma, op.pair.cov_sigma)):
        path = f"{stem}-{suffix}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_state_json(x, cov), handle)
        paths.append(path)
    return paths[0], paths[1]


def cli_argv(op: Op, rho_path: str, sigma_path: str) -> list[str]:
    alphas = ",".join(repr(a) for a in op.alphas)
    if op.sweep:
        return ["sweep", "--alphas", alphas, "--format", "json", rho_path, sigma_path]
    return ["entropy", "--alpha", alphas, "--format", "json", rho_path, sigma_path]


CLI_ENTRY = "from gauss_renyi.cli import entry; entry()"


def run_cli(op: Op, files, env, bootstrap: str = CLI_ENTRY) -> subprocess.CompletedProcess:
    """The timed call of a CLI operation: one whole process."""
    return subprocess.run([sys.executable, "-c", bootstrap, *cli_argv(op, *files)],
                          capture_output=True, text=True, env=env, timeout=120)


def parse_cli(op: Op, proc: subprocess.CompletedProcess) -> tuple[list, list]:
    """Divergences and T_alpha values printed by a CLI process.

    Raises ValueError when the process failed or printed something else.
    """
    if proc.returncode != 0:
        raise ValueError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    payload = json.loads(proc.stdout)
    rows = payload["results"] if op.sweep else [payload]
    if len(rows) != op.evals:
        raise ValueError(f"{len(rows)} results for {op.evals} orders")
    return [float(r["divergence"]) for r in rows], [float(r["T_alpha"]) for r in rows]


def _close(value: float, expected: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= TOL * max(1.0, abs(expected))


def check(op: Op, values: list, t_alphas: list | None = None) -> list[bool]:
    """Verdict per evaluation of one operation.

    Families a, b and the fault cases are compared with their closed forms.
    Family c is compared with the same call on its twin (a second joint
    Gaussian unitary leaves the divergence unchanged), and its sweeps must
    not decrease with alpha; a closed form already implies that, so the
    other sweeps are not checked for it, and a wrong value does not fail
    its correct neighbour.  CLI output must also reproduce its divergence
    as ln(T_alpha)/(alpha-1).
    """
    if op.twin is not None:
        twin_rho, twin_sigma = states(op.twin)
        expected = call_api(op, twin_rho, twin_sigma)
    else:
        expected = [reference(op.pair, a) for a in op.alphas]
    verdicts = [_close(v, e) for v, e in zip(values, expected)]
    for i in range(1, len(values) if op.twin is not None else 0):
        if values[i] < values[i - 1] - TOL * max(1.0, abs(values[i])):
            verdicts[i] = False
    if t_alphas is not None:
        for i, (alpha, value, t_alpha) in enumerate(zip(op.alphas, values, t_alphas)):
            if not (t_alpha > 0 and math.isclose(math.log(t_alpha) / (alpha - 1.0), value,
                                                 rel_tol=1e-11, abs_tol=1e-11)):
                verdicts[i] = False
    return verdicts


def tensor(p: Pair, q: Pair) -> Pair:
    """Tensor product of two pairs in the (all q, then all p) block ordering."""
    n, m = p.n, q.n
    idx_p = np.concatenate([np.arange(n), n + m + np.arange(n)])
    idx_q = np.concatenate([n + np.arange(m), 2 * n + m + np.arange(m)])

    def join(x1, x2, c1, c2):
        x = np.zeros(2 * (n + m))
        c = np.zeros((2 * (n + m), 2 * (n + m)))
        x[idx_p], x[idx_q] = x1, x2
        c[np.ix_(idx_p, idx_p)], c[np.ix_(idx_q, idx_q)] = c1, c2
        return x, c

    x_rho, cov_rho = join(p.x_rho, q.x_rho, p.cov_rho, q.cov_rho)
    x_sigma, cov_sigma = join(p.x_sigma, q.x_sigma, p.cov_sigma, q.cov_sigma)
    return Pair("c", x_rho, cov_rho, x_sigma, cov_sigma)


def additivity_failures(rng: np.random.Generator, samples: int = 3) -> list[str]:
    """Sample check: D(rho1 x rho2 || sigma1 x sigma2) = D(rho1||sigma1) + D(rho2||sigma2)
    on one-mode family c pairs, at each family c order of the single-call round."""
    failures = []
    alphas = tuple(a for label, a in SINGLE_SLOTS if label == "c")
    for _ in range(samples):
        p, q = make_pair(rng, "c", 1), make_pair(rng, "c", 1)
        joint = Op("c", tensor(p, q), alphas, True)
        parts = [Op("c", x, alphas, True) for x in (p, q)]
        whole = call_api(joint, *states(joint.pair))
        split = [sum(v) for v in zip(*(call_api(o, *states(o.pair)) for o in parts))]
        for alpha, w, s in zip(alphas, whole, split):
            if not _close(w, s):
                failures.append(f"additivity alpha={alpha}: {w!r} vs {s!r}")
    return failures
