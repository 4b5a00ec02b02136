"""Counters and spans installed from outside the package under test.

Two instruments, both inactive until switched on, so installing them costs a
pass-through call and nothing else:

* ``LinalgCounter`` wraps the dense NumPy/SciPy factorizations and solves.
  It must be installed before ``gauss_renyi`` is imported, so that a
  ``from numpy.linalg import eigh`` inside the package binds the wrapper.
  A stacked (..., m, m) argument counts once per matrix.
* ``Tracer`` records spans (name, start, end, parent span, evaluation id) in
  memory around the public functions of each layer, wrapped in the namespace
  their caller looks them up in; the caller writes them out at the end.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

#: dense factorizations, counted for factorizations_per_eval
FACTORIZATIONS = {
    "numpy.linalg": ("eigh", "eigvalsh", "eig", "eigvals", "cholesky", "svd", "qr"),
    "scipy.linalg": ("eigh", "eigvalsh", "eig", "eigvals", "eig_banded", "schur",
                     "cholesky", "cho_factor", "svd", "qr", "lu", "lu_factor", "ldl"),
}
#: solves with or without a prior factorization, counted as linalg.solves
SOLVES = {
    "numpy.linalg": ("solve", "inv", "lstsq"),
    "scipy.linalg": ("solve", "cho_solve", "lu_solve", "solve_triangular", "inv", "lstsq"),
}
#: matrix functions that hide an eigen- or Schur factorization
MATRIX_FUNCTIONS = {"scipy.linalg": ("sqrtm", "expm", "logm", "fractional_matrix_power")}


def _matrices(args) -> int:
    """Number of matrices in a possibly stacked first argument."""
    shape = getattr(args[0], "shape", ()) if args else ()
    count = 1
    for size in shape[:-2]:
        count *= int(size)
    return max(count, 1)


class LinalgCounter:
    """Counts calls into the linear-algebra entry points while active.

    With a tracer attached, each outermost call is also a span named
    ``linalg.<function>``.
    """

    def __init__(self) -> None:
        self.active = False
        self.counts: Counter = Counter()
        self.busy_s = 0.0
        self.tracer: Tracer | None = None
        self._depth = 0

    def install(self) -> None:
        import numpy.linalg
        import scipy.linalg

        modules = {"numpy.linalg": numpy.linalg, "scipy.linalg": scipy.linalg}
        for kind, table in (("factorization", FACTORIZATIONS), ("solve", SOLVES),
                            ("factorization", MATRIX_FUNCTIONS)):
            for module_name, names in table.items():
                module = modules[module_name]
                for name in names:
                    if hasattr(module, name):
                        setattr(module, name, self._wrap(getattr(module, name), name, kind))

    def _wrap(self, fn, name: str, kind: str):
        counter = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not counter.active or counter._depth:
                return fn(*args, **kwargs)
            counter._depth += 1
            start = time.perf_counter()
            span = counter.tracer.open(f"linalg.{name}") if counter.tracer else None
            try:
                return fn(*args, **kwargs)
            finally:
                counter.busy_s += time.perf_counter() - start
                if span is not None:
                    counter.tracer.close(span)
                counter.counts[name] += _matrices(args)
                counter.counts[f"kind.{kind}"] += _matrices(args)
                counter._depth -= 1

        return wrapper

    def reset(self) -> None:
        self.counts.clear()
        self.busy_s = 0.0

    @property
    def factorizations(self) -> int:
        return self.counts["kind.factorization"]

    @property
    def solves(self) -> int:
        return self.counts["kind.solve"]


class Tracer:
    """In-memory spans; ``wrap`` patches a function in its caller's namespace."""

    def __init__(self) -> None:
        self.active = False
        self.eval_id = -1
        self.spans: list = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.eval_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, namespace, attr: str, name: str) -> None:
        fn = getattr(namespace, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        setattr(namespace, attr, wrapper)

    def wrap_pipeline(self) -> None:
        """Wrap every stage of the divergence pipeline where it is called.

        ``validate_state`` is looked up in ``states`` by ``require_physical``,
        ``symplectic_eigenvalues`` in ``williamson`` by ``validate_state``
        (a deferred import) and in ``entropy`` by the t_Z stage.
        """
        import gauss_renyi.entropy as entropy
        import gauss_renyi.states as states
        import gauss_renyi.williamson as williamson

        for attr, name in (("require_physical", "states.require_physical"),
                           ("gaussian_transform", "states.gaussian_transform"),
                           ("williamson_decompose", "williamson.decompose"),
                           ("symplectic_eigenvalues", "williamson.symplectic_eigenvalues"),
                           ("state_to_kernel", "kernel.state_to_kernel"),
                           ("apply_contraction", "kernel.apply_contraction"),
                           ("log_kernel_trace", "kernel.log_kernel_trace"),
                           ("kernel_to_state", "kernel.kernel_to_state"),
                           ("reduce_to_thermal", "entropy.reduce_to_thermal"),
                           ("_contracted_thermal_parameters", "entropy.t_z")):
            self.wrap(entropy, attr, name)
        self.wrap(states, "validate_state", "states.validate_state")
        self.wrap(williamson, "symplectic_eigenvalues", "williamson.symplectic_eigenvalues")

    def wrap_cli(self) -> None:
        import gauss_renyi.cli as cli

        self.wrap(cli, "load_state", "statefile.load_state")
        self.wrap(cli, "_emit", "cli.report")
        self.wrap(cli, "_report_payload", "cli.report")
        self.wrap(cli, "sandwiched_renyi", "entropy.sandwiched_renyi")
        self.wrap(cli, "sandwiched_renyi_sweep", "entropy.sandwiched_renyi_sweep")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
