"""Benchmark of the gauss_renyi divergence pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  Prints a
human-readable report and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1).  See README.md.
"""

import os

# One BLAS thread, set before NumPy is loaded here and inherited by every
# child process: on a small shared machine OpenBLAS's default thread pool
# triples the n = 64 call time and makes it erratic (README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh processes whose set-up time is measured; setup_s is their median
SETUP_PROBES = 3
#: p90 is reported only above this many timed calls
P90_MIN_CALLS = 100

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("pairs-small", "pairs-large", "alpha-sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "probe", "count"), default="main",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn_self(args, role: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", role]
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process failed: {proc.stderr.strip()[-500:]}")
    return proc


def measure_setup(args) -> float:
    """Wall time from spawning a fresh process to its first timed call."""
    start = time.monotonic()
    proc = spawn_self(args, "probe")
    return float(proc.stdout.strip().splitlines()[-1]) - start


def cli_files(ops, tag: str) -> list:
    from workloads import write_state_files

    (OUT / "states").mkdir(parents=True, exist_ok=True)
    return [write_state_files(op, OUT / "states" / f"{tag}-{i}") for i, op in enumerate(ops)]


def run_round_untimed(workload, ops, in_process_cli: bool) -> None:
    """Warm-up and counting pass: every call of a round, nothing timed."""
    from workloads import CLI_ENTRY, call_api, cli_argv, run_cli

    if workload.mode != "cli":
        for op in ops:
            call_api(op)
        return
    files = cli_files(ops, "warm")
    if in_process_cli:
        import gauss_renyi.cli as cli

        for op, paths in zip(ops, files):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(cli_argv(op, *paths))
    else:
        run_cli(ops[0], files[0], child_env(), CLI_ENTRY)


class Phase:
    """Timed calls of whole rounds and the verdicts on their outputs."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.round_means: list[float] = []
        self.evals = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.unexpected: list[str] = []
        self.processes = 0

    def run(self, workload, rng, seconds: float, tracer=None, counter=None,
            trace_files: list | None = None) -> None:
        """Repeat whole rounds until ``seconds`` have passed.

        Inputs are made and outputs checked between the timed calls; the
        tracer and the counter are active only during the calls.
        """
        from workloads import CLI_ENTRY, call_api, make_round, run_cli

        instruments = [x for x in (tracer, counter) if x is not None]
        bootstrap = CLI_ENTRY
        if trace_files is not None:
            bootstrap = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
                         "import traced_cli; traced_cli.main()")
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            ops = make_round(workload, rng)
            files = cli_files(ops, f"r{rounds % 2}") if workload.mode == "cli" else None
            envs = [child_env() for _ in ops] if files else [None] * len(ops)
            if trace_files is not None:
                for env in envs:
                    env["PERFBENCH_TRACE_OUT"] = str(OUT / f"trace-{len(trace_files)}.json")
                    trace_files.append(Path(env["PERFBENCH_TRACE_OUT"]))
            outputs = []
            for x in instruments:
                x.active = True
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.eval_id = self.evals + sum(o.evals for o in ops[:i])
                    root = tracer.open("entropy.sandwiched_renyi_sweep" if op.sweep
                                       else "entropy.sandwiched_renyi")
                start = time.perf_counter()
                try:
                    out = run_cli(op, files[i], envs[i], bootstrap) if files else call_api(op)
                except Exception as exc:  # a failed call is a failed evaluation
                    out = exc
                self.durations.append(time.perf_counter() - start)
                if tracer is not None:
                    tracer.close(root)
                outputs.append(out)
            for x in instruments:
                x.active = False
            self.round_means.append(statistics.mean(self.durations[-len(ops):]))
            for op, out in zip(ops, outputs):
                self.judge(op, out, files is not None)
            self.evals += sum(op.evals for op in ops)
            self.processes += len(ops) if files else 0
            rounds += 1

    def judge(self, op, out, is_cli: bool) -> None:
        """Count the evaluations of one operation that fail their checks."""
        from workloads import check, parse_cli

        try:
            if isinstance(out, Exception):
                raise out
            t_alphas = None
            if is_cli:
                out, t_alphas = parse_cli(op, out)
            verdicts = check(op, out, t_alphas)
        except Exception as exc:  # the operation failed as a whole
            verdicts = [False] * op.evals
            detail = f"{type(exc).__name__}: {exc}"
        else:
            detail = ""
        for alpha, ok in zip(op.alphas, verdicts):
            if ok:
                continue
            self.failed += 1
            self.failures[(op.label, alpha)] += 1
            if op.label not in ("F1", "F2"):
                self.unexpected.append(f"{op.label} alpha={alpha:.6g} {detail}".strip())

    @property
    def busy_s(self) -> float:
        return sum(self.durations)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_metrics(phase, span_lists, counts, busy_s, import_s: list, plain) -> dict:
    """Per-layer metrics of a traced phase, per evaluation unless named per process."""
    from instrument import self_times

    total = defaultdict(float)
    calls = Counter()
    glue = 0.0
    for spans in span_lists:
        own = self_times(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            total[name] += end - start
            calls[name] += 1
            if name == "kernel.kernel_to_state" and parent >= 0 and spans[parent][0] == "entropy.t_z":
                calls["entropy.t_z_fallback"] += 1
            if name.startswith("entropy.sandwiched_renyi") or name == "entropy.reduce_to_thermal":
                glue += own[i]
    evals = max(phase.evals, 1)
    processes = max(phase.processes, 1)
    plain_rate = plain.evals / plain.busy_s
    traced_rate = phase.evals / phase.busy_s
    metrics = {
        "williamson.decompose_ms": (1e3 * total["williamson.decompose"] / evals, "ms"),
        "williamson.symplectic_eigenvalues_calls":
            (calls["williamson.symplectic_eigenvalues"] / evals, "count"),
        "states.require_physical_ms": (1e3 * total["states.require_physical"] / evals, "ms"),
        "states.require_physical_calls": (calls["states.require_physical"] / evals, "count"),
        "states.gaussian_transform_ms": (1e3 * total["states.gaussian_transform"] / evals, "ms"),
        "kernel.state_to_kernel_ms": (1e3 * total["kernel.state_to_kernel"] / evals, "ms"),
        "kernel.apply_contraction_ms": (1e3 * total["kernel.apply_contraction"] / evals, "ms"),
        "kernel.log_kernel_trace_ms": (1e3 * total["kernel.log_kernel_trace"] / evals, "ms"),
        "entropy.t_z_ms": (1e3 * total["entropy.t_z"] / evals, "ms"),
        "entropy.t_z_calls": (calls["entropy.t_z"] / evals, "count"),
        "entropy.t_z_fallback_calls": (calls["entropy.t_z_fallback"] / evals, "count"),
        "entropy.glue_ms": (1e3 * glue / evals, "ms"),
        "linalg.eigh": (counts["eigh"] / evals, "count"),
        "linalg.eigvalsh": (counts["eigvalsh"] / evals, "count"),
        "linalg.schur": (counts["schur"] / evals, "count"),
        "linalg.cholesky": ((counts["cholesky"] + counts["cho_factor"]) / evals, "count"),
        "linalg.solves": (counts["kind.solve"] / evals, "count"),
        "linalg.busy_ms": (1e3 * busy_s / evals, "ms"),
        "cli.import_ms": (1e3 * statistics.mean(import_s), "ms"),
        "statefile.load_state_ms": (1e3 * total["statefile.load_state"] / processes, "ms"),
        "cli.report_ms": (1e3 * total["cli.report"] / processes, "ms"),
        "bench.plain_evals_per_s": (plain_rate, "1/s"),
        "bench.traced_evals_per_s": (traced_rate, "1/s"),
        "bench.tracing_overhead": (traced_rate / plain_rate, "ratio"),
    }
    return metrics


def report(workload, phase, metrics: dict, extra: list) -> None:
    print(f"workload {workload.name}: n = {workload.n}, {len(phase.durations)} timed calls, "
          f"{phase.evals} evaluations, {phase.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42s} {value:>14.6g} {unit}")
    for line in extra:
        print(f"  {line}")
    for (label, alpha), count in sorted(phase.failures.items()):
        print(f"  failed: {label} alpha={alpha:.6g} x {count}")
    for line in phase.unexpected[:20]:
        print(f"  UNEXPECTED: {line}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gauss_renyi" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'gauss_renyi'}; run from a checkout of the "
              "repository root", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))

    setups = []
    if args.role == "main" and args.trace == 0:
        setups = [measure_setup(args) for _ in range(SETUP_PROBES)]

    from instrument import LinalgCounter, Tracer

    start = time.perf_counter()
    import numpy as np

    counter = None
    if args.role == "count" or args.trace:
        counter = LinalgCounter()
        counter.install()  # before the package binds any linalg name
    import gauss_renyi

    import_s = time.perf_counter() - start
    if Path(gauss_renyi.__file__).resolve().parent != (SRC / "gauss_renyi").resolve():
        print(f"error: imported gauss_renyi from {gauss_renyi.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, additivity_failures, make_round

    workload = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    first = make_round(workload, rng)

    if args.role == "probe":
        run_round_untimed(workload, first, in_process_cli=False)
        print(time.monotonic())
        return 0
    if args.role == "count":
        counter.active = True
        run_round_untimed(workload, first, in_process_cli=True)
        counter.active = False
        print(json.dumps({"factorizations": counter.factorizations,
                          "solves": counter.solves,
                          "evals": sum(op.evals for op in first)}))
        return 0

    run_round_untimed(workload, first, in_process_cli=False)
    OUT.mkdir(exist_ok=True)
    plain = Phase()
    if args.trace == 0:
        plain.run(workload, rng, args.seconds)
        counted = json.loads(spawn_self(args, "count").stdout.strip().splitlines()[-1])
        phase = plain
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "evals_per_s": (plain.evals / plain.busy_s, "1/s"),
            "call_ms_p50": (1e3 * statistics.median(plain.round_means), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "factorizations_per_eval": (counted["factorizations"] / counted["evals"], "count"),
        }
        extra = [f"setup probes (s): {', '.join(f'{s:.4f}' for s in setups)}",
                 f"count pass: {counted['factorizations']} factorizations and "
                 f"{counted['solves']} solves over {counted['evals']} evaluations"]
        if len(plain.durations) >= P90_MIN_CALLS:
            p90 = statistics.quantiles(plain.durations, n=10)[-1]
            extra.append(f"call_ms_p90: {1e3 * p90:.4f} ms over {len(plain.durations)} calls")
    else:
        plain.run(workload, rng, args.seconds / 2)
        tracer = Tracer()
        tracer.wrap_pipeline()
        counter.tracer = tracer
        counter.reset()
        phase = Phase()
        trace_files = [] if workload.mode == "cli" else None
        phase.run(workload, rng, args.seconds / 2, tracer, counter, trace_files)
        span_lists, counts, busy_s, imports = [tracer.spans], Counter(counter.counts), \
            counter.busy_s, [import_s]
        if trace_files is not None:
            span_lists, counts, busy_s, imports = [], Counter(), 0.0, []
            for path in trace_files:
                with open(path, encoding="utf-8") as handle:
                    child = json.load(handle)
                span_lists.append(child["spans"])
                counts.update(child["counts"])
                busy_s += child["busy_s"]
                imports.append(child["import_s"])
                path.unlink()
        metrics = layer_metrics(phase, span_lists, counts, busy_s, imports, plain)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as handle:
            for proc, spans in enumerate(span_lists):
                for span in spans:
                    handle.write(json.dumps([proc, *span]) + "\n")
        extra = [f"tracing overhead base: plain {plain.evals} evaluations in "
                 f"{plain.busy_s:.3f} s, traced {phase.evals} in {phase.busy_s:.3f} s",
                 f"per-layer values are per evaluation ({phase.evals}); cli.* and "
                 f"statefile.* per CLI process ({phase.processes})",
                 f"spans written to {spans_path.relative_to(ROOT)}"]
        phase.failed += plain.failed
        phase.evals += plain.evals
        phase.unexpected += plain.unexpected
        phase.failures.update(plain.failures)

    bad_additivity = additivity_failures(rng)
    phase.unexpected += bad_additivity
    report(workload, phase, metrics, extra)
    print(json.dumps({
        "correct": not phase.unexpected,
        "attempted": phase.evals,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
