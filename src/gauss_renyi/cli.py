"""Command-line interface: state files in, divergence reports out.

Subcommands
  entropy     one divergence evaluation with the full intermediate report
  sweep       the same over a comma-separated grid of orders
  williamson  thermal-reduction data (d, t, L) of one state
  convert     generating-kernel quadruple of one state, plus its round trip
  verify      built-in closed-form vs oracle cross-check suite

State files are positional: RHO SIGMA for entropy and sweep, STATE for
williamson and convert.  Every reported number is printed at 12 significant
digits (verify's table prints differences and tolerances in short exponent
form) and infinities appear as the string "inf".  Exit status: 0 success; 2 domain errors (unphysical or
non-faithful states, mode mismatches, orders outside (0,1), bad suite
selections); 1 I/O problems, malformed state files, or verify-suite failures.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict

from .entropy import EntropyReport, sandwiched_renyi, sandwiched_renyi_sweep
from .exceptions import GaussRenyiError, StateFileError
from .kernel import kernel_to_state, state_to_kernel
from .statefile import json_number, load_state, round12, state_to_json
from .states import require_physical
from .verify import GROUPS, run_suite, suite_passed
from .williamson import williamson_decompose

_LABEL_WIDTH = 12


def _fmt(value) -> str:
    """A number, or a JSON payload's "inf"/"-inf", at 12 significant digits."""
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{round12(value):.12g}"


def _fmt_vec(values) -> str:
    return ", ".join(_fmt(v) for v in values)


def _pair(z: complex) -> list:
    return [json_number(z.real), json_number(z.imag)]


def _report_payload(report: EntropyReport) -> dict:
    """EntropyReport as a JSON-ready dict, rounded to the printed precision.

    The divergence is recomputed from the rounded T_alpha and alpha so that
    parsing the report and redoing ln(T_alpha)/(alpha-1) reproduces the
    printed divergence exactly.
    """
    alpha = round12(report.alpha)
    t_alpha = round12(report.T_alpha)
    if t_alpha > 0.0 and math.isfinite(t_alpha):
        divergence = round12(math.log(t_alpha) / (alpha - 1.0))
    else:
        # T_alpha underflowed; fall back on the log-domain value
        divergence = round12(report.divergence)
    return {
        "alpha": alpha,
        "divergence": divergence,
        "T_alpha": t_alpha,
        "trace_Z": json_number(report.trace_Z),
        "s": [json_number(x) for x in report.s],
        "t_Z": [json_number(x) for x in report.t_Z],
        "p_s": json_number(report.p_s),
        "p_tZ": json_number(report.p_tZ),
        "p_alpha_tZ": json_number(report.p_alpha_tZ),
    }


def _print_key_values(payload: dict) -> None:
    for key, value in payload.items():
        if isinstance(value, list):
            text = ", ".join(str(v) for v in value)
        else:
            text = str(value)
        print(f"{key:<{_LABEL_WIDTH}} {text}")


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        _print_key_values(payload)


def cmd_entropy(args) -> int:
    report = sandwiched_renyi(load_state(args.rho), load_state(args.sigma), args.alpha)
    _emit(_report_payload(report), args.format)
    return 0


def cmd_sweep(args) -> int:
    reports = sandwiched_renyi_sweep(load_state(args.rho), load_state(args.sigma),
                                     args.alphas)
    payloads = [_report_payload(r) for r in reports]
    if args.format == "json":
        print(json.dumps({"results": payloads}, indent=2))
    else:
        columns = ("alpha", "divergence", "T_alpha", "trace_Z")
        print(" ".join(f"{c:>18s}" for c in columns))
        for p in payloads:
            print(" ".join(f"{_fmt(p[c]):>18s}" for c in columns))
    return 0


def cmd_williamson(args) -> int:
    state = load_state(args.state)
    form = require_physical(state, "state", williamson_decompose)
    payload = {
        "n": state.n,
        "d": [json_number(x) for x in form.d],
        "t": [json_number(x) for x in form.t],
        "L": [[json_number(x) for x in row] for row in form.L],
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"{'n':<{_LABEL_WIDTH}} {payload['n']}")
        print(f"{'d':<{_LABEL_WIDTH}} {_fmt_vec(form.d)}")
        print(f"{'t':<{_LABEL_WIDTH}} {_fmt_vec(form.t)}")
        print("L")
        for row in form.L:
            print("  " + "  ".join(f"{_fmt(x):>18s}" for x in row))
    return 0


def cmd_convert(args) -> int:
    state = load_state(args.state)
    require_physical(state, "state")
    kernel = state_to_kernel(state)
    back = kernel_to_state(kernel)
    payload = {
        "n": state.n,
        "c": json_number(math.exp(kernel.log_c)),
        "ln_c": json_number(kernel.log_c),
        "mu": [_pair(z) for z in kernel.mu],
        "A": [[_pair(z) for z in row] for row in kernel.A],
        "Lambda": [[_pair(z) for z in row] for row in kernel.lam],
        "state_roundtrip": state_to_json(back),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"{'n':<{_LABEL_WIDTH}} {payload['n']}")
        for key in ("c", "ln_c"):
            print(f"{key:<{_LABEL_WIDTH}} {_fmt(payload[key])}")
        print(f"{'mu':<{_LABEL_WIDTH}} " +
              ", ".join(f"[{_fmt(z.real)}, {_fmt(z.imag)}]" for z in kernel.mu))
        for label, mat in (("A", kernel.A), ("Lambda", kernel.lam)):
            print(label)
            for row in mat:
                print("  " + "  ".join(f"[{_fmt(z.real)}, {_fmt(z.imag)}]" for z in row))
    return 0


def cmd_verify(args) -> int:
    groups = None
    if args.suite is not None:
        groups = [g.strip() for g in args.suite.split(",") if g.strip()]
    rows = run_suite(groups, cutoff=args.verify_cutoff)
    if args.format == "json":
        print(json.dumps({
            "rows": [{key: json_number(value) if isinstance(value, float) else value
                      for key, value in asdict(row).items()} for row in rows],
            "passed": suite_passed(rows),
        }, indent=2))
    else:
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for row in rows:
            counts[row.status] += 1
        header = (f"{'status':<6s} {'group':<9s} {'name':<42s} {'alpha':>6s} "
                  f"{'|closed-oracle|':>16s} {'tol':>8s}")
        print(header)
        print("-" * len(header))
        for row in rows:
            note = f"  ({row.note})" if row.note else ""
            print(f"{row.status:<6s} {row.group:<9s} {row.name:<42s} "
                  f"{row.alpha:>6g} {row.diff:>16.3e} {row.tol:>8.0e}{note}")
        print(f"{len(rows)} rows: {counts['pass']} passed, "
              f"{counts['fail']} failed, {counts['skip']} skipped")
    return 0 if suite_passed(rows) else 1


def _alpha_value(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _alpha_grid(text: str) -> list:
    try:
        values = [float(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("alpha list is empty")
    return values


def _add_pair_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("rho", metavar="RHO", help="state file for rho")
    sub.add_argument("sigma", metavar="SIGMA", help="state file for sigma")


def _add_format_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "table"), default="table",
                     help="output format (default: table)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gauss-renyi",
        description="Sandwiched Renyi relative entropy of Gaussian states, "
                    "order 0 < alpha < 1.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("entropy", help="compute one divergence")
    sub.add_argument("--alpha", type=_alpha_value, required=True,
                     help="Renyi order in (0,1)")
    _add_pair_arguments(sub)
    _add_format_argument(sub)
    sub.set_defaults(func=cmd_entropy)

    sub = subs.add_parser("sweep", help="compute divergences over an alpha grid")
    sub.add_argument("--alphas", type=_alpha_grid, required=True,
                     help="comma-separated Renyi orders in (0,1)")
    _add_pair_arguments(sub)
    _add_format_argument(sub)
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("williamson",
                          help="thermal-reduction data of one state")
    sub.add_argument("state", metavar="STATE", help="state file")
    _add_format_argument(sub)
    sub.set_defaults(func=cmd_williamson)

    sub = subs.add_parser("convert",
                          help="generating-kernel quadruple of one state")
    sub.add_argument("state", metavar="STATE", help="state file")
    _add_format_argument(sub)
    sub.set_defaults(func=cmd_convert)

    sub = subs.add_parser("verify", help="run the built-in cross-check suite")
    sub.add_argument("--suite",
                     help="comma-separated groups to run "
                          f"(default all: {','.join(GROUPS)})")
    sub.add_argument("--verify-cutoff", type=int, default=None,
                     help="override the dense-oracle Fock cutoffs")
    _add_format_argument(sub)
    sub.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StateFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GaussRenyiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
