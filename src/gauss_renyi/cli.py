"""Command-line interface: state files in, divergence reports out.

Subcommands
  entropy     one divergence evaluation with the full intermediate report
  sweep       the same over a comma-separated grid of orders
  williamson  thermal-reduction data (d, t, L) of one state
  convert     generating-kernel quadruple of one state, plus its round trip
  verify      built-in closed-form vs oracle cross-check suite

State files are positional: RHO SIGMA for entropy and sweep, STATE for
williamson and convert.  A divergence report prints alpha as given and
T_alpha in full; every other number is printed at 12 significant digits
and infinities appear as the string "inf".  Tables print each value as the
text its JSON holds (verify's table prints differences and tolerances in
short exponent form).  Exit status: 0 success; 2 domain errors (unphysical
or non-faithful states, mode mismatches, orders outside (0,1), bad suite
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
from .statefile import json_number, load_state, state_to_json
from .states import require_physical
from .williamson import williamson_decompose

_LABEL_WIDTH = 12


def _pair(z: complex) -> list:
    return [json_number(z.real), json_number(z.imag)]


def _report_payload(report: EntropyReport) -> dict:
    """EntropyReport as a JSON dict: alpha as given, T_alpha in full, the rest at 12 digits."""
    return {
        "alpha": report.alpha,
        "divergence": json_number(report.divergence),
        "T_alpha": report.T_alpha,
        "trace_Z": json_number(report.trace_Z),
        "s": [json_number(x) for x in report.s],
        "t_Z": [json_number(x) for x in report.t_Z],
        "p_s": json_number(report.p_s),
        "p_tZ": json_number(report.p_tZ),
        "p_alpha_tZ": json_number(report.p_alpha_tZ),
    }


def _text(value) -> str:
    """A payload value as the text its JSON holds, unquoted and without outer brackets."""
    if isinstance(value, list):
        return ", ".join(f"[{_text(v)}]" if isinstance(v, list) else _text(v) for v in value)
    return str(value)


def _print_key_values(payload: dict, indent: str = "") -> None:
    """One line per key; a list of lists prints one row per line and a nested
    payload its own keys, each indented under the key."""
    for key, value in payload.items():
        if isinstance(value, dict):
            print(indent + key)
            _print_key_values(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], list):
            print(indent + key)
            for row in value:
                print(f"{indent}  {_text(row)}")
        else:
            print(f"{indent}{key:<{_LABEL_WIDTH}} {_text(value)}")


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        _print_key_values(payload)


def cmd_entropy(args) -> int:
    _emit(_report_payload(sandwiched_renyi(load_state(args.rho), load_state(args.sigma),
                                           args.alpha)), args.format)
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
            print(" ".join(f"{_text(p[c]):>18s}" for c in columns))
    return 0


def cmd_williamson(args) -> int:
    state = load_state(args.state)
    form = require_physical(state, "state", williamson_decompose)
    _emit({
        "n": state.n,
        "d": [json_number(x) for x in form.d],
        "t": [json_number(x) for x in form.t],
        "L": [[json_number(x) for x in row] for row in form.L],
    }, args.format)
    return 0


def cmd_convert(args) -> int:
    state = load_state(args.state)
    require_physical(state, "state")
    kernel = state_to_kernel(state)
    mu, A, lam = kernel.quadruple()
    _emit({
        "n": state.n,
        "c": json_number(math.exp(kernel.log_c)),
        "ln_c": json_number(kernel.log_c),
        "mu": [_pair(z) for z in mu],
        "A": [[_pair(z) for z in row] for row in A],
        "Lambda": [[_pair(z) for z in row] for row in lam],
        "state_roundtrip": state_to_json(kernel_to_state(kernel)),
    }, args.format)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite, suite_passed  # deferred: it loads the dense oracle and SciPy
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
    sub.add_argument("--alpha", type=float, required=True,
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
    sub.add_argument("--suite", help="comma-separated groups to run (default all)")
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
    except (StateFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GaussRenyiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
