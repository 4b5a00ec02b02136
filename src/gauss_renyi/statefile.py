"""Reading and writing Gaussian states as JSON.

The on-disk format is a single JSON object.  Either the state is spelled out
explicitly,

    { "n": 2, "mean": [ ...2n numbers... ], "cov": [[ ... ], ... ] }

or it is built from exactly one shorthand:

    { "thermal": [0.7, "inf"] }       per-mode temperature parameters
    { "coherent": [[1.0, -0.5]] }     per-mode amplitudes as [re, im] pairs
    { "squeezed_vacuum": 0.4 }        single-mode squeezed vacuum

Infinities are spelled as the string "inf" because JSON has no literal for
them.  A "comment" key is allowed and ignored.  Schema violations raise
StateFileError; values that parse fine but describe no quantum state are left
to the physics validators so the CLI can report them as domain errors.
"""

import json
import math

import numpy as np

from .exceptions import StateFileError, UnphysicalStateError
from .states import GaussianState, coherent_state, squeezed_vacuum, thermal_state

_EXPLICIT_KEYS = {"n", "mean", "cov"}
_SHORTHAND_KEYS = {"thermal", "coherent", "squeezed_vacuum"}


def _number(value, where: str) -> float:
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise StateFileError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, str):
        if value == "inf":
            return math.inf
        if value == "-inf":
            return -math.inf
        raise StateFileError(
            f'{where}: only "inf" and "-inf" are accepted as strings, got {value!r}'
        )
    return float(value)


def _number_list(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise StateFileError(f"{where}: expected a list of numbers")
    return [_number(item, f"{where}[{k}]") for k, item in enumerate(value)]


def _complex_list(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise StateFileError(f"{where}: expected a non-empty list of [re, im] pairs")
    out = []
    for k, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise StateFileError(f"{where}[{k}]: expected an [re, im] pair")
        out.append(complex(_number(pair[0], f"{where}[{k}][0]"),
                           _number(pair[1], f"{where}[{k}][1]")))
    return np.asarray(out, dtype=complex)


def _parse_explicit(obj: dict, where: str) -> GaussianState:
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise StateFileError(f'{where}: "n" must be a positive integer')
    mean = _number_list(obj["mean"], f"{where}.mean")
    if len(mean) != 2 * n:
        raise StateFileError(
            f"{where}: mean must have 2n = {2 * n} entries, got {len(mean)}"
        )
    rows = obj["cov"]
    if not isinstance(rows, list) or len(rows) != 2 * n:
        raise StateFileError(f"{where}: cov must be a {2 * n}x{2 * n} nested list")
    cov = []
    for i, row in enumerate(rows):
        entries = _number_list(row, f"{where}.cov[{i}]")
        if len(entries) != 2 * n:
            raise StateFileError(
                f"{where}: cov row {i} has {len(entries)} entries, expected {2 * n}"
            )
        cov.append(entries)
    return GaussianState(np.asarray(mean), np.asarray(cov))


def _build_shorthand(kind: str, value, where: str) -> GaussianState:
    try:
        if kind == "thermal":
            entries = value if isinstance(value, list) else [value]
            t = _number_list(entries, f"{where}.thermal")
            if not t:
                raise StateFileError(f"{where}.thermal: needs at least one mode")
            return thermal_state(t)
        if kind == "coherent":
            return coherent_state(_complex_list(value, f"{where}.coherent"))
        return squeezed_vacuum(_number(value, f"{where}.squeezed_vacuum"))
    except ValueError as exc:
        # Builder bounds (such as the squeezing cap) are domain errors, not
        # schema errors.
        raise UnphysicalStateError(f"{where}: {exc}") from exc


def parse_state(obj, where: str = "state") -> GaussianState:
    """Parse one JSON object into a GaussianState.

    Structural problems raise StateFileError.  The result is not checked for
    physicality here; run require_physical before doing math with it.
    """
    if not isinstance(obj, dict):
        raise StateFileError(f"{where}: top level must be a JSON object")
    unknown = set(obj) - _EXPLICIT_KEYS - _SHORTHAND_KEYS - {"comment"}
    if unknown:
        raise StateFileError(f"{where}: unknown keys {sorted(unknown)}")
    explicit = _EXPLICIT_KEYS & set(obj)
    shorthand = sorted(_SHORTHAND_KEYS & set(obj))
    if shorthand and explicit:
        raise StateFileError(
            f"{where}: give either n/mean/cov or one shorthand, not both"
        )
    if len(shorthand) > 1:
        raise StateFileError(f"{where}: more than one shorthand: {shorthand}")
    if shorthand:
        return _build_shorthand(shorthand[0], obj[shorthand[0]], where)
    if explicit != _EXPLICIT_KEYS:
        raise StateFileError(
            f"{where}: missing keys {sorted(_EXPLICIT_KEYS - explicit)}"
        )
    return _parse_explicit(obj, where)


def load_state(path) -> GaussianState:
    """Load a state file; text that is not UTF-8 and JSON syntax errors become
    StateFileError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except UnicodeDecodeError as exc:
            raise StateFileError(f"{path}: not UTF-8 text ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise StateFileError(f"{path}: malformed JSON ({exc})") from exc
    return parse_state(obj, where=str(path))


def round12(value: float) -> float:
    """Round to 12 significant digits.

    CLI numbers go through this (by json_number) before printing or JSON
    encoding, except a divergence report's alpha, printed as given, and its
    T_alpha, printed in full.
    """
    return float(f"{value:.12g}")


def json_number(value: float):
    """JSON-safe number: the strings "inf" / "-inf" for infinities, 0.0 for -0.0."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return round12(float(value)) + 0.0


def state_to_json(state: GaussianState) -> dict:
    """Explicit-schema JSON object for a state."""
    return {
        "n": state.n,
        "mean": [json_number(x) for x in state.mean],
        "cov": [[json_number(x) for x in row] for row in state.cov],
    }
