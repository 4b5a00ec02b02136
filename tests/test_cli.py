"""CLI contract: subcommands, report invariants, exit codes."""

import json
import math

import numpy as np
import pytest

from helpers import analytic_coherent_thermal
from gauss_renyi import sandwiched_renyi, thermal_state, verify
from gauss_renyi.cli import _text, main
from gauss_renyi.statefile import json_number

LN2 = math.log(2.0)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def states(tmp_path):
    return {
        "rho": write(tmp_path, "rho.json", {"thermal": [LN2]}),
        "sigma": write(tmp_path, "sigma.json", {"thermal": [2 * LN2]}),
        "vacuum": write(tmp_path, "vacuum.json", {"thermal": ["inf"]}),
        "coherent": write(tmp_path, "coherent.json", {"coherent": [[1.0, 0.0]]}),
        "dir": tmp_path,
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entropy_json_round_trip_invariant(states, capsys):
    code, out, _ = run(capsys, ["entropy", "--alpha", "0.5",
                                states["rho"], states["sigma"],
                                "--format", "json"])
    assert code == 0
    report = json.loads(out)
    recomputed = float(f"{math.log(report['T_alpha']) / (report['alpha'] - 1.0):.12g}")
    assert recomputed == report["divergence"]
    assert abs(report["divergence"] - 0.108299916535) < 1e-9


def test_entropy_table_format(states, capsys):
    code, out, _ = run(capsys, ["entropy", "--alpha", "0.5",
                                states["rho"], states["sigma"]])
    assert code == 0
    assert "divergence" in out and "T_alpha" in out


def test_entropy_identity_near_zero(states, capsys):
    code, out, _ = run(capsys, ["entropy", "--alpha", "0.5",
                                states["rho"], states["rho"],
                                "--format", "json"])
    assert code == 0
    assert abs(json.loads(out)["divergence"]) < 1e-9


def test_state_given_twice_is_usage_error(states, capsys):
    with pytest.raises(SystemExit) as err:
        main(["entropy", "--alpha", "0.5", states["rho"],
              states["rho"], states["sigma"]])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["entropy", "--alpha", "0.5"],
    ["sweep", "--alphas", "0.3,0.7"],
    ["williamson"],
    ["convert"],
])
def test_missing_state_file_is_usage_error(states, capsys, argv):
    files = [states["rho"]] if argv[0] in ("entropy", "sweep") else []
    with pytest.raises(SystemExit) as err:
        main(argv + files)
    assert err.value.code == 2
    assert "required" in capsys.readouterr().err


def test_pure_sigma_exit_2_mentions_faithful(states, capsys):
    code, _, err = run(capsys, ["entropy", "--alpha", "0.5",
                                states["rho"], states["vacuum"]])
    assert code == 2
    assert "faithful" in err


def test_bad_alpha_exit_2_names_domain(states, capsys):
    code, _, err = run(capsys, ["entropy", "--alpha", "1.0",
                                states["rho"], states["sigma"]])
    assert code == 2
    assert "0<alpha<1" in err


def test_malformed_json_exit_1(states, capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, ["entropy", "--alpha", "0.5",
                                str(bad), states["sigma"]])
    assert code == 1
    assert "malformed JSON" in err


def test_non_utf8_state_file_exit_1(states, capsys, tmp_path):
    # a UTF-16 byte-order mark is not UTF-8: one error line naming the file
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, ["entropy", "--alpha", "0.5", str(bad), states["sigma"]])
    assert code == 1 and out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: {bad}: not UTF-8 text")


def test_missing_file_exit_1(states, capsys):
    code, _, err = run(capsys, ["entropy", "--alpha", "0.5",
                                str(states["dir"] / "nothere.json"),
                                states["sigma"]])
    assert code == 1


def test_unphysical_state_exit_2(states, capsys, tmp_path):
    bad = write(tmp_path, "unphys.json",
                {"n": 1, "mean": [0, 0], "cov": [[0.1, 0], [0, 0.1]]})
    code, _, err = run(capsys, ["entropy", "--alpha", "0.5",
                                bad, states["sigma"]])
    assert code == 2
    assert "unphysical" in err


def test_sweep_json_monotone_and_consistent(states, capsys):
    code, out, _ = run(capsys, ["sweep", "--alphas", "0.2,0.5,0.8",
                                states["rho"], states["sigma"],
                                "--format", "json"])
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == 3
    divs = [r["divergence"] for r in results]
    assert divs == sorted(divs)
    for r in results:
        recomputed = float(f"{math.log(r['T_alpha']) / (r['alpha'] - 1.0):.12g}")
        assert recomputed == r["divergence"]


def test_sweep_table_prints_json_values_at_12_digits(states, capsys):
    argv = ["sweep", "--alphas", "0.123456789,0.5", states["rho"], states["sigma"]]
    code, table, _ = run(capsys, argv)
    assert code == 0
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    header, *lines = table.splitlines()
    columns = header.split()
    assert columns == ["alpha", "divergence", "T_alpha", "trace_Z"]
    results = json.loads(out)["results"]
    assert [line.split() for line in lines] == [
        [_text(r[c]) for c in columns] for r in results]
    assert lines[0].split()[0] == "0.123456789"


@pytest.mark.parametrize("alpha", ["0.9", "0.99", "0.999", "0.999999", "0.9999999999",
                                   "0.9999999999999"])
def test_report_prints_the_api_divergence_and_the_given_alpha(capsys, tmp_path, alpha):
    # a divergence re-derived from 12-digit alpha and T_alpha would miss by
    # about 5e-13 / (1 - alpha), and 1 - 1e-13 rounds to alpha = 1
    rho = write(tmp_path, "rho.json", {"thermal": [0.3]})
    sigma = write(tmp_path, "sigma.json", {"thermal": [2.0]})
    expected = json_number(sandwiched_renyi(thermal_state(0.3), thermal_state(2.0),
                                            float(alpha)).divergence)
    for argv in (["entropy", "--alpha", alpha], ["sweep", "--alphas", alpha]):
        code, out, err = run(capsys, argv + [rho, sigma, "--format", "json"])
        assert code == 0, err
        payload = json.loads(out)
        report = payload["results"][0] if argv[0] == "sweep" else payload
        assert report["alpha"] == float(alpha)
        assert report["divergence"] == expected
        if float(alpha) <= 0.99:  # T_alpha in full fixes the divergence
            assert math.isclose(math.log(report["T_alpha"]) / (report["alpha"] - 1.0),
                                report["divergence"], rel_tol=1e-11)


def test_underflowed_t_alpha_prints_the_log_domain_divergence(capsys, tmp_path):
    far = write(tmp_path, "far.json", {"coherent": [[60.0, 0.0]]})
    sigma = write(tmp_path, "sigma.json", {"thermal": [1.0]})
    code, out, _ = run(capsys, ["entropy", "--alpha", "0.5", far, sigma, "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["T_alpha"] == 0.0
    assert report["divergence"] == 2276.09268693
    assert report["divergence"] == json_number(analytic_coherent_thermal(60.0, 1.0, 0.5))


@pytest.mark.parametrize("command,state", [("williamson", "rho"), ("convert", "coherent"),
                                           ("convert", "rho")])
def test_table_shows_every_json_key_as_its_json_text(states, capsys, command, state):
    code, table, _ = run(capsys, [command, states[state]])
    assert code == 0
    code, out, _ = run(capsys, [command, states[state], "--format", "json"])
    assert code == 0
    lines = table.splitlines()

    def shown(payload, indent):
        for key, value in payload.items():
            row = next(k for k, line in enumerate(lines)
                       if line.startswith(indent + key + " ") or line == indent + key)
            if isinstance(value, dict):
                shown(value, indent + "  ")
            elif isinstance(value, list) and isinstance(value[0], list):
                assert lines[row + 1:row + 1 + len(value)] == [
                    f"{indent}  {_text(v)}" for v in value]
            else:
                assert lines[row].split(None, 1)[1] == _text(value)

    shown(json.loads(out), "")


def test_williamson_vacuum(states, capsys):
    code, out, _ = run(capsys, ["williamson", states["vacuum"],
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == [0.5]
    assert payload["t"] == ["inf"]
    # a mode 5e-10 above 1/2 is mixed: its t is printed finite
    near = write(states["dir"], "near.json", {"thermal": [21.4, 1.0]})
    code, out, _ = run(capsys, ["williamson", near, "--format", "json"])
    assert code == 0
    t = json.loads(out)["t"]
    assert t[0] == 1.0 and math.isclose(t[-1], 21.4, rel_tol=1e-6)


def test_williamson_thermal_ln2(states, capsys):
    code, out, _ = run(capsys, ["williamson", states["rho"],
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == [1.5]
    assert abs(payload["t"][0] - LN2) < 1e-11
    L = np.array(payload["L"])
    assert np.allclose(L.T @ (1.5 * np.eye(2)) @ L, 1.5 * np.eye(2), atol=1e-9)


def test_williamson_non_finite_cov_exit_2(capsys, tmp_path):
    bad = write(tmp_path, "inf_cov.json",
                {"n": 1, "mean": [0, 0], "cov": [["inf", 0], [0, 1.0]]})
    code, out, err = run(capsys, ["williamson", bad])
    assert code == 2
    assert out == ""
    assert "state is unphysical: cov has non-finite entries" in err
    assert "Traceback" not in err


def test_convert_coherent_kernel(states, capsys):
    code, out, _ = run(capsys, ["convert", states["coherent"],
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["c"] - math.exp(-1.0)) < 1e-11
    assert abs(payload["ln_c"] + 1.0) < 1e-11
    assert payload["mu"] == [[1.0, 0.0]]
    assert payload["A"] == [[[0.0, 0.0]]]
    back = payload["state_roundtrip"]
    assert back["mean"] == [1.0, 0.0]
    assert np.allclose(back["cov"], 0.5 * np.eye(2))


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_convert_prints_no_negative_zero(states, capsys, fmt):
    # the round trip's sign flips turn exact zeros of the mean and covariance
    # into -0.0, which the printed numbers show as 0.0
    code, out, _ = run(capsys, ["convert", states["coherent"], "--format", fmt])
    assert code == 0
    assert "-0.0" not in out


def test_convert_past_the_trace_border(capsys, tmp_path):
    # |gamma| = 1e151 puts b . M^{-1} b past the trace's 1e300 border, but the
    # round trip needs M's factor alone (entropy on it exits 2, see below)
    huge = write(tmp_path, "huge.json", {"coherent": [[1e151, 0.0]]})
    code, out, err = run(capsys, ["convert", huge, "--format", "json"])
    assert code == 0, err
    back = json.loads(out)["state_roundtrip"]
    assert back["mean"][0] == 1e151
    assert np.allclose(back["cov"], 0.5 * np.eye(2))


def test_convert_hot_state(capsys, tmp_path):
    # M's squared pivots are 1e-15 here, below the trace's FORM_MIN_EIG, which
    # the round trip does not need: M positive definite is enough
    hot = write(tmp_path, "hot.json", {"n": 1, "mean": [0.3, -0.2], "cov": [[1e15, 0], [0, 1e15]]})
    code, out, err = run(capsys, ["convert", hot, "--format", "json"])
    assert code == 0, err
    back = json.loads(out)["state_roundtrip"]
    assert back["cov"] == [[1e15, 0.0], [0.0, 1e15]]
    assert np.allclose(back["mean"], [0.3, -0.2], rtol=1e-15, atol=0.0)


def test_convert_overflowing_displacement_exit_2(capsys, tmp_path):
    # from |gamma| = 1.3e154 the kernel scale's |m|^2 overflows: the message
    # names that, not the trace's border, which convert never builds
    huge = write(tmp_path, "huge.json", {"coherent": [[1e160, 0.0]]})
    code, out, err = run(capsys, ["convert", huge])
    assert code == 2 and out == ""
    assert "|m|^2 in ln c overflows a double" in err
    assert "1e+300" not in err


def test_verify_coherent_suite(states, capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "coherent",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(row["status"] == "pass" for row in payload["rows"])


def test_verify_small_cutoff_skips_not_fails(states, capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "squeezed",
                                "--verify-cutoff", "8", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows and all(r["status"] == "skip" for r in rows)
    assert all("cutoff not converged" in r["note"] for r in rows)


def test_verify_unknown_and_empty_suite(states, capsys):
    code, _, err = run(capsys, ["verify", "--suite", "bogus"])
    assert code == 2
    assert "unknown verify group" in err
    code, _, err = run(capsys, ["verify", "--suite", ","])
    assert code == 2


def test_verify_failing_row_exit_1(capsys, monkeypatch):
    real = verify.coherent_thermal_divergence

    def off_on_one_row(gamma, s, alpha):
        shift = 1e-6 if (gamma, s, alpha) == (2.0, 1.5, 0.5) else 0.0
        return real(gamma, s, alpha) + shift

    monkeypatch.setattr(verify, "coherent_thermal_divergence", off_on_one_row)
    code, out, _ = run(capsys, ["verify", "--suite", "coherent",
                                "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    failed = [row for row in payload["rows"] if row["status"] == "fail"]
    assert [(row["name"], row["alpha"]) for row in failed] == [("coherent g=2 s=1.5", 0.5)]


def test_verify_ignores_tolerance_environment(capsys, monkeypatch):
    # the suite's tolerances are fixed; no environment variable reaches them
    monkeypatch.setenv("GAUSS_RENYI_TOL", "-1")
    code, out, _ = run(capsys, ["verify", "--suite", "coherent",
                                "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 24
    assert all(row["status"] == "pass" and row["tol"] == 1e-9 for row in rows)


def test_verify_table_lists_rows(states, capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "trace"])
    assert code == 0
    assert "|closed-oracle|" in out
    assert "passed" in out.splitlines()[-1]


def test_usage_error_on_bad_alpha_literal(states):
    with pytest.raises(SystemExit) as err:
        main(["entropy", "--alpha", "abc", states["rho"], states["sigma"]])
    assert err.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_mode_mismatch_exit_2_before_physicality(states, capsys, tmp_path):
    two = write(tmp_path, "two.json", {"thermal": [0.7, 1.1]})
    bad = write(tmp_path, "unphys.json",
                {"n": 1, "mean": [0, 0], "cov": [[0.1, 0], [0, 0.1]]})
    for rho in (states["rho"], bad):
        for argv in (["entropy", "--alpha", "0.5"], ["sweep", "--alphas", "0.3,0.7"]):
            code, out, err = run(capsys, argv + [rho, two])
            assert code == 2
            assert out == ""
            assert err == "error: mode mismatch: rho has 1, sigma has 2\n"


@pytest.mark.parametrize("obj", [
    {"n": 1, "mean": [0, 0], "cov": [[0.3, 0], [0, 0.3]]},
    {"n": 1, "mean": [0, 0], "cov": [[1.0, 1e-3], [0, 1.0]]},
    {"n": 1, "mean": [0, 0], "cov": [[1.0, 0], [0, -1.0]]},
    {"n": 1, "mean": ["inf", 0], "cov": [[1.0, 0], [0, 1.0]]},
])
def test_unphysical_sigma_exit_2(states, capsys, tmp_path, obj):
    bad = write(tmp_path, "bad_sigma.json", obj)
    code, _, err = run(capsys, ["entropy", "--alpha", "0.5", states["rho"], bad])
    assert code == 2
    assert "sigma is unphysical" in err


def python_process(*args):
    """Run the interpreter in a child process with this package importable."""
    import os
    import subprocess
    import sys

    import gauss_renyi

    src = os.path.dirname(os.path.dirname(gauss_renyi.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def cli_process(*argv):
    """Run ``python -m gauss_renyi.cli`` in a child process."""
    return python_process("-m", "gauss_renyi.cli", *argv)


def test_module_entry_point_runs(states):
    proc = cli_process("entropy", "--alpha", "0.5", "--format", "json",
                       states["rho"], states["sigma"])
    assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(proc.stdout)["divergence"] - 0.108299916535) < 1e-9


def test_large_displacement_exit_2_without_traceback(states, tmp_path):
    # |gamma| = 30 has kernel scale c = e^-900, which underflows, but only
    # ln c enters; the displacement limit is the trace's 1e300, near 1e150
    sigma = write(tmp_path, "thermal1.json", {"thermal": [1.0]})
    far = write(tmp_path, "far.json", {"coherent": [[30.0, 0.0]]})
    proc = cli_process("entropy", "--alpha", "0.5", "--format", "json", far, sigma)
    assert proc.returncode == 0, proc.stderr
    exact = analytic_coherent_thermal(30.0, 1.0, 0.5)
    assert abs(json.loads(proc.stdout)["divergence"] - exact) <= 1e-11 * exact  # 12 digits
    huge = write(tmp_path, "huge.json", {"coherent": [[1e151, 0.0]]})
    proc = cli_process("entropy", "--alpha", "0.5", huge, sigma)
    assert proc.returncode == 2
    assert "past 1e+300" in proc.stderr
    assert "Traceback" not in proc.stderr


#: runs CLI commands with SciPy made unimportable, then prints their exit
#: codes and every scipy* module loaded besides the blocking entry itself
SCIPY_BLOCKED = """
import json, sys
sys.modules["scipy"] = None
from gauss_renyi.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(k for k in sys.modules if k.startswith("scipy") and k != "scipy")}))
"""


def test_evaluation_commands_run_without_scipy(states, tmp_path):
    squeezed = write(tmp_path, "squeezed.json", {"squeezed_vacuum": 0.4})
    commands = [
        ["entropy", "--alpha", "0.5", squeezed, states["sigma"]],
        ["sweep", "--alphas", "0.3,0.7", states["coherent"], states["sigma"]],
        ["williamson", squeezed],
        ["convert", states["coherent"]],
    ]
    proc = python_process("-c", SCIPY_BLOCKED, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0, 0, 0], "scipy": []}


#: runs CLI commands with the cross-check suite made unimportable, then
#: prints their exit codes and whether the dense oracle got loaded
SUITE_BLOCKED = """
import json, sys
sys.modules["gauss_renyi.verify"] = None
from gauss_renyi.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "fock": "gauss_renyi.fock" in sys.modules}))
"""


def test_evaluation_commands_run_without_the_suite(states):
    commands = [
        ["entropy", "--alpha", "0.5", states["rho"], states["sigma"]],
        ["sweep", "--alphas", "0.3,0.7", states["coherent"], states["sigma"]],
        ["williamson", states["rho"]],
        ["convert", states["coherent"]],
    ]
    proc = python_process("-c", SUITE_BLOCKED, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0, 0, 0], "fock": False}


def test_verify_process_loads_the_oracle():
    proc = cli_process("verify", "--suite", "trace")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " 0 failed" in proc.stdout
