"""Command-line front end: subcommands, determinism, round-trips, exit codes."""

import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from pvilab.cli import main
from pvilab.locator import valence_check
from pvilab.orbits import p_of_n
from pvilab.report import (
    Report,
    format_complex,
    parse_complex,
    parse_rational_or_float,
    to_jsonable,
)


def run_cli(args, tmp_path=None):
    out = tmp_path / "out.json" if tmp_path else None
    argv = list(args) + (["--out", str(out)] if out else [])
    code = main(argv)
    text = out.read_text() if out else ""
    return code, text


# --- parsing ---------------------------------------------------------------


def test_parse_complex_forms():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("0+1.5i") == 1.5j
    assert parse_complex("-0.25-0.5i") == -0.25 - 0.5j
    assert parse_complex("3") == 3 + 0j
    assert parse_complex("2i") == 2j
    assert parse_complex("1.2e-3+4.5e-6i") == 1.2e-3 + 4.5e-6j
    assert parse_complex("-i") == -1j
    assert parse_complex("i") == 1j
    assert parse_complex(" 1 - 2i ") == 1 - 2j


def test_parse_rational_and_float():
    assert parse_rational_or_float("1/4") == Fraction(1, 4)
    assert parse_rational_or_float("0.25") == 0.25
    assert parse_rational_or_float("0.3+0.1i") == 0.3 + 0.1j
    # integers are exact, so that --r 1/3 --s 0 is an exact pair
    for text, value in (("0", 0), ("3", 3), ("-2", -2), ("+1", 1)):
        parsed = parse_rational_or_float(text)
        assert type(parsed) is Fraction and parsed == value


def test_complex_round_trip_through_formatter():
    for z in (0.5 - 0.25j, -1e-12 + 3j, 2.0 + 0j):
        assert parse_complex(format_complex(z)) == z


def test_report_refuses_a_value_it_cannot_write_deterministically():
    with pytest.raises(TypeError, match="object"):
        Report("eval", {}, {"value": object()}).to_json()


# --- eval -------------------------------------------------------------------

def test_eval_quarter_zero(tmp_path):
    code, text = run_cli(
        ["eval", "--r", "1/4", "--s", "0", "--tau", "0+1.5i"], tmp_path
    )
    assert code == 0
    rep = json.loads(text)
    lam = parse_complex(rep["results"]["lambda"])
    t = parse_complex(rep["results"]["t"])
    assert abs(9 * lam**2 - t) < 1e-9
    assert rep["results"]["is_pole"] is False


def test_eval_determinism(tmp_path):
    args = ["eval", "--r", "1/3", "--s", "0", "--tau", "0.2+1.2i"]
    _, a = run_cli(args, tmp_path)
    _, b = run_cli(args, tmp_path)
    pa, pb = json.loads(a), json.loads(b)
    for payload in (pa, pb):
        payload["diagnostics"].pop("timings")
    assert pa == pb
    # round-trip: parse + re-serialise is byte-identical
    assert Report(**json.loads(a)).to_json() == a.rstrip("\n")
    assert json.loads(a)["results"] == json.loads(Report(**json.loads(b)).to_json())["results"]


def test_eval_makes_one_lattice_values_call(tmp_path, monkeypatch):
    # t, lambda and est_error all read lambda_rs's one LatticeData
    from pvilab import _kernels

    calls = []
    kernel = _kernels.lattice_values
    monkeypatch.setattr(
        _kernels,
        "lattice_values",
        lambda tau, frame: calls.append(tau) or kernel(tau, frame),
    )
    code, text = run_cli(["eval", "--r", "1/4", "--s", "0", "--tau", "0+1.5i"], tmp_path)
    assert code == 0
    assert calls == [1.5j]
    assert "est_error" in json.loads(text)["diagnostics"]


# --- count ------------------------------------------------------------------


def test_count_n5(tmp_path):
    code, text = run_cli(["count", "--N", "5"], tmp_path)
    assert code == 0
    rep = json.loads(text)
    res = rep["results"]
    assert res["P"] == 2
    assert res["solutions"] == 1
    assert res["poles_per_solution"] == 6
    assert res["valence"]["interior"] == 2
    assert res["valence"]["cusp"] == 4
    assert res["valence"]["total"] == 6
    assert res["valence"]["balance_exact"] is True


def test_count_n8_formula_row(tmp_path):
    code, text = run_cli(["count", "--N", "8"], tmp_path)
    assert code == 0
    res = json.loads(text)["results"]
    assert res["P"] == 6
    assert res["solutions"] == 3
    assert res["poles_per_solution"] == 6


def test_count_reports_the_valence_past_n_12(tmp_path):
    code, text = run_cli(["count", "--N", "13"], tmp_path)
    assert code == 0
    res = json.loads(text)["results"]
    assert res["valence"]["interior"] == 30 == res["P"]
    assert res["valence"]["balance_exact"] is True


def test_count_reports_the_valence_record_as_computed(tmp_path):
    code, text = run_cli(["count", "--N", "6"], tmp_path)
    assert code == 0
    res = json.loads(text)["results"]
    reported = dict(res["valence"], merge_events=res["merge_events"])
    assert reported == to_jsonable(valence_check(6))


def test_count_past_the_cap_reports_no_valence(tmp_path):
    code, text = run_cli(["count", "--N", "121"], tmp_path)
    assert code == 0
    res = json.loads(text)["results"]
    assert "valence" not in res and "merge_events" not in res
    assert res["P"] == p_of_n(121)


# --- orbits -----------------------------------------------------------------


def test_orbits_n6(tmp_path):
    code, text = run_cli(["orbits", "--N", "6"], tmp_path)
    assert code == 0
    res = json.loads(text)["results"]
    assert res["classes"] == 3
    reps = {tuple(e["representative"]) for e in res["elements"]}
    assert reps == {("0/1", "1/6"), ("1/6", "0/1"), ("1/6", "1/6")}
    assert all(
        set(e) == {"pair", "representative", "gamma", "shift"} for e in res["elements"]
    )


# --- zeros ------------------------------------------------------------------


def test_zeros_subcommand(tmp_path):
    code, text = run_cli(
        ["zeros", "--r", "0.6", "--s", "0.3", "--domain", "F0"], tmp_path
    )
    assert code == 0
    res = json.loads(text)["results"]
    assert res["winding"] == 1
    assert len(res["zeros"]) == 1
    tau0 = parse_complex(res["zeros"][0]["tau0"])
    assert 0 < tau0.real < 1 and tau0.imag > 0.5


# --- scan -------------------------------------------------------------------


def test_scan_z2_csv(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        [
            "scan",
            "--mode",
            "z2",
            "--r",
            "0.3",
            "--s",
            "0.2",
            "--re-min",
            "0.0",
            "--re-max",
            "0.5",
            "--im-min",
            "0.8",
            "--im-max",
            "1.2",
            "--nx",
            "5",
            "--ny",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re,im,value_re,value_im,abs,winding"
    assert len(lines) == 1 + 5 * 4
    cells = lines[1].split(",")
    assert len(cells) == 6
    assert abs(float(cells[4])) > 0


def test_scan_winding_csv(tmp_path):
    out = tmp_path / "wind.csv"
    code = main(
        [
            "scan",
            "--mode",
            "winding",
            "--domain",
            "F0",
            "--re-min",
            "0.55",
            "--re-max",
            "0.65",
            "--im-min",
            "0.25",
            "--im-max",
            "0.35",
            "--nx",
            "2",
            "--ny",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re,im,value_re,value_im,abs,winding"
    for line in lines[1:]:
        w = line.split(",")[5]
        assert w in ("0", "1")


def test_scan_json_reports_backend_and_timings(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    argv = ["scan", "--mode", "z2", "--r", "0.3", "--s", "0.2", "--nx", "2", "--ny", "2"]
    assert main(argv + ["--out", str(out)]) == 0
    # with --out, stdout is the report alone
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"] == {"rows": 4}
    # one kernel path, so no backend label
    assert "backend" not in rep["diagnostics"]
    assert set(rep["diagnostics"]["timings"]) == {"scan"}


def test_scan_without_out_prints_the_csv_alone(tmp_path, monkeypatch, capsys):
    # stdout is the header and one 6-field row per grid point, and no file
    # is written
    monkeypatch.chdir(tmp_path)
    argv = ["scan", "--mode", "z2", "--r", "0.3", "--s", "0.2", "--nx", "3", "--ny", "2"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "re,im,value_re,value_im,abs,winding"
    assert len(lines) == 1 + 3 * 2
    assert all(len(line.split(",")) == 6 for line in lines)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--r", "1/4", "--s", "0", "--tau", "0+1.5i"],
        ["zeros", "--r", "0.6", "--s", "0.3"],
        ["count", "--N", "3"],
        ["orbits", "--N", "3"],
    ],
    ids=lambda a: a[0],
)
def test_reports_record_backend_and_timings(argv, tmp_path):
    code, text = run_cli(argv, tmp_path)
    assert code == 0
    rep = json.loads(text)
    # one kernel path, so no backend label
    assert "backend" not in rep["diagnostics"]
    assert set(rep["diagnostics"]["timings"]) == {argv[0]}


# --- exit codes -------------------------------------------------------------


def test_usage_error_exit_code():
    assert main(["eval", "--r", "0.3"]) == 1  # missing --s/--tau
    assert main(["count"]) == 1  # missing --N


@pytest.mark.parametrize(
    "flag,text", [("--r", "abc"), ("--r", "1/0"), ("--tau", "1+2+3i")]
)
def test_malformed_number_is_usage_error(flag, text, capsys):
    argv = {"--r": "1/4", "--s": "0", "--tau": "0+1.2i"}
    argv[flag] = text
    assert main(["eval"] + [a for kv in argv.items() for a in kv]) == 1
    assert f"argument {flag}: invalid number value" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--nx", "--ny"])
@pytest.mark.parametrize("size", ["0", "-1"])
def test_empty_scan_grid_is_usage_error(flag, size, tmp_path, capsys):
    argv = {"--nx": "2", "--ny": "3"}
    argv[flag] = size
    out = tmp_path / "grid.csv"
    base = ["scan", "--mode", "z2", "--r", "0.3", "--s", "0.2", "--out", str(out)]
    assert main(base + [a for kv in argv.items() for a in kv]) == 1
    assert f"argument {flag}: invalid grid_size value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--r", "--s", "--tau"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_number_is_a_domain_error(flag, bad, capsys):
    argv = {"--r": "1/4", "--s": "0", "--tau": "0+1.2i"}
    argv[flag] = f"{bad}+1i" if flag == "--tau" else bad
    assert main(["eval"] + [a for kv in argv.items() for a in kv]) == 1
    err = capsys.readouterr().err
    assert "error: DomainError" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["z2", "winding"])
@pytest.mark.parametrize("flag", ["--re-min", "--re-max", "--im-min", "--im-max"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_scan_bound_is_usage_error(mode, flag, bad, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    argv = ["scan", "--mode", mode, "--r", "0.3", "--s", "0.2", f"{flag}={bad}",
            "--nx", "2", "--ny", "2", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid finite value" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_non_finite_pair_is_a_domain_error_for_zeros(capsys):
    assert main(["zeros", "--r", "0.6", "--s", "inf"]) == 1
    assert "error: DomainError" in capsys.readouterr().err


def test_cusp_series_guard_is_a_typed_error_for_zeros(capsys):
    assert main(["zeros", "--r", "1/10000", "--s", "0", "--domain", "F0"]) == 1
    err = capsys.readouterr().err
    assert "error: NearLattice" in err
    assert "Traceback" not in err


def test_verify_prints_summary_and_exit_code(monkeypatch, capsys):
    from pvilab import acceptance
    from pvilab.errors import InternalError

    passing = ("stub pass", lambda: [])
    failing = ("stub fail", lambda: [f"detail {i}" for i in range(12)])

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [passing, passing])
    assert main(["verify"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "2/2 criteria passed"
    assert not any(line.startswith("    ") for line in out)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [passing, failing])
    assert main(["verify"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "1/2 criteria passed"
    assert "criterion 2 [FAIL] stub fail (0.00s)" in out
    assert [line for line in out if line.startswith("    ")] == [
        f"    detail {i}" for i in range(8)
    ]
    # a criterion that raises fails with the error as its detail, and the
    # criteria after it still run
    def raising():
        raise InternalError("witness check failed")

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [("raising", raising), passing])
    assert main(["verify"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "1/2 criteria passed"
    assert out[0].startswith("criterion 1 [FAIL] raising (")
    assert out[1] == "    InternalError: witness check failed"
    assert out[2] == "criterion 2 [PASS] stub pass (0.00s)"


def test_verify_goes_on_after_a_numerical_failure(monkeypatch, capsys):
    # an ArithmeticError fails its criterion, not the whole verify run
    from pvilab import acceptance

    ran = []
    monkeypatch.setattr(
        acceptance,
        "ALL_CRITERIA",
        [("divides", lambda: [1 / 0]), ("passes", lambda: ran.append(True) or [])],
    )
    assert main(["verify"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert ran == [True]
    assert out[0].startswith("criterion 1 [FAIL] divides (")
    assert out[1] == "    ZeroDivisionError: division by zero"
    assert out[2].startswith("criterion 2 [PASS] passes (")
    assert out[-1] == "1/2 criteria passed"


def test_lower_half_plane_tau_is_a_domain_error(capsys):
    # -i parses as -1j, below the real axis, not as +1j
    assert main(["eval", "--r", "1/4", "--s", "0", "--tau=-i"]) == 1
    assert "error: DomainError" in capsys.readouterr().err


def test_degenerate_pair_is_usage_error():
    assert main(["eval", "--r", "1/2", "--s", "0", "--tau", "0+1.2i"]) == 1


def test_numerical_failure_exit_code(monkeypatch):
    from pvilab import cli
    from pvilab.errors import BoundaryTooClose

    def boom(args):
        raise BoundaryTooClose("too close")

    monkeypatch.setitem(cli._DISPATCH, "count", boom)
    assert main(["count", "--N", "5"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        # e2 - e1 rounds to 0 in lambda_rs
        ["eval", "--r", "0.3", "--s", "0.2", "--tau", "1+0.06i"],
        # j**2 underflows in lattice_constants
        ["eval", "--r", "1/4", "--s", "0", "--tau", "0+1e-200i"],
        ["scan", "--mode", "z2", "--r", "0.3", "--s", "0.2", "--im-min", "1e-300",
         "--im-max", "1e-300", "--nx", "2", "--ny", "1"],
    ],
    ids=["lambda_rs", "lattice_constants", "scan"],
)
def test_arithmetic_error_is_a_numerical_failure(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ZeroDivisionError: ")
    assert "Traceback" not in err


def test_subcommands_reject_flags_they_do_not_read():
    assert main(["count", "--N", "5", "--tol", "1"]) == 1
    assert main(["eval", "--r", "1/4", "--s", "0", "--tau", "0+1.5i", "--N", "3"]) == 1
    assert main(["orbits", "--N", "6", "--domain", "F"]) == 1
    assert main(["zeros", "--r", "0.6", "--s", "0.3", "--tau", "0+1i"]) == 1
    assert main(["zeros", "--r", "0.6", "--s", "0.3", "--T", "12"]) == 1
    assert main(["scan", "--mode", "winding", "--T", "12"]) == 1
    assert main(["scan", "--mode", "winding", "--r", "0.3", "--s", "0.2"]) == 1
    assert main(["scan", "--mode", "z2", "--r", "0.3", "--s", "0.2", "--domain", "F2"]) == 1
    assert main(["scan", "--N", "3"]) == 1
    assert main(["scan", "--format", "csv"]) == 1
    assert main(["verify", "--out", "x.json"]) == 1


def test_zeros_over_modular_and_level_two_domains(tmp_path):
    code, text = run_cli(
        ["zeros", "--r", "1/5", "--s", "1/5", "--domain", "F"], tmp_path
    )
    assert code == 0
    res = json.loads(text)["results"]
    assert res["winding"] == 0  # its zero sits inside the excluded disk
    code, text = run_cli(
        ["zeros", "--r", "0.6", "--s", "0.3", "--domain", "F2"], tmp_path
    )
    assert code == 0
    res = json.loads(text)["results"]
    assert res["winding"] == 2 and len(res["zeros"]) == 2


def test_cli_entry_point_installed():
    out = subprocess.run(
        [sys.executable, "-m", "pvilab", "count", "--N", "3"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["results"]["P"] == 0


def test_closed_pipe_exits_1_without_a_traceback():
    # the reader takes one line and closes the pipe, as "| head -1" does;
    # the report is far larger than a pipe buffer, so the write hits it
    proc = subprocess.Popen(
        [sys.executable, "-m", "pvilab", "orbits", "--N", "40"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert "Traceback" not in err
