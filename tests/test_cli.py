"""CLI behavior: exit-code contract, deterministic output, config precedence."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import biconf
from biconf.cli import EXAMPLE_NAMES, main

S2_SIGMA = "(1 + x1^2 + x2^2)/2"
S2_RHO = "(1 + x3^2 + x4^2)/2"
SMALL_GRID = "x1=-0.2:0.2:2,x3=-0.2:0.2:2"


def test_exit_0_on_success(capsys):
    code = main(
        ["residual", "--sigma", S2_SIGMA, "--rho", S2_RHO, "--A", "1", "--grid", SMALL_GRID]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "grid max residual" in out


def test_exit_1_on_parse_failure(capsys):
    code = main(["verify", "--sigma", "1 +", "--rho", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_exit_1_on_missing_required(capsys):
    assert main(["residual", "--rho", "1", "--A", "1"]) == 1
    assert main(["solve-family"]) == 1


def test_exit_1_on_unknown_example(capsys):
    assert main(["examples", "does-not-exist"]) == 1


def test_exit_1_on_invalid_warped_state(capsys):
    code = main(["solve-warped", "--alpha0", "1", "--gamma0", "0", "--delta0", "0"])
    assert code == 1
    assert "invalid initial state" in capsys.readouterr().err


def test_exit_2_on_positivity_violation(capsys):
    code = main(["verify", "--sigma", "x1", "--rho", "1", "--grid", "x1=-0.2:0.2:3"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_exit_3_on_tolerance_exceeded(capsys):
    code = main(
        ["residual", "--sigma", S2_SIGMA, "--rho", S2_RHO, "--A", "0", "--grid", "x1=0:0:1"]
    )
    out = capsys.readouterr().out
    assert code == 3
    # with A = 0 the residual is the frame Ricci itself: 1 on the diagonal
    assert "max|residual| = 1.0" in out


def test_examples_list(capsys):
    assert main(["examples", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == EXAMPLE_NAMES
    capsys.readouterr()
    assert main(["examples"]) == 0


def test_examples_run_s2xs2(capsys):
    assert main(["examples", "s2xs2"]) == 0
    capsys.readouterr()
    assert main(["examples", "run", "s2xs2"]) == 0


def test_examples_run_hyperbolic(capsys):
    assert main(["examples", "hyperbolic"]) == 0
    assert "A = -3" in capsys.readouterr().out


def test_examples_run_family_ii_reports_blow_up(capsys):
    assert main(["examples", "family-ii"]) == 0
    out = capsys.readouterr().out
    assert "incomplete" in out
    assert "1.209" in out


def test_verify_csv_deterministic(tmp_path, capsys):
    args = [
        "verify",
        "--sigma",
        S2_SIGMA,
        "--rho",
        S2_RHO,
        "--grid",
        SMALL_GRID,
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    assert b1.startswith(b"x1,x2,x3,x4,max_abs_diff\n")
    assert b"\r" not in b1


def test_solve_family_csv_columns(tmp_path, capsys):
    out = tmp_path / "fam.csv"
    code = main(
        [
            "solve-family",
            "--alpha",
            "-1",
            "--beta",
            "1",
            "--b",
            "1",
            "--dt",
            "0.01",
            "--t-max",
            "6",
            "--fd-every",
            "100",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,rho,rho_prime,sigma,proj_residual_max,fd_einstein_residual"
    assert len(lines) == 602  # header + 601 samples
    stdout = capsys.readouterr().out
    assert "A = -3" in stdout
    assert "hyperbolic-type / r2-end" in stdout


def test_solve_family_json(tmp_path, capsys):
    out = tmp_path / "fam.json"
    code = main(
        [
            "solve-family",
            "--alpha",
            "-1",
            "--beta",
            "1",
            "--dt",
            "0.01",
            "--t-max",
            "2",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"samples", "summary"}
    assert payload["summary"]["A"] == -3.0
    assert payload["samples"][0]["rho"] == 0.0


def test_solve_family_expect_complete_fails_on_blow_up(capsys):
    code = main(
        [
            "solve-family",
            "--alpha",
            "1",
            "--beta",
            "-1",
            "--dt",
            "0.001",
            "--t-max",
            "2",
            "--expect-complete",
        ]
    )
    assert code == 2


def test_solve_family_ricci_flat(capsys):
    code = main(["solve-family", "--ricci-flat", "--a", "1", "--dt", "0.1", "--t-max", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "A = 0" in out


def test_solve_warped_conservation_summary(tmp_path, capsys):
    out = tmp_path / "w.csv"
    code = main(
        [
            "solve-warped",
            "--alpha0",
            "1",
            "--gamma0",
            "1",
            "--delta0",
            "0",
            "--Ctilde",
            "0",
            "--dt",
            "0.001",
            "--t-max",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "A(0) = -3" in stdout
    assert "|A drift|" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "t,alpha,gamma,delta,sigma,A_integral"


def test_solve_warped_singular_gamma_exit_2(capsys):
    code = main(
        [
            "solve-warped",
            "--alpha0",
            "1",
            "--gamma0",
            "0.05",
            "--delta0",
            "-3",
            "--dt",
            "0.001",
            "--t-max",
            "10",
        ]
    )
    assert code == 2


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# residual run settings\n"
        f"sigma = {S2_SIGMA}\n"
        f"rho = {S2_RHO}\n"
        "A = 1\n"
        "grid = x1=0:0:1\n"
    )
    assert main(["residual", "--config", str(cfg)]) == 0
    capsys.readouterr()
    # flags override the config file: wrong A now fails the tolerance
    assert main(["residual", "--config", str(cfg), "--A", "0"]) == 3


def test_config_format_uses_the_flag_choices(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out.xml"
    cfg.write_text(f"sigma = {S2_SIGMA}\nrho = {S2_RHO}\nA = 1\ngrid = x1=0:0:1\nformat = xml\n")
    assert main(["residual", "--config", str(cfg), "--out", str(out)]) == 1
    assert "'format'" in capsys.readouterr().err
    assert not out.exists()


def test_env_var_overrides_default_tolerance(monkeypatch, capsys):
    base = ["residual", "--sigma", S2_SIGMA, "--rho", S2_RHO, "--A", "0", "--grid", "x1=0:0:1"]
    monkeypatch.setenv("BICONF_TOL", "10.0")
    assert main(base) == 0  # residual ~1 is below the env tolerance
    # an explicit flag still wins over the env var
    assert main(base + ["--tol", "1e-8"]) == 3
    monkeypatch.setenv("BICONF_TOL", "not-a-number")
    assert main(base) == 1


def test_bad_grid_specs(capsys):
    base = ["verify", "--sigma", "1", "--rho", "1"]
    assert main(base + ["--grid", "x9=0:1:2"]) == 1
    assert main(base + ["--grid", "x1=0:1"]) == 1
    assert main(base + ["--grid", "x1=0:1:0"]) == 1


def test_invalid_numeric_settings(capsys):
    assert main(["solve-family", "--alpha", "-1", "--beta", "1", "--dt", "-0.1"]) == 1
    assert main(["residual", "--sigma", "1", "--rho", "1", "--A", "0", "--tol", "-1"]) == 1
    assert main(["verify", "--sigma", "1", "--rho", "1", "--h", "0"]) == 1


def test_console_script_entry_point():
    # the child imports the same biconf as this process, installed or not
    src = str(Path(biconf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "biconf.cli", "examples", "list"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.split() == EXAMPLE_NAMES
