"""CLI behavior: exit-code contract, deterministic output, config precedence."""

import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
import sys
import time
import warnings
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biconf
import biconf.fields
from biconf import cli, pretty
from biconf.cli import (
    EXAMPLE_COMMANDS,
    EXAMPLE_NAMES,
    MAX_GRID_POINTS,
    build_parser,
    finite,
    main,
    positive,
    resolve_args,
)
from test_expr import EXPRESSIONS

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


def test_examples_run_ricci_flat(capsys):
    assert main(["examples", "ricci-flat"]) == 0
    assert "grid max |closed-form - FD| = 1.080001e-06  (tol 1e-05)" in capsys.readouterr().out


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


def test_solve_family_ricci_flat_span_must_not_be_reversed(tmp_path, capsys):
    out = tmp_path / "f.csv"
    argv = ["solve-family", "--ricci-flat", "--t-min", "3", "--t-max", "1", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: --dt/--t-max: ")
    assert not out.exists()
    # an empty span is one sample at t-min
    argv = ["solve-family", "--ricci-flat", "--t-min", "1", "--t-max", "1", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text().splitlines()[1].startswith("1,1,-0.5,1,")


def test_solve_family_ricci_flat_fills_the_fd_cells_that_are_due(tmp_path, capsys):
    """Of the 16 samples, 0, 4, 8 and 12 are due; sample 0 is t-min, inside
    the 2h margin, so only 4, 8 and 12 get an FD residual."""
    out = tmp_path / "f.csv"
    line = "solve-family --ricci-flat --a 1.5 --t-min 0.5 --t-max 2 --dt 0.1 --fd-every 4"
    assert main(shlex.split(line) + ["--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 16
    filled = [k for k, row in enumerate(rows) if row["fd_einstein_residual"]]
    assert filled == [4, 8, 12]
    assert all(float(rows[k]["fd_einstein_residual"]) < 2e-6 for k in filled)
    assert all(float(row["proj_residual_max"]) <= 1e-14 for row in rows)
    # a Ricci-flat run never blows up, so --expect-complete changes nothing
    assert main(shlex.split(line) + ["--expect-complete"]) == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_solve_family_leaves_sigma_empty_at_an_equilibrium(fmt, tmp_path, capsys):
    out = tmp_path / f"f.{fmt}"
    line = "solve-family --alpha -1 --beta 1 --rho0 1.0000000000000002 --dt 0.2 --t-max 3"
    assert main(shlex.split(line) + ["--format", fmt, "--out", str(out)]) == 0
    text = out.read_text()
    assert "nan" not in text.lower()
    if fmt == "csv":
        rows = [(row["rho_prime"], row["sigma"]) for row in csv.DictReader(text.splitlines())]
        empty = [sigma == "" for _, sigma in rows]
        assert empty == [float(prime) == 0.0 for prime, _ in rows]
    else:
        rows = json.loads(text)["samples"]
        empty = [row["sigma"] is None for row in rows]
        assert empty == [row["rho_prime"] == 0.0 for row in rows]
    assert empty[0] is False and sum(empty) == 15


@pytest.mark.parametrize(
    "line",
    [
        "solve-family --alpha -1 --beta 1 --dt 1e-14 --t-max 1e-13",
        "solve-warped --alpha0 1 --gamma0 1 --delta0 0 --dt 1e-14 --t-max 1e-13",
    ],
)
def test_a_span_below_the_rounding_slack_reaches_t_max(line, tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert main(shlex.split(line) + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "termination: reached-t-max" in stdout
    assert "over t span 1 " not in stdout
    t = [float(row.split(",")[0]) for row in out.read_text().splitlines()[1:]]
    assert len(t) == 11
    assert t[-1] == pytest.approx(1e-13, rel=1e-9)


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
    assert main(base + ["--grid", "x1"]) == 1
    assert main(base + ["--grid", "x9=0:1:2"]) == 1
    assert main(base + ["--grid", "x1=0:1"]) == 1
    assert main(base + ["--grid", "x1=0:1:0"]) == 1


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command", ["residual --sigma 1 --rho 1 --A 0", "verify --sigma 1 --rho 1"]
)
def test_grid_bounds_must_be_finite(command, bad, capsys):
    for rng in (f"{bad}:0:1", f"0:{bad}:2"):
        assert main(shlex.split(command) + ["--grid", f"x1={rng}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad grid range '{rng}'")
        assert "Traceback" not in err


def _single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "line",
    [
        "verify --sigma 1 --rho 1 --grid x1=0:1:2",
        "solve-family --alpha -1 --beta 1 --dt 0.1 --t-max 1 --format json",
    ],
    ids=["grid", "trajectory"],
)
@pytest.mark.parametrize(
    "target,reason",
    [("", "Is a directory"), ("missing/out", "No such file or directory")],
    ids=["directory", "missing-directory"],
)
def test_an_out_path_that_cannot_be_written_exits_1(line, target, reason, tmp_path, capsys):
    path = tmp_path / target
    assert main(shlex.split(line) + ["--out", str(path)]) == 1
    assert _single_error_line(capsys) == f"error: cannot write --out {path}: {reason}\n"


def test_grid_bounds_whose_span_overflows_exit_1(capsys):
    argv = "residual --sigma 1 --rho 1 --A 0 --grid x1=-1e308:1e308:3"
    assert main(shlex.split(argv)) == 1
    assert "bad grid range '-1e308:1e308:3'" in _single_error_line(capsys)


def test_grid_axis_given_twice_exits_1(capsys):
    argv = "residual --sigma 1 --rho 1 --A 0 --grid x1=0:1:2,x1=5:6:2"
    assert main(shlex.split(argv)) == 1
    assert "grid axis x1 is given twice" in _single_error_line(capsys)


WARPED = "solve-warped --alpha0 1 --gamma0 1 --delta0 0"


@pytest.mark.parametrize(
    "line,code,err",
    [
        # 0.1 * 3 != 0.3 in floats: the flags agree to rounding and C is used
        (f"{WARPED} --C 0.3 --Ctilde 0.1 --B 3", 0, ""),
        (f"{WARPED} --C 0.3 --Ctilde 0.2 --B 3", 1, "error: --C and --Ctilde are inconsistent"),
        (f"{WARPED} --B 0", 1, "error: invalid initial state: B must be nonzero"),
        ("solve-family --alpha -1 --beta 1 --rho0 1", 1, "error: initial state is an equilibrium"),
        ("solve-family --alpha 0 --beta 1", 1, "error: alpha must be nonzero"),
        ("solve-family --ricci-flat --t-min -1 --t-max 1", 1,
         "error: argument --t-min: invalid positive value: '-1'"),
        ("solve-family --ricci-flat --t-min 0 --t-max 1", 1,
         "error: argument --t-min: invalid positive value: '0'"),
        ("solve-family --alpha -1 --beta 1 --b -1 --t-max 1 --fd-every 100", 1,
         "error: argument --b: invalid positive value: '-1'"),
    ],
)
def test_exit_code_of_a_command_line(line, code, err, capsys):
    assert main(shlex.split(line)) == code
    stderr = capsys.readouterr().err
    assert stderr.startswith(err) and bool(stderr) == bool(err)


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


def test_exit_2_on_overflow(capsys):
    code = main(["residual", "--sigma", "exp(1000*x1)", "--rho", "1", "--A", "0", "--grid", "x1=1:1:1"])
    assert code == 2
    assert "numerical failure:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "verify --sigma 1e200 --rho 1 --grid x1=0:0:1",  # 1/sigma^2 in the metric
        "verify --sigma 1e-200 --rho 1 --grid x1=0:0:1",  # rho^2/sigma^2 in the frame Ricci
        "solve-family --alpha -1 --beta 1e200 --dt 0.1 --t-max 1",  # beta^3 in rho'
        "solve-family --alpha -1 --beta 1 --b 1e300 --dt 0.1 --t-max 1",  # b^2 in A
    ],
)
def test_exit_2_on_float_error_outside_fields(line, capsys):
    assert main(shlex.split(line)) == 2
    assert "numerical failure:" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["1e-80", "1e100"])
def test_a_metric_at_an_extreme_scale_is_not_singular(sigma, capsys):
    """g = diag(1e160, 1e160, 1, 1) and diag(1e-200, 1e-200, 1, 1) are well
    conditioned: the oracle inverts them although their determinant and
    row scale overflow or underflow, like the closed forms."""
    grid = ["--grid", "x1=-0.2:0.2:3"]
    assert main(["verify", "--sigma", sigma, "--rho", "1", *grid]) == 0
    assert "grid max |closed-form - FD| = 0.000000e+00" in capsys.readouterr().out
    assert main(["residual", "--sigma", sigma, "--rho", "1", "--A", "0", *grid]) == 0


def test_a_tiny_constant_factor_leaves_the_oracle_gap_alone(capsys):
    """sigma and 1e-80 sigma give the same FD-vs-closed-form gap; at 1e-150
    the metric's 1/sigma^2 terms leave the float range."""
    grid = ["--rho", "1", "--grid", "x1=-0.2:0.2:3"]
    for sigma in ("1+x1^2", "1e-80*(1+x1^2)"):
        assert main(["verify", "--sigma", sigma, *grid]) == 0
        assert "grid max |closed-form - FD| = 1.999998e-06" in capsys.readouterr().out
    assert main(["verify", "--sigma", "1e-150*(1+x1^2)", *grid]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: FloatingPointError:")


def test_float_error_names_the_operation_without_a_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(shlex.split("verify --sigma 1e200 --rho 1 --grid x1=0:0:1")) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: FloatingPointError: overflow encountered in")
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize(
    "line",
    [
        "solve-family --alpha -1 --beta 1 --dt 1e-9 --t-max 10",
        "solve-warped --alpha0 1 --gamma0 1 --delta0 0 --dt 1e-9",
        "solve-family --ricci-flat --dt 1e-9",
    ],
)
def test_step_count_is_bounded(line, capsys):
    start = time.perf_counter()
    assert main(shlex.split(line)) == 1
    assert time.perf_counter() - start < 5.0
    assert "error: --dt/--t-max:" in capsys.readouterr().err


def test_exit_1_on_number_outside_the_float_range(capsys):
    assert main(shlex.split("verify --sigma 1e999 --rho 1 --grid x1=0:0:1")) == 1
    assert capsys.readouterr().err.startswith("error: number '1e999' is outside the float range")


@pytest.mark.parametrize(
    "grid,points",
    [
        ("x1=0:1:2000000", 2 * 10**6),
        ("x1=0:1:1000,x2=0:1:1000,x3=0:1:1000,x4=0:1:1000", 10**12),
        (f"x1=0:1:{10**100}", 10**100),
    ],
)
def test_grid_size_is_bounded(grid, points, capsys):
    """A grid over MAX_GRID_POINTS exits 1 before any axis is built or
    any point evaluated (sigma = 0 would fail at the first point with
    exit 2)."""
    start = time.perf_counter()
    assert main(["residual", "--sigma", "0", "--rho", "1", "--A", "0", "--grid", grid]) == 1
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().err == f"error: grid has {points} points, more than {MAX_GRID_POINTS}\n"


def test_grid_stops_at_its_first_failing_point(capsys):
    """sigma = |x|^2 vanishes only at the centre of a 3^4 grid: the run
    prints the lines of the 40 points before it, in the order of
    itertools.product and as each point alone prints them, then exits 2
    naming the centre."""
    base = ["verify", "--sigma", "x1^2 + x2^2 + x3^2 + x4^2", "--rho", "1"]
    assert main(base + ["--grid", "x1=-1:1:3,x2=-1:1:3,x3=-1:1:3,x4=-1:1:3"]) == 2
    out, err = capsys.readouterr()
    assert err == "numerical failure: field must be finite and positive, got 0.0 at (0.0, 0.0, 0.0, 0.0)\n"
    expected = []
    for p in list(product((-1.0, 0.0, 1.0), repeat=4))[:40]:
        main(base + ["--grid", ",".join(f"x{i}={c}:{c}:1" for i, c in enumerate(p, 1))])
        expected.append(capsys.readouterr().out.splitlines()[0])
    assert out.splitlines() == expected


def test_solve_family_leaves_only_the_rho_zero_residual_empty(tmp_path, capsys):
    out = tmp_path / "f.csv"
    argv = "solve-family --alpha -1 --beta 1 --dt 0.01 --t-max 3 --fd-every 7 --out"
    assert main(shlex.split(argv) + [str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    empty = [k for k, row in enumerate(rows) if row["proj_residual_max"] == ""]
    assert empty == [k for k, row in enumerate(rows) if float(row["rho"]) == 0.0] == [0]


# lengths on both sides of the CHUNK boundaries, for the split rule of cli._blocks
SPLIT_LENGTHS = [1, cli.CHUNK - 1, cli.CHUNK, cli.CHUNK + 1, 3000]
SPLIT_ERRORS = (biconf.DomainError, ZeroDivisionError, OverflowError)


@st.composite
def _failure_masks(draw):
    """Which points of a run fail: the first, the last, one in the middle,
    runs of them, all or none; a run may cross a chunk boundary."""
    n = draw(st.sampled_from(SPLIT_LENGTHS))
    mask = np.zeros(n, bool)
    for kind in draw(st.lists(st.sampled_from(["first", "last", "middle", "run", "all"]), max_size=3)):
        if kind == "run":
            start = draw(st.integers(0, n - 1))
            mask[start:start + draw(st.integers(1, 2 * cli.CHUNK))] = True
        else:
            mask[{"first": 0, "last": n - 1, "middle": n // 2, "all": slice(None)}[kind]] = True
    return mask


def _failing_at(mask):
    """A batch evaluation that raises at the first point of the batch in
    ``mask``, with an error type and message of that point and the batch's
    length, else maps each point x to sqrt(x) + 0.5."""

    def evaluate(batch):
        failing = np.flatnonzero(mask[batch.astype(int)])
        if len(failing):
            k = int(batch[failing[0]])
            raise SPLIT_ERRORS[k % 3](f"point {k} of a batch of {len(batch)}")
        return np.sqrt(batch) + 0.5

    return evaluate


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(mask=_failure_masks())
def test_split_batches_give_what_one_point_at_a_time_gives(mask):
    """_column's values and empty cells, and _blocks' error at each failing
    point, are those of evaluating one point at a time."""
    evaluate, values = _failing_at(mask), np.arange(len(mask), dtype=float)
    column, empty = np.zeros(len(values)), np.zeros(len(values), bool)
    errors = {}
    for k in range(len(values)):
        try:
            column[k] = evaluate(values[k:k + 1])[0]
        except cli.NUMERICAL_ERRORS as exc:
            empty[k], errors[k] = True, (type(exc), str(exc))
    assert np.array_equal(empty, mask)

    got_column, got_empty = cli._column(evaluate, values)
    assert got_column.tobytes() == column.tobytes() and np.array_equal(got_empty, empty)

    start, got_errors = 0, {}
    for batch, result in cli._blocks(evaluate, cli._chunks(values)):
        assert np.array_equal(batch, values[start:start + len(batch)])
        if isinstance(result, Exception):
            assert len(batch) == 1
            got_errors[start] = (type(result), str(result))
        else:
            assert not mask[start:start + len(batch)].any()
        start += len(batch)
    assert start == len(values) and got_errors == errors


@pytest.mark.parametrize(
    "line, empty, calls, exact",
    [
        # 10,001 samples; the first, at rho = 0, fails alone, the rest of its chunk passes
        ("solve-family --alpha -1 --beta 1", 1, 12, True),
        # samples 517 to 1000 fail
        ("solve-family --alpha 1 --beta 1 --rho0 0.5 --dt 1e-3 --t-max 1", 484, 982, False),
        # all 3,001 samples fail: two evaluations per sample, as halving gives
        ("solve-family --alpha -1 --beta -1 --dt 1e-3 --t-max 3", 3001, 5999, False),
    ],
)
def test_residual_column_evaluations(line, empty, calls, exact, monkeypatch, tmp_path, capsys):
    """single_param_residuals calls of a run's proj_residual_max column:
    exactly ``calls``, or at most ``calls``, for ``empty`` failing samples."""
    counted = []
    original = cli.single_param_residuals

    def counting(*args):
        counted.append(len(args[-1]))
        return original(*args)

    monkeypatch.setattr(cli, "single_param_residuals", counting)
    out = tmp_path / "f.csv"
    assert main(shlex.split(line) + ["--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert sum(row["proj_residual_max"] == "" for row in rows) == empty
    assert len(counted) == calls if exact else len(counted) <= calls


def test_verify_walks_each_field_a_fixed_number_of_times(monkeypatch, capsys):
    """One second-order jet walk of each field's evaluation form for the
    closed form, at the N grid points, and one first-order walk for the
    oracle's whole stencil of 9 N points, which takes the metric and its
    partials from the same jets; no value walk.  The same on 1 point as on
    81."""
    walks = Counter()
    for name in ("eval_jet", "eval_value"):
        original = getattr(biconf.expr, name)

        def counting(node, points, *order, original=original, name=name):
            walks[(name, node, *order, np.size(points) // 4)] += 1
            return original(node, points, *order)

        for module in (biconf.expr, biconf.fields, biconf.deform, biconf.oracle, biconf.cli):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)

    def count(grid):
        walks.clear()
        assert main(["verify", "--sigma", S2_SIGMA, "--rho", S2_RHO, "--grid", grid]) == 0
        return Counter(walks)

    fields = [biconf.expr.fold(biconf.parse_expr(text)) for text in (S2_SIGMA, S2_RHO)]
    for grid, n in (("x1=0.1:0.1:1", 1),
                    ("x1=-0.3:0.3:3,x2=-0.3:0.3:3,x3=-0.3:0.3:3,x4=-0.3:0.3:3", 81)):
        expected = {("eval_jet", f, order, points): 1
                    for f in fields for order, points in ((2, n), (1, 9 * n))}
        assert count(grid) == expected


@pytest.mark.parametrize(
    "steps",
    [
        "--rho0 0 --dt 2",  # the first step goes 0 -> -1.33 while rho'(0) = 1
        "--rho0 3 --dt 0.5",  # the first step leaves the cap
        "--rho0 3 --dt 0.2",  # the first step goes 3 -> 0.994, across beta = 1
    ],
)
def test_solve_family_step_too_large_for_negative_alpha_exits_2(steps, tmp_path, capsys):
    """For alpha < 0, rho = beta attracts and no member blows up: a step
    that overshoots is a step-size failure naming t, rho and --dt."""
    line = f"solve-family --alpha -1 --beta 1 {steps} --t-max 10 --out"
    assert main(shlex.split(line) + [str(tmp_path / "f.csv")]) == 2
    out, err = capsys.readouterr()
    assert "blow-up" not in out
    assert err.startswith("numerical failure: the RK4 step from t = 0, rho = ")
    assert "reduce --dt" in err


def test_solve_family_cap_lies_above_beta(tmp_path, capsys):
    line = "solve-family --alpha -1e-6 --beta 2000 --dt 1e-3 --t-max 10 --out"
    assert main(shlex.split(line) + [str(tmp_path / "f.csv")]) == 0
    out = capsys.readouterr().out
    assert "termination: reached-t-max" in out
    assert "blow-up" not in out


def test_solve_family_one_sample_trajectory(tmp_path, capsys):
    # the first step blows up: one sample, no interpolant, no residuals
    out = tmp_path / "f.csv"
    code = main(shlex.split("solve-family --alpha 1e300 --beta 1 --dt 0.1 --t-max 1") + ["--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "termination: blow-up" in stdout
    assert "end diagnostics unavailable" in stdout
    header, row = out.read_text().splitlines()
    assert row.endswith(",,")


def test_solve_warped_blow_up_exit_2(tmp_path, capsys):
    out = tmp_path / "w.csv"
    code = main(["solve-warped", "--alpha0", "1", "--gamma0", "1", "--delta0", "100", "--out", str(out)])
    assert code == 2
    assert "termination: blow-up" in capsys.readouterr().out
    assert out.read_text().startswith("t,alpha,gamma,delta,sigma,A_integral\n")


def test_solve_warped_rejected_first_step_spans_no_time(tmp_path, capsys):
    out = tmp_path / "w.json"
    line = "solve-warped --alpha0 1 --gamma0 1 --delta0 1e200 --dt 0.1 --t-max 1 --format json"
    assert main(shlex.split(line) + ["--out", str(out)]) == 2
    stdout = capsys.readouterr().out
    assert "|A drift| = 0.000000e+00 over t span 0 " in stdout
    summary = json.loads(out.read_text())["summary"]
    assert summary["max_drift"] == 0.0 and summary["drift_per_unit_time"] == 0.0


# ---------------------------------------------------------------------------
# One option table: a flag and the config key of the same name are converted,
# range-checked and resolved alike.

# (subcommand, flag, valid value != default, invalid value or None)
_COMMON = [("--tol", "1e-6", "-1"), ("--out", "x.csv", None), ("--format", "json", "xml")]
VALUE_CASES = [
    *[("verify", *case) for case in _COMMON],
    ("verify", "--sigma", S2_SIGMA, None),
    ("verify", "--rho", S2_RHO, None),
    ("verify", "--grid", SMALL_GRID, None),
    ("verify", "--h", "2e-3", "0"),
    *[("residual", *case) for case in _COMMON],
    ("residual", "--sigma", S2_SIGMA, None),
    ("residual", "--rho", S2_RHO, None),
    ("residual", "--grid", SMALL_GRID, None),
    ("residual", "--A", "-1", "one"),
    *[("solve-family", *case) for case in _COMMON[1:]],  # every common flag but --tol
    ("solve-family", "--alpha", "-1", "x"),
    ("solve-family", "--beta", "1", "x"),
    ("solve-family", "--b", "2", "x"),
    ("solve-family", "--rho0", "0.5", "x"),
    ("solve-family", "--dt", "0.01", "-0.1"),
    ("solve-family", "--t-max", "2", "0"),
    ("solve-family", "--t-min", "0.25", "x"),
    ("solve-family", "--h", "5e-4", "nan"),
    ("solve-family", "--fd-every", "10", "-1"),
    ("solve-family", "--a", "2", "0"),
    *[("solve-warped", *case) for case in _COMMON[1:]],
    ("solve-warped", "--alpha0", "1", "x"),
    ("solve-warped", "--gamma0", "1", "x"),
    ("solve-warped", "--delta0", "0", "x"),
    ("solve-warped", "--B", "2", "x"),
    ("solve-warped", "--C", "-1", "x"),
    ("solve-warped", "--Ctilde", "-1", "x"),
    ("solve-warped", "--dt", "0.01", "inf"),
    ("solve-warped", "--t-max", "2", "-2"),
    *[("examples", *case) for case in _COMMON],
]
SWITCH_CASES = [("solve-family", "--expect-complete"), ("solve-family", "--ricci-flat")]
FINITE_CASES = [
    ("residual", "--A"),
    *[("solve-family", flag) for flag in ("--alpha", "--beta", "--rho0")],
    *[
        ("solve-warped", flag)
        for flag in ("--alpha0", "--gamma0", "--delta0", "--B", "--C", "--Ctilde")
    ],
]
POSITIVE_CASES = [
    *[(command, "--tol") for command in ("verify", "residual", "examples")],
    ("verify", "--h"),
    *[("solve-family", flag) for flag in ("--b", "--dt", "--t-max", "--t-min", "--h", "--a")],
    *[("solve-warped", flag) for flag in ("--dt", "--t-max")],
]


def _key(flag):
    return flag[2:].replace("-", "_")


def test_option_cases_cover_every_flag():
    parser = build_parser()
    declared = {
        (name, flag)
        for name, sub in parser.commands.items()
        for action in sub._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help", "--config")
    }
    assert declared == {case[:2] for case in VALUE_CASES} | set(SWITCH_CASES)


@pytest.mark.parametrize("command,flag,valid,invalid", VALUE_CASES)
def test_flag_and_config_key_resolve_alike(command, flag, valid, invalid, tmp_path, monkeypatch):
    monkeypatch.delenv("BICONF_TOL", raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{_key(flag)} = {valid}\n")
    from_flag = getattr(resolve_args([command, flag, valid]), _key(flag))
    from_config = getattr(resolve_args([command, "--config", str(cfg)]), _key(flag))
    assert from_flag == from_config != getattr(resolve_args([command]), _key(flag))


@pytest.mark.parametrize(
    "command,flag,valid,invalid", [case for case in VALUE_CASES if case[3] is not None]
)
def test_flag_and_config_key_reject_alike(command, flag, valid, invalid, tmp_path, capsys):
    assert main([command, flag, invalid]) == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{_key(flag)} = {invalid}\n")
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 1
    assert f"config value for '{_key(flag)}' is invalid" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "-inf"])
@pytest.mark.parametrize("command,flag", FINITE_CASES)
def test_finite_flags_reject_non_finite_numbers(command, flag, bad, tmp_path, capsys):
    assert main([command, f"{flag}={bad}"]) == 1
    assert f"argument {flag}: invalid finite value: '{bad}'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{_key(flag)} = {bad}\n")
    assert main([command, "--config", str(cfg)]) == 1
    assert f"config value for '{_key(flag)}' is invalid" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["0", "-1", "nan", "-inf"])
@pytest.mark.parametrize("command,flag", POSITIVE_CASES)
def test_positive_flags_reject_numbers_that_are_not(command, flag, bad, tmp_path, capsys):
    assert main([command, f"{flag}={bad}"]) == 1
    assert f"argument {flag}: invalid positive value: '{bad}'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{_key(flag)} = {bad}\n")
    assert main([command, "--config", str(cfg)]) == 1
    assert f"config value for '{_key(flag)}' is invalid" in capsys.readouterr().err


def test_number_flag_cases_follow_the_parser():
    """FINITE_CASES and POSITIVE_CASES name every float flag, by its type."""
    for cases, kind in ((FINITE_CASES, finite), (POSITIVE_CASES, positive)):
        assert sorted(cases) == sorted(
            (command, flag) for command, flag, action in FLOAT_FLAGS if action.type is kind
        )


@pytest.mark.parametrize("command,flag", SWITCH_CASES)
def test_switch_and_config_words_resolve_alike(command, flag, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for word, expected in (("yes", True), ("On", True), ("0", False)):
        cfg.write_text(f"{_key(flag)} = {word}\n")
        assert getattr(resolve_args([command, "--config", str(cfg)]), _key(flag)) is expected
    assert getattr(resolve_args([command, flag]), _key(flag)) is True
    assert getattr(resolve_args([command]), _key(flag)) is False
    cfg.write_text(f"{_key(flag)} = maybe\n")
    assert main([command, "--config", str(cfg)]) == 1
    assert f"'{_key(flag)}'" in capsys.readouterr().err
    assert main([command, f"{flag}=maybe"]) == 1


def test_config_key_may_use_the_dashed_flag_name(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t-max = 3\nfd-every = 2\n")
    args = resolve_args(["solve-family", "--config", str(cfg)])
    assert (args.t_max, args.fd_every) == (3.0, 2)


@pytest.mark.parametrize("line", ["name = s2xs2", "command = verify", "config = other.cfg"])
def test_config_rejects_keys_that_name_no_option(line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main(["examples", "--config", str(cfg)]) == 1
    assert repr(line.split()[0]) in capsys.readouterr().err


def test_config_line_without_equals_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# settings\ntol 1e-6\n")
    assert main(["examples", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: expected key = value\n"


@pytest.mark.parametrize(
    "data,reason",
    [
        (None, "No such file or directory"),
        (b"tol = 1e-6\n# \xff\n",
         "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
    ],
    ids=["missing", "not-utf-8"],
)
def test_config_file_that_cannot_be_read_exits_1(data, reason, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    if data is not None:
        cfg.write_bytes(data)
    assert main(["examples", "--config", str(cfg)]) == 1
    assert _single_error_line(capsys) == f"error: cannot read config file {cfg}: {reason}\n"


def test_config_ignores_keys_of_other_subcommands(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sigma = {S2_SIGMA}\nrho = {S2_RHO}\nA = 1\ngrid = x1=0:0:1\nalpha = 3\n")
    assert main(["residual", "--config", str(cfg)]) == 0


def test_config_expect_complete_fails_on_blow_up(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("expect_complete = yes\n")
    argv = ["solve-family", "--alpha", "1", "--beta", "-1", "--dt", "1e-4", "--t-max", "2"]
    assert main(argv + ["--config", str(cfg)]) == 2


def test_config_tolerance_overrides_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BICONF_TOL", "1e-30")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 10\n")
    base = ["residual", "--sigma", S2_SIGMA, "--rho", S2_RHO, "--A", "0", "--grid", "x1=0:0:1"]
    assert main(base + ["--config", str(cfg)]) == 0
    assert main(base) == 3
    monkeypatch.setenv("BICONF_TOL", "-1")
    assert main(base) == 1


# One plain run of each command that takes --tol, and the tolerance its
# summary line shows on the parser's defaults.
PLAIN_TOL_RUNS = [
    (["verify", "--sigma", "1", "--rho", "1", "--grid", "x1=0:0:1"], "(tol 0.0001)"),
    (["residual", "--sigma", "1", "--rho", "1", "--A", "0", "--grid", "x1=0:0:1"], "(tol 1e-08, "),
    (["examples", "hyperbolic"], "(tol 1e-08, "),
]


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    monkeypatch.delenv("BICONF_TOL", raising=False)
    builds = Counter()
    original = cli.build_parser

    def counting():
        builds["parser"] += 1
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._shared_parser.cache_clear()
    try:
        for argv, _ in PLAIN_TOL_RUNS * 3 + [(["examples", "list"], None)]:
            assert main(argv) == 0
    finally:
        cli._shared_parser.cache_clear()
    assert builds["parser"] <= 1


@pytest.mark.parametrize("order", [("config", "env"), ("env", "config")])
def test_settings_of_one_run_leave_the_next_run_on_the_defaults(order, tmp_path, monkeypatch, capsys):
    """A --config file and BICONF_TOL set the defaults of a fresh parser:
    the next plain run of each command is back on the parser's defaults,
    and the shared parser's defaults never change."""
    monkeypatch.delenv("BICONF_TOL", raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 0.5\n")

    def defaults():
        return {name: dict(sub._defaults) for name, sub in cli._shared_parser().commands.items()}

    before = defaults()
    for source in order:
        with monkeypatch.context() as mp:
            extra = ["--config", str(cfg)] if source == "config" else []
            if source == "env":
                mp.setenv("BICONF_TOL", "0.5")
            for argv, _ in PLAIN_TOL_RUNS:
                capsys.readouterr()
                assert main(argv + extra) == 0
                assert "(tol 0.5" in capsys.readouterr().out
        for argv, shown in PLAIN_TOL_RUNS:
            assert main(argv) == 0
            assert shown in capsys.readouterr().out.splitlines()[-1]
            assert vars(resolve_args(argv)) == vars(build_parser().parse_args(argv))
        assert defaults() == before


FAMILY_I_SHORT = ["solve-family", "--alpha", "-1", "--beta", "1", "--t-max", "0.1"]


def test_solve_commands_take_no_tol_flag(capsys):
    assert main([*FAMILY_I_SHORT, "--tol", "1e-6"]) == 1
    assert "--tol" in _single_error_line(capsys)
    warped = ["solve-warped", "--alpha0", "1", "--gamma0", "1", "--delta0", "0", "--tol", "1e-6"]
    assert main(warped) == 1
    _single_error_line(capsys)


def test_tol_settings_leave_solve_family_alone(tmp_path, monkeypatch, capsys):
    """BICONF_TOL and a config ``tol`` key set the tolerance of the grid
    commands; a solve command ignores both."""
    monkeypatch.setenv("BICONF_TOL", "1e-6")
    assert main(FAMILY_I_SHORT) == 0
    monkeypatch.delenv("BICONF_TOL")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1e-6\n")
    assert main([*FAMILY_I_SHORT, "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


def test_examples_tol_reaches_only_commands_that_take_it(capsys):
    assert main(["examples", "family-i", "--tol", "1e-30"]) == 0
    assert main(["examples", "hyperbolic", "--tol", "1e-30"]) == 3


@pytest.mark.parametrize(
    "line,code",
    [
        ("residual --sigma 1 --rho 1 --A -1e-3 --grid x1=0:0:1", 3),
        ("solve-warped --alpha0 1 --gamma0 1 --delta0 0 --Ctilde -1e-05 --t-max 0.01", 0),
        ("solve-family --alpha -1 --beta 1 --rho0 -2e-1 --t-max 0.01", 0),
    ],
)
def test_negative_exponent_after_a_space_is_a_value(line, code, capsys):
    assert main(shlex.split(line)) == code
    assert capsys.readouterr().err == ""


MINUS_EXPRESSIONS = ["-x1+2", "-exp(x1)+3", "-(x1-2)", "-1+x1^2+2"]


@pytest.mark.parametrize("sigma", MINUS_EXPRESSIONS)
def test_an_expression_starting_with_a_minus_is_a_value(sigma, capsys):
    """argparse takes ``-x1+2`` for an option; the flag is joined with it,
    so it reads as ``--sigma=-x1+2`` does.  None of these is an Einstein
    metric with A = 0, so each exits 3."""
    rest = ["--rho", "1", "--A", "0", "--grid", "x1=0:0.5:2"]
    assert main(["residual", "--sigma", sigma, *rest]) == 3
    out, err = capsys.readouterr()
    assert err == ""
    assert main(["residual", f"--sigma={sigma}", *rest]) == 3
    assert capsys.readouterr() == (out, "")


def test_a_flag_is_never_taken_for_an_expression(capsys):
    assert main(["verify", "--sigma", "--rho", "1"]) == 1
    assert "argument --sigma: expected one argument" in _single_error_line(capsys)


@pytest.fixture(scope="module")
def pair_out(tmp_path_factory):
    return tmp_path_factory.mktemp("pair")


def _cells_are_finite_or_empty(text: str, fmt: str) -> bool:
    if fmt == "json":
        def walk(x):
            if isinstance(x, dict):
                return all(map(walk, x.values()))
            if isinstance(x, list):
                return all(map(walk, x))
            return not isinstance(x, float) or np.isfinite(x)

        return walk(json.loads(text))
    rows = list(csv.reader(text.splitlines()))[1:]
    return all(cell == "" or np.isfinite(float(cell)) for row in rows for cell in row)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    sigma=EXPRESSIONS, rho=EXPRESSIONS,
    command=st.sampled_from([["verify"], ["residual", "--A", "1"]]),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_every_printed_expression_is_a_flag_value(pair_out, sigma, rho, command, fmt):
    """The pretty-printed random trees of test_expr, as --sigma and --rho on
    a 2x2 grid, give the same run with and without ``=``: never a usage
    error, an exit code in {0, 2, 3}, and at 0 and 3 an output whose cells
    are finite or empty."""
    sigma, rho = pretty(sigma), pretty(rho)
    out = pair_out / f"out.{fmt}"
    runs = []
    for argv in (
        [*command, "--sigma", sigma, "--rho", rho],
        [*command, f"--sigma={sigma}", f"--rho={rho}"],
    ):
        argv += ["--grid", "x1=-0.5:0.5:2,x3=0.25:0.75:2", "--format", fmt, "--out", str(out)]
        if out.exists():
            out.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        written = out.read_text() if out.exists() else None
        runs.append((code, stdout.getvalue(), stderr.getvalue(), written))
    assert runs[0] == runs[1]
    code, _, err, written = runs[0]
    assert code in (0, 2, 3), err
    if code != 2:
        assert _cells_are_finite_or_empty(written, fmt)


# (subcommand, flag, action) of every flag that takes a float
FLOAT_FLAGS = [
    (name, action.option_strings[-1], action)
    for name, sub in sorted(build_parser().commands.items())
    for action in sub._actions
    if action.type in (finite, positive)
]


@pytest.fixture(scope="module")
def number_cfg(tmp_path_factory):
    return tmp_path_factory.mktemp("numbers") / "run.cfg"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_float_flags_read_every_float_they_print(number_cfg, data):
    """For every float flag and every finite x in its range, ``%.17g`` and
    ``repr`` of x after a space or an ``=``, and as a config line, give x
    exactly: the CLI reads back every number it writes.  (The one integer
    flag, --fd-every, takes no negative value.)"""
    command, flag, action = data.draw(st.sampled_from(FLOAT_FLAGS), label="flag")
    low = {"min_value": 0.0, "exclude_min": True} if action.type is positive else {}
    x = data.draw(st.floats(allow_nan=False, allow_infinity=False, **low), label="x")
    for text in ("%.17g" % x, repr(x)):
        number_cfg.write_text(f"{action.dest} = {text}\n")
        for argv in ([flag, text], [f"{flag}={text}"], ["--config", str(number_cfg)]):
            assert repr(getattr(resolve_args([command, *argv]), action.dest)) == repr(x), argv


# ---------------------------------------------------------------------------
# README


def _readme_commands():
    """Every ``biconf ...`` line of README's CLI section, as argv."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("biconf ")]


def test_readme_cli_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # raises UsageError on a flag the parser lacks


def test_readme_cli_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in _readme_commands():
            assert main(argv) == 0, shlex.join(argv)
    capsys.readouterr()


def test_readme_shows_each_canned_example_command():
    commands = _readme_commands()
    for name, line in EXAMPLE_COMMANDS.items():
        assert ["examples", name] in commands
        assert shlex.split(line) in commands


# ---------------------------------------------------------------------------
# Random argv


# the values a flag draws: numbers at the edges of the float range, and
# (one draw in eight) a non-finite number or text that no flag accepts
FUZZ_NUMBERS = ["0", "1", "-1", "1e300", "-1e300", "1e-300", "-1e-3", "-1.0000000000000001e-05"]
FUZZ_JUNK = ["nan", "inf", "x1^", "junk"]
FUZZ_SPANS = ["0", "0.01", "1", "-1", "nan", "1e300"]  # --t-max stays short
ONE_IN_EIGHT = (True,) + (False,) * 7  # sampled_from is uniform; integers() favours the ends


@st.composite
def _fuzz_value(draw, pool=FUZZ_NUMBERS):
    return draw(st.sampled_from(FUZZ_JUNK if draw(st.sampled_from(ONE_IN_EIGHT)) else pool))


@st.composite
def _fuzz_grid(draw):
    """Up to three axis specs, each of at most 2 points."""
    axes = draw(st.lists(st.tuples(st.integers(1, 5), _fuzz_value(), _fuzz_value()), max_size=3))
    counts = draw(st.lists(_fuzz_value(["0", "1", "2"]), min_size=len(axes), max_size=len(axes)))
    return ",".join(f"x{i}={lo}:{hi}:{n}" for (i, lo, hi), n in zip(axes, counts))


def _fuzz_flag(draw, action, out_path: str) -> list[str]:
    """The flag, with a value drawn for it unless it is a switch, written
    ``--flag=value`` or ``--flag value``."""
    flag = action.option_strings[-1]
    if action.nargs == 0:
        return [flag]
    if action.dest == "grid":
        value = draw(_fuzz_grid())
    elif action.dest == "out":  # once in eight a directory, which cannot be written
        value = os.path.dirname(out_path) if draw(st.sampled_from(ONE_IN_EIGHT)) else out_path
    else:
        pool = FUZZ_SPANS if action.dest == "t_max" else list(action.choices or FUZZ_NUMBERS)
        value = draw(_fuzz_value(pool))
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


@st.composite
def _argvs(draw, out_path: str):
    """A subcommand and some of its flags from build_parser(): a flag with
    no default (one the command may require) three times in four, --config
    once in eight, any other flag once in four."""
    parser = build_parser()
    command = draw(st.sampled_from(sorted(parser.commands)))
    argv = [command]
    if command == "examples":
        argv += draw(st.lists(st.sampled_from([*EXAMPLE_NAMES, "list", "run", "junk"]), max_size=2))
    if command.startswith("solve"):
        argv += ["--t-max", "1"]
    for action in parser.commands[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if action.dest == "config":
            odds = ONE_IN_EIGHT
        else:
            odds = (True, True, True, False) if action.default is None else (True, False, False, False)
        if draw(st.sampled_from(odds)):
            argv += _fuzz_flag(draw, action, out_path)
    return argv


@pytest.fixture(scope="module")
def fuzz_out(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "out")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_argv_keeps_the_exit_code_contract(fuzz_out, data):
    """Any argv ends with an exit code in {0, 1, 2, 3}: 1 with exactly
    one error line, 2 with a numerical-failure report, 0 and 3 with
    nothing on stderr; no exception escapes main."""
    argv = data.draw(_argvs(fuzz_out), label="argv")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    elif code == 2:
        assert err.startswith("numerical failure:")
    else:
        assert err == ""
