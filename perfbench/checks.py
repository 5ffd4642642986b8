"""Output checks: one request passes only if it exits 0 and its output file
parses with the documented header, has the expected rows, and holds
values that are correct for the inputs the generator chose.

``check`` never raises on bad output; it returns an ``Outcome`` whose
``reason`` says what failed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from itertools import product

import numpy as np

VERIFY_HEADER = ["x1", "x2", "x3", "x4", "max_abs_diff"]
RESIDUAL_HEADER = [
    "x1", "x2", "x3", "x4",
    "res_11", "res_22", "res_12", "res_13", "res_14",
    "res_23", "res_24", "res_33", "res_44", "res_34",
    "max_abs",
]
FAMILY_HEADER = ["t", "rho", "rho_prime", "sigma", "proj_residual_max", "fd_einstein_residual"]
WARPED_HEADER = ["t", "alpha", "gamma", "delta", "sigma", "A_integral"]

# Tolerances of the checker, relative to max(1, |A|) where A enters.
PROJ_RESIDUAL_TOL = 1e-5  # single-parameter residuals along a trajectory
FD_RESIDUAL_TOL = 1e-4  # sparse FD Einstein residual, as the verify default
BLOW_UP_TIME_TOL = 1e-4  # |blow_up_time - exact t0|
LIMIT_TOL = 1e-8  # |rho(t_max) - beta| / beta on the complete branch
WARPED_DRIFT_TOL = 1e-9  # |A(t) - A(0)| on warped runs
COORD_TOL = 1e-12


class CheckFailure(Exception):
    pass


@dataclass
class Outcome:
    ok: bool
    rows: int = 0
    bytes_out: int = 0
    cells_empty: int = 0
    reason: str = ""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _cell(text: str):
    return None if text == "" else float(text)


def load_table(path: str, fmt: str, key: str):
    """(header, rows, summary) of a CSV or JSON output; empty cells are None."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            reader = csv.reader(fh)
            header = next(reader)
            rows = [[_cell(v) for v in row] for row in reader]
            return header, rows, None
        payload = json.load(fh)
    records = payload[key]
    header = list(records[0]) if records else []
    rows = [[rec[name] for name in header] for rec in records]
    return header, rows, payload["summary"]


def _column(rows, header, name):
    return [row[header.index(name)] for row in rows]


def _finite(values, what):
    _require(all(v is not None and math.isfinite(v) for v in values), f"{what}: empty or non-finite")


def _check_grid(rows, axes):
    """Row count and coordinates match the product grid in x1-major order."""
    lines = [[lo] if n == 1 else np.linspace(lo, hi, n) for lo, hi, n in axes]
    points = list(product(*lines))
    _require(len(rows) == len(points), f"{len(rows)} rows, grid has {len(points)} points")
    for row, p in zip(rows, points):
        _require(
            all(abs(row[i] - p[i]) <= COORD_TOL for i in range(4)),
            f"row at {row[:4]} is not grid point {p}",
        )


def _check_uniform_times(ts, dt, t_end):
    """Samples start at the first time, step by dt (the last step may be
    shorter) and end at t_end: the row count matches the trajectory."""
    _require(len(ts) >= 2, "trajectory has fewer than two samples")
    steps = np.diff(ts)
    _require(bool(np.all(np.abs(steps[:-1] - dt) <= 1e-9 * dt)), "steps differ from dt")
    _require(0.0 < steps[-1] <= dt * (1.0 + 1e-9), "last step is outside (0, dt]")
    _require(abs(ts[-1] - t_end) <= 1e-9 * max(1.0, abs(t_end)), f"ends at {ts[-1]}, not {t_end}")


def _family_cells(exp, rows, header):
    """Residual cells may be empty only on the rho = 0 start row.  Returns
    the number of empty cells where a residual was due."""
    rho = _column(rows, header, "rho")
    proj = _column(rows, header, "proj_residual_max")
    fd = _column(rows, header, "fd_einstein_residual")
    a_scale = max(1.0, abs(exp["A"]))
    empty = 0
    fd_every = exp.get("fd_every", 0)
    ts = _column(rows, header, "t")
    margin = 2.0 * exp.get("h", 1e-3)
    for k, (r, p) in enumerate(zip(rho, proj)):
        due_fd = fd_every > 0 and k % fd_every == 0 and ts[0] + margin < ts[k] < ts[-1] - margin
        for value, due, tol, what in (
            (p, True, PROJ_RESIDUAL_TOL, "proj_residual_max"),
            (fd[k], due_fd, FD_RESIDUAL_TOL, "fd_einstein_residual"),
        ):
            if value is None:
                if due:
                    empty += 1
                    _require(r == 0.0, f"{what} empty at row {k} where rho = {r}")
                continue
            _require(due, f"{what} present at row {k}, where it is not due")
            _require(math.isfinite(value) and abs(value) <= tol * a_scale,
                     f"{what} = {value} at row {k}")
    return empty


def _einstein_constant(alpha, beta, b):
    """A = -3 b^2 e on the rho' > 0 branch, +3 b^2 e on rho' < 0, where
    e = -alpha beta^3 is also rho'(0) from rho(0) = 0."""
    e = -alpha * beta**3
    return -3.0 * math.copysign(1.0, e) * b * b * e


def _check(req, path) -> tuple[int, int]:
    """(rows, empty residual cells) of a correct output; raises CheckFailure."""
    kind, exp = req.kind, req.expect
    if kind == "verify":
        header, rows, _ = load_table(path, req.fmt, "points")
        _require(header == VERIFY_HEADER, f"header {header}")
        _check_grid(rows, exp["grid"])
        diffs = _column(rows, header, "max_abs_diff")
        _finite(diffs, "max_abs_diff")
        _require(max(diffs) < exp["tol"], f"max |closed - fd| = {max(diffs)}")
        return len(rows), 0
    if kind == "residual":
        header, rows, summary = load_table(path, req.fmt, "points")
        _require(header == RESIDUAL_HEADER, f"header {header}")
        _check_grid(rows, exp["grid"])
        for row in rows:
            _finite(row, "residual row")
            res = row[4:14]
            _require(row[14] == max(abs(v) for v in res), f"max_abs {row[14]} is not the row max")
            _require(row[14] < exp["tol"], f"residual {row[14]} at {row[:4]}")
        _require(summary["A"] == exp["A"] and summary["pass"] is True, f"summary {summary}")
        return len(rows), 0
    if kind in ("complete", "blow-up", "ricci-flat"):
        header, rows, summary = load_table(path, req.fmt, "samples")
        _require(header == FAMILY_HEADER, f"header {header}")
        ts = _column(rows, header, "t")
        _finite(ts + _column(rows, header, "rho"), "t or rho")
        if kind == "ricci-flat":
            _require(ts[0] == exp["t_min"], f"starts at {ts[0]}")
            steps = np.diff(ts)
            _require(bool(np.all(np.abs(steps - exp["dt"]) <= 1e-9)), "steps differ from dt")
            expected = math.floor((exp["t_max"] - exp["t_min"]) / exp["dt"] + 0.5) + 1
            _require(len(rows) == expected, f"{len(rows)} rows, expected {expected}")
            a_const = 0.0
        else:
            alpha, beta, b = exp["alpha"], exp["beta"], exp["b"]
            _require(ts[0] == 0.0, f"starts at {ts[0]}")
            a_const = _einstein_constant(alpha, beta, b)
        if kind == "complete":
            _check_uniform_times(ts, exp["dt"], exp["t_max"])
            rho_end = rows[-1][header.index("rho")]
            _require(abs(rho_end - beta) <= LIMIT_TOL * beta, f"rho(t_max) = {rho_end}, beta = {beta}")
        if kind == "blow-up":
            _require(summary["termination"] == "blow-up", f"termination {summary['termination']}")
            _require(abs(summary["A"] - a_const) <= 1e-12 * max(1.0, abs(a_const)),
                     f"A = {summary['A']}, exact {a_const}")
            t_blow = summary["blow_up_time"]
            _require(abs(t_blow - exp["t0"]) <= BLOW_UP_TIME_TOL,
                     f"blow-up time {t_blow}, exact {exp['t0']}")
            steps = np.diff(ts)
            _require(bool(np.all((steps > 0.0) & (steps <= exp["dt"] * (1.0 + 1e-9)))),
                     "steps outside (0, dt]")
            _require(ts[-1] < t_blow and t_blow - ts[-1] <= exp["dt"], "last sample not at the blow-up")
        empty = _family_cells(dict(exp, A=a_const), rows, header)
        return len(rows), empty
    if kind == "warped":
        header, rows, _ = load_table(path, req.fmt, "samples")
        _require(header == WARPED_HEADER, f"header {header}")
        for row in rows:
            _finite(row, "warped row")
        ts = _column(rows, header, "t")
        _require(ts[0] == 0.0, f"starts at {ts[0]}")
        _check_uniform_times(ts, exp["dt"], exp["t_max"])
        a_int = _column(rows, header, "A_integral")
        drift = max(abs(v - a_int[0]) for v in a_int)
        _require(drift <= WARPED_DRIFT_TOL * max(1.0, abs(a_int[0])), f"|A drift| = {drift}")
        return len(rows), 0
    raise ValueError(f"unknown request kind {kind!r}")


def check(req, exit_code, path) -> Outcome:
    """Judge one request from its exit code and output file."""
    if exit_code != 0:
        return Outcome(False, reason=f"exit code {exit_code}")
    try:
        size = os.path.getsize(path)
        rows, empty = _check(req, path)
    except CheckFailure as exc:
        return Outcome(False, reason=str(exc))
    except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        return Outcome(False, reason=f"unreadable output: {exc!r}")
    return Outcome(True, rows, size, empty)
