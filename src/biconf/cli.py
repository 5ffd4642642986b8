"""Command-line front end.

Subcommands:

    verify        closed-form coordinate Ricci vs the FD oracle on a grid
    residual      the ten pointwise Einstein residuals on a grid
    solve-family  integrate a single-parameter family (or emit the
                  closed-form Ricci-flat profile) and write a trajectory
    solve-warped  integrate the warped first-order system
    examples      list or run the named canned verifications

Exit codes: 0 success, 1 validation/parse failure, 2 numerical failure
(singular metric, domain error), 3 tolerance exceeded.

Option precedence: command-line flags override the config file (plain
``key = value`` lines) which overrides built-in defaults; the env var
BICONF_TOL replaces the built-in default tolerance only.  CSV output is
deterministic: fixed headers, 17-significant-digit floats, LF endings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from itertools import product

import numpy as np

from .deform import DeformationPair, frame_to_coords, metric_of, ricci_frame
from .expr import DomainError, ParseError
from .families import (
    BLOW_UP,
    SINGULAR_GAMMA,
    FamilyParams,
    WarpedState,
    einstein_constant,
    einstein_residuals,
    end_diagnostics,
    family_fields,
    hyperbolic_fields,
    integrate_rho,
    integrate_warped,
    ricci_flat_fields,
    single_param_residuals,
)
from .oracle import (
    DEFAULT_GAMMA_STEP,
    InvalidMetricError,
    OracleError,
    SingularMetricError,
    einstein_residual_fd,
    ricci_fd,
)

NUMERICAL_ERRORS = (DomainError, SingularMetricError, InvalidMetricError, OracleError)

RESIDUAL_COLUMNS = [
    "res_11",
    "res_22",
    "res_12",
    "res_13",
    "res_14",
    "res_23",
    "res_24",
    "res_33",
    "res_44",
    "res_34",
]

FORMATS = ("csv", "json")

EXAMPLE_NAMES = ["s2xs2", "h2xh2", "ricci-flat", "hyperbolic", "family-i", "family-ii"]


class UsageError(Exception):
    """Bad flags, config or expressions; maps to exit code 1."""


def _fmt(x) -> str:
    return format(float(x), ".17g")


@dataclass
class RunConfig:
    """Resolved settings for one command invocation."""

    command: str
    sigma: str | None = None
    rho: str | None = None
    A: float | None = None
    grid: str = "x1=-0.3:0.3:3,x2=-0.3:0.3:3,x3=-0.3:0.3:3,x4=-0.3:0.3:3"
    h: float = DEFAULT_GAMMA_STEP
    alpha: float | None = None
    beta: float | None = None
    b: float = 1.0
    B: float = 1.0
    C: float | None = None
    Ctilde: float | None = None
    alpha0: float | None = None
    gamma0: float | None = None
    delta0: float | None = None
    rho0: float = 0.0
    dt: float = 1e-3
    t_max: float = 10.0
    t_min: float = 0.5
    tol: float | None = None
    out: str | None = None
    format: str = "csv"
    expect_complete: bool = False
    ricci_flat: bool = False
    a: float = 1.0
    fd_every: int = 0
    name: str | list | None = None  # examples positional words


_FLOAT_KEYS = {
    "A",
    "h",
    "alpha",
    "beta",
    "b",
    "B",
    "C",
    "Ctilde",
    "alpha0",
    "gamma0",
    "delta0",
    "rho0",
    "dt",
    "t_max",
    "t_min",
    "tol",
    "a",
}
_BOOL_KEYS = {"expect_complete", "ricci_flat"}
_INT_KEYS = {"fd_every"}


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                values[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    return values


def _coerce(key: str, raw: str):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _BOOL_KEYS:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if key == "format" and raw not in FORMATS:
            raise ValueError(raw)
    except ValueError:
        raise UsageError(f"config value for {key!r} is invalid: {raw!r}") from None
    return raw


def _resolve_config(args: argparse.Namespace, command: str) -> RunConfig:
    """Merge flags > config file > BICONF_TOL (for tol) > defaults."""
    cfg = RunConfig(command=command)
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    env_tol = os.environ.get("BICONF_TOL")
    if env_tol is not None:
        try:
            cfg.tol = float(env_tol)
        except ValueError:
            raise UsageError(f"BICONF_TOL is not a number: {env_tol!r}") from None
    for key, raw in file_values.items():
        if not hasattr(cfg, key) or key == "command":
            raise UsageError(f"unknown config key {key!r}")
        setattr(cfg, key, _coerce(key, raw))
    for key in vars(cfg):
        if key == "command":
            continue
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            setattr(cfg, key, flag_value)
    if cfg.dt <= 0.0:
        raise UsageError(f"dt must be positive, got {cfg.dt}")
    if cfg.t_max <= 0.0:
        raise UsageError(f"t-max must be positive, got {cfg.t_max}")
    if cfg.tol is not None and cfg.tol <= 0.0:
        raise UsageError(f"tolerance must be positive, got {cfg.tol}")
    if cfg.h <= 0.0:
        raise UsageError(f"h must be positive, got {cfg.h}")
    if cfg.fd_every < 0:
        raise UsageError(f"fd-every must be >= 0, got {cfg.fd_every}")
    return cfg


def _parse_grid(spec: str) -> list[np.ndarray]:
    """Parse "x1=lo:hi:n,..." into four coordinate arrays (default [0])."""
    axes = {f"x{i}": np.array([0.0]) for i in range(1, 5)}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"bad grid component {part!r}, expected x_i=lo:hi:n")
        name, rng = part.split("=", 1)
        name = name.strip()
        if name not in axes:
            raise UsageError(f"bad grid axis {name!r}, expected x1..x4")
        pieces = rng.split(":")
        if len(pieces) != 3:
            raise UsageError(f"bad grid range {rng!r}, expected lo:hi:n")
        try:
            lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError:
            raise UsageError(f"bad grid range {rng!r}") from None
        if count < 1:
            raise UsageError(f"grid count must be >= 1, got {count}")
        axes[name] = np.array([lo]) if count == 1 else np.linspace(lo, hi, count)
    return [axes[f"x{i}"] for i in range(1, 5)]


def _grid_points(spec: str):
    ax1, ax2, ax3, ax4 = _parse_grid(spec)
    return [np.array(p) for p in product(ax1, ax2, ax3, ax4)]


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else _fmt(v) for v in row) + "\n")


def _write_json(path: str, key: str, header: list[str], rows: list[list], summary: dict) -> None:
    records = [
        {name: (None if v is None else float(v)) for name, v in zip(header, row)}
        for row in rows
    ]
    payload = {key: records, "summary": summary}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _emit(cfg: RunConfig, key: str, header: list[str], rows: list[list], summary: dict) -> None:
    if cfg.out is None:
        return
    if cfg.format == "csv":
        _write_csv(cfg.out, header, rows)
    else:
        _write_json(cfg.out, key, header, rows, summary)


def _require(cfg: RunConfig, *keys: str) -> None:
    for key in keys:
        if getattr(cfg, key) is None:
            raise UsageError(f"--{key.replace('_', '-')} is required for this command")


def _deformation(cfg: RunConfig) -> DeformationPair:
    _require(cfg, "sigma", "rho")
    return DeformationPair.from_exprs(cfg.sigma, cfg.rho)


# ---------------------------------------------------------------------------
# Commands


def _grid_scan(cfg: RunConfig, label: str, evaluate) -> tuple[list, float]:
    """Rows (x1, x2, x3, x4, *evaluate(p)) over the grid, whose last value
    is the point's maximum (printed as ``label``); returns the rows and
    the grid maximum."""
    rows = []
    grid_max = 0.0
    for p in _grid_points(cfg.grid):
        values = evaluate(p)
        top = values[-1]
        grid_max = max(grid_max, top)
        rows.append([p[0], p[1], p[2], p[3], *values])
        print(
            f"x=({_fmt(p[0])}, {_fmt(p[1])}, {_fmt(p[2])}, {_fmt(p[3])})"
            f"  {label} = {top:.6e}"
        )
    return rows, grid_max


def cmd_verify(cfg: RunConfig) -> int:
    tol = cfg.tol if cfg.tol is not None else 1e-4
    d = _deformation(cfg)
    g = metric_of(d)

    def evaluate(p):
        closed = frame_to_coords(ricci_frame(d, p))
        return [float(np.max(np.abs(closed - ricci_fd(g, p, h=cfg.h))))]

    rows, grid_max = _grid_scan(cfg, "max|closed - fd|", evaluate)
    passed = grid_max < tol
    summary = {"grid_max": grid_max, "tol": tol, "pass": passed, "points": len(rows)}
    _emit(cfg, "points", ["x1", "x2", "x3", "x4", "max_abs_diff"], rows, summary)
    print(f"grid max |closed-form - FD| = {grid_max:.6e}  (tol {tol:g})")
    return 0 if passed else 3


def cmd_residual(cfg: RunConfig) -> int:
    tol = cfg.tol if cfg.tol is not None else 1e-8
    _require(cfg, "A")
    d = _deformation(cfg)

    def evaluate(p):
        res = einstein_residuals(d, cfg.A, p)
        return [*res, float(np.max(np.abs(res)))]

    rows, grid_max = _grid_scan(cfg, "max|residual|", evaluate)
    passed = grid_max < tol
    summary = {"grid_max": grid_max, "tol": tol, "pass": passed, "A": cfg.A}
    header = ["x1", "x2", "x3", "x4", *RESIDUAL_COLUMNS, "max_abs"]
    _emit(cfg, "points", header, rows, summary)
    print(f"grid max residual = {grid_max:.6e}  (tol {tol:g}, A = {cfg.A:g})")
    return 0 if passed else 3


def _family_rows(cfg, sigma, rho, a_const, samples, t_lo, t_hi):
    """Rows (t, rho, rho_prime, sigma, proj_residual_max, fd_einstein_residual)."""
    metric = metric_of(DeformationPair(sigma, rho))
    rows = []
    margin = 2.0 * cfg.h
    for k, (t, rv, rp, sv) in enumerate(samples):
        proj = None
        try:
            proj = float(np.max(np.abs(single_param_residuals(sigma, rho, a_const, t))))
        except NUMERICAL_ERRORS:
            pass
        fd = None
        if cfg.fd_every > 0 and k % cfg.fd_every == 0 and t_lo + margin < t < t_hi - margin:
            try:
                fd = einstein_residual_fd(metric, a_const, (t, 0.0, 0.0, 0.0), h=cfg.h)
            except NUMERICAL_ERRORS:
                pass
        rows.append([t, rv, rp, sv, proj, fd])
    return rows


def cmd_solve_family(cfg: RunConfig) -> int:
    header = ["t", "rho", "rho_prime", "sigma", "proj_residual_max", "fd_einstein_residual"]
    if cfg.ricci_flat:
        if cfg.a <= 0.0:
            raise UsageError(f"--a must be positive, got {cfg.a}")
        sigma, rho = ricci_flat_fields(cfg.a)
        a_const = 0.0
        ts = np.arange(cfg.t_min, cfg.t_max + 0.5 * cfg.dt, cfg.dt)
        samples = [
            (
                float(t),
                rho((t, 0, 0, 0)),
                float(rho.partial((t, 0, 0, 0), 1)),
                sigma((t, 0, 0, 0)),
            )
            for t in ts
        ]
        rows = _family_rows(cfg, sigma, rho, a_const, samples, cfg.t_min, cfg.t_max)
        summary = {"A": a_const, "profile": "ricci-flat", "a": cfg.a}
        _emit(cfg, "samples", header, rows, summary)
        print(f"Ricci-flat profile sigma = a t^(1/4), rho = t^(-1/2), a = {cfg.a:g}")
        print(f"A = {a_const:g}")
        return 0

    _require(cfg, "alpha", "beta")
    try:
        fp = FamilyParams(alpha=cfg.alpha, beta=cfg.beta, b=cfg.b)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    traj = integrate_rho(fp, cfg.rho0, cfg.dt, cfg.t_max)
    prime0 = traj["rho_prime"][0]
    if prime0 == 0.0:
        raise UsageError("initial state is an equilibrium (rho' = 0); sigma undefined")
    a_const = einstein_constant(fp, 1 if prime0 > 0 else -1)

    sigma = rho = None
    try:
        sigma, rho = family_fields(fp, traj)
    except NUMERICAL_ERRORS:
        pass
    samples = list(zip(traj.t, traj["rho"], traj["rho_prime"], traj["sigma"]))
    if sigma is not None:
        rows = _family_rows(cfg, sigma, rho, a_const, samples, traj.t[0], traj.t[-1])
    else:
        rows = [[t, rv, rp, sv, None, None] for t, rv, rp, sv in samples]

    summary = {
        "A": a_const,
        "alpha": fp.alpha,
        "beta": fp.beta,
        "b": fp.b,
        "termination": traj.termination,
        "blow_up_time": traj.blow_up_time,
    }
    print(f"A = {_fmt(a_const)}")
    print(f"termination: {traj.termination}")
    if traj.termination == BLOW_UP:
        print(f"blow-up: metric incomplete, t0 = {_fmt(traj.blow_up_time)}")
    try:
        diag = end_diagnostics(fp, traj)
        print(
            f"small-t slopes: rho' ~ {_fmt(diag.rho_slope)}, sigma' ~ {_fmt(diag.sigma_slope)}"
        )
        print(
            f"large-t: rho -> {_fmt(diag.rho_limit)}, 1/sigma -> {_fmt(diag.inv_sigma_limit)}"
        )
        print(f"ends: {diag.small_end} / {diag.large_end}")
        summary["ends"] = [diag.small_end, diag.large_end]
    except ValueError as exc:
        print(f"end diagnostics unavailable: {exc}")
    _emit(cfg, "samples", header, rows, summary)
    if cfg.expect_complete and traj.termination == BLOW_UP:
        print("numerical failure: blow-up but --expect-complete was set", file=sys.stderr)
        return 2
    return 0


def cmd_solve_warped(cfg: RunConfig) -> int:
    _require(cfg, "alpha0", "gamma0", "delta0")
    if cfg.C is not None and cfg.Ctilde is not None and cfg.C != cfg.Ctilde * cfg.B:
        raise UsageError("--C and --Ctilde are inconsistent; give one of them")
    c_const = cfg.C if cfg.C is not None else (cfg.Ctilde or 0.0) * cfg.B
    try:
        state = WarpedState(cfg.alpha0, cfg.gamma0, cfg.delta0, B=cfg.B, C=c_const)
    except ValueError as exc:
        raise UsageError(f"invalid initial state: {exc}") from None
    traj = integrate_warped(state, cfg.dt, (0.0, cfg.t_max))
    a_int = traj["A_integral"]
    drift = float(np.max(np.abs(a_int - a_int[0])))
    span = float(traj.t[-1] - traj.t[0]) if len(traj) > 1 else 1.0
    rows = [
        [t, al, ga, de, si, ai]
        for t, al, ga, de, si, ai in zip(
            traj.t,
            traj["alpha"],
            traj["gamma"],
            traj["delta"],
            traj["sigma"],
            a_int,
        )
    ]
    summary = {
        "A0": float(a_int[0]),
        "max_drift": drift,
        "drift_per_unit_time": drift / span if span > 0 else drift,
        "termination": traj.termination,
    }
    _emit(cfg, "samples", ["t", "alpha", "gamma", "delta", "sigma", "A_integral"], rows, summary)
    print(f"A(0) = {_fmt(a_int[0])}")
    print(f"|A drift| = {drift:.6e} over t span {span:g} ({drift / max(span, 1e-300):.6e} per unit time)")
    print(f"termination: {traj.termination}")
    if traj.termination == SINGULAR_GAMMA:
        print("numerical failure: gamma became singular", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# Canned examples


_PRODUCT_EXAMPLES = {
    "s2xs2": dict(sigma="(1 + x1^2 + x2^2)/2", rho="(1 + x3^2 + x4^2)/2", A=1.0),
    "h2xh2": dict(sigma="(1 - x1^2 - x2^2)/2", rho="(1 - x3^2 - x4^2)/2", A=-1.0),
}
_FAMILY_EXAMPLES = {
    "family-i": dict(alpha=-1.0, beta=1.0, dt=1e-3, t_max=10.0),
    "family-ii": dict(alpha=1.0, beta=-1.0, dt=1e-4, t_max=2.0),
}


def _run_example(cfg: RunConfig) -> int:
    name = cfg.name
    if name in _PRODUCT_EXAMPLES:
        sub = RunConfig(
            command="residual",
            grid="x1=-0.4:0.4:3,x2=-0.4:0.4:3,x3=-0.4:0.4:3,x4=-0.4:0.4:3",
            tol=cfg.tol,
            out=cfg.out,
            format=cfg.format,
            **_PRODUCT_EXAMPLES[name],
        )
        return cmd_residual(sub)
    if name in _FAMILY_EXAMPLES:
        sub = RunConfig(
            command="solve-family", b=1.0, out=cfg.out, format=cfg.format, **_FAMILY_EXAMPLES[name]
        )
        return cmd_solve_family(sub)
    if name == "ricci-flat":
        tol = cfg.tol if cfg.tol is not None else 1e-5
        sigma, rho = ricci_flat_fields(1.0)
        metric = metric_of(DeformationPair(sigma, rho))
        worst = 0.0
        for t in np.linspace(0.5, 2.0, 7):
            worst = max(
                worst, float(np.max(np.abs(ricci_fd(metric, (t, 0, 0, 0), h=3e-4))))
            )
        print(f"Ricci-flat profile: max FD |Ric| over t in [0.5, 2] = {worst:.6e}")
        print("A = 0")
        return 0 if worst < tol else 3
    if name == "hyperbolic":
        tol = cfg.tol if cfg.tol is not None else 1e-8
        sigma, rho = hyperbolic_fields()
        worst = 0.0
        for t in np.linspace(0.5, 2.0, 7):
            res = single_param_residuals(sigma, rho, -3.0, float(t))
            worst = max(worst, float(np.max(np.abs(res))))
        print(f"hyperbolic profile sigma = rho = t: max residual = {worst:.6e} (A = -3)")
        return 0 if worst < tol else 3
    raise UsageError(f"unknown example {name!r}; names: {', '.join(EXAMPLE_NAMES)}")


def cmd_examples(cfg: RunConfig) -> int:
    words = cfg.name or ["list"]
    if words == ["list"]:
        for name in EXAMPLE_NAMES:
            print(name)
        return 0
    if words[0] == "run":
        words = words[1:]
    if len(words) != 1:
        raise UsageError("usage: biconf examples [list | run NAME | NAME]")
    cfg.name = words[0]
    return _run_example(cfg)


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--tol", type=float, help="tolerance (BICONF_TOL overrides the default)")
    sub.add_argument("--out", help="output file path")
    sub.add_argument("--format", choices=FORMATS, help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="biconf", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="closed-form Ricci vs FD oracle on a grid")
    p.add_argument("--sigma", help="expression for sigma")
    p.add_argument("--rho", help="expression for rho")
    p.add_argument("--grid", help="grid spec x1=lo:hi:n,...")
    p.add_argument("--h", type=float, help="FD step for Christoffel derivatives")
    _add_common(p)

    p = subs.add_parser("residual", help="ten-equation Einstein residuals on a grid")
    p.add_argument("--sigma", help="expression for sigma")
    p.add_argument("--rho", help="expression for rho")
    p.add_argument("--A", type=float, help="Einstein constant")
    p.add_argument("--grid", help="grid spec x1=lo:hi:n,...")
    _add_common(p)

    p = subs.add_parser("solve-family", help="integrate a single-parameter family")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--rho0", type=float, help="initial rho (default 0)")
    p.add_argument("--dt", type=float)
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--t-min", type=float, dest="t_min", help="start of the ricci-flat sample range")
    p.add_argument("--h", type=float, help="FD step for the sparse FD residual column")
    p.add_argument("--fd-every", type=int, dest="fd_every", help="FD residual every N samples (0 = off)")
    p.add_argument("--expect-complete", action="store_true", default=None, dest="expect_complete")
    p.add_argument("--ricci-flat", action="store_true", default=None, dest="ricci_flat")
    p.add_argument("--a", type=float, help="scale of the ricci-flat sigma profile")
    _add_common(p)

    p = subs.add_parser("solve-warped", help="integrate the warped first-order system")
    p.add_argument("--alpha0", type=float)
    p.add_argument("--gamma0", type=float)
    p.add_argument("--delta0", type=float)
    p.add_argument("--B", type=float)
    p.add_argument("--C", type=float)
    p.add_argument("--Ctilde", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-max", type=float, dest="t_max")
    _add_common(p)

    p = subs.add_parser("examples", help="list or run canned verifications")
    p.add_argument("name", nargs="*", help="'list', 'run NAME', or an example name")
    _add_common(p)

    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "residual": cmd_residual,
    "solve-family": cmd_solve_family,
    "solve-warped": cmd_solve_warped,
    "examples": cmd_examples,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args, args.command)
        return _COMMANDS[args.command](cfg)
    except (UsageError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
