"""Command-line front end.

Subcommands:

    verify        closed-form coordinate Ricci vs the FD oracle on a grid
    residual      the ten pointwise Einstein residuals on a grid
    solve-family  integrate a single-parameter family (or emit the
                  closed-form Ricci-flat profile) and write a trajectory
    solve-warped  integrate the warped first-order system
    examples      list or run the named canned verifications

Exit codes: 0 success, 1 validation/parse failure, 2 numerical failure
(singular metric, domain error, float overflow or division by zero, a
warped trajectory stopped before t-max), 3 tolerance exceeded.

Each option is declared once, in ``build_parser()``.  The parser is built
once per process and never changed; settings from a ``--config`` file or
BICONF_TOL become the defaults of a freshly built copy.  A ``--config`` file
of ``key = value`` lines names flags (``t_max`` or ``t-max``) and goes
through their own converters and choices; keys of another subcommand
are ignored, other keys are errors.  Flags override the config file,
which overrides BICONF_TOL (tolerance only), which overrides the
parser's defaults.  CSV output is deterministic: fixed headers,
17-significant-digit floats, LF endings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shlex
import sys

import numpy as np

from .deform import DeformationPair, frame_to_coords, metric_of, ricci_frame
from .expr import FLOAT_ERRORS, DomainError, ParseError, parse_expr
from .families import (
    BLOW_UP,
    REACHED_T_MAX,
    FamilyParams,
    WarpedState,
    check_step_count,
    einstein_constant,
    einstein_residuals,
    end_diagnostics,
    family_fields,
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

NUMERICAL_ERRORS = (
    DomainError,
    SingularMetricError,
    InvalidMetricError,
    OracleError,
    ArithmeticError,
)

# points per batched evaluation and rows per slice of an output file; bounds
# the memory of the jets and stencils of a batch and the text of a slice
CHUNK = 1024
MAX_GRID_POINTS = 10**6  # points per grid scan, like families.MAX_STEPS per run

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

class UsageError(Exception):
    """Bad flags, config or expressions; maps to exit code 1."""


def _fmt(x) -> str:
    return format(float(x), ".17g")


def finite(text: str) -> float:
    """Flag type: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def positive(text: str) -> float:
    """Flag type: a finite float > 0."""
    value = finite(text)
    if not value > 0.0:
        raise ValueError(text)
    return value


def count(text: str) -> int:
    """Flag type: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


_BOOL_WORDS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


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
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise UsageError(f"cannot read config file {path}: {reason}") from None
    return values


def _config_value(action: argparse.Action, key: str, raw: str):
    """``raw`` converted and checked as the flag of ``action`` would be;
    a store-true flag takes the words of _BOOL_WORDS."""
    try:
        if action.nargs == 0:
            return _BOOL_WORDS[raw.lower()]
        value = action.type(raw) if action.type else raw
        if action.choices is not None and value not in action.choices:
            raise ValueError(raw)
        return value
    except (KeyError, ValueError):
        raise UsageError(f"config value for {key!r} is invalid: {raw!r}") from None


def _config_defaults(parser: argparse.ArgumentParser, command: str, path: str) -> dict:
    """The settings of config file ``path`` that apply to ``command``.
    A key is the dest of a flag; one naming a flag of another subcommand
    is ignored, one naming no flag is an error."""
    options = {
        name: {
            a.dest: a for a in sub._actions if a.option_strings and a.dest not in ("help", "config")
        }
        for name, sub in parser.commands.items()
    }
    defaults = {}
    for key, raw in _read_config_file(path).items():
        if key in options[command]:
            defaults[key] = _config_value(options[command][key], key, raw)
        elif not any(key in opts for opts in options.values()):
            raise UsageError(f"unknown config key {key!r}")
    return defaults


# flags whose value is an expression
EXPRESSION_FLAGS = ("--sigma", "--rho")


def _is_value(flag: str, token: str) -> bool:
    """Whether ``token`` is the value of ``flag``: a float, or for an
    expression flag an expression starting with ``-`` (only those are
    parsed here; a flag such as ``--rho`` never parses)."""
    try:
        float(token)
        return True
    except ValueError:
        pass
    if flag in EXPRESSION_FLAGS and token.startswith("-"):
        try:
            parse_expr(token)
            return True
        except ParseError:
            pass
    return False


def _join_numbers(argv: list[str]) -> list[str]:
    """``argv`` with each ``--flag`` and a following token that is its
    value (``_is_value``) joined into ``--flag=token``, which argparse reads
    alike.  Apart, argparse takes a token for a value only if it looks like
    ``-1`` or ``-.5``, so ``--A -1e-3`` or ``--sigma -x1+2`` would be an
    option."""
    joined = []
    for token in argv:
        flag = joined[-1] if joined else ""
        if flag.startswith("--") and "=" not in flag and "--" not in joined:
            if _is_value(flag, token):
                joined[-1] += "=" + token
                continue
        joined.append(token)
    return joined


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every plain command line, built once per process and
    never changed: parsing leaves a parser as it was."""
    return build_parser()


def resolve_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse ``argv``, then, if BICONF_TOL or a --config file gives
    settings, parse it again with them installed as defaults of the
    subcommand's parser in a fresh copy of the parser."""
    parser = _shared_parser()
    argv = _join_numbers(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    defaults = {}
    env_tol = os.environ.get("BICONF_TOL")
    if env_tol is not None:
        try:
            defaults["tol"] = positive(env_tol)
        except ValueError:
            raise UsageError(f"BICONF_TOL is not a positive number: {env_tol!r}") from None
    if args.config:
        defaults.update(_config_defaults(parser, args.command, args.config))
    if not defaults:
        return args
    parser = build_parser()
    parser.commands[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


def _parse_grid(spec: str) -> list[np.ndarray]:
    """Parse "x1=lo:hi:n,..." into four coordinate arrays (default [0]),
    rejecting a grid of more than MAX_GRID_POINTS points before building it."""
    ranges = dict.fromkeys(("x1", "x2", "x3", "x4"))  # None until the axis is given
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"bad grid component {part!r}, expected x_i=lo:hi:n")
        name, rng = part.split("=", 1)
        name = name.strip()
        if name not in ranges:
            raise UsageError(f"bad grid axis {name!r}, expected x1..x4")
        if ranges[name] is not None:
            raise UsageError(f"grid axis {name} is given twice")
        pieces = rng.split(":")
        if len(pieces) != 3:
            raise UsageError(f"bad grid range {rng!r}, expected lo:hi:n")
        try:
            lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError:
            raise UsageError(f"bad grid range {rng!r}") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise UsageError(f"bad grid range {rng!r}, bounds must be finite")
        if not math.isfinite(hi - lo):
            raise UsageError(f"bad grid range {rng!r}, hi - lo overflows")
        if count < 1:
            raise UsageError(f"grid count must be >= 1, got {count}")
        ranges[name] = (lo, hi, count)
    axes = [axis or (0.0, 0.0, 1) for axis in ranges.values()]
    points = math.prod(n for _, _, n in axes)
    if points > MAX_GRID_POINTS:
        raise UsageError(f"grid has {points} points, more than {MAX_GRID_POINTS}")
    return [np.array([lo]) if n == 1 else np.linspace(lo, hi, n) for lo, hi, n in axes]


class _Axis:
    """A grid coordinate column: row k holds ``values[codes[k]]``, the axis
    values and each row's position on the axis.  ``text(fmt)`` formats each
    value once per format and shares the result with every column of the
    axis (``at``, slices), so the stdout lines and a writer each look their
    cells up."""

    def __init__(self, values: np.ndarray, codes: np.ndarray | None = None, texts=None):
        self.values, self.codes = values, codes
        self.texts = {} if texts is None else texts

    def __len__(self) -> int:
        return len(self.codes)

    def at(self, codes: np.ndarray) -> "_Axis":
        """The column of the rows at positions ``codes`` on this axis."""
        return _Axis(self.values, codes, self.texts)

    def __getitem__(self, part: slice) -> "_Axis":
        return self.at(self.codes[part])

    def text(self, fmt) -> np.ndarray:
        """``fmt(v)`` of each axis value, as an object array to index."""
        if fmt not in self.texts:
            self.texts[fmt] = np.array(list(map(fmt, self.values.tolist())), dtype=object)
        return self.texts[fmt]

    def cells(self, fmt) -> list:
        return self.text(fmt)[self.codes].tolist()


def _slices(columns, empty):
    """Each slice of CHUNK rows of ``columns`` (float arrays and _Axis
    columns of one length) as a (values, empty) pair per column, where
    ``empty`` gives a column the mask of its empty cells, or None.  Writers
    write slice by slice."""
    empty = empty or [None] * len(columns)
    for start in range(0, len(columns[0]), CHUNK):
        part = slice(start, start + CHUNK)
        yield [(c[part], None if e is None else e[part]) for c, e in zip(columns, empty)]


def _distinct_cells(values: np.ndarray, fmt, empty=None, blank: str = "") -> list | None:
    """The cells of a float column slice, ``fmt`` of each value and
    ``blank`` where ``empty`` is set, formatting each distinct value once:
    values are keyed by bit pattern, so 0.0 and -0.0 (and NaN payloads)
    stay apart.  None when more than half of the slice's values are
    distinct; the caller then formats each cell."""
    bits = values.view(np.int64)
    keys = np.sort(bits)  # np.unique takes about 9x as long on 1024 values (numpy 2.4)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    if 2 * len(keys) > len(values):
        return None
    texts = np.array([*map(fmt, keys.view(np.float64).tolist()), blank], dtype=object)
    codes = np.searchsorted(keys, bits)
    if empty is not None:
        codes[empty] = len(keys)
    return texts[codes].tolist()


def _csv_cells(values, empty) -> tuple[str, list]:
    """(template field, cells) of one column slice: 17 significant digits,
    "" for an empty cell."""
    if isinstance(values, _Axis):
        return "%s", values.cells(_fmt)
    cells = _distinct_cells(values, "%.17g".__mod__, empty)
    if cells is not None:
        return "%s", cells
    if empty is None or not empty.any():
        return "%.17g", values.tolist()
    return "%s", ["" if e else "%.17g" % v for v, e in zip(values.tolist(), empty.tolist())]


def _json_cells(values, empty) -> list:
    """One column slice as json writes it: a float's repr (``%s``), NaN,
    Infinity or -Infinity, and null for an empty cell."""
    if isinstance(values, _Axis):
        return values.cells(json.dumps)
    cells = _distinct_cells(values, json.dumps, empty, "null")
    if cells is not None:
        return cells
    cells = values.tolist()
    for i in np.flatnonzero(~np.isfinite(values)):
        cells[i] = json.dumps(cells[i])
    for i in () if empty is None else np.flatnonzero(empty):
        cells[i] = "null"
    return cells


def _write_csv(path: str, header: list[str], columns, empty=None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for part in _slices(columns, empty):
            fields, cells = zip(*(_csv_cells(*column) for column in part))
            fh.write("".join(map((",".join(fields) + "\n").__mod__, zip(*cells))))


def _write_json(path: str, key: str, header: list[str], columns, summary: dict, empty=None) -> None:
    """The bytes of ``json.dump({key: records, "summary": summary}, indent=2)``
    and a newline, with one record per row."""
    record = "    {\n" + ",\n".join(f"      {json.dumps(name)}: %s" for name in header) + "\n    }"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{{\n  {json.dumps(key)}: [")
        sep = "\n"
        for part in _slices(columns, empty):
            cells = [_json_cells(*column) for column in part]
            fh.write(sep + ",\n".join(map(record.__mod__, zip(*cells))))
            sep = ",\n"
        fh.write("]" if sep == "\n" else "\n  ]")
        fh.write(',\n  "summary": ' + json.dumps(summary, indent=2).replace("\n", "\n  ") + "\n}\n")


def _emit(args, key: str, header: list[str], columns, summary: dict, empty=None) -> None:
    """Write ``columns``, one array per header name, to --out."""
    if args.out is None:
        return
    try:
        if args.format == "csv":
            _write_csv(args.out, header, columns, empty)
        else:
            _write_json(args.out, key, header, columns, summary, empty)
    except OSError as exc:
        raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from None


def _require(args: argparse.Namespace, *keys: str) -> None:
    for key in keys:
        if getattr(args, key) is None:
            raise UsageError(f"--{key.replace('_', '-')} is required for this command")


def _deformation(args: argparse.Namespace) -> DeformationPair:
    _require(args, "sigma", "rho")
    return DeformationPair.from_exprs(args.sigma, args.rho)


# ---------------------------------------------------------------------------
# Commands


def _chunks(values: np.ndarray):
    return (values[start:start + CHUNK] for start in range(0, len(values), CHUNK))


def _grid_chunks(shape: tuple[int, ...]):
    """The codes (positions on each axis) of the points of a grid of
    ``shape`` as (n, 4) arrays of at most CHUNK rows, in the order of
    itertools.product (x1 slowest)."""
    total = math.prod(shape)
    for start in range(0, total, CHUNK):
        yield np.stack(np.unravel_index(np.arange(start, min(start + CHUNK, total)), shape), axis=-1)


def _attempt(evaluate, batch):
    """``evaluate(batch)``, or the numerical error it raises."""
    try:
        return evaluate(batch)
    except NUMERICAL_ERRORS as exc:
        return exc


def _blocks(evaluate, batches):
    """(batch, ``evaluate(batch)``) for each batch, in order, or (point,
    error) for a point that fails numerically alone.  A batch that raises
    evaluates its first point alone.  If that point fails, the rest of the
    batch is evaluated as one batch; if it passes, the rest is split in
    halves.  Each part follows the same rule until every failing point is
    isolated: a run of failing points costs two evaluations per point.
    Parts are evaluated only as the caller iterates, so a caller that
    stops at an error evaluates nothing past it."""
    for batch in batches:
        while True:
            result = _attempt(evaluate, batch)
            if len(batch) == 1 or not isinstance(result, Exception):
                yield batch, result
                break
            head = _attempt(evaluate, batch[:1])
            yield batch[:1], head
            batch = batch[1:]
            if len(batch) > 1 and not isinstance(head, Exception):
                half = len(batch) // 2
                yield from _blocks(evaluate, (batch[:half], batch[half:]))
                break


def _column(evaluate, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``evaluate``'s value at each entry of ``values``, and the mask of
    the entries that fail numerically."""
    column, empty = np.zeros(len(values)), np.zeros(len(values), bool)
    start = 0
    for batch, result in _blocks(evaluate, _chunks(values)):
        if isinstance(result, Exception):
            empty[start] = True
        else:
            column[start:start + len(batch)] = result
        start += len(batch)
    return column, empty


def _on_t_axis(t: np.ndarray) -> np.ndarray:
    """The points (t, 0, 0, 0)."""
    return np.column_stack([t, np.zeros((len(t), 3))])


def _grid_scan(args: argparse.Namespace, label: str, evaluate) -> tuple[list, float]:
    """The columns (x1, x2, x3, x4, *values) over the grid, one row per
    point, where ``evaluate`` maps a batch of points to one row of values
    per point, the last being the point's maximum (printed as ``label``);
    returns those columns, the coordinates as _Axis columns, and the grid
    maximum.  The first point that fails raises its error after the lines
    of the points before it."""
    axes = [_Axis(values) for values in _parse_grid(args.grid)]
    line = f"x=(%s, %s, %s, %s)  {label} = "
    codes, blocks = [], []
    grid_max = 0.0

    def at(code):
        return evaluate(np.stack([axis.values[c] for axis, c in zip(axes, code.T)], axis=-1))

    for code, values in _blocks(at, _grid_chunks(tuple(len(axis.values) for axis in axes))):
        if isinstance(values, Exception):
            raise values
        codes.append(code)
        blocks.append(values)
        top = values[:, -1].tolist()
        grid_max = max(grid_max, *top)
        texts = _distinct_cells(values[:, -1], "%.6e".__mod__)
        field, top = ("%.6e", top) if texts is None else ("%s", texts)
        shown = [axis.at(c).cells(_fmt) for axis, c in zip(axes, code.T)] + [top]
        print("\n".join(map((line + field).__mod__, zip(*shown))))
    columns = [axis.at(c) for axis, c in zip(axes, np.concatenate(codes).T)]
    return columns + list(np.concatenate(blocks).T), grid_max


def cmd_verify(args: argparse.Namespace) -> int:
    d = _deformation(args)
    g = metric_of(d)

    def evaluate(p):
        closed = frame_to_coords(ricci_frame(d, p))
        return np.max(np.abs(closed - ricci_fd(g, p, h=args.h)), axis=(1, 2))[:, None]

    columns, grid_max = _grid_scan(args, "max|closed - fd|", evaluate)
    passed = grid_max < args.tol
    summary = {"grid_max": grid_max, "tol": args.tol, "pass": passed, "points": len(columns[0])}
    _emit(args, "points", ["x1", "x2", "x3", "x4", "max_abs_diff"], columns, summary)
    print(f"grid max |closed-form - FD| = {grid_max:.6e}  (tol {args.tol:g})")
    return 0 if passed else 3


def cmd_residual(args: argparse.Namespace) -> int:
    _require(args, "A")
    d = _deformation(args)

    def evaluate(p):
        res = einstein_residuals(d, args.A, p)
        return np.column_stack([res, np.max(np.abs(res), axis=1)])

    columns, grid_max = _grid_scan(args, "max|residual|", evaluate)
    passed = grid_max < args.tol
    summary = {"grid_max": grid_max, "tol": args.tol, "pass": passed, "A": args.A}
    header = ["x1", "x2", "x3", "x4", *RESIDUAL_COLUMNS, "max_abs"]
    _emit(args, "points", header, columns, summary)
    print(f"grid max residual = {grid_max:.6e}  (tol {args.tol:g}, A = {args.A:g})")
    return 0 if passed else 3


def _residual_columns(args, sigma, rho, a_const, t, t_lo, t_hi) -> tuple[list, list]:
    """The columns (proj_residual_max, fd_einstein_residual) at the sample
    times ``t`` and their masks of empty cells: a residual that fails
    numerically at a sample, or is not due there, leaves its cell empty."""
    proj, proj_empty = _column(
        lambda ts: np.max(np.abs(single_param_residuals(sigma, rho, a_const, ts)), axis=1), t
    )
    fd, fd_empty = np.zeros(len(t)), np.ones(len(t), bool)
    if args.fd_every > 0:
        metric = metric_of(DeformationPair(sigma, rho))
        margin = 2.0 * args.h
        due = [k for k in range(0, len(t), args.fd_every) if t_lo + margin < t[k] < t_hi - margin]
        fd[due], fd_empty[due] = _column(
            lambda ts: einstein_residual_fd(metric, a_const, _on_t_axis(ts), h=args.h), t[due]
        )
    return [proj, fd], [proj_empty, fd_empty]


def _check_steps(t0: float, args: argparse.Namespace) -> None:
    try:
        check_step_count(t0, args.t_max, args.dt)
    except ValueError as exc:
        raise UsageError(f"--dt/--t-max: {exc}") from None


def cmd_solve_family(args: argparse.Namespace) -> int:
    if args.ricci_flat:
        sigma, rho = ricci_flat_fields(args.a)
        a_const = 0.0
        _check_steps(args.t_min, args)
        ts = np.arange(args.t_min, args.t_max + 0.5 * args.dt, args.dt)

        def sample(t):
            p = _on_t_axis(t)
            r = rho.jet(p, 1)
            return np.column_stack([t, r.val, r.g[:, 0], sigma(p)])

        samples = [np.empty((0, 4))]
        for _, block in _blocks(sample, _chunks(ts)):
            if isinstance(block, Exception):
                raise block
            samples.append(block)
        columns, span = list(np.concatenate(samples).T), (args.t_min, args.t_max)
        no_sigma = None  # sigma is defined at every sample
        summary = {"A": a_const, "profile": "ricci-flat", "a": args.a}
        print(f"Ricci-flat profile sigma = a t^(1/4), rho = t^(-1/2), a = {args.a:g}")
        print(f"A = {a_const:g}")
    else:
        _require(args, "alpha", "beta")
        try:
            fp = FamilyParams(alpha=args.alpha, beta=args.beta, b=args.b)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        _check_steps(0.0, args)
        traj = integrate_rho(fp, args.rho0, args.dt, args.t_max)
        prime0 = traj["rho_prime"][0]
        if prime0 == 0.0:
            raise UsageError("initial state is an equilibrium (rho' = 0); sigma undefined")
        a_const = einstein_constant(fp, 1 if prime0 > 0 else -1)

        sigma = rho = None
        try:
            sigma, rho = family_fields(fp, traj)
        except NUMERICAL_ERRORS:
            pass
        columns = [traj.t, traj["rho"], traj["rho_prime"], traj["sigma"]]
        no_sigma = traj["rho_prime"] == 0.0  # sigma is undefined at an equilibrium
        span = traj.t[0], traj.t[-1]
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

    if sigma is not None:
        values, empty = _residual_columns(args, sigma, rho, a_const, columns[0], *span)
    else:
        values, empty = [np.zeros(len(columns[0]))] * 2, [np.ones(len(columns[0]), bool)] * 2
    header = ["t", "rho", "rho_prime", "sigma", "proj_residual_max", "fd_einstein_residual"]
    _emit(args, "samples", header, columns + values, summary, [None] * 3 + [no_sigma] + empty)
    if args.expect_complete and summary.get("termination") == BLOW_UP:  # never for ricci-flat
        print("numerical failure: blow-up but --expect-complete was set", file=sys.stderr)
        return 2
    return 0


def cmd_solve_warped(args: argparse.Namespace) -> int:
    _require(args, "alpha0", "gamma0", "delta0")
    c_const = args.C if args.C is not None else (args.Ctilde or 0.0) * args.B
    # both flags agree when C = Ctilde B to rounding; C is then used
    if args.Ctilde is not None and not math.isclose(c_const, args.Ctilde * args.B, rel_tol=1e-12):
        raise UsageError("--C and --Ctilde are inconsistent; give one of them")
    try:
        state = WarpedState(args.alpha0, args.gamma0, args.delta0, B=args.B, C=c_const)
    except ValueError as exc:
        raise UsageError(f"invalid initial state: {exc}") from None
    _check_steps(0.0, args)
    traj = integrate_warped(state, args.dt, args.t_max)
    a_int = traj["A_integral"]
    drift = float(np.max(np.abs(a_int - a_int[0])))
    span = float(traj.t[-1])
    rate = drift / span if span > 0 else drift  # one sample: no drift
    header = ["t", "alpha", "gamma", "delta", "sigma", "A_integral"]
    summary = {
        "A0": float(a_int[0]),
        "max_drift": drift,
        "drift_per_unit_time": rate,
        "termination": traj.termination,
    }
    _emit(args, "samples", header, [traj[name] for name in header], summary)
    print(f"A(0) = {_fmt(a_int[0])}")
    print(f"|A drift| = {drift:.6e} over t span {span:g} ({rate:.6e} per unit time)")
    print(f"termination: {traj.termination}")
    if traj.termination != REACHED_T_MAX:
        print(
            f"numerical failure: {traj.termination} at t = {_fmt(traj.t[-1])} before t-max",
            file=sys.stderr,
        )
        return 2
    return 0


# ---------------------------------------------------------------------------
# Canned examples


# example name -> the command line it runs, with the --tol, --out and
# --format of the examples command
EXAMPLE_COMMANDS = {
    "s2xs2": 'residual --sigma "(1 + x1^2 + x2^2)/2" --rho "(1 + x3^2 + x4^2)/2" --A 1'
    " --grid x1=-0.4:0.4:3,x2=-0.4:0.4:3,x3=-0.4:0.4:3,x4=-0.4:0.4:3",
    "h2xh2": 'residual --sigma "(1 - x1^2 - x2^2)/2" --rho "(1 - x3^2 - x4^2)/2" --A -1'
    " --grid x1=-0.4:0.4:3,x2=-0.4:0.4:3,x3=-0.4:0.4:3,x4=-0.4:0.4:3",
    "ricci-flat": 'verify --sigma "t^0.25" --rho "t^-0.5" --grid x1=0.5:2:7 --h 3e-4 --tol 1e-5',
    "hyperbolic": "residual --sigma t --rho t --A -3 --grid x1=0.5:2:7",
    "family-i": "solve-family --alpha -1 --beta 1 --dt 1e-3 --t-max 10",
    "family-ii": "solve-family --alpha 1 --beta -1 --dt 1e-4 --t-max 2",
}
EXAMPLE_NAMES = list(EXAMPLE_COMMANDS)


def _run_example(args: argparse.Namespace, name: str) -> int:
    if name not in EXAMPLE_COMMANDS:
        raise UsageError(f"unknown example {name!r}; names: {', '.join(EXAMPLE_NAMES)}")
    sub = _shared_parser().parse_args(shlex.split(EXAMPLE_COMMANDS[name]))
    sub.out, sub.format = args.out, args.format
    if args.tol is not None and "tol" in vars(sub):  # only verify and residual take --tol
        sub.tol = args.tol
    return _COMMANDS[sub.command](sub)


def cmd_examples(args: argparse.Namespace) -> int:
    words = args.name or ["list"]
    if words == ["list"]:
        for name in EXAMPLE_NAMES:
            print(name)
        return 0
    if words[0] == "run":
        words = words[1:]
    if len(words) != 1:
        raise UsageError("usage: biconf examples [list | run NAME | NAME]")
    return _run_example(args, words[0])


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--out", help="output file path")
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def _add_pair(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--sigma", help="expression for sigma")
    sub.add_argument("--rho", help="expression for rho")
    sub.add_argument(
        "--grid",
        default="x1=-0.3:0.3:3,x2=-0.3:0.3:3,x3=-0.3:0.3:3,x4=-0.3:0.3:3",
        help="grid spec x1=lo:hi:n,...",
    )
    sub.add_argument("--tol", type=positive, help="tolerance (BICONF_TOL overrides the default)")


def _add_steps(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dt", type=positive, default=1e-3)
    sub.add_argument("--t-max", type=positive, default=10.0)


def build_parser() -> argparse.ArgumentParser:
    """The one table of options: each flag's type, choices, range and
    default.  A --config key is a flag's name and is converted by it."""
    parser = _Parser(prog="biconf", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices  # subcommand name -> its parser

    p = subs.add_parser("verify", help="closed-form Ricci vs FD oracle on a grid")
    _add_pair(p)
    p.add_argument(
        "--h", type=positive, default=DEFAULT_GAMMA_STEP, help="FD step for Christoffel derivatives"
    )
    _add_common(p)
    p.set_defaults(tol=1e-4)

    p = subs.add_parser("residual", help="ten-equation Einstein residuals on a grid")
    _add_pair(p)
    p.add_argument("--A", type=finite, help="Einstein constant")
    _add_common(p)
    p.set_defaults(tol=1e-8)

    p = subs.add_parser("solve-family", help="integrate a single-parameter family")
    p.add_argument("--alpha", type=finite)
    p.add_argument("--beta", type=finite)
    p.add_argument("--b", type=positive, default=1.0)
    p.add_argument("--rho0", type=finite, default=0.0, help="initial rho (default 0)")
    _add_steps(p)
    p.add_argument(
        "--t-min", type=positive, default=0.5, help="start of the ricci-flat sample range"
    )
    p.add_argument(
        "--h",
        type=positive,
        default=DEFAULT_GAMMA_STEP,
        help="FD step for the sparse FD residual column",
    )
    p.add_argument(
        "--fd-every", type=count, default=0, help="FD residual every N samples (0 = off)"
    )
    p.add_argument("--expect-complete", action="store_true")
    p.add_argument("--ricci-flat", action="store_true")
    p.add_argument("--a", type=positive, default=1.0, help="scale of the ricci-flat sigma profile")
    _add_common(p)

    p = subs.add_parser("solve-warped", help="integrate the warped first-order system")
    p.add_argument("--alpha0", type=finite)
    p.add_argument("--gamma0", type=finite)
    p.add_argument("--delta0", type=finite)
    p.add_argument("--B", type=finite, default=1.0)
    p.add_argument("--C", type=finite)
    p.add_argument("--Ctilde", type=finite)
    _add_steps(p)
    _add_common(p)

    p = subs.add_parser("examples", help="list or run canned verifications")
    p.add_argument("name", nargs="*", help="'list', 'run NAME', or an example name")
    p.add_argument("--tol", type=positive, help="tolerance of a verify or residual example")
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
    try:
        args = resolve_args(argv)
        with np.errstate(**FLOAT_ERRORS):
            return _COMMANDS[args.command](args)
    except (UsageError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as exc:
        if isinstance(exc, ArithmeticError):  # name the failed float operation
            exc = f"{type(exc).__name__}: {exc}"
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
