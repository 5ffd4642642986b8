"""Output files and grid lines: byte-pinned against the plain writers
they replace (``json.dump(..., indent=2)`` and ``format(x, ".17g")`` per
cell), written in slices of CHUNK rows, on the per-cell path and on the
path that formats each distinct value of a slice once."""

import csv
import io
import json
import math
import shlex
import tracemalloc
from contextlib import redirect_stdout
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biconf import cli
from biconf.cli import CHUNK, _write_csv, _write_json, main


def reference_csv(header, rows) -> str:
    out = ",".join(header) + "\n"
    for row in rows:
        out += ",".join("" if v is None else format(float(v), ".17g") for v in row) + "\n"
    return out


def reference_json(key, header, rows, summary) -> str:
    records = [
        {name: (None if v is None else float(v)) for name, v in zip(header, row)} for row in rows
    ]
    fh = io.StringIO()
    json.dump({key: records, "summary": summary}, fh, indent=2)
    fh.write("\n")
    return fh.getvalue()


def as_columns(header, rows) -> tuple[list, list]:
    """Rows with None cells as the writers' input: one float array per
    column, and per column the mask of its None cells, or None."""
    columns, empty = [], []
    for j in range(len(header)):
        cells = [row[j] for row in rows]
        columns.append(np.array([0.0 if v is None else v for v in cells], dtype=float))
        mask = np.array([v is None for v in cells], dtype=bool)
        empty.append(mask if mask.any() else None)
    return columns, empty


def written(tmp_path, key, header, rows, summary) -> tuple[str, str]:
    columns, empty = as_columns(header, rows)
    _write_csv(str(tmp_path / "t.csv"), header, columns, empty)
    _write_json(str(tmp_path / "t.json"), key, header, columns, summary, empty)
    read = lambda name: (tmp_path / name).read_bytes().decode("utf-8")  # noqa: E731
    return read("t.csv"), read("t.json")


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
           1.0, 1e16, 1e22, 0.1, math.nan, -math.nan, math.inf, -math.inf, None]
CELLS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
SUMMARY_VALUES = st.one_of(
    st.floats(), st.booleans(), st.none(), st.text(max_size=5), st.lists(st.text(max_size=3), max_size=2)
)


@st.composite
def tables(draw):
    """(header, rows) of up to 6 columns and 10 rows; a column may be all
    None."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(0, 10))
    header = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
                           min_size=k, max_size=k, unique=True))
    columns = [draw(st.one_of(st.just([None] * n), st.lists(CELLS, min_size=n, max_size=n)))
               for _ in range(k)]
    return header, [list(row) for row in zip(*columns)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(table=tables(), key=st.sampled_from(["points", "samples"]),
       summary=st.dictionaries(st.text(max_size=5), SUMMARY_VALUES, max_size=4))
def test_writers_match_the_plain_writers(table, key, summary, tmp_path_factory):
    """Slices of 3 rows, so that small tables cross slice boundaries."""
    header, rows = table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CHUNK", 3)
        csv_text, json_text = written(tmp_path_factory.mktemp("w"), key, header, rows, summary)
    assert csv_text == reference_csv(header, rows)
    assert json_text == reference_json(key, header, rows, summary)


@pytest.mark.parametrize("n", [0, 1, CHUNK, CHUNK + 1])
def test_writers_at_slice_boundaries_and_empty_columns(n, tmp_path):
    header = ["t", "x", "blank", "gaps"]
    rows = [[0.5 * i, math.sin(i) * 1e-300, None, None if i % 3 else -0.0] for i in range(n)]
    summary = {"A": -1.0, "termination": "blow-up", "ends": ["a", "b"], "blow_up_time": None}
    csv_text, json_text = written(tmp_path, "samples", header, rows, summary)
    assert csv_text == reference_csv(header, rows)
    assert json_text == reference_json("samples", header, rows, summary)


# values that rounding noise and edge cases repeat: both zeros, both NaNs,
# both infinities, the smallest subnormal and +-2^-53
POOL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
        1.1102230246251565e-16, -1.1102230246251565e-16]


@st.composite
def repetitive_tables(draw):
    """(header, rows) of up to 5 columns and 48 rows.  A column draws its
    cells from 1-3 values of POOL and None, or is all distinct, or all
    None."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(0, 48))
    columns = []
    for _ in range(k):
        kind = draw(st.sampled_from(["pool", "pool", "distinct", "empty"]))
        if kind == "pool":
            values = draw(st.lists(st.sampled_from(POOL + [None]), min_size=1, max_size=3))
            columns.append(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
        elif kind == "distinct":
            columns.append(draw(st.lists(st.floats(), min_size=n, max_size=n, unique=True)))
        else:
            columns.append([None] * n)
    return [f"c{j}" for j in range(k)], [list(row) for row in zip(*columns)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table=repetitive_tables(), every_mask=st.booleans())
def test_writers_format_each_distinct_value_once(table, every_mask, tmp_path_factory):
    """Slices of 16 rows, so that slices of repeated values take the
    distinct-value path and mostly distinct ones the per-cell path; with
    ``every_mask`` each column has a mask, all False where it has no empty
    cell."""
    header, rows = table
    columns, empty = as_columns(header, rows)
    if every_mask:
        empty = [np.zeros(len(rows), bool) if e is None else e for e in empty]
    tmp = tmp_path_factory.mktemp("d")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CHUNK", 16)
        _write_csv(str(tmp / "t.csv"), header, columns, empty)
        _write_json(str(tmp / "t.json"), "points", header, columns, {}, empty)
    assert (tmp / "t.csv").read_bytes().decode("utf-8") == reference_csv(header, rows)
    assert (tmp / "t.json").read_bytes().decode("utf-8") == reference_json("points", header, rows, {})


def _csv_rows(text):
    lines = list(csv.reader(io.StringIO(text)))
    return lines[0], [[None if cell == "" else float(cell) for cell in row] for row in lines[1:]]


@pytest.mark.parametrize(
    "line",
    [
        "examples family-ii --format json --out f.json",
        "residual --sigma (1+x1^2+x2^2)/2 --rho (1+x3^2+x4^2)/2 --A 1"
        " --grid x1=-0.4:0.4:6,x2=-0.4:0.4:6,x3=-0.4:0.4:6,x4=-0.4:0.4:6 --format json --out r.json",
        "solve-warped --alpha0 1 --gamma0 0.5 --delta0 0.2 --C 1 --out x.csv",
        "solve-family --alpha -1 --beta 1 --rho0 1.0000000000000002 --dt 0.2 --t-max 3"
        " --fd-every 2 --format json --out nan.json",  # NaN sigma and -0.0 rho' cells
    ],
)
def test_command_files_match_the_plain_writers(line, tmp_path, monkeypatch, capsys):
    """Each file, read back, is what the plain writer makes of its values
    (17 significant digits and repr both round-trip a float)."""
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)
    assert main(argv) == 0
    text = (tmp_path / argv[-1]).read_bytes().decode("utf-8")
    if argv[-1].endswith(".csv"):
        assert text == reference_csv(*_csv_rows(text))
    else:
        payload = json.loads(text)
        key = next(iter(payload))
        header = list(payload[key][0])
        rows = [list(record.values()) for record in payload[key]]
        assert text == reference_json(key, header, rows, payload["summary"])


def test_grid_lines_are_the_per_point_lines(tmp_path, capsys):
    """On a 6^4 grid, stdout is one f-string line per point (formatted as
    each point was, one at a time) and the summary line."""
    out = tmp_path / "r.json"
    grid = ",".join(f"x{i}=-0.4:0.4:6" for i in range(1, 5))
    argv = ["residual", "--sigma", "(1+x1^2+x2^2)/2", "--rho", "(1+x3^2+x4^2)/2", "--A", "1"]
    assert main(argv + ["--grid", grid, "--format", "json", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    points = json.loads(out.read_text())["points"]
    assert len(points) == 6**4
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    expected = [
        f"x=({fmt(p['x1'])}, {fmt(p['x2'])}, {fmt(p['x3'])}, {fmt(p['x4'])})"
        f"  max|residual| = {p['max_abs']:.6e}"
        for p in points
    ]
    assert lines[:-1] == expected
    assert lines[-1].startswith("grid max residual = ")


def test_grid_lines_format_each_distinct_maximum_once(tmp_path, monkeypatch, capsys):
    """A 4^4 grid of Einstein residuals in slices of 50 rows: the maxima
    of the five full slices repeat and take the distinct-value path, and
    stdout is the per-point lines."""
    grid = ",".join(f"x{i}=-0.4:0.4:4" for i in range(1, 5))
    argv = ["residual", "--sigma", "(1+x1^2+x2^2)/2", "--rho", "(1+x3^2+x4^2)/2", "--A", "1",
            "--grid", grid]
    monkeypatch.setattr(cli, "CHUNK", 50)
    out = tmp_path / "r.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    points = json.loads(out.read_text())["points"]
    capsys.readouterr()
    distinct, taken = cli._distinct_cells, []

    def spy(*args):
        cells = distinct(*args)
        taken.append(cells is not None)
        return cells

    monkeypatch.setattr(cli, "_distinct_cells", spy)
    assert main(argv) == 0  # no --out: every call formats a stdout column
    assert len(taken) == 6 and all(taken[:5])
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    assert capsys.readouterr().out.splitlines()[:-1] == [
        f"x=({fmt(p['x1'])}, {fmt(p['x2'])}, {fmt(p['x3'])}, {fmt(p['x4'])})"
        f"  max|residual| = {p['max_abs']:.6e}"
        for p in points
    ]


BOUNDS = st.sampled_from([-0.0, 0.0, 0.1, 1e-300, -1e-300, -0.4, 0.3, 1 / 3])


@st.composite
def grid_specs(draw):
    """(spec, points): 1-4 axes of 1-7 points with bounds from BOUNDS, and
    the grid's points in the order of itertools.product; an axis left out
    is the single point 0.0."""
    names = draw(st.lists(st.sampled_from(["x1", "x2", "x3", "x4"]), min_size=1, max_size=4,
                          unique=True))
    axes = {name: [0.0] for name in ("x1", "x2", "x3", "x4")}
    parts = []
    for name in names:
        lo, hi, n = draw(BOUNDS), draw(BOUNDS), draw(st.integers(1, 7))
        parts.append(f"{name}={lo!r}:{hi!r}:{n}")
        axes[name] = [lo] if n == 1 else np.linspace(lo, hi, n).tolist()
    return ",".join(parts), list(product(*axes.values()))


GRID_COMMANDS = {
    "verify": (["verify", "--sigma", "(1 + x1^2 + x2^2)/2", "--rho", "(1 + x3^2 + x4^2)/2"],
               "max|closed - fd|"),
    "residual": (["residual", "--sigma", "(1 + x1^2 + x2^2)/2", "--rho", "(1 + x3^2 + x4^2)/2",
                  "--A", "1"], "max|residual|"),
}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(grid=grid_specs(), command=st.sampled_from(sorted(GRID_COMMANDS)))
def test_grid_runs_match_the_per_cell_writers(grid, command, tmp_path_factory):
    """Slices of 3 rows, so that slices cut across the axis codes.  The
    JSON file is json.dump of its own values, the CSV file and each
    stdout line format each cell with format(x, ".17g"), and the
    coordinates are the grid's, -0.0 included."""
    spec, points = grid
    base, label = GRID_COMMANDS[command]
    tmp = tmp_path_factory.mktemp("g")
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CHUNK", 3)
        for fmt in ("csv", "json"):
            out, path = io.StringIO(), tmp / f"out.{fmt}"
            with redirect_stdout(out):
                code = main(base + ["--grid", spec, "--format", fmt, "--out", str(path)])
            runs[fmt] = code, out.getvalue(), path.read_bytes().decode("utf-8")
    (code, stdout, json_text), (csv_code, csv_stdout, csv_text) = runs["json"], runs["csv"]
    assert code == csv_code == 0 and stdout == csv_stdout
    payload = json.loads(json_text)
    header = list(payload["points"][0])
    rows = [list(record.values()) for record in payload["points"]]
    assert [tuple(map(repr, row[:4])) for row in rows] == [tuple(map(repr, p)) for p in points]
    assert json_text == reference_json("points", header, rows, payload["summary"])
    assert csv_text == reference_csv(header, rows)
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    lines = stdout.splitlines()
    assert lines[:-1] == [
        f"x=({fmt(row[0])}, {fmt(row[1])}, {fmt(row[2])}, {fmt(row[3])})  {label} = {row[-1]:.6e}"
        for row in rows
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writers_hold_one_slice_of_text_at_a_time(fmt, tmp_path):
    """Writing a 10^5-row, 6-column table keeps the traced peak to a few
    CHUNK-row slices, far below the size of the whole formatted table."""
    n = 10**5
    rng = np.random.default_rng(0)
    columns = [rng.normal(size=n) for _ in range(6)]
    empty = [None] * 5 + [rng.random(n) < 0.5]
    header = ["t", "a", "b", "c", "d", "e"]
    path = tmp_path / f"big.{fmt}"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if fmt == "csv":
            _write_csv(str(path), header, columns, empty)
        else:
            _write_json(str(path), "samples", header, columns, {}, empty)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = 2_000_000
    assert path.stat().st_size > 5 * bound
    assert peak < bound


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_lookup_slices_hold_one_slice_of_text_at_a_time(fmt, tmp_path):
    """A 10^5-row, 6-column table of values drawn from five floats, one
    column half empty: every slice takes the lookup-only join, and the
    traced peak stays under 1 MB while the file is several MB."""
    n = 10**5
    rng = np.random.default_rng(0)
    pool = np.array([0.0, -0.0, 1.1102230246251565e-16, -2.6051300096648806e-17,
                     0.30000000000000004])
    columns = [rng.choice(pool, size=n) for _ in range(6)]
    empty = [None] * 5 + [rng.random(n) < 0.5]
    header = ["t", "a", "b", "c", "d", "e"]
    path = tmp_path / f"few.{fmt}"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if fmt == "csv":
            _write_csv(str(path), header, columns, empty)
        else:
            _write_json(str(path), "samples", header, columns, {}, empty)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = 1_000_000
    assert path.stat().st_size > 5 * bound
    assert peak < bound
