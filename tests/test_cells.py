"""The float cells of the output files: every cell the writers produce
is ``format(x, ".17g")`` (CSV) or ``json.dumps(x)`` (JSON), whether the
bulk kernel (``cli._decimal_words``) writes it or it falls back to
per-cell formatting; the kernel's layout stage alone lays out Python's
own digits as Python does; and on a trajectory the size of the benchmark's
warped run almost every cell takes the bulk path."""

import json
import shlex
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biconf import cli
from biconf.cli import _write_csv, _write_json, main


def float_of(sign: int, exponent: int, mantissa: int) -> float:
    return float(np.array(sign << 63 | exponent << 52 | mantissa, np.uint64).view(np.float64))


# raw bit patterns: both signs, every biased exponent (0 gives zeros and
# subnormals, 2047 infinities and NaN payloads), weighted towards the
# binades around 1 and around 2^53, where %.17g ties and repr's interval
# ends fall on integers
EXPONENTS = st.one_of(st.integers(0, 2047), st.integers(1023 - 20, 1023 + 20),
                      st.integers(1023 + 40, 1023 + 60), st.sampled_from([0, 1, 2046, 2047]))
MANTISSAS = st.one_of(st.integers(0, 2**52 - 1), st.sampled_from([0, 1, 2**51, 2**52 - 1]))
BIT_FLOATS = st.builds(float_of, st.integers(0, 1), EXPONENTS, MANTISSAS)
# short decimals, whose repr has few digits
SHORT_FLOATS = st.builds(lambda n, k: float(f"{n}e{k}"), st.integers(-10**6, 10**6),
                         st.integers(-30, 30))
FLOATS = st.one_of(BIT_FLOATS, SHORT_FLOATS)


def bits(x: float) -> int:
    return int(np.array(x).view(np.int64))


def written(tmp_path, values) -> tuple[str, str]:
    """The CSV and JSON files of one column of ``values``."""
    column = [np.array(values, dtype=float)]
    _write_csv(str(tmp_path / "t.csv"), ["v"], column)
    _write_json(str(tmp_path / "t.json"), "samples", ["v"], column, {})
    read = lambda name: (tmp_path / name).read_bytes().decode("utf-8")  # noqa: E731
    return read("t.csv"), read("t.json")


def expected(values) -> tuple[str, str]:
    csv_text = "v\n" + "".join(format(x, ".17g") + "\n" for x in values)
    json_text = json.dumps({"samples": [{"v": x} for x in values], "summary": {}}, indent=2) + "\n"
    return csv_text, json_text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(FLOATS, min_size=1, max_size=64, unique_by=bits))
def test_every_cell_is_the_per_cell_text(values, tmp_path_factory):
    """Distinct bit patterns, so that every slice takes the bulk path;
    json.dumps writes NaN and the infinities as NaN, Infinity and
    -Infinity."""
    assert written(tmp_path_factory.mktemp("c"), values) == expected(values)


EDGES = [
    1e16, 9999999999999998.0,  # repr switches to exponent form
    1e17, 99999999999999984.0,  # %.17g switches
    1e-4, 9.9999999999999991e-5, 1e-5,  # both switch below 1e-4
    5e-324, 2.2250738585072014e-308, 1e23,
    0.1, 0.2, 0.3, 2.0**-52, 2.0**53, 2.0**53 + 2,
    1e280, 1e-280, 1e281, 1e-281, np.nextafter(1e280, 2e280), np.nextafter(1e-280, 0.0),
    2.0**50 + 0.25, 2.0**50 + 0.75,  # exact 17-digit ties
    0.0, 1.0, 123456789012345.6, 1.5, 0.5,
]


def test_edge_values(tmp_path):
    values = EDGES + [-x for x in EDGES]
    csv_text, json_text = written(tmp_path, values)
    assert (csv_text, json_text) == expected(values)
    lines = csv_text.splitlines()
    assert lines[EDGES.index(2.0**50 + 0.25) + 1] == "1125899906842624.2"  # half to even
    assert lines[EDGES.index(2.0**50 + 0.75) + 1] == "1125899906842624.8"


def python_digits(x: float, shortest: bool) -> tuple[int, int]:
    """(m, X): the digits Python writes for x as an integer of 17 digits
    (0 for zero) and the decimal exponent of the first."""
    sign, digits, exponent = Decimal(repr(x) if shortest else "%.16e" % x).as_tuple()
    if not any(digits):
        return 0, 0
    m = int("".join(map(str, digits)))
    return m * 10 ** (17 - len(digits)), exponent + len(digits) - 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(BIT_FLOATS.filter(np.isfinite), min_size=1, max_size=32),
       shortest=st.booleans())
def test_the_layout_writes_pythons_digits_as_python_does(values, shortest):
    """Python's own digits and exponent, for any finite float (subnormals,
    1e300 and repr's 1e16..1e17 included), laid out by ``cli._layout``."""
    m, x = np.array([python_digits(v, shortest) for v in values], dtype=np.int64).T
    cells = cli._layout(m, x, np.signbit(values), shortest)
    texts = [bytes(row).replace(b"\0", b"").decode() for row in cells.view(np.uint8).reshape(len(values), -1)]
    assert texts == [repr(v) if shortest else format(v, ".17g") for v in values]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_warped_trajectory_takes_the_bulk_path(fmt, tmp_path, monkeypatch):
    """The benchmark's warped run: 2.15e4 rows of six columns, of which
    five are mostly distinct.  At least 99% of their cells come from the
    bulk kernel, and the file is the per-cell writers' text."""
    kernel, taken = cli._decimal_words, []

    def spy(values, shortest):
        cells, done = kernel(values, shortest)
        taken.append((done.size, int(done.sum())))
        return cells, done

    monkeypatch.setattr(cli, "_decimal_words", spy)
    out = tmp_path / f"w.{fmt}"
    line = "solve-warped --alpha0 1.2 --gamma0 0.9 --delta0 -0.15 --Ctilde 0.2 --dt 1e-4 --t-max 2.15"
    assert main(shlex.split(line) + ["--format", fmt, "--out", str(out)]) == 0
    cells, fast = map(sum, zip(*taken))
    assert cells >= 5 * 21500
    assert fast >= 0.99 * cells
    text = out.read_text()
    if fmt == "csv":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert all(cell == format(float(cell), ".17g") for row in rows for cell in row)
    else:
        records = json.loads(text)["samples"]
        dumped = json.dumps({"samples": records, "summary": json.loads(text)["summary"]}, indent=2)
        assert text == dumped + "\n"
