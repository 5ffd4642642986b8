"""tools/bench_pairs.py on made-up pairs: the change's wins, the gain rule
(nine tenths of the pairs won and a median difference beyond the parent's
IQR), the regression bound of BENCHMARK.json, the tail that is no
tail, each run's child resource use and the per-layer self times of the
traced passes."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def pairs(name, parent, change):
    return [
        {side: {"metrics": {name: {"value": v}}} for side, v in zip(bench_pairs.SIDES, pc)}
        for pc in zip(parent, change)
    ]


def test_a_change_that_wins_every_pair_by_far_is_a_gain():
    result = bench_pairs.compare("rows_per_s", pairs("rows_per_s", PARENT, [150.0] * 10))
    assert result["change_wins"] == 10 and result["pairs"] == 10
    assert result["gain"] and not result["worse_than_bound"]
    assert result["parent"]["median"] == 100.0 and result["parent"]["iqr"] == 1.5
    assert result["median_ratio"] == 1.5


def test_eight_wins_in_ten_is_no_gain():
    change = [150.0] * 8 + [90.0, 90.0]
    assert not bench_pairs.compare("rows_per_s", pairs("rows_per_s", PARENT, change))["gain"]


def test_a_median_difference_inside_the_parent_iqr_is_no_gain():
    change = [v + 0.5 for v in PARENT]
    result = bench_pairs.compare("rows_per_s", pairs("rows_per_s", PARENT, change))
    assert result["change_wins"] == 10 and not result["gain"]


@pytest.mark.parametrize("change, worse", [(12.0, False), (12.5, True), (8.0, False)])
def test_lower_is_better_and_the_bound_is_relative(change, worse):
    """req_p50_ms may grow by its bound of 0.24 before it counts as worse."""
    parent = [10.0] * 10
    result = bench_pairs.compare("req_p50_ms", pairs("req_p50_ms", parent, [change] * 10))
    assert result["worse_than_bound"] is worse
    assert result["gain"] is (change < 10.0)


def tail_pairs(percentiles):
    """Made-up pairs of req_tail_ms runs, each run with its tail percentile."""
    runs = pairs("req_tail_ms", [20.0] * len(percentiles), [19.0] * len(percentiles))
    for pair, (parent, change) in zip(runs, percentiles):
        for side, pct in zip(bench_pairs.SIDES, (parent, change)):
            pair[side]["tail_percentile"] = pct
    return runs


@pytest.mark.parametrize(
    "percentiles, not_a_tail",
    [
        ([(99.0, 99.0)] * 10, False),
        ([(99.0, 99.0)] * 9 + [(99.0, 16.7)], True),  # 12 requests: the 2nd fastest
        ([(50.0, 50.0)] * 10, False),
        ([(49.9, 99.0)] * 10, True),
    ],
)
def test_a_tail_below_the_median_is_marked(percentiles, not_a_tail):
    result = bench_pairs.compare("req_tail_ms", tail_pairs(percentiles))
    assert result["not_a_tail"] is not_a_tail
    assert "not_a_tail" not in bench_pairs.compare("req_p50_ms", pairs("req_p50_ms", PARENT, PARENT))


@pytest.mark.parametrize(
    "details, kept",
    [
        ({"tail_percentile": 16.7, "samples": 12, "rounds": 2, "wall_rows_per_s": 900.0,
          "wall_p50_ms": 4.5, "kernel_ms": 3.25},
         {"tail_percentile": 16.7, "samples": 12, "wall_rows_per_s": 900.0, "kernel_ms": 3.25}),
        ({"batch": 27, "passes": 3}, {}),  # a traced run
    ],
)
def test_each_timed_run_keeps_its_tail_percentile_and_samples(details, kept, monkeypatch):
    result = {"correct": True, "failed": 0, "metrics": {}}
    stdout = "stamp\n" + json.dumps(details) + "\n" + json.dumps(result) + "\n"
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *args, **kwargs: SimpleNamespace(stdout=stdout))
    monkeypatch.setattr(bench_pairs.resource, "getrusage", fake_getrusage())
    got_details, got = bench_pairs.run(ROOT, "residual-scan", 1, 1.0, 0)
    assert got_details == details
    assert got == {**result, **kept, "rusage": RUSAGE_STEP}


RUSAGE_STEP = {"utime_s": 1.5, "stime_s": 0.25, "minflt": 1000}


def fake_getrusage():
    """A stand-in for ``resource.getrusage`` whose children's counters
    grow by RUSAGE_STEP from one call to the next; any other call fails."""
    calls = []

    def getrusage(who):
        assert who == bench_pairs.resource.RUSAGE_CHILDREN
        calls.append(who)
        n = len(calls)
        return SimpleNamespace(ru_utime=10.0 + 1.5 * n, ru_stime=2.0 + 0.25 * n,
                               ru_minflt=5000 + 1000 * n)

    return getrusage


WALL_ROWS_PER_S = {"parent": 1000.0, "change": 1100.0}


def fake_perfbench(rows, self_s):
    """A stand-in for ``subprocess.run``: ``perfbench/run.py`` in tree
    ``cwd`` reports ``self_s[cwd.name]`` as ``oracle.invert4.self_s`` and
    ``rows`` rows when traced, and every end-to-end metric, with
    ``WALL_ROWS_PER_S[cwd.name]`` and a 3 ms kernel in its details, when
    timed; git reports a clean tree."""

    def run(argv, cwd, **kwargs):
        if argv[0] == "git":
            return SimpleNamespace(returncode=0, stdout="")
        env = {"commit": cwd.name, "source_sha256": "0", "python": "3", "numpy": "2", "nproc": 2}
        if argv[argv.index("--trace") + 1] == "1":
            details = {"env": env}
            metrics = {"cli.rows": rows, "cli.bytes_out": 10, "oracle.invert4.calls": 3,
                       "oracle.invert4.self_s": self_s[cwd.name], "cli.main.self_s": 0.5}
        else:
            details = {"env": env, "tail_percentile": 99.0, "samples": 100,
                       "wall_rows_per_s": WALL_ROWS_PER_S[cwd.name], "kernel_ms": 3.0}
            metrics = {name: 1.0 for name in bench_pairs.END_TO_END}
        result = {"correct": True, "failed": 0,
                  "metrics": {name: {"value": v} for name, v in metrics.items()}}
        return SimpleNamespace(stdout=f"stamp\n{json.dumps(details)}\n{json.dumps(result)}\n")

    return run


def test_the_bench_file_keeps_each_sides_self_time_per_row(tmp_path, monkeypatch):
    self_s = {"parent": 0.2, "change": 0.1}
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_perfbench(50, self_s))
    monkeypatch.setattr(bench_pairs.resource, "getrusage", fake_getrusage())
    out = tmp_path / "BENCH.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--out", str(out),
            "--workload", "verify-grid", "--pairs", "2"]
    assert bench_pairs.main(argv) == 0
    entry = json.loads(out.read_text())["workloads"]["verify-grid"]
    assert entry["self_s_per_row"] == {
        side: {"oracle.invert4.self_s": self_s[side] / 50, "cli.main.self_s": 0.5 / 50}
        for side in bench_pairs.SIDES
    }
    assert entry["trace_counts_differing"] == {}
    for pair in entry["runs"]:
        assert all(pair[side]["rusage"] == RUSAGE_STEP for side in bench_pairs.SIDES)
    assert entry["rusage_median"] == {side: RUSAGE_STEP for side in bench_pairs.SIDES}
    assert entry["scale_median"] == {
        side: {"wall_rows_per_s": WALL_ROWS_PER_S[side], "kernel_ms": 3.0}
        for side in bench_pairs.SIDES
    }
