"""tools/bench_pairs.py on made-up pairs: the change's wins, the gain rule
(nine tenths of the pairs won and a median difference beyond the parent's
IQR) and the regression bound of BENCHMARK.json."""

import importlib.util
from pathlib import Path

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
