"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest perfbench/test_harness.py -q

Checks that every metric named in BENCHMARK.json appears with its unit
for every workload, that call and step counts repeat exactly for one
seed, and that the output checker rejects corrupted outputs.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def biconf():
    package = run.load_program()
    assert package is not None, "src/biconf is missing"
    return package


def _measure(package, workload, trace, seed=7):
    return run.measure(package, workload, seed, 0.01, trace, tiny=True, setup_samples=1)


def _declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_with_its_unit(biconf, workload, trace):
    result, details = _measure(biconf, workload, trace)
    assert result["correct"], details["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_catalog_matches_benchmark_json():
    assert {n: u for n, (u, _) in run.END_TO_END.items()} == _declared("end_to_end")
    assert {n: u for n, (u, _) in run.PER_LAYER.items()} == _declared("per_layer")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_for_one_seed(biconf, workload):
    first, second = (_measure(biconf, workload, 1)[0]["metrics"] for _ in range(2))
    counted = [n for n in first if n.endswith((".calls", ".calls_per_row", ".steps", ".failed"))
               or n.startswith(("ratio.", "cli.rows", "cli.bytes_out", "cli.cells_empty"))]
    assert counted
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}


def test_residual_scan_never_calls_the_oracle(biconf):
    metrics = _measure(biconf, "residual-scan", 1)[0]["metrics"]
    oracle = [n for n in metrics if n.startswith("oracle.") and n.endswith(".calls")]
    assert oracle and all(metrics[n]["value"] == 0 for n in oracle)
    assert metrics["families.einstein_residuals.calls"]["value"] > 0


def _first(workload, kind):
    return next(r for r in workloads.generate(workload, 3, tiny=True) if r.kind == kind)


def _rewrite_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _produce(biconf, req, tmp_path):
    out = str(tmp_path / f"out.{req.fmt}")
    code, _, err = run.send(biconf.cli, req, out)
    assert checks.check(req, code, out).ok, err
    return out


def _counts_as_failed(req, out, reason):
    tally = run.Tally()
    outcome = tally.record(req, 0, out, "")
    assert not outcome.ok and reason in outcome.reason
    assert tally.attempted == 1 and len(tally.failures) == 1


def test_checker_rejects_a_wrong_a_residual_row(biconf, tmp_path):
    req = _first("residual-scan", "residual")
    out = _produce(biconf, req, tmp_path)

    def shift_a(payload):
        row = payload["points"][3]
        row["res_11"] += 0.05  # the residual a row would carry with A off by 0.05
        row["max_abs"] = max(abs(row[c]) for c in checks.RESIDUAL_HEADER[4:14])

    _rewrite_json(out, shift_a)
    _counts_as_failed(req, out, "residual")


def test_checker_rejects_a_shifted_blow_up_time(biconf, tmp_path):
    req = _first("trajectories", "blow-up")
    out = _produce(biconf, req, tmp_path)

    def shift_t0(payload):
        payload["summary"]["blow_up_time"] += 1e-3

    _rewrite_json(out, shift_t0)
    _counts_as_failed(req, out, "blow-up time")


def test_driver_exits_nonzero_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "trajectories", "--seed", "1", "--seconds", "1"]) == 2
