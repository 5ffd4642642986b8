"""Alternating parent/change benchmark pairs, written to one BENCH file.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH.json
        [--workload W ...] [--pairs N] [--seconds S] [--seed K]

Runs ``perfbench/run.py`` of each tree as a subprocess, in that tree, for
N pairs per workload; pair i runs the parent first when i is even and the
change first when i is odd.  Every run has the same workload, seed and
``--seconds``.  The output file holds, per workload and side, the median,
quartiles and IQR of each end-to-end metric of ``BENCHMARK.json``, each
run's ``correct``, ``attempted``, ``failed``, metrics, ``tail_percentile``
and ``samples``, and per metric the pairs the change won (ties count for
neither side), whether it meets the gain rule (nine tenths of the pairs
won and a median difference larger than the parent's IQR) and whether its
median is worse than the parent's by more than the metric's bound.
``req_tail_ms`` is marked ``not_a_tail`` when any run's tail percentile
is below 50: a run with few requests reports a low-ranked request, not a
tail, as its ``req_tail_ms``.  Each run also keeps its process tree's
resource use (``rusage``: user and system CPU seconds and minor page
faults, from ``getrusage(RUSAGE_CHILDREN)`` before and after the
subprocess, so including the run's setup-time subprocesses), and each
side's medians of those are listed, to show what share of a saving is
system time.  Each run also keeps perfbench's unscaled ``wall_rows_per_s``
and its calibration kernel's median ``kernel_ms``, and each side's medians
of those are listed too, so a move of ``rows_per_s`` splits into one of
wall time and one of the calibration scale.  Each side also runs one ``--trace 1``
pass of TRACE_SECONDS per workload; the file lists the call, step, row
and byte counts that differ and, per side, each layer's traced self time
over the pass's rows (``self_s_per_row``: ``*.self_s`` / ``cli.rows``), so
it names the layer that moved.  Each side's commit, whether its ``src/``
differs from that commit, its source digest and its Python and numpy
versions come from the runs' own environment stamps.  The exit status is 1 if a run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SIDES = ("parent", "change")
# the counts of a traced run that depend only on the program and the seed
COUNT_SUFFIXES = (".calls", ".steps", ".failed")
COUNTS = ("cli.rows", "cli.bytes_out", "cli.cells_empty")
TRACE_SECONDS = 1.0
# a timed run's wall-clock throughput and calibration kernel time, whose
# medians per side are listed
SCALE_DETAILS = ("wall_rows_per_s", "kernel_ms")
# the details of a run kept with its result
RUN_DETAILS = ("tail_percentile", "samples", *SCALE_DETAILS)
# a run's resource use: key in the BENCH file, field of ``getrusage``
RUSAGE = (("utime_s", "ru_utime"), ("stime_s", "ru_stime"), ("minflt", "ru_minflt"))


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(environment details, result) of one ``perfbench/run.py`` run in
    ``tree``; the result holds the run's ``rusage`` and, for a timed run,
    the details named in RUN_DETAILS (a traced run has none of them)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    details, result = map(json.loads, proc.stdout.splitlines()[-2:])
    return details, {
        **result, **{key: details[key] for key in RUN_DETAILS if key in details},
        "rusage": {key: getattr(after, field) - getattr(before, field) for key, field in RUSAGE},
    }


def src_modified(tree: Path) -> bool | None:
    """Whether ``tree``'s ``src/`` differs from its commit; None without git."""
    try:
        proc = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=tree,
                              capture_output=True)
    except OSError:
        return None
    return {0: False, 1: True}.get(proc.returncode)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(name: str, pairs: list[dict]) -> dict:
    """The per-side quartiles of metric ``name`` over ``pairs`` and the
    change's standing against the parent."""
    spec = END_TO_END[name]
    higher = spec["better"] == "higher"
    values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
    stats = {side: quartiles(values[side]) for side in SIDES}
    wins = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
    parent, change = stats["parent"]["median"], stats["change"]["median"]
    gain = change - parent if higher else parent - change
    entry = {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"], **stats,
        "change_wins": wins, "pairs": len(pairs),
        "median_ratio": change / parent if parent else None,
        "gain": wins >= 0.9 * len(pairs) and gain > stats["parent"]["iqr"],
        "worse_than_bound": -gain > spec["bound"] * abs(parent),
    }
    if name == "req_tail_ms":
        entry["not_a_tail"] = any(p[side]["tail_percentile"] < 50.0 for p in pairs for side in SIDES)
    return entry


def trace_counts(result: dict) -> dict:
    return {
        name: metric["value"] for name, metric in result["metrics"].items()
        if name.endswith(COUNT_SUFFIXES) or name in COUNTS
    }


def self_s_per_row(result: dict) -> dict:
    """Each layer's ``.self_s`` of a traced run over its ``cli.rows``, in s/row."""
    metrics = result["metrics"]
    rows = metrics["cli.rows"]["value"]
    return {name: metric["value"] / rows for name, metric in metrics.items() if name.endswith(".self_s")}


def stamp(details: dict, tree: Path) -> dict:
    env = details["env"]
    return {"commit": env["commit"], "src_modified": src_modified(tree),
            "source_sha256": env["source_sha256"], "python": env["python"],
            "numpy": env["numpy"], "nproc": env["nproc"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="tree of the parent commit")
    parser.add_argument("change", type=Path, help="tree of the change")
    parser.add_argument("--out", type=Path, required=True, help="BENCH file to write")
    parser.add_argument("--workload", action="extend", nargs="+", choices=WORKLOADS,
                        help="workloads to run (repeatable; default all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))

    report = {"settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                           "trace_seconds": TRACE_SECONDS},
              "sides": {}, "workloads": {}}
    all_correct = True
    for workload in args.workload or WORKLOADS:
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                details, result = run(trees[side], workload, args.seed, args.seconds, 0)
                report["sides"].setdefault(side, stamp(details, trees[side]))
                pair[side] = result
                all_correct &= result["correct"] and result["failed"] == 0
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs}: rows_per_s "
                  + " -> ".join(f"{pair[s]['metrics']['rows_per_s']['value']:.0f}" for s in SIDES),
                  file=sys.stderr)
        entry = {"metrics": {name: compare(name, pairs) for name in END_TO_END}, "runs": pairs,
                 "rusage_median": {side: {key: float(np.median([p[side]["rusage"][key] for p in pairs]))
                                          for key, _ in RUSAGE} for side in SIDES},
                 "scale_median": {side: {key: float(np.median([p[side][key] for p in pairs]))
                                         for key in SCALE_DETAILS} for side in SIDES}}
        counts, per_row = {}, {}
        for side in SIDES:
            _, result = run(trees[side], workload, args.seed, TRACE_SECONDS, 1)
            counts[side] = trace_counts(result)
            per_row[side] = self_s_per_row(result)
            all_correct &= result["correct"] and result["failed"] == 0
        entry["trace_counts"] = counts["change"]
        entry["trace_counts_differing"] = {
            name: [counts["parent"].get(name), value]
            for name, value in counts["change"].items() if counts["parent"].get(name) != value
        }
        entry["self_s_per_row"] = per_row
        report["workloads"][workload] = entry
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
