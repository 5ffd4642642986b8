"""Benchmark driver for biconf.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single-process closed loop: one client sends one request at a time to
``biconf.cli.main(argv)`` in-process, discards its stdout, and checks
every output file.  The requests are generated from the seed
(``workloads.py``); the program receives only the argv.

``--trace 0`` measures the end-to-end metrics for S seconds.  The CPU
speed of a shared host drifts by up to a factor of two over tens of
seconds, so request times are scaled to a reference machine: right
after each request the driver times a fixed calibration kernel (a jet
computation of its own, in the instruction mix of biconf's hot loops but
running no biconf code), and multiplies the request's time by
(CALIBRATION_S / k) ** SCALING_EXPONENT, with k the median kernel time
of the five requests around it.  A change to biconf moves the scaled
times as it moves wall times, while most of the host's drift cancels.
Raw wall-clock figures are printed in the details line.  ``setup_s`` is
wall time: it is bound by process start-up and file reads, which the
kernel does not track.

``--trace 1`` takes a fixed batch of the same requests and alternates an
untraced and a traced pass over it for S seconds; the traced pass wraps
the public functions of each layer (``tracing.py``) and gives the
per-layer metrics.  Call and step counts depend only on the seed.

The next-to-last line of stdout is a JSON object with the environment
stamp and run details; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Spans of the first
traced pass go to ``.perfbench_run/trace-<workload>.csv``.  The program
is imported from ``src/`` next to this directory; without it the driver
exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# name -> (unit, better); BENCHMARK.json lists the same metrics
END_TO_END = {
    "setup_s": ("s", "lower"),
    "rows_per_s": ("1/s", "higher"),
    "req_p50_ms": ("ms", "lower"),
    "req_tail_ms": ("ms", "lower"),
    "ok_frac": ("frac", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def _per_layer_catalog() -> dict:
    out = {}
    for name in tracing.FUNCTIONS:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.calls_per_row"] = ("1/row", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
        out[f"{name}.failed"] = ("count", "lower")
    for name in tracing.STEPPERS:
        out[f"{name}.steps"] = ("count", "lower")
    out["cli.rows"] = ("count", "higher")
    out["cli.bytes_out"] = ("bytes", "lower")
    out["cli.cells_empty"] = ("count", "lower")
    out["ratio.field_evals_per_row"] = ("1/row", "lower")
    out["ratio.jets_per_row"] = ("1/row", "lower")
    out["ratio.christoffel_per_row"] = ("1/row", "lower")
    out["trace.overhead_frac"] = ("frac", "lower")
    return out


PER_LAYER = _per_layer_catalog()

SETUP_SAMPLES = 11

# Kernel time, in seconds, of the reference machine that request times
# are scaled to: about the kernel's median in the slow state of the
# 2-core host the bounds were set on, so scaled times read close to wall
# times there.
CALIBRATION_S = 0.007
# Slope of log request time against log kernel time across the host's
# speed states, fitted over twenty runs on that host (0.55 on verify-grid,
# 0.62 on trajectories): the kernel speeds up more than biconf does when
# the host gets faster.
SCALING_EXPONENT = 0.55

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy
import biconf.cli
biconf.cli.build_parser()
print(repr(time.perf_counter() - t0))
"""


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


# ---------------------------------------------------------------------------
# Measurements


class _Jet:
    """Value, gradient and Hessian; the calibration kernel's own stand-in
    for the program's jets, so it never runs biconf code."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def __add__(self, o):
        return _Jet(self.v + o.v, self.g + o.g, self.h + o.h)

    def __mul__(self, o):
        h = self.v * o.h + o.v * self.h + np.outer(self.g, o.g) + np.outer(o.g, self.g)
        return _Jet(self.v * o.v, self.v * o.g + o.v * self.g, h)


def _calibration_kernel() -> float:
    """Fixed work in the instruction mix of the program's hot loops: small
    objects and 4-vector and 4x4 numpy operations (a second-order jet of a
    quadratic in four variables, 18 times over)."""
    xs = [_Jet(0.1 * (a + 1), np.eye(4)[a], np.zeros((4, 4))) for a in range(4)]
    acc = _Jet(0.0, np.zeros(4), np.zeros((4, 4)))
    for _ in range(18):
        for i in range(4):
            for j in range(i, 4):
                c = _Jet(0.01 * (i + j + 1), np.zeros(4), np.zeros((4, 4)))
                acc = acc + c * xs[i] * xs[j]
    return acc.v


def kernel_seconds() -> float:
    start = perf_counter()
    _calibration_kernel()
    return perf_counter() - start


def setup_seconds(samples: int) -> float:
    """Median time, in fresh processes, to import numpy and biconf and
    build the CLI parser."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def send(cli, req, out_path):
    """(exit code or None, seconds, stderr) of one request."""
    argv = [*req.argv, "--out", out_path]
    err = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(_Discard()), redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed request, not a crash of the benchmark
        code = None
        err.write(traceback.format_exc())
    return code, perf_counter() - start, err.getvalue()


class Tally:
    """Outcomes of the requests sent in one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, req, code, out_path, err):
        outcome = checks.check(req, code, out_path)
        if os.path.exists(out_path):
            os.remove(out_path)
        self.attempted += 1
        if not outcome.ok:
            self.failures.append({"kind": req.kind, "argv": list(req.argv),
                                  "reason": outcome.reason, "stderr": err[-400:]})
        return outcome


def _send_checked(cli, req, tmp, tally):
    """Send one request and check it: (seconds in the program, outcome)."""
    out_path = os.path.join(tmp, f"out.{req.fmt}")
    code, elapsed, err = send(cli, req, out_path)
    return elapsed, tally.record(req, code, out_path, err)


def _tail(latencies):
    """(value, percentile, samples) at the highest percentile with at
    least ten samples beyond it (the maximum when there are fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def timed_run(cli, requests, round_size, seconds, tmp, tally):
    """Whole rounds of requests until ``seconds`` are up.  Request times
    are scaled to the reference machine; throughput is the median over
    rounds."""
    wall, kernel, rows = [], [], []
    kernel_seconds()  # warm the kernel up
    start = perf_counter()
    while not wall or len(wall) % round_size or perf_counter() - start < seconds:
        elapsed, outcome = _send_checked(cli, requests[len(wall) % len(requests)], tmp, tally)
        kernel.append(kernel_seconds())
        wall.append(elapsed)
        rows.append(outcome.rows)
    n = len(wall)
    latencies = [
        w * (CALIBRATION_S / statistics.median(kernel[max(0, i - 2):i + 3])) ** SCALING_EXPONENT
        for i, w in enumerate(wall)
    ]
    throughputs = [
        sum(rows[i:i + round_size]) / sum(latencies[i:i + round_size])
        for i in range(0, n, round_size)
    ]
    tail, pct, _ = _tail(latencies)
    metrics = {
        "rows_per_s": statistics.median(throughputs),
        "req_p50_ms": 1e3 * statistics.median(latencies),
        "req_tail_ms": 1e3 * tail,
        "ok_frac": 1.0 - len(tally.failures) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "tail_percentile": pct, "samples": n, "rounds": len(throughputs), "rows": sum(rows),
        "wall_rows_per_s": sum(rows) / sum(wall),
        "wall_p50_ms": 1e3 * statistics.median(wall),
        "wall_tail_ms": 1e3 * _tail(wall)[0],
        "kernel_ms": 1e3 * statistics.median(kernel),
    }
    return metrics, details


def traced_run(package, requests, batch_size, seconds, tmp, tally, spans_path):
    """Passes over a fixed batch (one round) until ``seconds`` are up.
    Each request is sent untraced and then traced, so slow drifts in
    machine speed cancel out of the overhead.  Counts come from the first
    pass; times are medians over passes."""
    batch = requests[:batch_size]
    overheads, self_times = [], []
    first = None
    start = perf_counter()
    while not overheads or perf_counter() - start < seconds:
        tracer = tracing.Tracer(keep_spans=first is None)
        untraced = traced = 0.0
        outcomes = []
        for index, req in enumerate(batch):
            untraced += _send_checked(package.cli, req, tmp, tally)[0]
            tracer.request = index
            with tracing.installed(tracer, package):
                elapsed, outcome = _send_checked(package.cli, req, tmp, tally)
            traced += elapsed
            outcomes.append(outcome)
        overheads.append(traced / untraced - 1.0)
        self_times.append(tracer.self_s)
        if first is None:
            first = tracer, outcomes
            tracer.write_spans(spans_path)
            tracer.spans.clear()
    tracer, outcomes = first
    rows = sum(o.rows for o in outcomes)
    per_row = 1.0 / max(rows, 1)
    metrics = {}
    for name in tracing.FUNCTIONS:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.calls_per_row"] = tracer.calls[name] * per_row
        metrics[f"{name}.self_s"] = statistics.median(s[name] for s in self_times)
        metrics[f"{name}.failed"] = tracer.failed[name]
    for name in tracing.STEPPERS:
        metrics[f"{name}.steps"] = tracer.steps[name]
    metrics["cli.rows"] = rows
    metrics["cli.bytes_out"] = sum(o.bytes_out for o in outcomes)
    metrics["cli.cells_empty"] = sum(o.cells_empty for o in outcomes)
    metrics["ratio.field_evals_per_row"] = tracer.field_evals * per_row
    metrics["ratio.jets_per_row"] = tracer.calls["expr.eval_jet"] * per_row
    metrics["ratio.christoffel_per_row"] = tracer.calls["oracle.christoffel"] * per_row
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    details = {"batch": len(batch), "passes": len(overheads),
               "spans": str(spans_path.relative_to(ROOT))}
    return metrics, details


# ---------------------------------------------------------------------------
# Environment stamp


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "biconf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def environment(package, args, attempted) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "biconf": package.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cache": _cache_sizes(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": attempted,
    }


# ---------------------------------------------------------------------------


def load_program():
    """Import biconf from ``src/`` beside this directory; None if it is absent."""
    if not (SRC / "biconf" / "__init__.py").is_file():
        return None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("BICONF_TOL", None)  # the built-in default tolerances apply
    import biconf
    import biconf.cli  # noqa: F401  (binds biconf.cli)

    return biconf


def measure(biconf, workload, seed, seconds, trace, tiny=False, setup_samples=SETUP_SAMPLES):
    """Run one workload; returns (result, details).  ``tiny`` shrinks the
    requests for the smoke test."""
    requests = workloads.generate(workload, seed, tiny)
    work = ROOT / ".perfbench_run"
    work.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        if trace:
            spans_path = work / f"trace-{workload}.csv"
            metrics, details = traced_run(
                biconf, requests, workloads.ROUND[workload], seconds, tmp, tally, spans_path
            )
        else:
            setup = setup_seconds(setup_samples)
            metrics, details = timed_run(
                biconf.cli, requests, workloads.ROUND[workload], seconds, tmp, tally
            )
            metrics["setup_s"] = setup
    catalog = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in catalog.items()},
    }
    details["failed_frac"] = len(tally.failures) / tally.attempted
    details["failures"] = tally.failures[:5]
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    biconf = load_program()
    if biconf is None:
        print(f"error: no biconf sources under {SRC}", file=sys.stderr)
        return 2
    result, details = measure(biconf, args.workload, args.seed, args.seconds, args.trace)
    details["env"] = environment(biconf, args, result["attempted"])
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
