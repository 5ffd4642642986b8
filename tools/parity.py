"""Byte parity of the biconf CLI between two source trees.

    python3 tools/parity.py OLD_TREE NEW_TREE [--limit N] [--numeric ATOL]

Runs every seed-1 request of the three benchmark workloads (taken from
``perfbench/workloads.py`` next to this directory, which is only
imported), the canned examples (``examples list``, then each name
bare, with ``--out`` as CSV and with ``--out`` as JSON), a fixed list of
successful runs, most of hundreds of rows, written as CSV or JSON
(``LONG_RUNS``) and a fixed list of command lines that hit a validation or numerical
failure (``FAILURES``: exit 1 or 2) against the ``src/`` of each tree.  Each
tree runs in its own subprocess, which calls ``biconf.cli.main(argv)``
in-process for one request after another inside a fresh working
directory, so an ``--out`` path reads the same in both.  The exit code,
stdout, stderr and ``--out`` bytes of each run are compared through
their SHA-256 digests.

``--numeric ATOL`` compares stdout and the ``--out`` file as text with
numbers in it: every character outside a number token (``NUMBER``) must
match, and each pair of number tokens must agree within ATOL; the exit
code and stderr must still match byte for byte.  It also prints the
largest difference between two number tokens and the argv it came from.

Every argv that differs is listed with what differs, and the exit status
is 1 on any difference, else 0.  ``--limit N`` keeps the first N requests
of each workload, the first N example runs, the first N long runs and the
first N failure lines.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SEED = 1
FIELDS = ("code", "stdout", "stderr", "out")

# config files, written into the working directory of each tree: one
# with a line that is not ``key = value``, one that is not UTF-8, one
# that gives a key twice
BAD_CONFIG = ("bad.cfg", b"tol 1e-6\n")
NOT_UTF8_CONFIG = ("latin1.cfg", b"tol = 1e-6  # \xb5\n")
TWICE_CONFIG = ("twice.cfg", b"tol = 1e-6\ntol = 1e-3\n")

# successful runs, most of hundreds of rows, written to stdout and as CSV
# or JSON.  Output columns that repeat a few distinct values: Einstein
# residuals, an FD gap that depends on (x1, x3) only, a trajectory with
# -0.0 rho_prime cells and empty sigma cells, the Ricci-flat profile with
# its sparse FD residual column, fields that fold to a sum divided by
# 3 and to a linear sum (in the residual run, two hyperbolic planes of
# curvature -1/16), and two trajectories whose residual cells are empty
# from sample 517 to the end and at every sample.  Then, as JSON, runs
# whose mostly distinct columns take the bulk float writer in both
# layouts and its per-cell fallback: a warped trajectory of 2e3 steps, a
# blow-up member whose rho climbs to the cap (exponent-form cells) and a
# grid with an x2 axis of +-1e-300.  Last, a flat pair's verify grid as
# JSON: its maxima are all 0, so every slice of the file and of the
# stdout lines is lookup-only
LONG_RUNS = [
    ["residual", "--sigma", "(1 + x1^2 + x2^2)/2", "--rho", "(1 + x3^2 + x4^2)/2", "--A", "1",
     "--grid", "x1=-0.4:0.4:6,x2=-0.4:0.4:6,x3=-0.4:0.4:6,x4=-0.4:0.4:6", "--out", "out.csv"],
    ["verify", "--sigma", "(1 + x1^2)/2", "--rho", "(1 + x3^2)/2",
     "--grid", "x1=-0.3:0.3:4,x2=-0.3:0.3:4,x3=-0.3:0.3:4,x4=-0.3:0.3:4", "--out", "out.csv"],
    ["solve-family", "--alpha", "-1", "--beta", "1", "--rho0", "1.0000000000000002",
     "--dt", "0.2", "--t-max", "60", "--out", "out.csv"],
    ["solve-family", "--ricci-flat", "--a", "1.5", "--t-min", "0.5", "--t-max", "2",
     "--dt", "0.1", "--fd-every", "4", "--out", "out.csv"],
    ["verify", "--sigma", "(3 + x1*x2 + x1^2)/3", "--rho", "0.25*x3 + 2",
     "--grid", "x1=-0.3:0.3:4,x2=-0.3:0.3:4,x3=-0.3:0.3:4,x4=-0.3:0.3:4", "--out", "out.csv"],
    ["residual", "--sigma", "0.25*x1 + 2", "--rho", "(3 - 0.046875*x3^2 - 0.046875*x4^2)/3",
     "--A", "-0.0625",
     "--grid", "x1=-0.4:0.4:6,x2=-0.4:0.4:6,x3=-0.4:0.4:6,x4=-0.4:0.4:6", "--out", "out.csv"],
    ["solve-family", "--alpha", "1", "--beta", "1", "--rho0", "0.5", "--dt", "1e-3", "--t-max", "1",
     "--out", "out.csv"],
    ["solve-family", "--alpha", "-1", "--beta", "-1", "--dt", "1e-3", "--t-max", "0.5",
     "--out", "out.csv"],
    ["solve-warped", "--alpha0", "1", "--gamma0", "0.5", "--delta0", "0.2", "--C", "1",
     "--dt", "1e-3", "--t-max", "2", "--format", "json", "--out", "out.json"],
    ["solve-family", "--alpha", "1", "--beta", "-1", "--dt", "1e-4", "--t-max", "2",
     "--format", "json", "--out", "out.json"],
    ["residual", "--sigma", "(1 + x1^2 + x2^2)/2", "--rho", "(1 + x3^2 + x4^2)/2", "--A", "1",
     "--grid", "x1=-0.4:0.4:6,x2=-1e-300:1e-300:5,x3=-0.4:0.4:6,x4=-0.4:0.4:6",
     "--format", "json", "--out", "out.json"],
    ["verify", "--sigma", "1", "--rho", "1",
     "--grid", "x1=-0.4:0.4:5,x2=-0.4:0.4:5,x3=-0.4:0.4:5,x4=-0.4:0.4:5",
     "--format", "json", "--out", "out.json"],
]

# command lines that fail validation (exit 1) or numerically (exit 2); the
# three before the last overflow in the family's constants beta^3 and b^2,
# and the last reads a config file that gives a key twice
FAILURES = [
    line.split()
    for line in (
        "verify --sigma x1 --rho 1 --grid x1=-0.2:0.2:3 --out out.csv",
        "verify --sigma 1 --rho x3 --grid x3=-0.2:0.2:3",
        "residual --sigma x1 --rho 1 --A 0 --grid x1=-0.2:0.2:3 --out out.csv",
        "solve-family --alpha -1 --beta 1 --b -1 --t-max 1 --fd-every 100 --out out.csv",
        "solve-family --ricci-flat --t-min 0 --t-max 1",
        "solve-family --ricci-flat --t-min -1 --t-max 1",
        "solve-family --alpha -1 --beta 1 --rho0 1",
        "solve-family --alpha 0 --beta 1",
        "solve-warped --alpha0 1 --gamma0 1 --delta0 0 --B 0",
        f"examples --config {BAD_CONFIG[0]}",
        "verify --sigma 1 --rho 1 --grid x1",
        "verify --sigma 1 --rho 1 --grid x1=0:1:2 --out missing/out.csv",
        f"examples --config {NOT_UTF8_CONFIG[0]}",
        "solve-family --alpha -1 --beta 1e200 --dt 0.1 --t-max 1",
        "solve-family --alpha 1 --beta -1e103 --dt 1e-3 --t-max 1",
        "solve-family --alpha -1 --beta 1 --b 1e300 --dt 0.1 --t-max 1",
        f"examples --config {TWICE_CONFIG[0]}",
    )
]

# a number as the CLI writes it: not part of a name such as ``x1``
NUMBER = r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"

# Runs in the subprocess of one tree: argv[1] is the tree, argv[2] a JSON
# list of argvs, argv[3] a number pattern or "" for bytes only; prints
# one JSON record per argv, of digests, or for stdout and the --out file
# in numeric mode, of [digest of the text with each number made "#",
# the numbers].
WORKER = """\
import contextlib, hashlib, io, json, os, re, sys, traceback
src = os.path.join(sys.argv[1], "src")
sys.path.insert(0, src)
import biconf.cli
if not biconf.cli.__file__.startswith(src):
    sys.exit(f"biconf was imported from {biconf.cli.__file__}, not from {src}")
digest = lambda data: hashlib.sha256(data).hexdigest()
number = re.compile(sys.argv[3]) if sys.argv[3] else None
def text(data):
    if number is None:
        return digest(data)
    data = data.decode()
    return [digest(number.sub("#", data).encode()), [float(t) for t in number.findall(data)]]
with open(sys.argv[2], encoding="utf-8") as fh:
    argvs = json.load(fh)
for argv in argvs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = biconf.cli.main(argv)
        except Exception:
            code = "traceback"
            traceback.print_exc()
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    written = None
    if path is not None and os.path.exists(path):
        with open(path, "rb") as fh:
            written = text(fh.read())
        os.remove(path)
    record = {"code": code, "stdout": text(out.getvalue().encode()),
              "stderr": digest(err.getvalue().encode()), "out": written}
    print(json.dumps(record), flush=True)
"""


def requests(limit: int | None) -> list[list[str]]:
    """The argvs to compare: each workload's seed-1 requests, with the
    ``--out`` file the benchmark driver adds, then the example runs, the
    long runs and the failure lines."""
    argvs = []
    for workload in workloads.WORKLOADS:
        for req in workloads.generate(workload, SEED)[:limit]:
            argvs.append([*req.argv, "--out", f"out.{req.fmt}"])
    examples = [["examples", "list"]]
    for name in ("s2xs2", "h2xh2", "ricci-flat", "hyperbolic", "family-i", "family-ii"):
        examples += [
            ["examples", name],
            ["examples", name, "--out", "out.csv"],
            ["examples", name, "--out", "out.json", "--format", "json"],
        ]
    return argvs + examples[:limit] + LONG_RUNS[:limit] + FAILURES[:limit]


def start(tree: Path, argv_file: str, workdir: str, numeric: bool) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "BICONF_TOL")}
    return subprocess.Popen(
        [sys.executable, "-c", WORKER, str(tree.resolve()), argv_file, NUMBER if numeric else ""],
        cwd=workdir, env=env, stdout=subprocess.PIPE, text=True,
    )


def compare(a: dict, b: dict, atol: float | None) -> tuple[list[str], float]:
    """The fields in which two records differ, and the largest difference
    between their number tokens (0 in byte mode)."""
    fields, largest = [], 0.0
    for name in FIELDS:
        if atol is None or name not in ("stdout", "out") or a[name] is None or b[name] is None:
            if a[name] != b[name]:
                fields.append(name)
            continue
        (text_a, numbers_a), (text_b, numbers_b) = a[name], b[name]
        if text_a != text_b or len(numbers_a) != len(numbers_b):
            fields.append(name)
            continue
        gap = max((abs(x - y) for x, y in zip(numbers_a, numbers_b) if x != y), default=0.0)
        largest = max(largest, gap)
        if not gap <= atol:
            fields.append(name)
    return fields, largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="tree whose src/ holds the reference biconf")
    parser.add_argument("new", type=Path, help="tree whose src/ holds the changed biconf")
    parser.add_argument("--limit", type=int, default=None, help="first N runs of each kind")
    parser.add_argument("--numeric", type=float, default=None, metavar="ATOL",
                        help="compare number tokens in stdout and --out files within ATOL")
    args = parser.parse_args(argv)
    if args.numeric is not None and not args.numeric >= 0.0:
        parser.error("--numeric takes a tolerance >= 0")
    argvs = requests(args.limit)
    differing, compared, largest = 0, 0, (0.0, None)
    with tempfile.TemporaryDirectory() as tmp:
        argv_file = os.path.join(tmp, "argvs.json")
        with open(argv_file, "w", encoding="utf-8") as fh:
            json.dump(argvs, fh)
        dirs = [os.path.join(tmp, side) for side in ("old", "new")]
        for d in dirs:
            os.mkdir(d)
            for name, data in (BAD_CONFIG, NOT_UTF8_CONFIG, TWICE_CONFIG):
                Path(d, name).write_bytes(data)
        procs = [
            start(tree, argv_file, d, args.numeric is not None)
            for tree, d in zip((args.old, args.new), dirs)
        ]
        # one record of each tree at a time: a numeric record can be large
        for argv, a, b in zip(argvs, procs[0].stdout, procs[1].stdout):
            compared += 1
            fields, gap = compare(json.loads(a), json.loads(b), args.numeric)
            if gap > largest[0]:
                largest = (gap, argv)
            if fields:
                differing += 1
                print(f"differs in {', '.join(fields)}: {json.dumps(argv)}")
        for proc in procs:
            proc.stdout.read()
            proc.wait()
    if compared < len(argvs) or any(proc.returncode != 0 for proc in procs):
        print("parity: a tree's worker failed", file=sys.stderr)
        return 2
    if args.numeric is not None:
        gap, argv = largest
        print(f"largest difference: {gap:.3g}" + (f" in {json.dumps(argv)}" if argv else ""))
    print(f"parity: {len(argvs)} runs, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
