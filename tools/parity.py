"""Byte parity of the biconf CLI between two source trees.

    python3 tools/parity.py OLD_TREE NEW_TREE [--limit N]

Runs every seed-1 request of the three benchmark workloads (taken from
``perfbench/workloads.py`` next to this directory, which is only
imported), the canned examples (``examples list``, then each name
bare, with ``--out`` as CSV and with ``--out`` as JSON) and a fixed list
of command lines that hit a validation or numerical failure
(``FAILURES``: exit 1 or 2) against the ``src/`` of each tree.  Each
tree runs in its own subprocess, which calls ``biconf.cli.main(argv)``
in-process for one request after another inside a fresh working
directory, so an ``--out`` path reads the same in both.  The exit code, stdout, stderr and ``--out`` bytes of each
run are compared through their SHA-256 digests.  Every argv that differs
is listed with what differs, and the exit status is 1 on any difference,
else 0.  ``--limit N`` keeps the first N requests of each workload, the
first N example runs and the first N failure lines.
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

# a config file with a line that is not ``key = value``, written into the
# working directory of each tree
BAD_CONFIG = ("bad.cfg", "tol 1e-6\n")

# command lines that fail validation (exit 1) or numerically (exit 2)
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
    )
]

# Runs in the subprocess of one tree: argv[1] is the tree, argv[2] a JSON
# list of argvs; prints one JSON record of digests per argv.
WORKER = """\
import contextlib, hashlib, io, json, os, sys, traceback
src = os.path.join(sys.argv[1], "src")
sys.path.insert(0, src)
import biconf.cli
if not biconf.cli.__file__.startswith(src):
    sys.exit(f"biconf was imported from {biconf.cli.__file__}, not from {src}")
digest = lambda data: hashlib.sha256(data).hexdigest()
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
            written = digest(fh.read())
        os.remove(path)
    record = {"code": code, "stdout": digest(out.getvalue().encode()),
              "stderr": digest(err.getvalue().encode()), "out": written}
    print(json.dumps(record), flush=True)
"""


def requests(limit: int | None) -> list[list[str]]:
    """The argvs to compare: each workload's seed-1 requests, with the
    ``--out`` file the benchmark driver adds, then the example runs and
    the failure lines."""
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
    return argvs + examples[:limit] + FAILURES[:limit]


def start(tree: Path, argv_file: str, workdir: str) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "BICONF_TOL")}
    return subprocess.Popen(
        [sys.executable, "-c", WORKER, str(tree.resolve()), argv_file],
        cwd=workdir, env=env, stdout=subprocess.PIPE, text=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="tree whose src/ holds the reference biconf")
    parser.add_argument("new", type=Path, help="tree whose src/ holds the changed biconf")
    parser.add_argument("--limit", type=int, default=None, help="first N runs of each kind")
    args = parser.parse_args(argv)
    argvs = requests(args.limit)
    with tempfile.TemporaryDirectory() as tmp:
        argv_file = os.path.join(tmp, "argvs.json")
        with open(argv_file, "w", encoding="utf-8") as fh:
            json.dump(argvs, fh)
        dirs = [os.path.join(tmp, side) for side in ("old", "new")]
        for d in dirs:
            os.mkdir(d)
            with open(os.path.join(d, BAD_CONFIG[0]), "w", encoding="utf-8") as fh:
                fh.write(BAD_CONFIG[1])
        procs = [start(tree, argv_file, d) for tree, d in zip((args.old, args.new), dirs)]
        outputs = [proc.communicate()[0].splitlines() for proc in procs]
    if any(proc.returncode != 0 for proc in procs):
        print("parity: a tree's worker failed", file=sys.stderr)
        return 2
    old, new = ([json.loads(line) for line in lines] for lines in outputs)
    differing = 0
    for argv, a, b in zip(argvs, old, new):
        fields = [name for name in FIELDS if a[name] != b[name]]
        if fields:
            differing += 1
            print(f"differs in {', '.join(fields)}: {json.dumps(argv)}")
    print(f"parity: {len(argvs)} runs, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
