"""Smoke test of tools/parity.py: a tree matches itself, and a tree whose
FD step differs is caught on the verify requests."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARITY = ROOT / "tools" / "parity.py"


def parity(old, new):
    return subprocess.run(
        [sys.executable, str(PARITY), str(old), str(new), "--limit", "2"],
        capture_output=True, text=True, timeout=300,
    )


def test_a_tree_matches_itself():
    run = parity(ROOT, ROOT)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "parity: 10 runs, 0 differ\n"


def test_a_changed_tree_is_listed(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    oracle = tmp_path / "src" / "biconf" / "oracle.py"
    text = oracle.read_text()
    oracle.write_text(text.replace("DEFAULT_GAMMA_STEP = 1e-3", "DEFAULT_GAMMA_STEP = 2e-3"))
    run = parity(ROOT, tmp_path)
    assert run.returncode == 1, run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1].startswith("parity: 10 runs, ") and lines[-1] != "parity: 10 runs, 0 differ"
    assert sum(line.startswith("differs in stdout, out: [\"verify\"") for line in lines) == 2
