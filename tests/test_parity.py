"""Smoke test of tools/parity.py: a tree matches itself, and a tree whose
FD step differs is caught on the verify requests (two of the workload
and one long run), in byte mode and in
numeric mode beyond its tolerance; numeric mode still compares every
character outside a number."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARITY = ROOT / "tools" / "parity.py"

# the FD step of the oracle doubled: every FD column moves by about 1e-5
FD_STEP = ("oracle.py", "DEFAULT_GAMMA_STEP = 1e-3", "DEFAULT_GAMMA_STEP = 2e-3")


def parity(old, new, *flags):
    return subprocess.run(
        [sys.executable, str(PARITY), str(old), str(new), "--limit", "2", *flags],
        capture_output=True, text=True, timeout=300,
    )


def changed_tree(tmp_path, module, old, new):
    """A copy of src/ with ``old`` replaced by ``new`` in ``module``."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "biconf" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return tmp_path


def test_a_tree_matches_itself():
    run = parity(ROOT, ROOT)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "parity: 12 runs, 0 differ\n"


def test_a_changed_tree_is_listed(tmp_path):
    tree = changed_tree(tmp_path, *FD_STEP)
    run = parity(ROOT, tree)
    assert run.returncode == 1, run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1].startswith("parity: 12 runs, ") and lines[-1] != "parity: 12 runs, 0 differ"
    assert sum(line.startswith("differs in stdout, out: [\"verify\"") for line in lines) == 3


def test_numeric_mode_reads_numbers_within_the_tolerance(tmp_path):
    """An O(h^2) change of the FD step moves the FD columns by about 1e-5:
    within a tolerance of 1e-3; beyond one of 1e-12, numeric mode lists
    what byte mode lists."""
    run = parity(ROOT, ROOT, "--numeric", "1e-12")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "largest difference: 0\nparity: 12 runs, 0 differ\n"
    tree = changed_tree(tmp_path, *FD_STEP)
    loose = parity(ROOT, tree, "--numeric", "1e-3")
    assert loose.returncode == 0, loose.stderr
    largest, summary = loose.stdout.splitlines()
    assert largest.startswith("largest difference: ") and 1e-9 < float(largest.split()[2]) < 1e-3
    assert summary == "parity: 12 runs, 0 differ"
    tight, byte = parity(ROOT, tree, "--numeric", "1e-12"), parity(ROOT, tree)
    assert tight.returncode == byte.returncode == 1
    lines = tight.stdout.splitlines()
    assert lines[-2] == largest
    assert lines[:-2] + lines[-1:] == byte.stdout.splitlines()


def test_numeric_mode_compares_every_character_outside_a_number(tmp_path):
    label = "grid max |closed-form - FD|"
    tree = changed_tree(tmp_path, "cli.py", label, label.replace("-form", " form"))
    run = parity(ROOT, tree, "--numeric", "1")
    assert run.returncode == 1
    lines = run.stdout.splitlines()
    assert lines[-2:] == ["largest difference: 0", "parity: 12 runs, 3 differ"]
    assert sum(line.startswith("differs in stdout: [\"verify\"") for line in lines) == 3
