"""The scripts under scripts/ run end to end from a source checkout and
print exactly the stored output in tests/data/ (byte for byte, so a kernel
change that moves a printed digit shows up here); compare_trees.py, whose
output depends on the two trees it runs, finds a tree equal to itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["reproduce_examples.py", "convergence_tables.py"])
def test_script_runs_and_prints(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], cwd=ROOT,
                            env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""
    assert result.stdout == (ROOT / "tests" / "data" / script).with_suffix(".out").read_bytes()


def test_compare_trees_finds_this_tree_equal_to_itself():
    # one fresh interpreter per tree; every array of the solve set is the same
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "compare_trees.py"),
                             str(ROOT), str(ROOT)], cwd=ROOT, env=env, capture_output=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""
    header, *rows = result.stdout.decode().splitlines()
    assert header.split()[0] == "array"
    assert len(rows) == 6 * 5
    assert all(row.split()[1] == "0" for row in rows)
