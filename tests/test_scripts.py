"""The scripts under scripts/ run end to end from a source checkout and
print exactly the stored output in tests/data/ (byte for byte, so a kernel
change that moves a printed digit shows up here); compare_trees.py, whose
output depends on the two trees it runs, finds a tree equal to itself and names
a solve that raised on each of its lines."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    # 5 arrays of each of 11 solves, 4 of each of their 23 conditions, 4 mixed sums
    assert len(rows) == 11 * 5 + 23 * 4 + 4
    assert all(row.split()[1] == "0" for row in rows)


def test_compare_trees_names_a_solve_that_raised_on_its_lines(capsys):
    # a case that raised in one dump, as stiff-k23 does under a BLAS kernel
    # without FMA, prints its exception on each of its lines; the others compare
    spec = importlib.util.spec_from_file_location("compare_trees",
                                                  ROOT / "scripts" / "compare_trees.py")
    compare_trees = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_trees)
    arrays = {f"{case}/{kind}": np.ones(3)
              for case in ("ok", "bad") for kind in compare_trees.ARRAYS}
    raised = {name: array for name, array in arrays.items() if name.startswith("ok/")}
    raised["bad/error"] = np.array("UnitPropertyError: a miss of 1.1e-09")
    compare_trees.report(arrays, raised)
    header, *rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == list(arrays)
    assert all(row.split()[1] == "0" for row in rows[:5])
    assert all(row.split(None, 1)[1] == "new raised UnitPropertyError: a miss of 1.1e-09"
               for row in rows[5:])
