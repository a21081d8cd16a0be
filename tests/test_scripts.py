"""Each script under scripts/ runs to completion on a small grid."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, args", [
    ("paper_example.py", ["--n", "64"]),
    ("convergence_table.py", ["--ns", "64,128"]),
    ("second_order_demo.py", ["--n", "64"]),
])
def test_script_runs(script, args, tmp_path):
    done = run_script(script, args, tmp_path)
    assert done.returncode == 0, done.stderr


def test_output_digests_list_every_workload_command(tmp_path):
    done = run_script("output_digests.py", ["--seed", "1", "--scale", "16"], tmp_path)
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    assert [line[:3] for line in lines] == [
        ["verify-q", "verify", "exit=0"],
        ["second-order", "check-violated", "exit=0"],
        ["second-order", "check-holds", "exit=0"],
        ["march", "solve", "exit=0"],
        ["march", "adjoint", "exit=0"],
        ["march", "check", "exit=0"],
        ["march", "converge", "exit=0"],
    ]
    for line in lines:
        assert line[3:] and all(re.fullmatch(r"[\w.]+=[0-9a-f]{64}", f) for f in line[3:])
    assert lines[0][3].startswith("verify.json=")


def test_peak_tables_prints_every_command_and_grid(tmp_path):
    done = run_script("peak_tables.py", ["--ns", "32,64"], tmp_path)
    assert done.returncode == 0, done.stderr
    rows = [line.rsplit(None, 2) for line in done.stdout.splitlines()[1:]]
    assert [(label, n) for label, n, _ in rows] == [
        (label, n) for label in ("verify lq", "verify paper_example", "check-2 lq",
                                 "check-2 paper_example") for n in ("32", "64")]
    assert all(float(tables) > 0 for _, _, tables in rows)
