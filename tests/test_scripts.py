"""Smoke test: every script under scripts/ runs to exit 0 on small inputs."""

import json
import subprocess
import sys
from pathlib import Path

from conftest import child_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

RUNS = [
    ["bench_kernels.py", "--lengths", "12", "--runs", "1"],
    ["elton_ladder.py", "--rung", "0"],
    ["orthogonal_family_search.py", "--etas", "1/2,7/8"],
]


def test_scripts_run():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(r[0] for r in RUNS)
    for script, *args in RUNS:
        proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                              capture_output=True, text=True, env=child_env(), timeout=120)
        assert proc.returncode == 0, (script, proc.stderr)
        assert proc.stdout, script


def test_bench_kernels_passes_on_a_failing_childs_stderr(tmp_path):
    # a parent side without unclab fails in every child run: each size marks
    # that side failed with its last stderr line, the sweep goes on to
    # measure the change side, and the script exits 1 at its end
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bench_kernels.py"),
                           "--lengths", "12", "--runs", "1", "--parent-src", str(tmp_path)],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 1
    assert "No module named 'unclab'" in proc.stderr
    sizes = [entry for entries in json.loads(proc.stdout)["sizes"].values()
             for entry in entries]
    assert len(sizes) == 28
    for entry in sizes:
        assert entry["parent"] == {"failed": "ModuleNotFoundError: No module named 'unclab'"}
        assert entry["change"]["median_s"] > 0
