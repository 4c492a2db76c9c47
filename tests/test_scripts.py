"""Smoke test: every script under scripts/ runs to exit 0 on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import unclab

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# the source tree this test process imported unclab from; the child uses it too
SRC = str(Path(unclab.__file__).resolve().parent.parent)

RUNS = [
    ["bench_kernels.py", "--lengths", "12", "--runs", "1"],
    ["elton_ladder.py", "--rung", "0"],
    ["orthogonal_family_search.py", "--etas", "1/2,7/8", "--seeds", "0",
     "--budget", "8"],
]


def test_scripts_run():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(r[0] for r in RUNS)
    env = dict(os.environ)
    env.pop("UNCLAB_CAPS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for script, *args in RUNS:
        proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, (script, proc.stderr)
        assert proc.stdout, script


def test_bench_kernels_passes_on_a_failing_childs_stderr(tmp_path):
    # a parent side without unclab fails in its first child run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bench_kernels.py"),
                           "--lengths", "12", "--runs", "1", "--parent-src", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "No module named 'unclab'" in proc.stderr
