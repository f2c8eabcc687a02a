import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv):
    # as from a plain checkout: the package is neither installed nor on PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )


def test_rb_identity_sweep_script():
    out = run_script("scripts/rb_identity_sweep.py", "--pairs", "10", "--seed", "4")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 6  # header plus one row per kind
    for line in lines[1:]:
        fields = line.split()
        assert fields[2] == "0" and fields[3] == "0"


def test_renormalize_demo_script():
    out = run_script("scripts/renormalize_demo.py", "--seed", "8")
    assert out.returncode == 0, out.stderr
    assert "ok=False" not in out.stdout
    assert "Atkinson fixed point reproduces phi-: True" in out.stdout
    assert "dlog-free: False" not in out.stdout
