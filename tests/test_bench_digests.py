"""The benchmark's tiny runs reproduce their recorded output digests.

Each workload's ``--tiny --seed 3`` run hashes the canonical output of every
op; the digests below were recorded from such runs.  A change that means to
alter an output updates its digest and says why.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TINY_DIGESTS = {
    "renorm_cold": "e43cea926066347a63bf1ec259a62369a19cd448e9387e103b5c827b8b6a9c46",
    "rb_pairs": "44a83b352a9b5541dfb3d21f991f21d3cb899f3c3eb7bba820a41828b0411fd4",
    "periods": "d916d936055670c3fd30cf6c3d3a33967e41a8ad9e2a5a128493c91e66c1e3aa",
}


@pytest.mark.parametrize("workload", sorted(TINY_DIGESTS))
def test_tiny_run_digest(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.2",
            "--trace", "0", "--tiny"]
    out = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    digests = [line for line in out.stdout.splitlines() if line.startswith("digest ")]
    assert digests == [f"digest sha256 {TINY_DIGESTS[workload]}"]
