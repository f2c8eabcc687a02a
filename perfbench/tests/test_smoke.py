"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/tests -q

Checks that every end-to-end metric prints by name with its unit, that no op
fails, that the output digest repeats for one seed and changes with the
seed, that a traced run reports every per-layer metric, and that the
benchmark refuses to run without the rbren sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PRINTED = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PRINTED["failed_ratio"] = "ratio"


def run(workload, seed, trace=0, cwd=ROOT, check=True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170, check=check)


def digest(lines):
    return [line for line in lines if line.startswith("digest ")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    lines = run(workload, 3).stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in PRINTED.items():
        printed = [line.split() for line in lines if line.startswith(f"metric {name} ")]
        assert len(printed) == 1 and printed[0][3] == unit, name
    assert any(line.startswith("metric failed_ratio 0 ratio") for line in lines)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert len(digest(lines)) == 1
    assert digest(run(workload, 3).stdout.splitlines()) == digest(lines)
    assert digest(run(workload, 4).stdout.splitlines()) != digest(lines)


def test_traced_run_reports_every_layer_metric():
    lines = run("rb_pairs", 3, trace=1).stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert result["metrics"]["rota_baxter.rb_defect.saito_form.calls"]["value"] > 0
    assert result["metrics"]["rota_baxter.self_s"]["value"] > 0
    assert any(line.startswith("probe cli.birkhoff_verify missing_value ") for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 3, cwd=tmp_path, check=False)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
