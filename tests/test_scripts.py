import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv):
    # as from a plain checkout: the package is neither installed nor on PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )


def load_script(monkeypatch, name):
    """The module scripts/<name>.py; sys.path is restored afterwards."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(script)
    return script


def test_rb_identity_sweep_script():
    out = run_script("scripts/rb_identity_sweep.py", "--pairs", "10", "--seed", "4")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 6  # header plus one row per kind
    for line in lines[1:]:
        fields = line.split()
        assert fields[2] == "0" and fields[3] == "0"


@pytest.mark.parametrize("failures", [(1, 0), (0, 1)], ids=["rb", "law"])
def test_rb_identity_sweep_script_exits_1_on_a_failure(monkeypatch, failures):
    """It used to exit 0 whatever it found."""
    script = load_script(monkeypatch, "rb_identity_sweep")
    monkeypatch.setattr(sys, "argv", ["rb_identity_sweep.py", "--pairs", "1"])
    assert script.main() == 0
    monkeypatch.setattr(script, "sweep", lambda desc, pairs, seed: failures)
    assert script.main() == 1


def test_renormalize_demo_script():
    out = run_script("scripts/renormalize_demo.py", "--seed", "8")
    assert out.returncode == 0, out.stderr
    assert "ok=False" not in out.stdout
    assert "Atkinson fixed point reproduces phi-: True" in out.stdout
    assert "dlog-free: False" not in out.stdout


def test_bench_pairs_writes_every_metric_of_each_pair(tmp_path):
    """One tiny rb_pairs pair on two copies of this tree."""
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_*")
    for side in ("parent", "change"):
        shutil.copytree(ROOT / "src", tmp_path / side / "src", ignore=skip)
        shutil.copytree(ROOT / "perfbench", tmp_path / side / "perfbench", ignore=skip)
    out = tmp_path / "bench.json"
    argv = ["--parent", tmp_path / "parent", "--change", tmp_path / "change", "--workload",
            "rb_pairs", "--pairs", "1", "--seconds", "0.2", "--tiny", "--out", out]
    done = run_script("scripts/bench_pairs.py", *map(str, argv))
    assert done.returncode == 0, done.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end"]}
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == {"rb_pairs"}
    (pair,) = report["workloads"]["rb_pairs"]["pairs"]
    assert pair["seed"] == 1 and pair["first"] == "parent"
    for side in ("parent", "change"):
        assert set(pair[side]) == names
        assert pair[f"{side}_correct"] is True and pair[f"{side}_failed"] == 0
    metrics = report["workloads"]["rb_pairs"]["metrics"]
    assert set(metrics) == names
    for name, summary in metrics.items():
        bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)
        assert summary["bound"] == bound and summary["pairs"] == 1
        assert summary["parent"]["median"] == pair["parent"][name]
        assert summary["change"]["median"] == pair["change"][name]
        assert 0 <= summary["change_wins"] <= 1
        assert summary["verdict"] in ("unresolved", "worse", "better", "within bound")


def test_bench_pairs_gain_needs_no_more_failed_ops(monkeypatch):
    """A change that wins every pair but fails more ops is not better; it
    used to be."""
    script = load_script(monkeypatch, "bench_pairs")
    metric = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}

    def pairs(change_failed):
        return [
            {"parent": {"ops_per_s": 100.0 + k}, "change": {"ops_per_s": 200.0 + k},
             "parent_failed": 1, "change_failed": change_failed}
            for k in range(10)
        ]

    same = script.summary(pairs(1), metric)
    assert same["verdict"] == "better"
    assert (same["parent_failed"], same["change_failed"]) == (10, 10)
    more = script.summary(pairs(2), metric)
    assert more["change_wins"] == 10 and more["verdict"] != "better"
    assert (more["parent_failed"], more["change_failed"]) == (10, 20)


def test_bench_pairs_uniformly_better_metric_is_resolved(monkeypatch):
    """A parent spread wider than the bound left a metric unresolved even
    when every run of the change read better than every run of the parent;
    such a metric is judged on its median, unless the change fails more ops."""
    script = load_script(monkeypatch, "bench_pairs")
    metric = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
    parent = [20, 30, 40, 99, 99, 99, 99, 99, 100, 100]

    def pairs(change_failed, change=101.0):
        return [
            {"parent": {"ops_per_s": float(p)}, "change": {"ops_per_s": change},
             "parent_failed": 0, "change_failed": change_failed}
            for p in parent
        ]

    clean = script.summary(pairs(0), metric)
    assert clean["change_wins"] == 10 and clean["parent_iqr_over_median"] > 0.25
    assert clean["verdict"] == "within bound"
    assert script.summary(pairs(1), metric)["verdict"] == "unresolved"
    # one change run no better than the best parent run: still unresolved
    mixed = pairs(0)
    mixed[0]["change"]["ops_per_s"] = 100.0
    assert script.summary(mixed, metric)["verdict"] == "unresolved"
