#!/usr/bin/env python3
"""Alternating before/after runs of the benchmark in two checkouts.

    python3 scripts/bench_pairs.py --parent ../before --change . \\
        --workload rb_pairs --pairs 10 --seconds 38 --out BENCH.json

Pair k runs ``perfbench/run.py --seed k`` once in each checkout, the parent
first in odd pairs and the change first in even ones, so a slow stretch of
a shared host falls on both sides alike.  ``--workload`` may be repeated.
The JSON file, rewritten after every pair, holds per workload and
end-to-end metric (with its bound from ``BENCHMARK.json``) every pair's
values, each side's median and quartiles and total of failed ops, the
parent's IQR/median, the pairs the change wins and a verdict:

  better        the change wins 9 pairs in 10 (ties count for neither
                side), its median is better by more than the parent's IQR,
                and it fails no more ops in total than the parent
  unresolved    otherwise, when the parent's IQR/median exceeds the bound,
                unless every run of the change reads better than every run
                of the parent and it fails no more ops in total
  worse         otherwise, when the change's median is worse by more than
                the bound
  within bound  anything else
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """The final JSON line of one benchmark run in checkout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"] + ["--tiny"] * tiny
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(pairs: list[dict], metric: dict) -> dict:
    name, bound = metric["name"], metric["bound"]
    higher = metric["better"] == "higher"
    parent = [p["parent"][name] for p in pairs]
    change = [p["change"][name] for p in pairs]
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    wins = sum(c > p if higher else c < p for p, c in zip(parent, change))
    failed = {side: sum(p[f"{side}_failed"] for p in pairs) for side in ("parent", "change")}
    # the change's median relative to the parent's, positive when worse
    worse_by = (pm - cm if higher else cm - pm) / pm
    spread = (p3 - p1) / pm
    dominates = min(change) > max(parent) if higher else max(change) < min(parent)
    if (
        wins >= 0.9 * len(pairs) and worse_by < 0 and abs(cm - pm) > p3 - p1
        and failed["change"] <= failed["parent"]
    ):
        verdict = "better"
    elif spread > bound and not (dominates and failed["change"] <= failed["parent"]):
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "within bound"
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": bound,
        "parent": {"median": pm, "q1": p1, "q3": p3}, "change": {"median": cm, "q1": c1, "q3": c3},
        "parent_failed": failed["parent"], "change_failed": failed["change"],
        "parent_iqr_over_median": spread, "change_worse_by": worse_by,
        "change_wins": wins, "pairs": len(pairs), "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true", help="small pools, for a smoke test")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {"pairs": args.pairs, "seconds": args.seconds, "tiny": args.tiny, "workloads": {}}
    for workload in args.workload:
        pairs = []
        for seed in range(1, args.pairs + 1):
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result = run_once(sides[side], workload, seed, args.seconds, args.tiny)
                pair[side] = {k: v["value"] for k, v in result["metrics"].items()}
                pair[f"{side}_failed"] = result["failed"]
                pair[f"{side}_correct"] = result["correct"]
            pairs.append(pair)
            print(f"{workload} pair {seed}: " + " ".join(
                f"{side} ops_per_s {pair[side]['ops_per_s']:.4g}" for side in order), flush=True)
            report["workloads"][workload] = {
                "pairs": pairs,
                "metrics": {m["name"]: summary(pairs, m) for m in spec["end_to_end"]},
            }
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, data in report["workloads"].items():
        for name, s in data["metrics"].items():
            print(f"{workload} {name}: parent {s['parent']['median']:.4g} change"
                  f" {s['change']['median']:.4g} wins {s['change_wins']}/{s['pairs']} {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
