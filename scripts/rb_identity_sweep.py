#!/usr/bin/env python3
"""Seeded randomized sweep of the weight -1 identity and the per-kind
operator laws over all five algebra kinds; exits 1 when any pair fails
the identity or a law.

    python3 scripts/rb_identity_sweep.py --pairs 500 --seed 11
"""

import argparse
import sys
import time
from pathlib import Path

# run from a checkout without installing the package
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rbren import SWEEP_DESCRIPTORS, sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kind", choices=sorted(SWEEP_DESCRIPTORS), action="append")
    args = parser.parse_args()

    kinds = args.kind or sorted(SWEEP_DESCRIPTORS)
    print(f"{'kind':<18} {'pairs':>6} {'rb fails':>9} {'law fails':>10} {'secs':>6}")
    failed = False
    for kind in kinds:
        started = time.time()
        rb_failures, law_failures = sweep(SWEEP_DESCRIPTORS[kind], args.pairs, args.seed)
        elapsed = time.time() - started
        print(
            f"{kind:<18} {args.pairs:>6} {rb_failures:>9} {law_failures:>10}"
            f" {elapsed:>6.2f}"
        )
        failed = failed or rb_failures > 0 or law_failures > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
