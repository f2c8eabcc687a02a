#!/usr/bin/env python3
"""rbren benchmark: one workload, closed loop, one client, exact output checks.

    python3 perfbench/run.py --workload renorm_cold --seed 1 --seconds 38 --trace 0

Run from the repository root; rbren is imported from ``src/``.  The
workloads (``renorm_cold``, ``rb_pairs``, ``periods``) are
described in ``perfbench/WORKLOADS.md``.  The op pool is built from
``--seed`` and run in whole passes, each in a seeded order, until
``--seconds`` have passed, ``MIN_PASSES`` passes are done and ten or more
samples lie beyond ``op_p90_ms``.
Every op's output is checked, and repeats of an input must give
byte-identical output.

Timings are robust to the machine's speed changing for seconds at a time
(shared hosts): each pool input's latency is the fastest of its repeats,
which are spread over the run; ``op_p50_ms``/``op_p90_ms`` are weighted
percentiles of those per-input latencies, and ``ops_per_s`` is the total
pass weight divided by their weighted sum.  ``setup_s`` is the median of
``SETUP_REPS`` set-ups, the first before the timed phase and the others
between its passes.  The script re-executes itself with a fixed
``PYTHONHASHSEED``, so set and dict orders inside rbren repeat from run to
run.

With ``--trace 0`` the final JSON line holds the end-to-end metrics; with
``--trace 1`` the run is split into an untraced and a traced half and the
JSON holds the per-layer metrics, and the spans are written to
``.perfbench_traces/``.  Human-readable lines come first.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from math import ceil
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 4
SETUP_REPS = 3
MIN_BEYOND_P90 = 10
HARD_STOP_S = 120.0
HASH_SEED = "0"
CPU_CHECK_S = 0.5
CPU_PROBE_LOOPS = 20_000

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("failed_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_rbren():
    """A fresh import of rbren (and its CLI), as a cold process would do."""
    for name in [n for n in sys.modules if n == "rbren" or n.startswith("rbren.")]:
        del sys.modules[name]
    rb = importlib.import_module("rbren")
    importlib.import_module("rbren.cli")
    return rb


def host_probe(loops=100_000):
    """Seconds for a fixed pure-Python loop: the machine's speed right now.

    Printed once per pass, so a reader can tell a slow host from slow code."""
    start = perf_counter()
    total = 0
    for i in range(loops):
        total += i * i % 7
    return perf_counter() - start


class CpuPicker:
    """Keeps the process on whichever of its CPUs is quickest right now.

    On a shared host one virtual CPU can run much slower than another for
    seconds at a time (another guest on its sibling core), and the scheduler
    has no reason to move an otherwise idle guest's only busy process.  Every
    ``CPU_CHECK_S`` the picker times a short loop on each allowed CPU and
    pins the process to the quickest.  It acts on this process only."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.due = 0.0
        self.current = None
        self.moves = 0

    def check(self):
        if len(self.cpus) < 2 or perf_counter() < self.due:
            return
        timed = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timed.append((min(host_probe(CPU_PROBE_LOOPS) for _ in range(3)), cpu))
        best = min(timed)[1]
        os.sched_setaffinity(0, {best})
        self.moves += self.current is not None and best != self.current
        self.current = best
        self.due = perf_counter() + CPU_CHECK_S


class Phase:
    """One closed-loop stretch of whole passes over the pool."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_item: dict[str, list[float]] = {}
        self.passes = 0
        self.host: list[float] = []
        self.failed = 0
        self.failures: list[str] = []

    @property
    def attempted(self):
        return len(self.latencies)

    def item_latencies(self, items):
        """(fastest latency, weight) for every pool item, sorted."""
        return sorted((min(self.by_item[item.key]), item.weight) for item in items)

    def ops_per_s(self, items):
        latencies = self.item_latencies(items)
        return sum(w for _, w in latencies) / sum(t * w for t, w in latencies)

    def p90(self, items):
        return weighted_percentile(self.item_latencies(items), 0.9)

    def beyond_p90(self, items):
        p90 = self.p90(items)
        return sum(1 for x in self.latencies if x > p90)

    def enough(self, items):
        """Enough repeats per input and enough samples beyond op_p90_ms."""
        return self.passes >= MIN_PASSES and self.beyond_p90(items) >= MIN_BEYOND_P90


def weighted_percentile(pairs, q):
    """Nearest-rank percentile of (value, weight) pairs sorted by value."""
    rank = ceil(q * sum(w for _, w in pairs))
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= rank:
            return value
    return pairs[-1][0]


def run_phase(wl, seconds, outputs, first_pass, cpu, tracer=None, full=True, between=None):
    """Whole passes until ``seconds`` have passed and, if ``full``, the
    phase has enough samples (``Phase.enough``).  ``between()`` runs after
    each pass, untimed but within ``seconds``."""
    phase = Phase()
    started = perf_counter()
    index = first_pass
    while True:
        for item in wl.pass_order(index):
            cpu.check()
            t0 = perf_counter()
            try:
                result = tracer.op(wl.op, item) if tracer else wl.op(item)
                error = None
            except Exception:
                error = traceback.format_exc(limit=3)
            elapsed = perf_counter() - t0
            phase.latencies.append(elapsed)
            phase.by_item.setdefault(item.key, []).append(elapsed)
            if error is None:
                try:
                    out = wl.check(item, result)
                    if item.key not in outputs:
                        outputs[item.key] = out
                    elif outputs[item.key] != out:
                        error = f"{item.key}: output differs from an earlier run of the same input"
                except Exception as exc:
                    error = f"{item.key}: {type(exc).__name__}: {exc}"
            if error is not None:
                phase.failed += 1
                if len(phase.failures) < 5:
                    phase.failures.append(error)
        index += 1
        phase.passes += 1
        phase.host.append(host_probe())
        if between is not None:
            between()
        elapsed = perf_counter() - started
        if elapsed >= HARD_STOP_S or (
            elapsed >= seconds and (not full or phase.enough(wl.items))
        ):
            return phase, index


def commit_id():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown (not a git checkout)"


def probe_birkhoff_verify(rb, seed, tiny, workdir):
    """Untimed: `rbren birkhoff factorize G --verify` on every renorm_cold graph.

    Returns (missing-character-value exits, verified false, verified true).
    """
    import contextlib
    import io

    from workloads import renorm_cold_specs, to_graph

    char_path = workdir / "probe_character.json"
    char_path.write_text(
        json.dumps({"target": {"kind": "laurent_ms"}, "rule": "pole_power", "c": "1/2"})
    )
    missing = unverified = verified = 0
    for spec, _ in renorm_cold_specs(seed, tiny):
        lib_path = workdir / f"probe_{spec[0]}.json"
        graph = rb.serde.dump_graph(to_graph(rb, spec))
        lib_path.write_text(json.dumps({"dim": 4, "graphs": {"G": graph}}))
        argv = ["birkhoff", "factorize", "G", "--character", str(char_path)]
        argv += ["--library", str(lib_path), "--verify"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = rb.cli.main(argv)
        payload = json.loads(out.getvalue())
        if status == 1 and payload["error"]["code"] == "missing-character-value":
            missing += 1
        elif status == 0 and payload["verified"]:
            verified += 1
        else:
            unverified += 1
    return missing, unverified, verified


def probe_coassociativity(rb, seed, tiny):
    """Untimed: seeded bridgeless multigraphs with no restriction on the
    superficial degree of subgraphs; counts graphs on which some generator
    fails phi = (phi_minus o S) * phi_plus after factorize_all."""
    import random

    import inputs
    from workloads import HALF, factorized_parts, to_graph

    rng = random.Random(f"coassoc:{seed}")
    shapes = [(3, 5), (4, 7)] if tiny else [(3, 5), (3, 6), (4, 6), (4, 7), (4, 8), (4, 8)]
    failing = 0
    for i, (nv, ne) in enumerate(shapes):
        spec = inputs.cycle_plus_graph(rng, f"Q{i}", nv, ne)
        reg = rb.GeneratorRegistry(dim=4)
        reg.register(spec[0], to_graph(rb, spec))
        char = rb.pole_power_character(reg, c=HALF)
        names = rb.factorize_all(char, reg)
        minus, plus = factorized_parts(rb, char, reg, names)
        if not all(rb.verify_factorization(char, minus, plus, n, reg)[0] for n in names):
            failing += 1
    return failing, len(shapes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small pools, for the smoke test")
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # str hashes, and with them set and dict orders inside rbren, are
        # randomized per process unless fixed; fix them so that every run
        # takes the same code paths.  exec keeps the process (no child).
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        rest = sys.argv[1:] if argv is None else argv
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *rest])
    if not (ROOT / "src" / "rbren" / "__init__.py").is_file():
        print(f"error: no rbren sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    os.environ.pop("RB_RENORM_DEGREE_CUTOFF", None)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(workload_cls, args, workdir):
    """(rbren, workload, seconds): one set-up as a cold process does it."""
    start = perf_counter()
    rb = import_rbren()
    wl = workload_cls(rb, args.seed, args.tiny, workdir)
    return rb, wl, perf_counter() - start


def extra_set_up(workload_cls, args, workdir):
    """Time one more set-up, then put back the rbren modules the run uses,
    so the timed ops keep running on the objects they were built from."""
    kept = {n: m for n, m in sys.modules.items() if n == "rbren" or n.startswith("rbren.")}
    try:
        return set_up(workload_cls, args, workdir)[2]
    finally:
        for name in [n for n in sys.modules if n == "rbren" or n.startswith("rbren.")]:
            del sys.modules[name]
        sys.modules.update(kept)


def run(args, workload_cls, workdir):
    cpu = CpuPicker()
    cpu.check()
    rb, wl, first = set_up(workload_cls, args, workdir)
    setup_times = [first]
    # further set-ups run between passes, so that their median samples the
    # host over the whole run rather than over a few seconds of it
    spare_dir = workdir / "setup"
    spare_dir.mkdir()

    def between_passes():
        if len(setup_times) < SETUP_REPS:
            cpu.check()
            setup_times.append(extra_set_up(workload_cls, args, spare_dir))

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(
        f"env python {platform.python_version()} nproc {os.cpu_count()} commit {commit_id()}"
        " closed loop, 1 client"
    )
    print(f"inputs {wl.describe()}")

    outputs: dict[str, bytes] = {}
    tracer = None
    if args.trace:
        from tracing import Tracer, per_layer_specs, per_layer_values

        plain, next_pass = run_phase(wl, args.seconds / 2, outputs, 0, cpu, full=False)
        tracer = Tracer()
        tracer.install(rb)
        try:
            traced, _ = run_phase(
                wl, args.seconds / 2, outputs, next_pass, cpu, tracer, full=False
            )
        finally:
            tracer.uninstall()
        phases = [plain, traced]
    else:
        phases = [
            run_phase(
                wl, args.seconds, outputs, 0, cpu, full=not args.tiny, between=between_passes
            )[0]
        ]
        while len(setup_times) < SETUP_REPS:
            between_passes()
    setup_s = statistics.median(setup_times)

    gate_failures = wl.gate()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for message in [f for p in phases for f in p.failures] + gate_failures:
        print(f"FAILED {message}")
    digest = hashlib.sha256()
    for item in wl.items:
        digest.update(item.key.encode() + b"\0" + outputs.get(item.key, b"<missing>") + b"\0")
    complete = all(item.key in outputs for item in wl.items)
    correct = failed == 0 and not gate_failures and complete
    host = sorted(t * 1e3 for p in phases for t in p.host)
    print(
        f"host probe loop ms min {host[0]:.2f} median {statistics.median(host):.2f}"
        f" max {host[-1]:.2f} over {len(host)} passes; cpus {cpu.cpus} moves {cpu.moves}"
    )
    print(f"digest sha256 {digest.hexdigest()}{'' if complete else ' (incomplete pass)'}")

    if args.trace:
        missing, unverified, verified = probe_birkhoff_verify(rb, args.seed, args.tiny, workdir)
        print(
            f"probe cli.birkhoff_verify missing_value {missing} verified_false {unverified}"
            f" verified_true {verified}"
        )
        coassoc_failing, coassoc_total = probe_coassociativity(rb, args.seed, args.tiny)
        print(f"probe hopf.coassociativity failing_graphs {coassoc_failing} of {coassoc_total}")
        overhead = phases[1].ops_per_s(wl.items) / phases[0].ops_per_s(wl.items)
        extra = {
            "cli.birkhoff_verify.missing_value": missing,
            "trace.overhead_ratio": overhead,
            "rota_baxter.random_element.time_s": getattr(wl, "random_element_s", 0.0),
        }
        metrics_values = per_layer_values(tracer, extra)
        units = {name: unit for name, unit, _ in per_layer_specs()}
        layer_self = tracer.self_time_by_layer()
        total = sum(layer_self.values())
        for layer, value in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            print(f"layer {layer} self_s {value:.4f} share {value / total:.3f}")
        print(f"spans kept {len(tracer.spans)} dropped {tracer.dropped_spans}")
        trace_dir = ROOT / ".perfbench_traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write_spans(trace_dir / f"{wl.name}-seed{args.seed}.jsonl")
        metrics = {name: {"value": v, "unit": units[name]} for name, v in metrics_values.items()}
    else:
        phase = phases[0]
        latencies = phase.item_latencies(wl.items)
        p90 = phase.p90(wl.items)
        values = {
            "ops_per_s": phase.ops_per_s(wl.items),
            "op_p50_ms": weighted_percentile(latencies, 0.5) * 1e3,
            "op_p90_ms": p90 * 1e3,
            "failed_ratio": failed / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        beyond = phase.beyond_p90(wl.items)
        for name, unit in END_TO_END:
            note = ""
            if name == "op_p50_ms":
                note = f" (samples {phase.attempted}, {phase.passes} passes over {len(latencies)} inputs)"
            elif name == "op_p90_ms":
                note = f" (samples beyond {beyond})"
            elif name == "setup_s":
                note = f" (median of {len(setup_times)} set-ups)"
            print(f"metric {name} {values[name]:.6g} {unit}{note}")
        # failed_ratio is 0 on a correct run, so it is carried by "failed"
        # in the JSON line rather than as a metric
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END
            if name != "failed_ratio"
        }
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
