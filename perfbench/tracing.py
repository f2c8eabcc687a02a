"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` wraps the public rbren functions listed in ``TARGETS`` in
span recorders, rebinding each name in every loaded ``rbren`` module that
binds it (and methods on their classes); ``uninstall`` restores them.  Each
span has a name, start, end, parent span and op id.  Per-function call
counts, inclusive time (outermost calls only, so recursion is not counted
twice) and self time (span time minus child spans) are aggregated for every
call; the span list itself is capped so memory stays bounded.
"""

from __future__ import annotations

import json
import sys
import weakref
from math import comb
from time import perf_counter

LAYERS = (
    "graphs",
    "hopf",
    "birkhoff",
    "rota_baxter",
    "poly",
    "exterior",
    "symanzik",
    "motives",
    "cli",
    "serde",
)


class Tracer:
    def __init__(self, span_cap=50_000):
        self.span_cap = span_cap
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counts: dict[str, float] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.spans: list[list] = []
        self.dropped_spans = 0
        self.op_id = 0
        self._stack: list[list] = []  # [child_time, span_index]
        self._active: dict[str, int] = {}
        self._patches: list[tuple] = []
        self._coproduct_seen = weakref.WeakKeyDictionary()
        self._auto_seen = weakref.WeakKeyDictionary()
        self.saito_denoms: list[tuple[int, int]] = []

    # -- span recording --------------------------------------------------------

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name, layer, fn, extra=None, name_of=None):
        """Wrap ``fn``; ``name_of(args)`` may refine the span name per call and
        ``extra(args, result)`` records counts."""
        stack = self._stack
        active = self._active
        stats = self.stats
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            span_name = name_of(args) if name_of else name
            parent = stack[-1][1] if stack else -1
            if len(spans) < tracer.span_cap:
                index = len(spans)
                spans.append([span_name, 0.0, 0.0, parent, tracer.op_id])
            else:
                index = -1
                tracer.dropped_spans += 1
            frame = [0.0, index]
            depth = active.get(span_name, 0)
            active[span_name] = depth + 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._count_error(layer, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                active[span_name] = depth
                elapsed = end - start
                entry = stats.get(span_name)
                if entry is None:
                    entry = stats[span_name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[2] += elapsed - frame[0]
                if depth == 0:
                    entry[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if index >= 0:
                    spans[index][1] = start
                    spans[index][2] = end
            if extra is not None:
                extra(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_error(self, layer, exc):
        # an exception crossing several wrapped layers counts once, where raised
        if not getattr(exc, "_perfbench_counted", False):
            self.errors[layer] += 1
            try:
                exc._perfbench_counted = True
            except AttributeError:
                pass

    def op(self, fn, *args):
        """Run one benchmark op as the root span ``op`` (benchmark glue)."""
        self.op_id += 1
        return self.span("op", "bench", fn)(*args)

    # -- patching -----------------------------------------------------------------

    def install(self, rb):
        modules = [m for n, m in sys.modules.items() if n == "rbren" or n.startswith("rbren.")]
        for name, layer, module, attr, cls, extra, name_of in _targets(self, rb):
            owner = getattr(getattr(rb, module), cls) if cls else None
            original = owner.__dict__[attr] if owner else getattr(getattr(rb, module), attr)
            wrapped = self.span(name, layer, original, extra, name_of)
            if owner is not None:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def self_time_by_layer(self):
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, (_, _, self_s) in self.stats.items():
            layer = "bench" if name == "op" else name.split(".", 1)[0]
            out[layer] += self_s
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                )
                fh.write("\n")


def _targets(tr: Tracer, rb):
    """(metric name, layer, module, attribute, class or None, extra, name_of)."""

    def divergent(args, result):
        g = args[0]
        tr.count("graphs.divergent_subgraphs.subsets_tried", 2 ** len(g.internal_edges) - 2)
        tr.count("graphs.divergent_subgraphs.found", len(result))

    def connectivity(args, result):
        tr.count("graphs.edge_connectivity.bipartitions", 2 ** (len(args[0].vertices) - 1))

    def trees(args, result):
        g = args[0]
        usable = sum(1 for _, a, b in g.internal_edges if a != b)
        tr.count("graphs.spanning_trees.trees", len(result))
        tr.count("graphs.spanning_trees.combinations", comb(usable, len(g.vertices) - 1))

    def coproduct_gen(args, result):
        reg, name = args[0], args[1]
        seen = tr._coproduct_seen.setdefault(reg, set())
        if name not in seen:
            seen.add(name)
            tr.count("hopf.coproduct_gen.misses")

    def resolve(args, result):
        if result.startswith("!"):
            seen = tr._auto_seen.setdefault(args[0], set())
            if result not in seen:
                seen.add(result)
                tr.count("hopf.auto_registered")

    def rb_defect(args, result):
        if args[0].kind == "saito_form":
            tr.saito_denoms.append((result.denom.total_degree(), len(result.denom.terms)))

    def char_poly(args, result):
        tr.count("motives.char_poly.subsets_walked", 2 ** len(args[0].hyperplanes))

    def mul_terms(args, result):
        if isinstance(result, rb.MultiPoly):
            tr.count("poly.multipoly_mul.terms_out", len(result.terms))

    return [
        ("graphs.divergent_subgraphs", "graphs", "graphs", "divergent_subgraphs", None, divergent, None),
        ("graphs.is_1pi", "graphs", "graphs", "is_1pi", None, None, None),
        ("graphs.edge_connectivity", "graphs", "graphs", "edge_connectivity", None, connectivity, None),
        ("graphs.canonical_key", "graphs", "graphs", "canonical_key", None, None, None),
        ("graphs.quotient", "graphs", "graphs", "quotient", None, None, None),
        ("graphs.subgraph_view", "graphs", "graphs", "subgraph_view", None, None, None),
        ("graphs.spanning_trees", "graphs", "graphs", "spanning_trees", None, trees, None),
        ("graphs.cut_sets", "graphs", "graphs", "cut_sets", None, None, None),
        ("graphs.loop_number", "graphs", "graphs", "loop_number", None, None, None),
        ("hopf.register", "hopf", "hopf", "register", "GeneratorRegistry", None, None),
        ("hopf.resolve", "hopf", "hopf", "resolve", "GeneratorRegistry", resolve, None),
        ("hopf.coproduct_gen", "hopf", "hopf", "coproduct_gen", "GeneratorRegistry", coproduct_gen, None),
        ("hopf.degree", "hopf", "hopf", "degree", "GeneratorRegistry", None, None),
        ("hopf.coproduct", "hopf", "hopf", "coproduct", None, None, None),
        ("hopf.reduced_coproduct", "hopf", "hopf", "reduced_coproduct", None, None, None),
        ("hopf.antipode", "hopf", "hopf", "antipode", None, None, None),
        ("birkhoff.factorize_all", "birkhoff", "birkhoff", "factorize_all", None, None, None),
        ("birkhoff.birkhoff_factorize", "birkhoff", "birkhoff", "birkhoff_factorize", None, None, None),
        ("birkhoff.verify_factorization", "birkhoff", "birkhoff", "verify_factorization", None, None, None),
        ("birkhoff.convolve", "birkhoff", "birkhoff", "convolve", None, None, None),
        (
            "rota_baxter.rb_defect",
            "rota_baxter",
            "rota_baxter",
            "rb_defect",
            None,
            rb_defect,
            lambda args: "rota_baxter.rb_defect." + args[0].kind,
        ),
        ("rota_baxter.mul", "rota_baxter", "rota_baxter", "mul", "RBAlgebraDescriptor", None, None),
        ("rota_baxter.add", "rota_baxter", "rota_baxter", "add", "RBAlgebraDescriptor", None, None),
        ("rota_baxter.T", "rota_baxter", "rota_baxter", "T", "RBAlgebraDescriptor", None, None),
        ("poly.multipoly_mul", "poly", "poly", "__mul__", "MultiPoly", mul_terms, None),
        ("poly.multipoly_add", "poly", "poly", "__add__", "MultiPoly", None, None),
        ("poly.laurent_mul", "poly", "poly", "__mul__", "LaurentPoly", None, None),
        ("exterior.wedge", "exterior", "exterior", "__mul__", "ExteriorElement", None, None),
        ("symanzik.psi", "symanzik", "symanzik", "psi", None, None, None),
        ("symanzik.second_symanzik", "symanzik", "symanzik", "second_symanzik", None, None, None),
        ("symanzik.graph_matrix_det", "symanzik", "symanzik", "graph_matrix_det", None, None, None),
        ("symanzik.matrix_tree_check", "symanzik", "symanzik", "matrix_tree_check", None, None, None),
        (
            "symanzik.upsilon_embedding_tests",
            "symanzik",
            "symanzik",
            "upsilon_embedding_tests",
            None,
            None,
            None,
        ),
        ("motives.char_poly", "motives", "motives", "char_poly", None, char_poly, None),
        ("motives.arrangement_class", "motives", "motives", "arrangement_class", None, None, None),
        ("cli.build_parser", "cli", "cli", "build_parser", None, None, None),
        ("cli.run", "cli", "cli", "run", None, None, None),
        ("serde.read_json", "serde", "serde", "read_json", None, None, None),
        ("serde.load_graph", "serde", "serde", "load_graph", None, None, None),
    ]


# Functions reported with .calls and .time_s, in BENCHMARK.json order.
FUNCTIONS = (
    "graphs.divergent_subgraphs",
    "graphs.is_1pi",
    "graphs.edge_connectivity",
    "graphs.canonical_key",
    "graphs.quotient",
    "graphs.subgraph_view",
    "graphs.spanning_trees",
    "graphs.cut_sets",
    "graphs.loop_number",
    "hopf.register",
    "hopf.resolve",
    "hopf.coproduct_gen",
    "hopf.degree",
    "hopf.coproduct",
    "hopf.reduced_coproduct",
    "hopf.antipode",
    "birkhoff.factorize_all",
    "birkhoff.birkhoff_factorize",
    "birkhoff.verify_factorization",
    "birkhoff.convolve",
    "rota_baxter.rb_defect.laurent_ms",
    "rota_baxter.rb_defect.merom_form",
    "rota_baxter.rb_defect.nc_log_form",
    "rota_baxter.rb_defect.smooth_log_form",
    "rota_baxter.rb_defect.saito_form",
    "rota_baxter.mul",
    "rota_baxter.add",
    "rota_baxter.T",
    "poly.multipoly_mul",
    "poly.multipoly_add",
    "poly.laurent_mul",
    "exterior.wedge",
    "symanzik.psi",
    "symanzik.second_symanzik",
    "symanzik.graph_matrix_det",
    "symanzik.matrix_tree_check",
    "symanzik.upsilon_embedding_tests",
    "motives.char_poly",
    "motives.arrangement_class",
    "cli.build_parser",
    "cli.run",
    "serde.read_json",
    "serde.load_graph",
)

# Extra per-layer quantities: (name, unit, better).
EXTRAS = (
    ("graphs.divergent_subgraphs.subsets_tried", "count", "lower"),
    ("graphs.divergent_subgraphs.found", "count", "higher"),
    ("graphs.divergent_subgraphs.useful_ratio", "ratio", "higher"),
    ("graphs.edge_connectivity.bipartitions", "count", "lower"),
    ("graphs.spanning_trees.trees", "count", "higher"),
    ("graphs.spanning_trees.combinations", "count", "lower"),
    ("graphs.spanning_trees.useful_ratio", "ratio", "higher"),
    ("hopf.auto_registered", "count", "lower"),
    ("hopf.coproduct_gen.misses", "count", "lower"),
    ("hopf.coproduct_gen.hit_ratio", "ratio", "higher"),
    ("rota_baxter.saito.denom_degree_max", "count", "lower"),
    ("rota_baxter.saito.denom_terms_mean", "count", "lower"),
    ("rota_baxter.random_element.time_s", "s", "lower"),
    ("poly.multipoly_mul.terms_out", "count", "lower"),
    ("motives.char_poly.subsets_walked", "count", "lower"),
    ("cli.birkhoff_verify.missing_value", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)


def per_layer_specs():
    """Every per-layer metric as (name, unit, better)."""
    specs = []
    for fn in FUNCTIONS:
        specs.append((fn + ".calls", "count", "lower"))
        specs.append((fn + ".time_s", "s", "lower"))
    specs.extend(EXTRAS)
    specs.extend((layer + ".self_s", "s", "lower") for layer in LAYERS)
    specs.extend((layer + ".errors", "count", "lower") for layer in LAYERS)
    return specs


def per_layer_values(tr: Tracer, extra_values):
    """Map every per-layer metric name to its measured value."""
    values = {}
    for fn in FUNCTIONS:
        calls, inclusive, _ = tr.stats.get(fn, (0, 0.0, 0.0))
        values[fn + ".calls"] = calls
        values[fn + ".time_s"] = inclusive
    values.update(tr.counts)
    tried = tr.counts.get("graphs.divergent_subgraphs.subsets_tried", 0)
    values["graphs.divergent_subgraphs.useful_ratio"] = (
        tr.counts.get("graphs.divergent_subgraphs.found", 0) / tried if tried else 0.0
    )
    combos = tr.counts.get("graphs.spanning_trees.combinations", 0)
    values["graphs.spanning_trees.useful_ratio"] = (
        tr.counts.get("graphs.spanning_trees.trees", 0) / combos if combos else 0.0
    )
    gen_calls = tr.stats.get("hopf.coproduct_gen", (0,))[0]
    values["hopf.coproduct_gen.hit_ratio"] = (
        1 - tr.counts.get("hopf.coproduct_gen.misses", 0) / gen_calls if gen_calls else 0.0
    )
    denoms = tr.saito_denoms
    values["rota_baxter.saito.denom_degree_max"] = max((d for d, _ in denoms), default=0)
    values["rota_baxter.saito.denom_terms_mean"] = (
        sum(t for _, t in denoms) / len(denoms) if denoms else 0.0
    )
    self_times = tr.self_time_by_layer()
    for layer in LAYERS:
        values[layer + ".self_s"] = self_times[layer]
        values[layer + ".errors"] = tr.errors[layer]
    values.update(extra_values)
    return {name: values.get(name, 0) for name, _, _ in per_layer_specs()}
