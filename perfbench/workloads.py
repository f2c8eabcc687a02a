"""The three benchmark workloads.

Each workload builds its seeded inputs in ``__init__`` (the set-up that
``setup_s`` measures), exposes a pool of ``Item``s that the runner cycles
through in whole passes, runs one op with ``op(item)`` (the timed part), and
checks a result with ``check(item, result)``, which returns the canonical
output bytes or raises ``CheckFailed``.  ``gate()`` runs the untimed
end-of-run oracles.  The rbren package is passed in, so the runner can
re-import it for every set-up repetition.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Any

import inputs

HALF = Fraction(1, 2)


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class Item:
    key: str
    payload: Any
    weight: int = 1
    memo: dict = field(default_factory=dict)


def to_graph(rb, spec):
    _, vertices, edges, legs = spec
    return rb.FeynmanGraph(
        vertices,
        edges,
        tuple((v, tuple(Fraction(q) for q in p)) for v, p in legs),
    )


def term_count(x):
    """Polynomial terms in a target-algebra element: a cheap, exact size."""
    if hasattr(x, "denom"):  # Saito triple: the denominator multiplies the work
        return len(x.denom.terms) * (term_count(x.xi) + term_count(x.eta) + 1)
    return sum(1 if isinstance(c, Fraction) else term_count(c) for c in x.terms.values())


def stratified(candidates, n, size):
    """``n`` of ``candidates`` at evenly spaced ranks of ``size``.

    The op cost of a random element has a heavy tail, so ``n`` plain draws
    change the pool's cost from seed to seed.  Drawing more candidates and
    keeping every k-th by size gives each seed the same size profile, while
    the values themselves still come from the seed.
    """
    ranked = sorted(range(len(candidates)), key=lambda i: (size(candidates[i]), i))
    step = len(candidates) / n
    return [candidates[ranked[int((j + 0.5) * step)]] for j in range(n)]


# candidates drawn per kept random input
OVERSAMPLE = 2


def factorized_parts(rb, char, reg, names):
    """(phi_minus, phi_plus) dicts over ``names`` through the public API."""
    minus, plus = {}, {}
    for name in names:
        minus[name], plus[name] = rb.birkhoff_factorize(char, reg, name)
    return minus, plus


class Workload:
    name = ""

    def __init__(self, rb, seed, tiny, workdir):
        self.rb = rb
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.items: list[Item] = []

    def op(self, item):
        raise NotImplementedError

    def check(self, item, result) -> bytes:
        raise NotImplementedError

    def gate(self) -> list[str]:
        return []

    def describe(self) -> str:
        raise NotImplementedError

    def pass_order(self, index):
        """Every pool item ``weight`` times, in a seeded order for pass ``index``."""
        order = [item for item in self.items for _ in range(item.weight)]
        random.Random(f"{self.seed}:{index}").shuffle(order)
        return order


# -- renorm_cold ---------------------------------------------------------------------


def renorm_cold_specs(seed, tiny=False):
    """Named families plus seeded random graphs, with their weights per pass."""
    rng = random.Random(f"renorm_cold:{seed}")
    if tiny:
        fixed = [inputs.wheel(3), inputs.ladder(3), inputs.bubble_chain(2), inputs.banana(3)]
        random_sizes = [3, 4]
    else:
        fixed = [inputs.wheel(n) for n in (3, 4, 5)]
        fixed += [inputs.ladder(n) for n in (3, 4)]
        fixed += [inputs.bubble_chain(n) for n in (2, 3, 4)]
        fixed += [inputs.banana(n) for n in (3, 4, 5, 6)]
        random_sizes = [3, 3, 4, 4, 5, 5, 5, 5]
    # W5 three times and B5 five times per pass, so that op_p90_ms and
    # op_p50_ms land inside the block of one fixed graph
    weights = {"W5": 3, "B5": 5}
    specs = [(spec, weights.get(spec[0], 1)) for spec in fixed]
    for i, nv in enumerate(random_sizes):
        specs.append((inputs.two_tree_graph(rng, f"R{i}v{nv}", nv), 1))
    return specs


class RenormCold(Workload):
    """graphs + hopf heavy: a cold registry per op."""

    name = "renorm_cold"

    def __init__(self, rb, seed, tiny, workdir):
        super().__init__(rb, seed, tiny, workdir)
        self.specs = renorm_cold_specs(seed, tiny)
        for spec, weight in self.specs:
            self.items.append(Item(spec[0], (spec, to_graph(rb, spec)), weight))

    def describe(self):
        edges = sorted(len(spec[2]) for spec, _ in self.specs)
        return (
            f"{len(self.items)} graphs per pass ({', '.join(s[0] for s, _ in self.specs)}), "
            f"{edges[0]}-{edges[-1]} edges, dim 4"
        )

    def op(self, item):
        rb = self.rb
        spec, graph = item.payload
        reg = rb.GeneratorRegistry(dim=4)
        name = reg.register(spec[0], graph)
        char = rb.pole_power_character(reg, c=HALF)
        names = rb.factorize_all(char, reg)
        minus, plus = factorized_parts(rb, char, reg, names)
        verified = {n: rb.verify_factorization(char, minus, plus, n, reg) for n in names}
        antipode = rb.antipode(rb.HopfElement.gen(name), reg)
        return char.target, names, minus, plus, verified, antipode

    def check(self, item, result):
        target, names, minus, plus, verified, antipode = result
        dump = self.rb.serde.dump_element
        for n in names:
            ok, defect = verified[n]
            expect(ok, f"{item.key}: phi != (phi_minus o S) * phi_plus on {n}: {defect}")
        return canon(
            {
                "names": list(names),
                "minus": {n: dump(target, minus[n]) for n in names},
                "plus": {n: dump(target, plus[n]) for n in names},
                "antipode": self.rb.serde.dump_hopf(antipode),
            }
        )


# -- rb_pairs --------------------------------------------------------------------------


def sweep_descriptors(rb):
    """The five ``rb sweep`` descriptors."""
    D = rb.RBAlgebraDescriptor
    return {
        "laurent_ms": D.laurent_ms(coeff_vars=("c",)),
        "merom_form": D.merom(4),
        "nc_log_form": D.nc_log(2, 2),
        "smooth_log_form": D.smooth_log(3),
        "saito_form": D.saito(3),
    }


class RbPairs(Workload):
    """rota_baxter + poly + exterior only: the weight -1 identity on seeded pairs."""

    name = "rb_pairs"

    def __init__(self, rb, seed, tiny, workdir):
        super().__init__(rb, seed, tiny, workdir)
        self.descs = sweep_descriptors(rb)
        per_kind = 10 if tiny else 600
        self.random_element_s = 0.0
        pair_size = lambda pair: term_count(pair[0]) * term_count(pair[1])
        for kind, desc in self.descs.items():
            rng = random.Random(f"rb_pairs:{seed}:{kind}")
            start = perf_counter()
            drawn = [
                (desc.random_element(rng), desc.random_element(rng))
                for _ in range(OVERSAMPLE * per_kind)
            ]
            self.random_element_s += perf_counter() - start
            pairs = stratified(drawn, per_kind, pair_size)
            for i, (x, y) in enumerate(pairs):
                self.items.append(Item(f"{kind}:{i}", (desc, x, y)))

    def describe(self):
        return f"{len(self.items)} pairs per pass, {len(self.items) // 5} per kind over {', '.join(self.descs)}"

    def op(self, item):
        desc, x, y = item.payload
        defect = self.rb.rb_defect(desc, x, y)
        return defect, desc.is_zero(defect)

    def check(self, item, result):
        defect, zero = result
        expect(zero, f"{item.key}: nonzero Rota-Baxter defect")
        desc, x, y = item.payload
        dump = self.rb.serde.dump_element
        if "input" not in item.memo:
            item.memo["input"] = canon([dump(desc, x), dump(desc, y)])
        return item.memo["input"] + b"\0" + canon(dump(desc, defect))


# -- periods ---------------------------------------------------------------------------

SIGMA_PAIRS = ((4, 0), (6, 1), (8, 2))
# per-pass weights that put op_p50_ms and op_p90_ms inside the block of one
# fixed input, so the percentiles do not jump between neighbouring inputs
PERIODS_WEIGHTS = {"check:L5": 10, "second:W7": 5}
# seeded draws per random graph of periods
GRAPH_DRAWS = 5


class Periods(Workload):
    """symanzik + motives + cli: one in-process CLI call per op."""

    name = "periods"

    def __init__(self, rb, seed, tiny, workdir):
        super().__init__(rb, seed, tiny, workdir)
        rng = random.Random(f"periods:{seed}")
        if tiny:
            graphs = [inputs.ladder(3), inputs.wheel(3)]
            random_graphs = [(5, 8)]
            arrangements = [(4, 8)]
            sigma = SIGMA_PAIRS[:1]
        else:
            graphs = [inputs.ladder(n) for n in (3, 4, 5, 6)]
            graphs += [inputs.wheel(n) for n in (3, 4, 5, 6, 7)]
            random_graphs = [(5, 10), (6, 12), (7, 13), (8, 14)]
            arrangements = [(4, 8), (5, 8), (5, 9), (6, 9)]
            sigma = SIGMA_PAIRS
        for i, (nv, ne) in enumerate(random_graphs):
            # the median by spanning-tree count of a few draws: the symanzik
            # commands' cost follows the tree count, which varies widely
            # between graphs of one shape
            drawn = [
                inputs.connected_graph(rng, f"R{i}v{nv}e{ne}", nv, ne) for _ in range(GRAPH_DRAWS)
            ]
            graphs += stratified(drawn, 1, inputs.spanning_tree_count)
        self.graph_specs = graphs
        dump_graph = rb.serde.dump_graph
        for spec in graphs:
            path = os.path.join(workdir, f"{spec[0]}.json")
            with open(path, "w") as fh:
                json.dump(dump_graph(to_graph(rb, spec)), fh)
            for cmd in ("second", "check", "upsilon"):
                key = f"{cmd}:{spec[0]}"
                weight = PERIODS_WEIGHTS.get(key, 1)
                self.items.append(Item(key, (["symanzik", cmd, path], spec), weight))
        for loops, genus in sigma:
            argv = ["motive", "sigma", str(loops), str(genus)]
            self.items.append(Item(f"sigma:{loops},{genus}", (argv, inputs.sigma_forms(loops, genus))))
        for i, (ambient, count) in enumerate(arrangements):
            forms = inputs.random_arrangement(rng, ambient, count)
            path = os.path.join(workdir, f"arr{i}.json")
            with open(path, "w") as fh:
                json.dump(
                    {
                        "ambient": ambient,
                        "projective": True,
                        "hyperplanes": [[str(c) for c in f] for f in forms],
                    },
                    fh,
                )
            argv = ["motive", "arrangement", path]
            self.items.append(Item(f"arrangement:{i}", (argv, (ambient, forms))))

    def describe(self):
        edges = sorted(len(s[2]) for s in self.graph_specs)
        return (
            f"{len(self.items)} CLI calls per pass: symanzik second|check|upsilon on "
            f"{len(self.graph_specs)} graphs ({edges[0]}-{edges[-1]} edges), "
            f"motive sigma {list(SIGMA_PAIRS)}, random arrangements"
        )

    def op(self, item):
        argv, _ = item.payload
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.rb.cli.main(list(argv))
        return status, out.getvalue()

    def check(self, item, result):
        status, text = result
        expect(status == 0, f"{item.key}: exit {status}: {text.strip()}")
        payload = json.loads(text)
        argv, data = item.payload
        if "oracle" not in item.memo:
            item.memo["oracle"] = self._oracle(argv, data)
        oracle = item.memo["oracle"]
        command = argv[1]
        if command == "second":
            value = inputs.coefficient_sum(payload["second"])
            expect(value == oracle, f"{item.key}: P(1,...,1) = {value}, expected {oracle}")
        elif command == "check":
            expect(payload == {"matrix_tree": True}, f"{item.key}: {payload}")
        elif command == "upsilon":
            edges, loops = oracle
            expect(payload["edges"] == edges and payload["loops"] == loops, f"{item.key}: {payload}")
            expect(
                len(payload["matrix"]) == edges
                and all(len(row) == loops * loops for row in payload["matrix"]),
                f"{item.key}: upsilon matrix shape",
            )
        elif command == "sigma":
            f, components, cls = oracle
            expect(payload["f"] == f and payload["components"] == components, f"{item.key}: {payload}")
            expect(inputs.parse_univariate(payload["class"], "L") == cls, f"{item.key}: class")
        elif command == "arrangement":
            chi, cls = oracle
            expect(inputs.parse_univariate(payload["char_poly"], "t") == chi, f"{item.key}: chi")
            expect(inputs.parse_univariate(payload["class"], "L") == cls, f"{item.key}: class")
        return text.encode()

    @staticmethod
    def _oracle(argv, data):
        """The benchmark's own value for a command, computed on first check."""
        command = argv[1]
        if command == "second":
            return inputs.separating_forest_count(data)
        if command == "upsilon":
            return len(data[2]), inputs.cycle_rank(data)
        if command == "sigma":
            loops, genus = int(argv[2]), int(argv[3])
            ambient, forms = data
            chi = inputs.whitney_char_poly(ambient, forms)
            return (
                loops - 2 * genus + 1,
                len(forms),
                inputs.projective_arrangement_class(ambient, chi),
            )
        if command == "arrangement":
            ambient, forms = data
            chi = inputs.whitney_char_poly(ambient, forms)
            return chi, inputs.projective_arrangement_class(ambient, chi)
        return None

    def gate(self):
        """Psi(1,...,1) equals the Kirchhoff reduced-Laplacian determinant."""
        failures = []
        for spec in self.graph_specs:
            psi = self.rb.psi(to_graph(self.rb, spec))
            value = sum(psi.terms.values())
            expected = inputs.spanning_tree_count(spec)
            if value != expected:
                failures.append(f"{spec[0]}: Psi(1,...,1) = {value}, Kirchhoff {expected}")
        return failures


WORKLOADS = {cls.name: cls for cls in (RenormCold, RbPairs, Periods)}
