"""Command line surface.

Subcommand groups: graph, hopf, birkhoff, symanzik, motive, rb.  Inputs are
JSON files in the schemas of :mod:`rbren.serde`; every payload is printed as
canonical JSON (sorted keys), so identical inputs give byte-identical output.
Domain errors exit 1 with {"error": {"code", "message"}}; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Any

from . import serde
from .birkhoff import (
    atkinson_closed_form,
    atkinson_solve,
    birkhoff_factorize,
    birkhoff_parts,
    phi_minus_nonrecursive,
    verify_factorization,
)
from .errors import PreconditionError, RbrenError
from .graphs import (
    SubgraphSpec,
    canonical_key,
    cut_sets,
    divergent_subgraphs,
    edge_connectivity,
    is_1pi,
    is_connected,
    loop_number,
    quotient,
    spanning_trees,
    superficial_degree,
)
from .hopf import (
    GeneratorRegistry,
    HopfElement,
    antipode,
    coproduct,
    counit,
    reduced_coproduct_iterated,
)
from .motives import (
    arrangement_class,
    char_poly,
    gl_class,
    grassmannian_class,
    pole_order_bound,
    projective_class,
    sigma_arrangement,
)
from .rota_baxter import SWEEP_DESCRIPTORS, iterated_residue, rb_defect, sweep
from .symanzik import (
    _matrix_det,
    eta_form,
    graph_matrix,
    matrix_tree_check,
    psi,
    second_symanzik,
    upsilon_embedding_tests,
)


@dataclass
class CommandResult:
    status: int
    payload: Any


def _sorted_ids(ids):
    return sorted((str(i) for i in ids))


def _load_registry(args) -> GeneratorRegistry:
    """A registry for the command: each setting comes from its flag, then
    from the library, whose loader supplies the defaults."""
    lib = serde.read_json(args.library) if args.library else {}
    dim, even_only, graphs = serde.load_library(lib)
    reg = GeneratorRegistry(
        dim=dim if getattr(args, "dim", None) is None else args.dim,
        even_only=even_only if getattr(args, "even_only", None) is None else args.even_only,
    )
    for name, g in graphs.items():
        reg.register(name, g)
    return reg


def _register_graph_arg(reg: GeneratorRegistry, args) -> str:
    data = serde.read_json(args.graph)
    g = serde.load_graph(data)
    return reg.register(data["name"], g) if data.get("name") else reg.resolve(g)


# -- graph group ------------------------------------------------------------------


def _cmd_graph(args) -> Any:
    g = serde.load_graph(serde.read_json(args.file))
    if args.graph_cmd == "info":
        conn = edge_connectivity(g) if is_connected(g) else None
        return {
            "vertices": len(g.vertices),
            "internal_edges": len(g.internal_edges),
            "external_edges": len(g.external_edges),
            "connected": is_connected(g),
            "loops": loop_number(g),
            "edge_connectivity": None
            if conn is None
            else ("unbounded" if conn == float("inf") else int(conn)),
            "is_1pi": is_1pi(g),
        }
    if args.graph_cmd == "trees":
        return {"spanning_trees": [_sorted_ids(t) for t in spanning_trees(g)]}
    if args.graph_cmd == "cuts":
        return {"cut_sets": [_sorted_ids(c) for c in cut_sets(g)]}
    if args.graph_cmd == "superficial":
        return {"superficial_degree": superficial_degree(g, args.dim)}
    if args.graph_cmd == "divergent":
        specs = divergent_subgraphs(g, args.dim, even_only=args.even_only)
        return {"divergent_subgraphs": [_sorted_ids(s.edges) for s in specs]}
    if args.graph_cmd == "quotient":
        edges = [e.strip() for e in args.edges.split(",") if e.strip()]
        known = {str(e): e for e in g.edge_ids()}
        spec = SubgraphSpec.from_edges(g, [known.get(e, e) for e in edges])
        return {"quotient": serde.dump_graph(quotient(g, spec))}
    if args.graph_cmd == "key":
        return {"canonical_key": canonical_key(g).decode()}
    raise PreconditionError(f"unknown graph command {args.graph_cmd!r}")


# -- hopf group ------------------------------------------------------------------


def _cmd_hopf(args) -> Any:
    reg = _load_registry(args)
    name = _register_graph_arg(reg, args)
    x = HopfElement.gen(name)
    if args.hopf_cmd == "coproduct":
        t = coproduct(x, reg)
        return {"generator": name, "coproduct": serde.dump_tensor(t), "pretty": str(t)}
    if args.hopf_cmd == "reduced":
        t = reduced_coproduct_iterated(x, args.n, reg)
        return {"generator": name, "tensor": serde.dump_tensor(t), "pretty": str(t)}
    if args.hopf_cmd == "antipode":
        s = antipode(x, reg)
        return {"generator": name, "antipode": serde.dump_hopf(s), "pretty": str(s)}
    if args.hopf_cmd == "counit":
        return {"generator": name, "counit": serde.frac_str(counit(x))}
    raise PreconditionError(f"unknown hopf command {args.hopf_cmd!r}")


# -- birkhoff group ----------------------------------------------------------------


def _cmd_birkhoff(args) -> Any:
    reg = _load_registry(args)
    char = serde.load_character(serde.read_json(args.character), reg)
    target = char.target
    name = args.generator
    if args.birkhoff_cmd == "factorize":
        minus, plus = birkhoff_factorize(char, reg, name)
        payload = {
            "generator": name,
            "phi_minus": serde.dump_element(target, minus),
            "phi_plus": serde.dump_element(target, plus),
        }
        if args.verify:
            ok, defect = verify_factorization(char, *birkhoff_parts(char, reg), name, reg)
            payload["verified"] = ok
            payload["defect"] = serde.dump_element(target, defect)
        return payload
    if args.birkhoff_cmd == "nonrecursive":
        value = phi_minus_nonrecursive(char, reg, name)
        return {"generator": name, "phi_minus": serde.dump_element(target, value)}
    if args.birkhoff_cmd == "atkinson":
        b_l, b_r = atkinson_solve(char, reg)
        payload = {
            "generator": name,
            "b_left": serde.dump_element(target, b_l(name)),
            "b_right": serde.dump_element(target, b_r(name)),
        }
        if target.has_simple_T:
            payload["b_left_closed_form"] = serde.dump_element(
                target, atkinson_closed_form(char, reg, name)
            )
        return payload
    raise PreconditionError(f"unknown birkhoff command {args.birkhoff_cmd!r}")


# -- symanzik group ----------------------------------------------------------------


def _cmd_symanzik(args) -> Any:
    g = serde.load_graph(serde.read_json(args.file))
    if args.symanzik_cmd == "psi":
        return {"psi": str(psi(g))}
    if args.symanzik_cmd == "second":
        return {"second": str(second_symanzik(g))}
    if args.symanzik_cmd == "matrix":
        m = graph_matrix(g)
        return {
            "matrix": [[str(entry) for entry in row] for row in m],
            "det": str(_matrix_det(g, m)),
        }
    if args.symanzik_cmd == "check":
        return {"matrix_tree": matrix_tree_check(g)}
    if args.symanzik_cmd == "upsilon":
        return upsilon_embedding_tests(g)
    if args.symanzik_cmd == "eta":
        spec = eta_form(g, args.dim)
        return {
            "numerator_exponent": spec.numerator_exponent,
            "denominator_exponent": spec.denominator_exponent,
            "form_degree": spec.form_degree,
            "ambient_dim": spec.ambient_dim,
        }
    raise PreconditionError(f"unknown symanzik command {args.symanzik_cmd!r}")


# -- motive group ------------------------------------------------------------------


def _cmd_motive(args) -> Any:
    if args.motive_cmd == "gl":
        return gl_class(args.l).render()
    if args.motive_cmd == "grass":
        return grassmannian_class(args.d, args.n).render()
    if args.motive_cmd == "projective":
        return projective_class(args.n).render()
    if args.motive_cmd == "arrangement":
        arr = serde.load_arrangement(serde.read_json(args.file))
        payload = {"char_poly": char_poly(arr).render("t")}
        if arr.projective:
            payload["class"] = arrangement_class(arr).render()
        return payload
    if args.motive_cmd == "sigma":
        arr = sigma_arrangement(args.l, args.g)
        return {
            "f": args.l - 2 * args.g + 1,
            "components": len(arr.hyperplanes),
            "arrangement": serde.dump_arrangement(arr),
            "class": arrangement_class(arr).render(),
        }
    if args.motive_cmd == "pole-bound":
        return {"pole_order_bound": pole_order_bound(args.n, args.l, args.dim)}
    raise PreconditionError(f"unknown motive command {args.motive_cmd!r}")


# -- rb group ---------------------------------------------------------------------


def _cmd_rb(args) -> Any:
    if args.rb_cmd == "sweep":
        desc = SWEEP_DESCRIPTORS.get(args.kind)
        if desc is None:
            raise PreconditionError(f"unknown algebra kind {args.kind!r}")
        failures, _ = sweep(desc, args.pairs, args.seed)
        return {
            "kind": args.kind,
            "pairs": args.pairs,
            "seed": args.seed,
            "failures": failures,
            "all_zero": failures == 0,
        }
    desc = serde.load_descriptor(serde.read_json(args.algebra))
    if args.rb_cmd == "t":
        x = serde.load_element(desc, serde.read_json(args.element))
        return {"t": serde.dump_element(desc, desc.T(x))}
    if args.rb_cmd == "defect":
        x = serde.load_element(desc, serde.read_json(args.x))
        y = serde.load_element(desc, serde.read_json(args.y))
        d = rb_defect(desc, x, y)
        return {"defect": serde.dump_element(desc, d), "zero": desc.is_zero(d)}
    if args.rb_cmd == "residue":
        x = serde.load_element(desc, serde.read_json(args.element))
        out = iterated_residue(desc, x, args.index)
        return {"residue": serde.dump_exterior(out, desc)}
    raise PreconditionError(f"unknown rb command {args.rb_cmd!r}")


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbren",
        description="Exact algebraic renormalization toolkit",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    p_graph = sub.add_parser("graph", help="multigraph combinatorics")
    g_sub = p_graph.add_subparsers(dest="graph_cmd", required=True)
    for name in ("info", "trees", "cuts", "key"):
        p = g_sub.add_parser(name)
        p.add_argument("file")
    p = g_sub.add_parser("superficial")
    p.add_argument("file")
    p.add_argument("--dim", type=int, default=4)
    p = g_sub.add_parser("divergent")
    p.add_argument("file")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--even-only", action="store_true")
    p = g_sub.add_parser("quotient")
    p.add_argument("file")
    p.add_argument("--edges", required=True, help="comma-separated edge ids")

    p_hopf = sub.add_parser("hopf", help="graph Hopf algebra")
    h_sub = p_hopf.add_subparsers(dest="hopf_cmd", required=True)
    for name in ("coproduct", "antipode", "counit", "reduced"):
        p = h_sub.add_parser(name)
        p.add_argument("--graph", required=True)
        p.add_argument("--library")
        # None: the library's value, else the registry default
        p.add_argument("--dim", type=int)
        p.add_argument("--even-only", action="store_true", default=None)
        if name == "reduced":
            p.add_argument("-n", type=int, default=1)

    p_birk = sub.add_parser("birkhoff", help="character factorization")
    b_sub = p_birk.add_subparsers(dest="birkhoff_cmd", required=True)
    for name in ("factorize", "nonrecursive", "atkinson"):
        p = b_sub.add_parser(name)
        p.add_argument("generator")
        p.add_argument("--character", required=True)
        p.add_argument("--library", required=True)
        if name == "factorize":
            p.add_argument("--verify", action="store_true")

    p_sym = sub.add_parser("symanzik", help="graph polynomials")
    s_sub = p_sym.add_subparsers(dest="symanzik_cmd", required=True)
    for name in ("psi", "second", "matrix", "check", "upsilon"):
        p = s_sub.add_parser(name)
        p.add_argument("file")
    p = s_sub.add_parser("eta")
    p.add_argument("file")
    p.add_argument("--dim", type=int, default=4)

    p_mot = sub.add_parser("motive", help="Grothendieck classes in Z[L]")
    m_sub = p_mot.add_subparsers(dest="motive_cmd", required=True)
    p = m_sub.add_parser("gl")
    p.add_argument("l", type=int)
    p = m_sub.add_parser("grass")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p = m_sub.add_parser("projective")
    p.add_argument("n", type=int)
    p = m_sub.add_parser("arrangement")
    p.add_argument("file")
    p = m_sub.add_parser("sigma")
    p.add_argument("l", type=int)
    p.add_argument("g", type=int)
    p = m_sub.add_parser("pole-bound")
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.add_argument("dim", type=int)

    p_rb = sub.add_parser("rb", help="Rota-Baxter operators on forms")
    r_sub = p_rb.add_subparsers(dest="rb_cmd", required=True)
    p = r_sub.add_parser("t")
    p.add_argument("element")
    p.add_argument("--algebra", required=True)
    p = r_sub.add_parser("defect")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--algebra", required=True)
    p = r_sub.add_parser("residue")
    p.add_argument("element")
    p.add_argument("--algebra", required=True)
    p.add_argument("--index", type=int, action="append", required=True)
    p = r_sub.add_parser("sweep")
    p.add_argument("--kind", required=True)
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


_DISPATCH = {
    "graph": _cmd_graph,
    "hopf": _cmd_hopf,
    "birkhoff": _cmd_birkhoff,
    "symanzik": _cmd_symanzik,
    "motive": _cmd_motive,
    "rb": _cmd_rb,
}


def run(argv: list[str]) -> CommandResult:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # --help exits 0 after printing the help text: no payload follows
        status = int(exc.code or 0)
        return CommandResult(status, {"error": {"code": "usage"}} if status else None)
    try:
        return CommandResult(0, _DISPATCH[args.group](args))
    except RbrenError as exc:
        return CommandResult(
            1, {"error": {"code": exc.code, "message": str(exc)}}
        )
    except OSError as exc:
        return CommandResult(1, {"error": {"code": "io", "message": str(exc)}})
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return CommandResult(
            1, {"error": {"code": "bad-input", "message": str(exc)}}
        )


def main(argv: list[str] | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.payload is not None:
        print(json.dumps(result.payload, sort_keys=True))
    return result.status


if __name__ == "__main__":
    sys.exit(main())
