"""JSON schemas and loaders for every value the CLI reads or writes.

All rational numbers travel as strings ("-3/2"), exponent vectors as integer
lists, and term lists in the canonical sorted order, so identical values
serialize to identical JSON.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .errors import ContextError, PreconditionError
from .exterior import ExteriorElement
from .graphs import FeynmanGraph
from .hopf import HopfElement, TensorElement
from .motives import Arrangement
from .poly import LaurentPoly, MultiPoly
from .rota_baxter import RBAlgebraDescriptor, SaitoForm


_JSON_TYPES = {
    dict: "an object",
    list: "an array",
    int: "an integer",
    bool: "a boolean",
    str: "a string",
}


def _typed(value, kind: type, field: str):
    """value, if its JSON type is kind (a boolean is no integer); otherwise a
    bad-input error that names the field."""
    if type(value) is not kind:
        raise TypeError(f"{field} must be {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value


def frac_str(q: Fraction) -> str:
    return str(Fraction(q))


def parse_frac(value) -> Fraction:
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise PreconditionError(f"expected a rational, got {value!r}")


# -- polynomials -----------------------------------------------------------------


def dump_poly_terms(p: MultiPoly) -> list:
    return [[frac_str(c), list(e)] for e, c in p.terms.items()]


def load_poly_terms(data, variables) -> MultiPoly:
    return MultiPoly(
        tuple(variables), {tuple(e): parse_frac(c) for c, e in data}
    )


def dump_poly(p: MultiPoly) -> dict:
    return {"vars": list(p.variables), "terms": dump_poly_terms(p)}


def load_poly(data: dict) -> MultiPoly:
    return load_poly_terms(data["terms"], data["vars"])


def dump_laurent_terms(p: LaurentPoly) -> list:
    return [[list(d), dump_poly_terms(c)] for d, c in p.terms.items()]


def load_laurent_terms(data, dist, variables) -> LaurentPoly:
    dist = tuple(dist)
    variables = tuple(variables)
    return LaurentPoly(
        dist,
        variables,
        {tuple(d): load_poly_terms(t, variables) for d, t in data},
    )


def dump_laurent(p: LaurentPoly) -> dict:
    return {
        "dist": list(p.dist),
        "vars": list(p.variables),
        "terms": dump_laurent_terms(p),
    }


def load_laurent(data: dict) -> LaurentPoly:
    return load_laurent_terms(data["terms"], data["dist"], data["vars"])


# -- exterior elements --------------------------------------------------------------


def dump_exterior(x: ExteriorElement, desc: RBAlgebraDescriptor | None = None) -> dict:
    dist: tuple[str, ...]
    variables: tuple[str, ...]
    if x.terms:
        sample = next(iter(x.terms.values()))
        dist, variables = sample.dist, sample.variables
    elif desc is not None:
        dist, variables = desc.dist_vars(), desc.poly_vars()
    else:
        dist, variables = (), ()
    return {
        "gens": list(x.gens),
        "dist": list(dist),
        "vars": list(variables),
        "terms": [
            [[x.gens[i] for i in subset], dump_laurent_terms(c)]
            for subset, c in x.terms.items()
        ],
    }


def load_exterior(data: dict) -> ExteriorElement:
    gens = tuple(data["gens"])
    dist = tuple(data["dist"])
    variables = tuple(data["vars"])
    total = ExteriorElement.zero(gens)
    for names, terms in data["terms"]:
        coeff = load_laurent_terms(terms, dist, variables)
        total = total + ExteriorElement.term(gens, names, coeff)
    return total


def dump_saito(x: SaitoForm) -> dict:
    return {
        "vars": list(x.denom.variables),
        "denominator": dump_poly_terms(x.denom),
        "xi": dump_exterior(x.xi),
        "eta": dump_exterior(x.eta),
    }


def load_saito(data: dict) -> SaitoForm:
    return SaitoForm(
        load_poly_terms(data["denominator"], data["vars"]),
        load_exterior(data["xi"]),
        load_exterior(data["eta"]),
    )


# -- algebra descriptors ---------------------------------------------------------------


def dump_descriptor(desc: RBAlgebraDescriptor) -> dict:
    return {
        "kind": desc.kind,
        "divisors": desc.divisors,
        "ambient": desc.ambient,
        "coeff_vars": list(desc.coeff_vars),
    }


def load_descriptor(data: dict) -> RBAlgebraDescriptor:
    _typed(data, dict, "the algebra")
    coeff_vars = _typed(data.get("coeff_vars", []), list, 'the algebra\'s "coeff_vars"')
    desc = RBAlgebraDescriptor(
        kind=_typed(data["kind"], str, 'the algebra\'s "kind"'),
        divisors=_typed(data.get("divisors", 0), int, 'the algebra\'s "divisors"'),
        ambient=_typed(data.get("ambient", 0), int, 'the algebra\'s "ambient"'),
        coeff_vars=tuple(_typed(v, str, "a coefficient variable") for v in coeff_vars),
    )
    if parse_frac(data.get("weight", -1)) != -1:
        # every kind carries the weight -1 polar splitting
        raise PreconditionError("descriptor weight must be -1")
    return desc


def _laurent_contexts(p: LaurentPoly) -> list:
    return [("dist", p.dist), ("vars", p.variables)]


def _exterior_contexts(x: ExteriorElement) -> list:
    coeffs = [pair for c in x.terms.values() for pair in _laurent_contexts(c)]
    return [("gens", x.gens)] + coeffs


def _saito_contexts(x: SaitoForm) -> list:
    return [("vars", x.denom.variables)] + _exterior_contexts(x.xi) + _exterior_contexts(x.eta)


# the schema of each element type, the type of desc.zero(): (dump(x, desc),
# load(data), contexts(x)); contexts lists the (field, names) pairs a loaded
# element carries
_ELEMENT_SCHEMAS = {
    LaurentPoly: (lambda x, desc: dump_laurent(x), load_laurent, _laurent_contexts),
    ExteriorElement: (dump_exterior, load_exterior, _exterior_contexts),
    SaitoForm: (lambda x, desc: dump_saito(x), load_saito, _saito_contexts),
}


def dump_element(desc: RBAlgebraDescriptor, x) -> Any:
    dump, _, _ = _ELEMENT_SCHEMAS[type(desc.zero())]
    return dump(x, desc)


def load_element(desc: RBAlgebraDescriptor, data) -> Any:
    """Load an element of desc's algebra, checking its generators and
    variables against the descriptor's."""
    _, load, contexts = _ELEMENT_SCHEMAS[type(desc.zero())]
    try:
        x = load(data)
    except KeyError as exc:
        raise PreconditionError(
            f"{desc.kind} element lacks the key {exc.args[0]!r}"
        ) from None
    expected = {"gens": desc.gens(), "dist": desc.dist_vars(), "vars": desc.poly_vars()}
    for field, names in contexts(x):
        if names != expected[field]:
            raise ContextError(
                f"element {field} {list(names)} differ from the {desc.kind} "
                f"algebra's {list(expected[field])}"
            )
    return x


# -- graphs ------------------------------------------------------------------------


def dump_graph(g: FeynmanGraph) -> dict:
    out = {
        "vertices": list(g.vertices),
        "internal_edges": [[eid, tail, head] for eid, tail, head in g.internal_edges],
        "external_edges": [
            {"vertex": v, "momentum": [frac_str(q) for q in p]}
            for v, p in g.external_edges
        ],
    }
    if g.valences is not None:
        out["valences"] = sorted(g.valences)
    return out


def load_graph(data: dict) -> FeynmanGraph:
    _typed(data, dict, "the graph")
    edges = _typed(data["internal_edges"], list, 'the graph\'s "internal_edges"')
    for edge in edges:
        if type(edge) is not list or len(edge) != 3:
            raise TypeError(
                'an entry of the graph\'s "internal_edges" must be [id, tail, head], '
                f"got {json.dumps(edge)}"
            )
    legs = _typed(data.get("external_edges", []), list, 'the graph\'s "external_edges"')
    for leg in legs:
        _typed(leg, dict, "an external edge")
        _typed(leg["momentum"], list, 'an external edge\'s "momentum"')
    valences = data.get("valences")
    if valences is not None:
        valences = frozenset(
            _typed(v, int, "a valence")
            for v in _typed(valences, list, 'the graph\'s "valences"')
        )
    return FeynmanGraph(
        vertices=tuple(_typed(data["vertices"], list, 'the graph\'s "vertices"')),
        internal_edges=tuple(tuple(e) for e in edges),
        external_edges=tuple(
            (leg["vertex"], tuple(parse_frac(q) for q in leg["momentum"])) for leg in legs
        ),
        valences=valences,
    )


# -- Hopf elements ------------------------------------------------------------------


def dump_hopf(x: HopfElement) -> dict:
    return {"terms": [[frac_str(c), list(m)] for m, c in x.terms.items()]}


def load_hopf(data: dict) -> HopfElement:
    return HopfElement({tuple(m): parse_frac(c) for c, m in data["terms"]})


def dump_tensor(x: TensorElement) -> dict:
    return {
        "legs": x.legs,
        "terms": [
            [frac_str(c), [list(m) for m in word]] for word, c in x.terms.items()
        ],
    }


def load_tensor(data: dict) -> TensorElement:
    return TensorElement(
        int(data["legs"]),
        {tuple(tuple(m) for m in word): parse_frac(c) for c, word in data["terms"]},
    )


# -- arrangements --------------------------------------------------------------------


def dump_arrangement(arr: Arrangement) -> dict:
    return {
        "ambient": arr.ambient,
        "projective": arr.projective,
        "hyperplanes": [[frac_str(c) for c in form] for form in arr.hyperplanes],
    }


def load_arrangement(data: dict) -> Arrangement:
    _typed(data, dict, "the arrangement")
    forms = _typed(data["hyperplanes"], list, 'the arrangement\'s "hyperplanes"')
    return Arrangement(
        ambient=_typed(data["ambient"], int, 'the arrangement\'s "ambient"'),
        hyperplanes=tuple(
            tuple(parse_frac(c) for c in _typed(form, list, "a hyperplane"))
            for form in forms
        ),
        projective=_typed(
            data.get("projective", False), bool, 'the arrangement\'s "projective"'
        ),
    )


# -- characters ---------------------------------------------------------------------


def load_character(data: dict, reg=None):
    from .birkhoff import Character, pole_power_character

    target = load_descriptor(data["target"])
    if data.get("rule") == "pole_power":
        if reg is None:
            raise PreconditionError("the pole_power rule needs a generator registry")
        if not isinstance(target.zero(), LaurentPoly):
            raise PreconditionError("the pole_power rule targets laurent_ms")
        return pole_power_character(
            reg, c=parse_frac(data.get("c", 0)), coeff_vars=target.coeff_vars
        )
    values = {
        name: load_element(target, element)
        for name, element in data.get("values", {}).items()
    }
    return Character(target, values=values, reg=reg)


def dump_character(char) -> dict:
    return {
        "target": dump_descriptor(char.target),
        "values": {
            name: dump_element(char.target, value)
            for name, value in sorted(char.values.items())
        },
    }


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
