"""JSON schemas and loaders for every value the CLI reads or writes.

All rational numbers travel as strings ("-3/2"), exponent vectors as integer
lists, and term lists in the canonical sorted order, so identical values
serialize to identical JSON.  Each file format is one table below; a loader
reads a file only after ``_walk`` has checked it against its table.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction
from typing import Any

from .errors import ContextError, PreconditionError
from .exterior import ExteriorElement
from .graphs import FeynmanGraph
from .hopf import HopfElement, TensorElement
from .motives import Arrangement
from .poly import LaurentPoly, MultiPoly
from .rota_baxter import KINDS, RBAlgebraDescriptor, SaitoForm

_JSON_TYPES = {dict: "an object", list: "an array", int: "an integer", bool: "a boolean",
               str: "a string"}

_RATIONAL = _ID = (str, int)
_NAMES = [str]
_POLY_TERMS = [[_RATIONAL, [int]]]
_LAURENT_TERMS = [[[int], _POLY_TERMS]]
_POLY = {"vars": "vars", "terms": _POLY_TERMS}
# terms come first: a context list is compared only once they are checked
_LAURENT = {"terms": _LAURENT_TERMS, "dist": "dist", "vars": "vars"}
_EXTERIOR = {"terms": [[_NAMES, _LAURENT_TERMS]], "gens": "gens", "dist": "dist", "vars": "vars"}
_SAITO = {"vars": "vars", "denominator": _POLY_TERMS, "xi": _EXTERIOR, "eta": _EXTERIOR}
_DESCRIPTOR = {"kind": str, "divisors?": int, "ambient?": int, "coeff_vars?": _NAMES,
               "weight?": _RATIONAL}
_GRAPH = {"vertices": [_ID], "internal_edges": [[_ID, _ID, _ID]], "valences?": [int], "name?": str,
          "external_edges?": [{"vertex": _ID, "momentum": [_RATIONAL]}]}
# the loader walks each graph of "graphs" and each element of "values"
_LIBRARY = {"dim?": int, "even_only?": bool, "graphs?": dict}
_CHARACTER = {"target": _DESCRIPTOR, "rule?": str, "c?": _RATIONAL, "values?": dict}
_HOPF = {"terms": [[_RATIONAL, _NAMES]]}
_TENSOR = {"legs": int, "terms": [[_RATIONAL, [_NAMES]]]}
_ARRANGEMENT = {"ambient": int, "hyperplanes": [[_RATIONAL]], "projective?": bool}


def _label(at) -> str:
    """The name of a value: a string, or a (parent, key) pair."""
    if at.__class__ is str:
        return at
    parent, key = at
    return f"{_label(parent)}[{key}]" if key.__class__ is int else f'{_label(parent)}\'s "{key}"'


def _walk(value, schema, at, ctx=None) -> None:
    """Check value against a table entry, or raise an error that names it by
    at (a string or a (parent, key) pair): TypeError for another JSON type,
    PreconditionError for a missing field, ContextError for a context list.
    An entry is a JSON type, (str, int) for a rational or an id, [s] for an
    array of s, [s1, s2, ...] for an array of that length, a table for an
    object (a key ending in "?" is optional), or "gens", "dist" or "vars":
    names that equal ctx's, but may be empty in an element without terms."""
    kind = schema.__class__
    types = schema if kind is tuple else (schema,) if kind is type else (kind,)
    size = len(schema) if kind is list and len(schema) > 1 else None
    if value.__class__ not in types or size and len(value) != size:
        want = " or ".join(map(_JSON_TYPES.get, types)) + (f" of {size} items" if size else "")
        raise TypeError(f"{_label(at)} must be {want}, got {json.dumps(value)}")
    if size:
        for i, entry in enumerate(schema):
            # a rational or an id is checked here, without a call
            if entry.__class__ is not tuple or value[i].__class__ not in entry:
                _walk(value[i], entry, (at, i), ctx)
    elif kind is list:
        entry = schema[0]
        # an array of scalars is checked in one pass
        scalars = entry if entry.__class__ is tuple else schema if entry.__class__ is type else ()
        if not set(map(type, value)).issubset(scalars):
            for i, item in enumerate(value):
                _walk(item, entry, (at, i), ctx)
    elif kind is dict:
        missing = [key for key in schema if key[-1] != "?" and key not in value]
        if missing:
            raise PreconditionError(f"{_label(at)} lacks {', '.join(map(repr, missing))}")
        for key, entry in schema.items():
            key = key.rstrip("?")
            if key not in value:
                continue
            item, names = value[key], entry.__class__ is str
            _walk(item, _NAMES if names else entry, (at, key), ctx)
            if names and ctx and item != ctx[entry] and (item or value.get("terms", True)):
                raise ContextError(f"{_label((at, key))} {json.dumps(item)} differ from "
                                   f"the algebra's {json.dumps(ctx[entry])}")


def frac_str(q: Fraction) -> str:
    return str(Fraction(q))


# -- polynomials -----------------------------------------------------------------
# The readers read checked data in the given context lists (names).


def dump_poly_terms(p: MultiPoly) -> list:
    return [[frac_str(c), list(e)] for e, c in p.terms.items()]


def _summed(pairs) -> dict:
    """A term dict of (key, coefficient) pairs; a repeated key sums, as
    keys that name one basis element do in the element constructors."""
    out = {}
    for key, c in pairs:
        out[key] = out[key] + c if key in out else c
    return out


def _poly_terms(terms, variables) -> MultiPoly:
    return MultiPoly(variables, _summed((tuple(e), Fraction(c)) for c, e in terms))


def dump_poly(p: MultiPoly) -> dict:
    return {"vars": list(p.variables), "terms": dump_poly_terms(p)}


def load_poly(data: dict) -> MultiPoly:
    _walk(data, _POLY, "the polynomial")
    return _poly_terms(data["terms"], data["vars"])


def dump_laurent_terms(p: LaurentPoly) -> list:
    return [[list(d), dump_poly_terms(c)] for d, c in p.terms.items()]


def _laurent(terms, names) -> LaurentPoly:
    variables = tuple(names["vars"])
    terms = _summed((tuple(d), _poly_terms(t, variables)) for d, t in terms)
    return LaurentPoly(names["dist"], variables, terms)


def dump_laurent(p: LaurentPoly) -> dict:
    return {
        "dist": list(p.dist),
        "vars": list(p.variables),
        "terms": dump_laurent_terms(p),
    }


def load_laurent(data: dict) -> LaurentPoly:
    _walk(data, _LAURENT, "the Laurent polynomial")
    return _laurent(data["terms"], data)


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


def _exterior(data, names) -> ExteriorElement:
    gens = tuple(names["gens"])
    total = ExteriorElement.zero(gens)
    for subset, terms in data["terms"]:
        total = total + ExteriorElement.term(gens, subset, _laurent(terms, names))
    return total


def load_exterior(data: dict) -> ExteriorElement:
    _walk(data, _EXTERIOR, "the exterior element")
    return _exterior(data, data)


def dump_saito(x: SaitoForm) -> dict:
    return {
        "vars": list(x.denom.variables),
        "denominator": dump_poly_terms(x.denom),
        "xi": dump_exterior(x.xi),
        "eta": dump_exterior(x.eta),
    }


def _saito(data, ctx) -> SaitoForm:
    xi, eta = (_exterior(data[part], ctx or data[part]) for part in ("xi", "eta"))
    return SaitoForm(_poly_terms(data["denominator"], (ctx or data)["vars"]), xi, eta)


def load_saito(data: dict) -> SaitoForm:
    _walk(data, _SAITO, "the Saito form")
    return _saito(data, None)


# -- algebra descriptors ---------------------------------------------------------------


def dump_descriptor(desc: RBAlgebraDescriptor) -> dict:
    """The kind and the sizes it reads."""
    out = {"kind": desc.kind}
    for size in fields(desc):
        value = getattr(desc, size.name)
        out[size.name] = list(value) if isinstance(value, tuple) else value
    return out


def load_descriptor(data: dict) -> RBAlgebraDescriptor:
    _walk(data, _DESCRIPTOR, "the algebra")
    if Fraction(data.get("weight", -1)) != -1:
        # every kind carries the weight -1 polar splitting
        raise PreconditionError("descriptor weight must be -1")
    kind = KINDS.get(data["kind"])
    if kind is None:
        raise PreconditionError(f"unknown algebra kind {data['kind']!r}")
    # a size the kind does not read is ignored
    return kind(**{size.name: data[size.name] for size in fields(kind) if size.name in data})


# each element type, the type of desc.zero(): (dump(x, desc), table, read(data, ctx))
_ELEMENTS = {
    LaurentPoly: (lambda x, desc: dump_laurent(x), _LAURENT, lambda d, c: _laurent(d["terms"], c)),
    ExteriorElement: (dump_exterior, _EXTERIOR, _exterior),
    SaitoForm: (lambda x, desc: dump_saito(x), _SAITO, _saito),
}


def dump_element(desc: RBAlgebraDescriptor, x) -> Any:
    dump, _, _ = _ELEMENTS[type(desc.zero())]
    return dump(x, desc)


def _element(desc: RBAlgebraDescriptor, data, at: str) -> Any:
    _, table, read = _ELEMENTS[type(desc.zero())]
    ctx = dict(gens=list(desc.gens()), dist=list(desc.dist_vars()), vars=list(desc.poly_vars()))
    _walk(data, table, at, ctx)
    return read(data, ctx)


def load_element(desc: RBAlgebraDescriptor, data) -> Any:
    """Load an element of desc's algebra, checking its generators and
    variables against the descriptor's."""
    return _element(desc, data, f"the {desc.kind} element")


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


def _graph(data, at: str) -> FeynmanGraph:
    _walk(data, _GRAPH, at)
    return FeynmanGraph(
        vertices=data["vertices"],
        internal_edges=data["internal_edges"],
        external_edges=[(leg["vertex"], leg["momentum"]) for leg in data.get("external_edges", ())],
        valences=data.get("valences"),
    )


def load_graph(data: dict) -> FeynmanGraph:
    return _graph(data, "the graph")


def load_library(data: dict) -> tuple[int, bool, dict[str, FeynmanGraph]]:
    """(dim, even_only, graphs by name in name order) of a library; a
    missing setting reads as the registry default (dim 4, not even-only)."""
    _walk(data, _LIBRARY, "the library")
    graphs = {n: _graph(g, f"graph {n!r}") for n, g in sorted(data.get("graphs", {}).items())}
    return data.get("dim", 4), data.get("even_only", False), graphs


# -- Hopf elements ------------------------------------------------------------------


def dump_hopf(x: HopfElement) -> dict:
    return {"terms": [[frac_str(c), list(m)] for m, c in x.terms.items()]}


def load_hopf(data: dict) -> HopfElement:
    _walk(data, _HOPF, "the Hopf element")
    return HopfElement(_summed((tuple(m), Fraction(c)) for c, m in data["terms"]))


def dump_tensor(x: TensorElement) -> dict:
    return {
        "legs": x.legs,
        "terms": [
            [frac_str(c), [list(m) for m in word]] for word, c in x.terms.items()
        ],
    }


def load_tensor(data: dict) -> TensorElement:
    _walk(data, _TENSOR, "the tensor")
    terms = _summed((tuple(map(tuple, word)), Fraction(c)) for c, word in data["terms"])
    return TensorElement(data["legs"], terms)


# -- arrangements --------------------------------------------------------------------


def dump_arrangement(arr: Arrangement) -> dict:
    return {
        "ambient": arr.ambient,
        "projective": arr.projective,
        "hyperplanes": [[frac_str(c) for c in form] for form in arr.hyperplanes],
    }


def load_arrangement(data: dict) -> Arrangement:
    _walk(data, _ARRANGEMENT, "the arrangement")
    return Arrangement(data["ambient"], data["hyperplanes"], data.get("projective", False))


# -- characters ---------------------------------------------------------------------


def load_character(data: dict, reg=None):
    from .birkhoff import Character, pole_power_character

    _walk(data, _CHARACTER, "the character")
    target = load_descriptor(data["target"])
    if "rule" in data:
        if data["rule"] != "pole_power":
            raise PreconditionError(
                f'the character\'s "rule" must be "pole_power", got {json.dumps(data["rule"])}'
            )
        if "values" in data:
            raise PreconditionError('the character\'s "values" cannot go with its "rule"')
        if reg is None:
            raise PreconditionError("the pole_power rule needs a generator registry")
        if not isinstance(target.zero(), LaurentPoly):
            raise PreconditionError("the pole_power rule targets laurent_ms")
        c = Fraction(data.get("c", 0))
        return pole_power_character(reg, c=c, coeff_vars=target.coeff_vars)
    if "c" in data:
        raise PreconditionError('the character\'s "c" goes only with its "rule"')
    values = {
        name: _element(target, element, f"the value of {name!r}")
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
