import copy
import dataclasses
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import bubble_graph, gamma2_graph, sunset_graph
from rbren import (
    Arrangement,
    Character,
    ContextError,
    HopfElement,
    MultiPoly,
    PreconditionError,
    RBAlgebraDescriptor,
    RbrenError,
    SWEEP_DESCRIPTORS,
    TensorElement,
    sigma_arrangement,
)
from rbren import serde
from rbren.cli import run
from rbren.poly import parse_laurent, parse_poly


def test_poly_round_trip():
    p = parse_poly("t1^2-5/6*t2+3", ("t1", "t2"))
    assert serde.load_poly(serde.dump_poly(p)) == p


def test_laurent_round_trip():
    p = parse_laurent("z^-2*c+4-z^3", ("z",), ("c",))
    assert serde.load_laurent(serde.dump_laurent(p)) == p


def test_exterior_round_trip():
    desc = RBAlgebraDescriptor.nc_log(2, 2)
    rng = random.Random(0)
    for _ in range(20):
        x = desc.random_element(rng, even=False)
        assert serde.load_exterior(serde.dump_exterior(x, desc)) == x


def test_saito_round_trip():
    desc = RBAlgebraDescriptor.saito(3)
    rng = random.Random(1)
    for _ in range(20):
        x = desc.random_element(rng)
        y = serde.load_saito(serde.dump_saito(x))
        assert desc.eq(x, y)
        assert x.denom == y.denom


def test_descriptor_round_trip():
    for desc in (
        RBAlgebraDescriptor.laurent_ms(coeff_vars=("c",)),
        RBAlgebraDescriptor.merom(4),
        RBAlgebraDescriptor.nc_log(2, 3),
        RBAlgebraDescriptor.smooth_log(2),
        RBAlgebraDescriptor.saito(3),
    ):
        assert serde.load_descriptor(serde.dump_descriptor(desc)) == desc


def test_graph_round_trip():
    for g in (sunset_graph(), gamma2_graph()):
        assert serde.load_graph(serde.dump_graph(g)) == g


def test_graph_with_valences_round_trip():
    import dataclasses

    g = dataclasses.replace(gamma2_graph(), valences=frozenset({4}))
    back = serde.load_graph(serde.dump_graph(g))
    assert back.valences == frozenset({4})


def test_hopf_and_tensor_round_trip():
    x = HopfElement.unit(3) + HopfElement.mono(("B", "B"), -2)
    assert serde.load_hopf(serde.dump_hopf(x)) == x
    t = TensorElement.word((("B",), ("B", "C")), 5)
    assert serde.load_tensor(serde.dump_tensor(t)) == t


@pytest.mark.parametrize("legs", [2.9, "2"])
def test_tensor_legs_must_be_an_integer(legs):
    """Both used to be read as 2 legs."""
    data = serde.dump_tensor(TensorElement.word((("B",), ("B", "C")), 5))
    data["legs"] = legs
    with pytest.raises(TypeError, match='the tensor\'s "legs" must be an integer'):
        serde.load_tensor(data)


def test_element_dump_dispatch():
    laurent = RBAlgebraDescriptor.laurent_ms()
    x = parse_laurent("z^-1+2", ("z",), ())
    assert serde.load_element(laurent, serde.dump_element(laurent, x)) == x


def test_load_element_round_trips_every_kind():
    rng = random.Random(4)
    for desc in SWEEP_DESCRIPTORS.values():
        for _ in range(10):
            x = desc.random_element(rng)
            back = serde.load_element(desc, serde.dump_element(desc, x))
            assert desc.eq(back, x)
        zero = serde.load_element(desc, serde.dump_element(desc, desc.zero()))
        assert desc.is_zero(zero)


def test_load_element_rejects_another_algebras_context():
    merom = RBAlgebraDescriptor.merom(4)
    x = merom.random_element(random.Random(2))
    with pytest.raises(ContextError, match="gens"):
        serde.load_element(RBAlgebraDescriptor.nc_log(2, 2), serde.dump_element(merom, x))
    # same generators dx1..dx4, other coefficient variables
    with pytest.raises(ContextError, match="dist"):
        serde.load_element(RBAlgebraDescriptor.nc_log(0, 4), serde.dump_element(merom, x))
    laurent = serde.dump_element(RBAlgebraDescriptor.laurent_ms(), parse_laurent("z^-1", ("z",), ()))
    with pytest.raises(ContextError, match="vars"):
        serde.load_element(RBAlgebraDescriptor.laurent_ms(coeff_vars=("c",)), laurent)
    saito = RBAlgebraDescriptor.saito(3)
    w = serde.dump_element(saito, saito.random_element(random.Random(3)))
    with pytest.raises(ContextError, match="vars"):
        serde.load_element(RBAlgebraDescriptor.saito(2), w)


def test_load_element_names_a_missing_schema_key():
    cases = [
        (RBAlgebraDescriptor.merom(4), RBAlgebraDescriptor.laurent_ms(), "'gens'"),
        (RBAlgebraDescriptor.saito(2), RBAlgebraDescriptor.merom(2), "'denominator'"),
        (RBAlgebraDescriptor.laurent_ms(), RBAlgebraDescriptor.saito(2), "'terms'"),
    ]
    for target, source, key in cases:
        data = serde.dump_element(source, source.one())
        with pytest.raises(PreconditionError, match=key):
            serde.load_element(target, data)


def test_character_round_trip(library_registry):
    desc = RBAlgebraDescriptor.nc_log(2, 2)
    rng = random.Random(5)
    char = Character(
        desc,
        values={"B": desc.random_element(rng), "Gamma2": desc.random_element(rng)},
        reg=library_registry,
    )
    data = serde.dump_character(char)
    back = serde.load_character(data, library_registry)
    assert back.target == desc
    for name in ("B", "Gamma2"):
        assert back(name) == char(name)


def test_pole_power_character_from_json(library_registry):
    data = {
        "target": serde.dump_descriptor(RBAlgebraDescriptor.laurent_ms()),
        "rule": "pole_power",
        "c": "1/2",
    }
    char = serde.load_character(data, library_registry)
    assert char("B") == parse_laurent("z^-1+1/2", ("z",), ())


def test_integer_ids_round_trip_and_quotient():
    from fractions import Fraction as F

    from rbren import FeynmanGraph, SubgraphSpec, loop_number, quotient

    g = FeynmanGraph(
        (0, 1),
        ((1, 0, 1), (2, 0, 1), (3, 0, 1)),
        ((0, (F(1),)), (1, (F(-1),))),
    )
    back = serde.load_graph(serde.dump_graph(g))
    assert back == g
    q = quotient(g, SubgraphSpec.from_edges(g, (1, 2)))
    assert loop_number(q) == 1


def test_library_round_trip():
    graphs = {"B": bubble_graph(), "Gamma2": gamma2_graph(), "sunset": sunset_graph()}
    data = {"dim": 6, "even_only": True, "graphs": {n: serde.dump_graph(g) for n, g in graphs.items()}}
    assert serde.load_library(data) == (6, True, graphs)
    assert serde.load_library({}) == (4, False, {})


def test_arrangement_round_trip():
    for arr in (sigma_arrangement(4, 0), sigma_arrangement(6, 1)):
        assert serde.load_arrangement(serde.dump_arrangement(arr)) == arr
    affine = Arrangement(3, ((F(1), F(-1, 2), F(0)), (F(0), F(0), F(3))))
    assert serde.load_arrangement(serde.dump_arrangement(affine)) == affine


def test_character_round_trip_every_kind(library_registry):
    rng = random.Random(6)
    for desc in SWEEP_DESCRIPTORS.values():
        char = Character(desc, values={"B": desc.random_element(rng), "Gamma2": desc.zero()})
        back = serde.load_character(serde.dump_character(char), library_registry)
        assert back.target == desc
        for name in ("B", "Gamma2"):
            assert desc.eq(back(name), char(name))


def test_poly_round_trip_zero_and_constant():
    for p in (MultiPoly.zero(("t1", "t2")), MultiPoly.const(("t1",), F(-3, 7)), MultiPoly.zero(())):
        assert serde.load_poly(serde.dump_poly(p)) == p


# -- field mutations ---------------------------------------------------------------
#
# Every field of every valid file is replaced in turn by a value of each other
# JSON type, and every object field is deleted.  A mutant must load, where the
# table admits it (only a string and an integer share a table entry: a rational
# or an id), or raise the error that names the field; through the CLI it exits
# 0 or 1 with a structured payload, never with a traceback.

_OTHER_VALUES = [None, True, 7, 1.5, "x", [], {}]


def _positions(data, path=()):
    yield path
    items = data.items() if type(data) is dict else enumerate(data) if type(data) is list else ()
    for key, value in items:
        yield from _positions(value, path + (key,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _mutants(data):
    """(path, mutant, kind) triples: kind is "delete" for a deleted object
    field, "swap" for a string put in place of an integer or an integer in
    place of a string, and "type" for any other replacement."""
    for path in _positions(data):
        original = _at(data, path)
        for value in _OTHER_VALUES:
            if type(value) is type(original):
                continue
            mutant = copy.deepcopy(data)
            if path:
                _at(mutant, path[:-1])[path[-1]] = value
            else:
                mutant = value
            yield path, mutant, "swap" if {type(original), type(value)} == {str, int} else "type"
        if path and type(_at(data, path[:-1])) is dict:
            mutant = copy.deepcopy(data)
            del _at(mutant, path[:-1])[path[-1]]
            yield path, mutant, "delete"


def _names(message, path):
    if not path:
        return True
    key = path[-1]
    return f"[{key}]" in message if type(key) is int else f'"{key}"' in message or repr(key) in message


def _check_mutants(data, load, argv, tmp_path):
    """load(data) reads the file in-process; argv runs a CLI command with
    FILE standing for the file, or is None for a format no command reads."""
    mutant_file = tmp_path / "mutant.json"
    for path, mutant, kind in _mutants(data):
        try:
            load(mutant)
        except TypeError as exc:
            assert kind != "delete" and _names(str(exc), path), (path, mutant, exc)
        except (RbrenError, ValueError) as exc:
            if " lacks " in str(exc):
                assert kind == "delete" and _names(str(exc), path), (path, exc)
            else:
                # a domain check on a value or default the table admits
                assert kind != "type", (path, mutant, exc)
        else:
            assert kind != "type", (path, mutant)
        if argv is not None:
            mutant_file.write_text(json.dumps(mutant))
            result = run([str(mutant_file) if a == "FILE" else a for a in argv])
            assert result.status in (0, 1), (path, mutant, result)
            assert result.status == 0 or set(result.payload["error"]) == {"code", "message"}


def _perfbench_files(tmp_path):
    """The graph, arrangement, library and character files the benchmark
    writes, made by its own code."""
    import importlib.util

    bench = Path(__file__).resolve().parents[1] / "perfbench"
    tmp_path.mkdir()
    sys.path.insert(0, str(bench))
    try:
        import rbren
        import rbren.cli
        import workloads

        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        bench_run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_run)
        workloads.Periods(rbren, 3, True, str(tmp_path))
        bench_run.probe_birkhoff_verify(rbren, 3, True, tmp_path)
    finally:
        sys.path.remove(str(bench))
    return {path.name: json.loads(path.read_text()) for path in sorted(tmp_path.glob("*.json"))}


def test_every_graph_and_arrangement_field_mutation(tmp_path):
    files = _perfbench_files(tmp_path / "bench")
    graphs = [data for name, data in files.items() if name.startswith(("L", "W", "R"))]
    arrangements = [data for name, data in files.items() if name.startswith("arr")]
    assert graphs and arrangements
    named = serde.dump_graph(dataclasses.replace(gamma2_graph(), valences=frozenset({4})))
    named["name"] = "Gamma2"
    mixed = {
        "vertices": ["u", 2],
        "internal_edges": [[1, "u", 2], ["x", "u", 2]],
        "external_edges": [{"vertex": "u", "momentum": ["1", 0]}, {"vertex": 2, "momentum": [-1, "0"]}],
    }
    for data in graphs[:2] + [named, mixed]:
        _check_mutants(data, serde.load_graph, ["graph", "info", "FILE"], tmp_path)
    small = {"ambient": 2, "projective": True, "hyperplanes": [["1", "0"], ["0", 1]]}
    for data in arrangements[:1] + [small]:
        _check_mutants(data, serde.load_arrangement, ["motive", "arrangement", "FILE"], tmp_path)
    # the command on a mutant of 10 planes in 16 coordinates is slow, so
    # sigma's output is mutated in-process only
    sigma = serde.dump_arrangement(sigma_arrangement(4, 0))
    _check_mutants(sigma, serde.load_arrangement, None, tmp_path)


def test_every_library_and_character_field_mutation(tmp_path, library_registry):
    files = _perfbench_files(tmp_path / "bench")
    library = next(data for name, data in files.items() if name.startswith("probe_R"))
    pole_power = files["probe_character.json"]
    lib_file = tmp_path / "library.json"
    lib_file.write_text(json.dumps(library))
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(library["graphs"]["G"]))
    _check_mutants(
        library, serde.load_library,
        ["hopf", "counit", "--graph", str(graph_file), "--library", "FILE"], tmp_path,
    )
    graphs = {"B": serde.dump_graph(bubble_graph()), "sunset": serde.dump_graph(sunset_graph())}
    _check_mutants({"dim": 4, "even_only": False, "graphs": graphs}, serde.load_library, None, tmp_path)
    desc = RBAlgebraDescriptor.nc_log(1, 1)
    values = Character(desc, values={"G": desc.add(desc.one(), desc.form((("dlog1", "dx1"), "x1")))})
    argv = ["birkhoff", "factorize", "G", "--character", "FILE", "--library", str(lib_file)]
    for data in (pole_power, serde.dump_character(values)):
        _check_mutants(data, lambda d: serde.load_character(d, library_registry), argv, tmp_path)


def test_every_element_and_descriptor_field_mutation(tmp_path):
    rng = random.Random(7)
    algebra = tmp_path / "algebra.json"
    element = tmp_path / "element.json"
    descs = list(SWEEP_DESCRIPTORS.values()) + [RBAlgebraDescriptor.laurent_ms(coeff_vars=("c",))]
    for desc in descs:
        algebra.write_text(json.dumps(serde.dump_descriptor(desc)))
        x = desc.random_element(rng)
        element.write_text(json.dumps(serde.dump_element(desc, x)))
        for data in (serde.dump_element(desc, x), serde.dump_element(desc, desc.zero())):
            _check_mutants(
                data, lambda d: serde.load_element(desc, d),
                ["rb", "t", "FILE", "--algebra", str(algebra)], tmp_path,
            )
        _check_mutants(
            serde.dump_descriptor(desc), serde.load_descriptor,
            ["rb", "t", str(element), "--algebra", "FILE"], tmp_path,
        )


def test_every_hopf_tensor_and_poly_field_mutation(tmp_path):
    x = HopfElement.unit(3) + HopfElement.mono(("B", "B"), F(-2, 3))
    t = TensorElement.word((("B",), ("B", "C")), 5)
    p = parse_poly("t1^2-5/6*t2+3", ("t1", "t2"))
    q = parse_laurent("z^-2*c+4-z^3", ("z",), ("c",))
    _check_mutants(serde.dump_hopf(x), serde.load_hopf, None, tmp_path)
    _check_mutants(serde.dump_tensor(t), serde.load_tensor, None, tmp_path)
    _check_mutants(serde.dump_poly(p), serde.load_poly, None, tmp_path)
    _check_mutants(serde.dump_laurent(q), serde.load_laurent, None, tmp_path)
