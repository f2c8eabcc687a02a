import random

import pytest

from conftest import gamma2_graph, sunset_graph
from rbren import (
    Character,
    ContextError,
    HopfElement,
    PreconditionError,
    RBAlgebraDescriptor,
    SWEEP_DESCRIPTORS,
    TensorElement,
)
from rbren import serde
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
