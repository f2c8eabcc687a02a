from fractions import Fraction as F

import pytest

import oracles
from conftest import (
    banana4_graph,
    bubble_graph,
    gamma2_graph,
    sunset_graph,
    tadpole_graph,
    triangle_graph,
)
from rbren import (
    FeynmanGraph,
    GeneratorRegistry,
    HopfElement,
    PreconditionError,
    TensorElement,
    UnknownGeneratorError,
    antipode,
    coproduct,
    counit,
    divergent_subgraphs,
    reduced_coproduct,
    reduced_coproduct_iterated,
)

H = HopfElement


def tensor(*terms):
    return TensorElement(
        2, {(tuple(sorted(a)), tuple(sorted(b))): F(c) for a, b, c in terms}
    )


def test_coproduct_of_unit(library_registry):
    assert coproduct(H.unit(), library_registry) == tensor(((), (), 1))


def test_coproduct_primitive_bubble(library_registry):
    got = coproduct(H.gen("B"), library_registry)
    assert got == tensor((("B",), (), 1), ((), ("B",), 1))


def test_coproduct_gamma2(library_registry):
    got = coproduct(H.gen("Gamma2"), library_registry)
    assert got == tensor(
        (("Gamma2",), (), 1),
        ((), ("Gamma2",), 1),
        (("B",), ("B",), 2),
    )


def test_coproduct_sunset_closes_on_tadpole(library_registry):
    got = coproduct(H.gen("sunset"), library_registry)
    assert got == tensor(
        (("sunset",), (), 1),
        ((), ("sunset",), 1),
        (("B",), ("tadpole",), 3),
    )


def test_reduced_coproduct_values(library_registry):
    assert reduced_coproduct(H.gen("B"), library_registry).is_zero()
    assert reduced_coproduct(H.gen("Gamma2"), library_registry) == tensor(
        (("B",), ("B",), 2)
    )
    # on a square: Delta~(B^2) = 2 B (x) B
    assert reduced_coproduct(H.mono(("B", "B")), library_registry) == tensor(
        (("B",), ("B",), 2)
    )
    # at dim 2 the bubbles of Gamma2 are convergent, so it is primitive
    reg = GeneratorRegistry(dim=2)
    reg.register("Gamma2", gamma2_graph())
    assert reduced_coproduct(H.gen("Gamma2"), reg).is_zero()


def test_reduced_coproduct_gamma3_chain(library_registry):
    got = reduced_coproduct(H.gen("Gamma3"), library_registry)
    assert got == tensor(
        (("B",), ("Gamma2",), 3),
        (("Gamma2",), ("B",), 2),
        (("B", "B"), ("B",), 1),
    )


def test_reduced_coproduct_matches_subset_oracle(library_registry):
    # structural cross-check: term multiplicity equals the number of
    # divergent edge subsets found by the independent enumerator
    g = banana4_graph()
    expected = oracles.brute_divergent_subgraphs(g, 4)
    got = reduced_coproduct(H.gen("banana4"), library_registry)
    assert sum(got.terms.values()) == len(expected) == 10


def test_iterated_reduced_coproduct(library_registry):
    assert reduced_coproduct_iterated(H.gen("B"), 1, library_registry).is_zero()
    two = reduced_coproduct_iterated(H.gen("Gamma2"), 1, library_registry)
    assert two.legs == 2 and not two.is_zero()
    assert reduced_coproduct_iterated(H.gen("Gamma2"), 2, library_registry).is_zero()
    # expanding either leg of Delta~(Gamma3) = 3 B(x)Gamma2 + 2 Gamma2(x)B
    # + B^2(x)B gives 3*2 = 2*2 + 1*2 = 6 copies of B(x)B(x)B
    three = reduced_coproduct_iterated(H.gen("Gamma3"), 2, library_registry)
    assert three.legs == 3
    assert three == TensorElement(3, {(("B",), ("B",), ("B",)): F(6)})
    assert reduced_coproduct_iterated(H.gen("Gamma3"), 3, library_registry).is_zero()
    with pytest.raises(PreconditionError):
        reduced_coproduct_iterated(H.gen("B"), 0, library_registry)


def test_antipode_values(library_registry):
    reg = library_registry
    assert antipode(H.gen("B"), reg) == H.gen("B", -1)
    assert antipode(H.gen("Gamma2"), reg) == H.gen("Gamma2", -1) + H.mono(
        ("B", "B"), 2
    )
    assert antipode(H.mono(("B", "B")), reg) == H.mono(("B", "B"))
    assert antipode(H.gen("Gamma3"), reg) == (
        H.gen("Gamma3", -1) + H.mono(("B", "Gamma2"), 5) + H.mono(("B",) * 3, -5)
    )


def test_counit():
    assert counit(H.unit()) == 1
    assert counit(H.gen("B")) == 0
    assert counit(H.unit(3) + H.gen("B", 2)) == 3


def test_coassociativity(library_registry):
    reg = library_registry
    for name in reg.names():
        delta = coproduct(H.gen(name), reg)
        left: dict = {}
        right: dict = {}
        for (a, b), c in delta.terms.items():
            for (a1, a2), c2 in coproduct(H(({tuple(a): 1})), reg).terms.items():
                key = (a1, a2, b)
                left[key] = left.get(key, F(0)) + c * c2
            for (b1, b2), c2 in coproduct(H(({tuple(b): 1})), reg).terms.items():
                key = (a, b1, b2)
                right[key] = right.get(key, F(0)) + c * c2
        assert TensorElement(3, left) == TensorElement(3, right)


def test_counit_axiom(library_registry):
    reg = library_registry
    for name in reg.names():
        x = H.gen(name)
        delta = coproduct(x, reg)
        left = HopfElement.zero()
        right = HopfElement.zero()
        for (a, b), c in delta.terms.items():
            left = left + c * counit(H({a: 1})) * H({b: 1})
            right = right + c * counit(H({b: 1})) * H({a: 1})
        assert left == x and right == x


def test_antipode_convolution_inverse(library_registry):
    reg = library_registry
    for name in reg.names():
        x = H.gen(name)
        total = HopfElement.zero()
        for (a, b), c in coproduct(x, reg).terms.items():
            total = total + c * (antipode(H({a: 1}), reg) * H({b: 1}))
        assert total == HopfElement.unit(counit(x))


def test_grading_is_respected(library_registry):
    reg = library_registry
    for name in reg.names():
        d = reg.degree(name)
        for (a, b), _ in coproduct(H.gen(name), reg).terms.items():
            assert reg.degree(a) + reg.degree(b) == d


def test_generator_without_internal_edge_is_refused():
    """A degree-0 generator would make the algebra not connected; the 1PI
    check keeps its own message and comes first."""
    reg = GeneratorRegistry(dim=4)
    with pytest.raises(PreconditionError, match="'pt' has no internal edge"):
        reg.register("pt", FeynmanGraph(("v",), ()))
    with pytest.raises(PreconditionError, match="'two' is not 1PI"):
        reg.register("two", FeynmanGraph(("v", "w"), ()))
    assert reg.names() == ()


def test_even_only_registry_rejects_odd_generators():
    reg = GeneratorRegistry(dim=4, even_only=True)
    with pytest.raises(PreconditionError):
        reg.register("sunset", sunset_graph())


def test_even_only_coproduct_filters_odd_subgraphs():
    reg = GeneratorRegistry(dim=4, even_only=True)
    reg.register("banana4", banana4_graph())
    got = reduced_coproduct(H.gen("banana4"), reg)
    # only the six 2-edge sub-bananas survive; the four 3-edge ones are odd
    assert sum(got.terms.values()) == 6


def test_even_only_coproduct_skips_subgraphs_with_an_odd_component():
    """{l1, l2} has two edges but two one-edge components, which would be odd
    generators; only the bubble {e1, e2} is an even coproduct subgraph."""
    g = FeynmanGraph(
        ("u", "v"),
        (("e1", "u", "v"), ("e2", "u", "v"), ("l1", "u", "u"), ("l2", "v", "v")),
        (),
    )
    assert [sorted(s.edges) for s in divergent_subgraphs(g, 4, even_only=True)] == [
        ["e1", "e2"]
    ]
    reg = GeneratorRegistry(dim=4, even_only=True)
    reg.register("G", g)
    got = reduced_coproduct(H.gen("G"), reg)
    assert list(got.terms.values()) == [1]
    ((left, right),) = got.terms
    assert [len(reg.graph(n).internal_edges) for n in left + right] == [2, 2]
    assert antipode(H.gen("G"), reg).terms[("G",)] == -1


def test_unregistered_generator_errors(library_registry):
    with pytest.raises(UnknownGeneratorError):
        coproduct(H.gen("nope"), library_registry)


def test_explicit_name_supersedes_auto():
    reg = GeneratorRegistry(dim=4)
    reg.register("B", __import__("conftest").bubble_graph())
    reg.register("sunset", sunset_graph())
    before = coproduct(H.gen("sunset"), reg)
    auto_names = [n for n in reg.names() if n.startswith("!")]
    assert len(auto_names) == 1
    assert reg.register("tadpole", tadpole_graph()) == "tadpole"
    after = coproduct(H.gen("sunset"), reg)
    assert after == tensor(
        (("sunset",), (), 1), ((), ("sunset",), 1), (("B",), ("tadpole",), 3)
    )
    assert before != after
    # the stale auto name still resolves to the same graph
    assert reg.graph(auto_names[0]) is reg.graph("tadpole")


def test_alias_name_cannot_be_rebound():
    reg = GeneratorRegistry(dim=4)
    assert reg.register("A", bubble_graph()) == "A"
    assert reg.register("B", bubble_graph()) == "A"
    with pytest.raises(PreconditionError):
        reg.register("B", triangle_graph())
    assert reg.graph("B") is reg.graph("A")
    assert reg.names() == ("A",)
    assert reg.register("B", bubble_graph()) == "A"


def test_hopf_axioms_on_degree_four_generator():
    """banana5 has four loops; its closure exercises the recursion depth."""
    from fractions import Fraction as F

    from conftest import P1
    from rbren import FeynmanGraph

    reg = GeneratorRegistry(dim=4)
    banana5 = FeynmanGraph(
        ("u", "v"),
        tuple((f"e{i}", "u", "v") for i in range(1, 6)),
        (("u", P1), ("v", tuple(-q for q in P1))),
    )
    reg.register("banana5", banana5)
    x = H.gen("banana5")
    delta = coproduct(x, reg)
    total = HopfElement.zero()
    for (a, b), c in delta.terms.items():
        total = total + c * (antipode(H({a: 1}), reg) * H({b: 1}))
    assert total == HopfElement.unit(0)
    assert reduced_coproduct_iterated(x, 4, reg).is_zero()
    assert not reduced_coproduct_iterated(x, 3, reg).is_zero()
