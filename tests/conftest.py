"""Shared graph library used across the suite.

All momenta live in D = 4 with conserved totals.  Leg counts are chosen so
that sub- and quotient graphs of the nested examples resolve, via canonical
keys, to the named generators here (e.g. both bubbles inside gamma2 carry
two legs per vertex, matching the registered bubble).
"""

import itertools
from fractions import Fraction as F

import pytest

from rbren import FeynmanGraph, GeneratorRegistry, connected_components

P1 = (F(1), F(0), F(0), F(0))
P2 = (F(0), F(1), F(0), F(0))


def _neg(p):
    return tuple(-q for q in p)


def bubble_graph() -> FeynmanGraph:
    """One loop, two parallel edges, two legs at each end."""
    return FeynmanGraph(
        ("a", "b"),
        (("e1", "a", "b"), ("e2", "a", "b")),
        (("a", P1), ("a", P2), ("b", _neg(P1)), ("b", _neg(P2))),
    )


def sunset_graph() -> FeynmanGraph:
    return FeynmanGraph(
        ("u", "v"),
        (("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v")),
        (("u", P1), ("v", _neg(P1))),
    )


def triangle_graph() -> FeynmanGraph:
    return FeynmanGraph(
        ("a", "b", "c"),
        (("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")),
        (("a", P1), ("b", P2), ("c", _neg(tuple(p + q for p, q in zip(P1, P2))))),
    )


def gamma2_graph() -> FeynmanGraph:
    """Nested double bubble: double edges u-v and v-w, two legs at u and w."""
    return FeynmanGraph(
        ("u", "v", "w"),
        (("e1", "u", "v"), ("e2", "u", "v"), ("e3", "v", "w"), ("e4", "v", "w")),
        (("u", P1), ("u", P2), ("w", _neg(P1)), ("w", _neg(P2))),
    )


def gamma3_chain_graph() -> FeynmanGraph:
    """Chain of three bubbles (3 loops)."""
    return FeynmanGraph(
        ("u", "v", "w", "x"),
        (
            ("e1", "u", "v"),
            ("e2", "u", "v"),
            ("e3", "v", "w"),
            ("e4", "v", "w"),
            ("e5", "w", "x"),
            ("e6", "w", "x"),
        ),
        (("u", P1), ("u", P2), ("x", _neg(P1)), ("x", _neg(P2))),
    )


def bubble_chain_graph(n: int) -> FeynmanGraph:
    """C_n: a chain of n bubbles (n loops, 2n edges), two legs at each end."""
    vs = tuple(f"v{i}" for i in range(n + 1))
    edges = tuple((f"e{i}{j}", vs[i], vs[i + 1]) for i in range(n) for j in (1, 2))
    legs = ((vs[0], P1), (vs[0], P2), (vs[n], _neg(P1)), (vs[n], _neg(P2)))
    return FeynmanGraph(vs, edges, legs)


def banana4_graph() -> FeynmanGraph:
    """Four parallel edges (3 loops)."""
    return FeynmanGraph(
        ("u", "v"),
        tuple((f"e{i}", "u", "v") for i in range(1, 5)),
        (("u", P1), ("v", _neg(P1))),
    )


def tadpole_graph() -> FeynmanGraph:
    """One vertex with a self-loop; arises as sunset/bubble."""
    return FeynmanGraph(
        ("z",), (("s1", "z", "z"),), (("z", P1), ("z", _neg(P1)))
    )


def single_edge_graph() -> FeynmanGraph:
    return FeynmanGraph(
        ("a", "b"), (("e1", "a", "b"),), (("a", P1), ("b", _neg(P1)))
    )


def bridged_triangles_graph() -> FeynmanGraph:
    """Two triangles joined by one bridge edge."""
    edges = (
        ("t1", "a", "b"),
        ("t2", "b", "c"),
        ("t3", "c", "a"),
        ("br", "c", "d"),
        ("s1", "d", "e"),
        ("s2", "e", "f"),
        ("s3", "f", "d"),
    )
    return FeynmanGraph(("a", "b", "c", "d", "e", "f"), edges, ())


def wheel_graph(n: int) -> FeynmanGraph:
    """W_n: a hub joined to an n-cycle (n loops, 2n edges), legs p/-p on the
    rim."""
    rim = [f"r{i}" for i in range(n)]
    edges = [(f"s{i}", "h", rim[i]) for i in range(n)]
    edges += [(f"c{i}", rim[i], rim[(i + 1) % n]) for i in range(n)]
    return FeynmanGraph(
        tuple(["h"] + rim), tuple(edges), ((rim[0], P1), (rim[n // 2], _neg(P1)))
    )


def ladder_graph(n: int) -> FeynmanGraph:
    """L_n: a ladder with n rungs (n - 1 loops, 3n - 2 edges), legs p/-p at
    opposite corners."""
    a = [f"a{i}" for i in range(n)]
    b = [f"b{i}" for i in range(n)]
    edges = [(f"r{i}", a[i], b[i]) for i in range(n)]
    edges += [(f"x{i}", a[i], a[i + 1]) for i in range(n - 1)]
    edges += [(f"y{i}", b[i], b[i + 1]) for i in range(n - 1)]
    return FeynmanGraph(tuple(a + b), tuple(edges), ((a[0], P1), (b[-1], _neg(P1))))


def connected_multigraphs(max_vertices, max_edges):
    """Every connected multigraph on vertices 0..n-1 with n <= max_vertices
    and 1..max_edges edges, self-loops and parallel edges included (one edge
    list per multiset of vertex pairs)."""
    for n_vertices in range(1, max_vertices + 1):
        vertex_pairs = [
            (a, b) for a in range(n_vertices) for b in range(a, n_vertices)
        ]
        for n_edges in range(1, max_edges + 1):
            for combo in itertools.combinations_with_replacement(
                vertex_pairs, n_edges
            ):
                if {v for e in combo for v in e} != set(range(n_vertices)):
                    continue
                g = FeynmanGraph(
                    tuple(range(n_vertices)),
                    tuple((f"e{i}", a, b) for i, (a, b) in enumerate(combo)),
                )
                if len(connected_components(g)) == 1:
                    yield g


@pytest.fixture
def bubble():
    return bubble_graph()


@pytest.fixture
def sunset():
    return sunset_graph()


@pytest.fixture
def triangle():
    return triangle_graph()


@pytest.fixture
def gamma2():
    return gamma2_graph()


@pytest.fixture
def gamma3():
    return gamma3_chain_graph()


@pytest.fixture
def banana4():
    return banana4_graph()


@pytest.fixture
def library_registry() -> GeneratorRegistry:
    """Six explicit generators up to three loops, plus the tadpole that
    closes the sunset coproduct."""
    reg = GeneratorRegistry(dim=4)
    reg.register("B", bubble_graph())
    reg.register("sunset", sunset_graph())
    reg.register("triangle", triangle_graph())
    reg.register("Gamma2", gamma2_graph())
    reg.register("Gamma3", gamma3_chain_graph())
    reg.register("banana4", banana4_graph())
    reg.register("tadpole", tadpole_graph())
    return reg
