import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from conftest import (
    P1,
    banana4_graph,
    bridged_triangles_graph,
    bubble_graph,
    connected_multigraphs,
    gamma2_graph,
    ladder_graph,
    single_edge_graph,
    tadpole_graph,
    wheel_graph,
)
from rbren import (
    ContextError,
    DisconnectedError,
    FeynmanGraph,
    MomentumError,
    QuotientError,
    SizeBoundError,
    SubgraphSpec,
    canonical_key,
    connected_components,
    cut_sets,
    cycle_basis_matrix,
    divergent_subgraphs,
    edge_connectivity,
    is_1pi,
    loop_number,
    quotient,
    spanning_trees,
    subgraph_components,
    subgraph_view,
    superficial_degree,
)
from rbren._linalg import rational_rank
from rbren.graphs import CANONICAL_KEY_WORK_BOUND


def pairs(g):
    return [(t, h) for _, t, h in g.internal_edges]


def test_loop_numbers(triangle, sunset):
    assert loop_number(triangle) == 1
    assert loop_number(sunset) == 2
    assert loop_number(single_edge_graph()) == 0


def test_edge_connectivity_values(sunset, triangle):
    assert edge_connectivity(sunset) == 3
    assert edge_connectivity(triangle) == 2
    assert edge_connectivity(bridged_triangles_graph()) == 1
    assert edge_connectivity(tadpole_graph()) == math.inf


def test_edge_connectivity_matches_brute_force(sunset, triangle, gamma2):
    for g in (sunset, triangle, gamma2, bridged_triangles_graph(), banana4_graph()):
        assert edge_connectivity(g) == oracles.brute_edge_connectivity(
            g.vertices, pairs(g)
        )


def test_edge_connectivity_needs_connected():
    g = FeynmanGraph(("a", "b"), ())
    with pytest.raises(DisconnectedError):
        edge_connectivity(g)


def test_spanning_trees(triangle, sunset):
    assert len(spanning_trees(triangle)) == 3
    assert spanning_trees(sunset) == [
        frozenset({"e1"}),
        frozenset({"e2"}),
        frozenset({"e3"}),
    ]
    assert len(spanning_trees(banana4_graph())) == 4
    # single vertex: the empty tree
    assert spanning_trees(tadpole_graph()) == [frozenset()]


def test_spanning_tree_count_matches_laplacian(sunset, triangle, gamma2, banana4):
    for g in (sunset, triangle, gamma2, banana4, bridged_triangles_graph()):
        assert len(spanning_trees(g)) == oracles.laplacian_tree_count(
            g.vertices, pairs(g)
        )


def test_cut_sets(sunset, triangle):
    assert cut_sets(sunset) == [frozenset({"e1", "e2", "e3"})]
    tri_cuts = cut_sets(triangle)
    assert len(tri_cuts) == 3 and all(len(c) == 2 for c in tri_cuts)
    assert cut_sets(single_edge_graph()) == [frozenset({"e1"})]


def components_after_removal(g, cut):
    kept = [(t, h) for eid, t, h in g.internal_edges if eid not in cut]
    return oracles.components(g.vertices, kept)


def test_cut_sets_split_into_exactly_two(sunset, triangle, gamma2, banana4):
    for g in (sunset, triangle, gamma2, banana4):
        for cut in cut_sets(g):
            assert len(components_after_removal(g, cut)) == 2


def test_superficial_degree(bubble, sunset, triangle):
    assert superficial_degree(bubble, 4) == 0
    assert superficial_degree(sunset, 4) == 2
    assert superficial_degree(triangle, 4) == -2


def test_divergent_subgraphs_bubble_and_triangle(bubble, triangle, sunset):
    assert divergent_subgraphs(bubble, 4) == []
    assert divergent_subgraphs(triangle, 4) == []
    # the sunset's sub-bubbles have degree -2 at dim 2 and 0 at dim 4
    assert divergent_subgraphs(sunset, 2) == []
    assert [len(s.edges) for s in divergent_subgraphs(sunset, 4)] == [2, 2, 2]


def test_divergent_subgraphs_gamma2(gamma2):
    specs = divergent_subgraphs(gamma2, 4)
    assert [sorted(map(str, s.edges)) for s in specs] == [
        ["e1", "e2"],
        ["e3", "e4"],
    ]


def test_divergent_subgraphs_match_brute_force(gamma2, sunset, banana4):
    for g in (gamma2, sunset, banana4, gamma2_graph()):
        assert divergent_subgraphs(g, 4) == oracles.brute_divergent_subgraphs(g, 4)


def test_divergent_subgraphs_valence_restriction(gamma2):
    restricted = FeynmanGraph(
        gamma2.vertices, gamma2.internal_edges, gamma2.external_edges, frozenset({3})
    )
    assert divergent_subgraphs(restricted, 4) == []
    allowed = FeynmanGraph(
        gamma2.vertices, gamma2.internal_edges, gamma2.external_edges, frozenset({4})
    )
    assert len(divergent_subgraphs(allowed, 4)) == 2


def test_divergent_subgraphs_even_only(banana4):
    all_specs = divergent_subgraphs(banana4, 4)
    even_specs = divergent_subgraphs(banana4, 4, even_only=True)
    assert {len(s.edges) for s in all_specs} == {2, 3}
    assert {len(s.edges) for s in even_specs} == {2}


def test_quotient_of_gamma2_bubble_is_bubble(gamma2, bubble):
    spec = SubgraphSpec.from_edges(gamma2, ("e1", "e2"))
    q = quotient(gamma2, spec)
    assert loop_number(q) == 1
    assert canonical_key(q) == canonical_key(bubble)


def test_quotient_of_sunset_bubble_is_tadpole(sunset):
    spec = SubgraphSpec.from_edges(sunset, ("e1", "e2"))
    q = quotient(sunset, spec)
    assert len(q.vertices) == 1 and loop_number(q) == 1
    assert canonical_key(q) == canonical_key(tadpole_graph())


def test_quotient_loop_additivity(gamma2, banana4, sunset):
    for g in (gamma2, banana4, sunset):
        for spec in divergent_subgraphs(g, 4):
            assert loop_number(subgraph_view(g, spec)) + loop_number(
                quotient(g, spec)
            ) == loop_number(g)


def test_tree_contraction_preserves_loops(triangle):
    spec = SubgraphSpec.from_edges(triangle, ("e1",))
    assert loop_number(quotient(triangle, spec)) == loop_number(triangle)


def test_quotient_of_everything_rejected(sunset):
    spec = SubgraphSpec.from_edges(sunset, ("e1", "e2", "e3"))
    with pytest.raises(QuotientError):
        quotient(sunset, spec)


def test_subgraph_components_match_the_oracle_exhaustively():
    """Every proper non-empty edge subset of every connected multigraph with
    <= 5 edges and <= 4 vertices: the components' vertex and edge sets are
    the oracle's, ordered by least vertex id, and quotient maps each
    component to its least vertex."""
    checked = 0
    for g in connected_multigraphs(4, 5):
        ends = {eid: (tail, head) for eid, tail, head in g.internal_edges}
        for size in range(1, len(ends)):
            for combo in itertools.combinations(ends, size):
                spec = SubgraphSpec.from_edges(g, combo)
                expected = sorted(
                    oracles.components(spec.vertices, [ends[e] for e in combo]),
                    key=min,
                )
                comps = subgraph_components(g, spec)
                assert [c.vertices for c in comps] == [frozenset(c) for c in expected]
                assert [c.edges for c in comps] == [
                    frozenset(e for e in combo if ends[e][0] in c) for c in expected
                ]
                rep = {v: v for v in g.vertices}
                rep.update((v, min(c)) for c in expected for v in c)
                q = quotient(g, spec)
                assert q.vertices == tuple(sorted(set(rep.values())))
                assert q.internal_edges == tuple(
                    (e, rep[t], rep[h]) for e, t, h in g.internal_edges if e not in combo
                )
                checked += 1
    assert checked == 24374


def test_subgraph_components_hand_built_specs(gamma2, sunset):
    """A vertex of the spec without an edge of it is a component alone; an
    edge reaching outside the spec's vertices is refused."""
    spec = SubgraphSpec(frozenset({"e1"}), frozenset({"u", "v", "w"}))
    assert subgraph_components(gamma2, spec) == [
        SubgraphSpec(frozenset({"e1"}), frozenset({"u", "v"})),
        SubgraphSpec(frozenset(), frozenset({"w"})),
    ]
    outside = SubgraphSpec(frozenset({"e1"}), frozenset({"u"}))
    with pytest.raises(ContextError, match="unknown endpoint"):
        subgraph_components(sunset, outside)
    with pytest.raises(ContextError, match="unknown endpoint"):
        quotient(sunset, outside)


def test_specs_naming_ids_the_graph_lacks_are_refused(sunset):
    """A vertex or edge id that g lacks is named, not added to a view or a
    quotient, nor silently dropped."""
    stray_vertex = SubgraphSpec(frozenset({"e1", "e2"}), frozenset({"u", "v", "w"}))
    stray_edge = SubgraphSpec(frozenset({"e1", "x"}), frozenset({"u", "v"}))
    for spec, message in ((stray_vertex, "unknown vertex id 'w'"), (stray_edge, "unknown edge id 'x'")):
        for op in (quotient, subgraph_view, subgraph_components):
            with pytest.raises(ContextError, match=message):
                op(sunset, spec)
    # a spec given as lists holds the same sets
    listed = SubgraphSpec(["e1", "e2"], ["u", "v"])
    assert listed == SubgraphSpec.from_edges(sunset, ("e1", "e2"))
    assert quotient(sunset, listed) == quotient(sunset, SubgraphSpec.from_edges(sunset, ("e1", "e2")))


def test_int_ids_are_ordered_by_value():
    """Ids 10 and above sort after 2 and 3, as numbers: quotient maps a
    component to its least vertex, and edge sets are listed by edge ids."""
    g = FeynmanGraph((2, 10, 3), ((1, 2, 10), (2, 2, 10), (3, 10, 3), (4, 3, 2)))
    q = quotient(g, SubgraphSpec.from_edges(g, (1, 2)))
    assert q.vertices == (2, 3)
    assert q.internal_edges == ((3, 2, 3), (4, 3, 2))
    assert subgraph_view(g, SubgraphSpec.from_edges(g, (1, 3))).vertices == (2, 3, 10)
    banana = FeynmanGraph(("u", "v"), ((11, "u", "v"), (2, "u", "v"), (10, "u", "v")))
    assert [s.edges for s in divergent_subgraphs(banana, 4)] == [{2, 10}, {2, 11}, {10, 11}]
    assert spanning_trees(banana) == [{2}, {10}, {11}]
    assert cut_sets(banana) == [{2, 10, 11}]
    triangle = FeynmanGraph((-1, 9, 12), ((12, -1, 9), (-3, 9, 12), (9, 12, -1)))
    assert spanning_trees(triangle) == [{-3, 9}, {-3, 12}, {9, 12}]
    assert [c.vertices for c in subgraph_components(
        triangle, SubgraphSpec(frozenset({9}), frozenset(triangle.vertices))
    )] == [{-1, 12}, {9}]


def test_index_form_matches_the_ids():
    """ends and legs are the edges and legs on vertex indices; they are
    derived, so they stay out of equality, hashing and repr."""
    mixed = FeynmanGraph(
        ("u", 2, 0), ((1, "u", 2), ("x", 0, 0), ("y", 2, "u")), (("u", ()), (0, ()), ("u", ()))
    )
    for g in (mixed, gamma2_graph(), wheel_graph(4)):
        position = g.vertices.index
        assert g.ends == tuple((position(t), position(h)) for _, t, h in g.internal_edges)
        assert g.legs == tuple(
            sum(1 for u, _ in g.external_edges if u == v) for v in g.vertices
        )
        assert "ends" not in repr(g) and "legs" not in repr(g)
        assert dataclasses.replace(g) == g and hash(dataclasses.replace(g)) == hash(g)
    assert mixed.ends == ((0, 1), (2, 2), (1, 0)) and mixed.legs == (2, 0, 1)
    derived = [f.name for f in dataclasses.fields(FeynmanGraph) if not (f.compare or f.repr)]
    assert derived == ["ends", "legs"]


def test_cycle_basis_is_the_fundamental_cycles_exhaustively():
    """Every connected multigraph with <= 5 vertices and <= 6 edges: the
    columns are the chords of the greedy spanning tree in declared order,
    their rows form the identity, and every column is a signed cycle (the
    vertex incidence times it is 0)."""
    checked = 0
    for g in connected_multigraphs(5, 6):
        edges = [(t, h) for _, t, h in g.internal_edges]
        chords = [
            i for i, (t, h) in enumerate(edges)
            if any({t, h} <= c for c in oracles.components(g.vertices, edges[:i]))
        ]
        eta = cycle_basis_matrix(g)
        assert [len(row) for row in eta] == [len(chords)] * len(edges)
        assert [[eta[i][k] for k in range(len(chords))] for i in chords] == [
            [int(j == k) for k in range(len(chords))] for j in range(len(chords))
        ]
        for k in range(len(chords)):
            assert all(eta[i][k] in (-1, 0, 1) for i in range(len(edges)))
            for v in g.vertices:
                assert sum(eta[i][k] * ((h == v) - (t == v)) for i, (t, h) in enumerate(edges)) == 0
        checked += 1
    assert checked == 12702


def test_cycle_basis_triangle(triangle):
    eta = cycle_basis_matrix(triangle)
    assert len(eta) == 3 and len(eta[0]) == 1
    assert all(abs(eta[i][0]) == 1 for i in range(3))


def test_cycle_basis_sunset_rank(sunset):
    eta = cycle_basis_matrix(sunset)
    assert len(eta[0]) == 2
    assert rational_rank(eta) == 2


def test_cycle_basis_tree_is_empty():
    eta = cycle_basis_matrix(single_edge_graph())
    assert eta == [[]]


def test_canonical_key_isomorphism(sunset, triangle):
    relabeled = FeynmanGraph(
        ("x", "y"),
        (("a", "y", "x"), ("b", "x", "y"), ("c", "y", "x")),
        (("x", P1), ("y", tuple(-q for q in P1))),
    )
    assert canonical_key(relabeled) == canonical_key(sunset)
    assert canonical_key(sunset) != canonical_key(triangle)


def test_canonical_key_gamma2_bubbles_agree(gamma2):
    left = subgraph_view(gamma2, SubgraphSpec.from_edges(gamma2, ("e1", "e2")))
    right = subgraph_view(gamma2, SubgraphSpec.from_edges(gamma2, ("e3", "e4")))
    assert canonical_key(left) == canonical_key(right)
    assert canonical_key(left) == canonical_key(bubble_graph())


def test_momentum_conservation_enforced():
    with pytest.raises(MomentumError):
        FeynmanGraph(("a", "b"), (("e1", "a", "b"),), (("a", P1),))
    with pytest.raises(MomentumError):
        FeynmanGraph(
            ("a", "b"),
            (("e1", "a", "b"),),
            (("a", P1), ("b", (F(-1), F(0)))),
        )


def test_unknown_endpoint_rejected():
    with pytest.raises(ContextError):
        FeynmanGraph(("a",), (("e1", "a", "b"),))


# -- randomized structure checks -------------------------------------------------


@st.composite
def multigraphs(draw):
    n_vertices = draw(st.integers(1, 5))
    n_edges = draw(st.integers(1, 6))
    vertex = st.integers(0, n_vertices - 1)
    edges = []
    for i in range(n_edges):
        a = draw(vertex)
        b = draw(vertex)
        edges.append((f"e{i}", a, b))
    used = {v for _, a, b in edges for v in (a, b)}
    vertices = tuple(sorted(used)) or (0,)
    return FeynmanGraph(vertices, tuple(edges))


@settings(max_examples=80)
@given(multigraphs())
def test_random_tree_count_matches_laplacian(g):
    assume(len(connected_components(g)) == 1)
    assert len(spanning_trees(g)) == oracles.laplacian_tree_count(g.vertices, pairs(g))


@settings(max_examples=60)
@given(multigraphs())
def test_random_cut_sets_disconnect_into_two(g):
    assume(len(connected_components(g)) == 1)
    for cut in cut_sets(g):
        assert len(components_after_removal(g, cut)) == 2


@settings(max_examples=60)
@given(multigraphs())
def test_random_divergent_subgraph_loop_additivity(g):
    assume(len(connected_components(g)) == 1)
    assume(is_1pi(g))
    for spec in divergent_subgraphs(g, 4):
        assert loop_number(subgraph_view(g, spec)) + loop_number(
            quotient(g, spec)
        ) == loop_number(g)


@settings(max_examples=60)
@given(multigraphs())
def test_random_edge_connectivity_matches_brute_force(g):
    assume(len(connected_components(g)) == 1)
    assert edge_connectivity(g) == oracles.brute_edge_connectivity(g.vertices, pairs(g))


def test_exhaustive_tree_count_matches_laplacian():
    """Every connected multigraph with <= 6 edges and <= 5 vertices."""
    checked = 0
    for g in connected_multigraphs(5, 6):
        checked += 1
        assert len(spanning_trees(g)) == oracles.laplacian_tree_count(
            g.vertices, pairs(g)
        )
    assert checked > 10000


def test_exhaustive_is_1pi_and_edge_connectivity_match_brute_force():
    """Every connected multigraph with <= 6 edges and <= 5 vertices."""
    checked = 0
    for g in connected_multigraphs(5, 6):
        checked += 1
        assert edge_connectivity(g) == oracles.brute_edge_connectivity(
            g.vertices, pairs(g)
        )
        assert is_1pi(g) == oracles.is_two_edge_connected(g.vertices, pairs(g))
    assert checked == 12702


def test_edge_connectivity_matches_networkx_stoer_wagner():
    """Seeded random connected multigraphs with self-loops and parallel
    edges on up to 12 vertices, and L6, against networkx's Stoer-Wagner on
    the multiplicity-weighted simple graph without self-loops."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(20140)
    graphs = [ladder_graph(6), wheel_graph(7)]
    for _ in range(150):
        n = rng.randint(2, 12)
        edges = [(v, rng.randrange(v)) for v in range(1, n)]  # a spanning tree
        edges += [
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))
        ]
        rng.shuffle(edges)
        graphs.append(
            FeynmanGraph(
                tuple(range(n)), tuple((f"e{i}", a, b) for i, (a, b) in enumerate(edges))
            )
        )
    loops = 0
    for g in graphs:
        simple = nx.Graph()
        simple.add_nodes_from(g.vertices)
        for a, b in pairs(g):
            if a == b:
                loops += 1
                continue
            weight = simple.get_edge_data(a, b, {"weight": 0})["weight"]
            simple.add_edge(a, b, weight=weight + 1)
        cut, _ = nx.stoer_wagner(simple)
        assert edge_connectivity(g) == cut
    assert loops > 0
    one_vertex = FeynmanGraph((0,), (("e0", 0, 0), ("e1", 0, 0)))
    assert edge_connectivity(one_vertex) == math.inf
    assert is_1pi(one_vertex)


def with_legs(g, valences=None):
    first, last = g.vertices[0], g.vertices[-1]
    legs = ((first, (F(1),)), (last, (F(-1),)))
    return FeynmanGraph(g.vertices, g.internal_edges, legs, valences)


def test_divergent_subgraphs_match_subset_scan_exhaustively():
    """Every connected multigraph with <= 5 edges and <= 4 vertices, with and
    without legs, in dims 2/4/6 under both even_only values, plus a valence
    set: equal lists, order included."""
    checked = 0
    for g in connected_multigraphs(4, 5):
        checked += 1
        legged = with_legs(g)
        for graph in (g, legged):
            for dim in (2, 4, 6):
                for even_only in (False, True):
                    assert divergent_subgraphs(
                        graph, dim, even_only
                    ) == oracles.brute_divergent_subgraphs(graph, dim, even_only)
        restricted = with_legs(g, frozenset({3, 4}))
        for even_only in (False, True):
            assert divergent_subgraphs(
                restricted, 4, even_only
            ) == oracles.brute_divergent_subgraphs(restricted, 4, even_only)
    assert checked == 953


def test_divergent_subgraphs_of_w6_match_subset_scan():
    g = wheel_graph(6)
    found = divergent_subgraphs(g, 6)
    assert found == oracles.brute_divergent_subgraphs(g, 6)
    assert len(found) == 211


def test_divergent_subgraphs_scale_to_w7_and_l6():
    """14 and 16 edges (a subset scan is 2^14 and 2^16 tests); every spec
    found passes the brute-force per-spec predicates."""
    for g in (wheel_graph(7), ladder_graph(6)):
        total = 0
        for dim in (4, 6, 8):
            for spec in divergent_subgraphs(g, dim):
                assert oracles.spec_is_divergent(g, spec, dim)
                total += 1
        assert total > 0


def test_canonical_key_permutation_guard():
    # a long unlabeled cycle keeps every vertex in one color class; the
    # factorial search space trips the guard instead of hanging
    n = 12
    edges = tuple((f"e{i}", i, (i + 1) % n) for i in range(n))
    g = FeynmanGraph(tuple(range(n)), edges)
    with pytest.raises(SizeBoundError, match=str(CANONICAL_KEY_WORK_BOUND)):
        canonical_key(g)


def _relabeled(g, rng):
    """g with fresh vertex and edge ids, shuffled vertex and edge order and
    random edge orientations."""
    new_ids = list(range(len(g.vertices)))
    rng.shuffle(new_ids)
    vmap = dict(zip(g.vertices, new_ids))
    edge_ids = [f"f{i}" for i in range(len(g.internal_edges))]
    rng.shuffle(edge_ids)
    edges = []
    for eid, (_, tail, head) in zip(edge_ids, g.internal_edges):
        if rng.random() < 0.5:
            tail, head = head, tail
        edges.append((eid, vmap[tail], vmap[head]))
    rng.shuffle(edges)
    rng.shuffle(new_ids)
    legs = tuple((vmap[v], p) for v, p in g.external_edges)
    return FeynmanGraph(tuple(new_ids), tuple(edges), legs)


def test_canonical_key_past_twelve_edges_is_relabeling_invariant():
    """W7, W8 (14, 16 edges) and L5 (13 edges) key within the work bound,
    and their keys survive seeded vertex relabelings and edge-id shuffles."""
    rng = random.Random(1301)
    graphs = [wheel_graph(7), wheel_graph(8), ladder_graph(5)]
    keys = [canonical_key(g) for g in graphs]
    assert len(set(keys)) == 3
    for g, key in zip(graphs, keys):
        for _ in range(5):
            assert canonical_key(_relabeled(g, rng)) == key


def _two_legs(g, rng):
    """g with legs p and -p on two random vertices."""
    a, b = rng.sample(g.vertices, 2)
    return FeynmanGraph(
        g.vertices, g.internal_edges, ((a, P1), (b, tuple(-q for q in P1)))
    )


def _random_1pi(rng, n_vertices, n_edges):
    while True:
        edges = [(v, rng.randrange(v)) for v in range(1, n_vertices)]
        edges += [
            (rng.randrange(n_vertices), rng.randrange(n_vertices))
            for _ in range(n_edges - n_vertices + 1)
        ]
        g = FeynmanGraph(
            tuple(range(n_vertices)),
            tuple((f"e{i}", t, h) for i, (t, h) in enumerate(edges)),
        )
        if is_1pi(g):
            return _two_legs(g, rng)


def _swapped(g, rng):
    """g after one degree-preserving swap of two edge ends, often not
    isomorphic to g."""
    edges = list(g.internal_edges)
    i, j = rng.sample(range(len(edges)), 2)
    (ei, ti, hi), (ej, tj, hj) = edges[i], edges[j]
    edges[i], edges[j] = (ei, ti, hj), (ej, tj, hi)
    return FeynmanGraph(g.vertices, tuple(edges), g.external_edges)


def test_canonical_key_matches_networkx_isomorphism_past_twelve_edges():
    """Seeded random 1PI pairs with 13-16 edges and two legs (the same graph,
    one with two edge ends swapped, or one with its legs moved): equal keys
    exactly when networkx finds a leg-count-preserving isomorphism."""
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        m = nx.MultiGraph()
        ext = g.external_multiplicity()
        m.add_nodes_from((v, {"legs": ext[v]}) for v in g.vertices)
        m.add_edges_from(pairs(g))
        return m

    def same_legs(a, b):
        return a["legs"] == b["legs"]

    rng = random.Random(9912092)
    outcomes = []
    for _ in range(40):
        g = _random_1pi(rng, rng.randint(5, 7), rng.randint(13, 16))
        h = rng.choice([g, _swapped(g, rng), _two_legs(g, rng)])
        if not is_1pi(h):
            continue
        h = _relabeled(h, rng)
        same = nx.is_isomorphic(to_nx(g), to_nx(h), node_match=same_legs)
        assert (canonical_key(g) == canonical_key(h)) == same
        outcomes.append(same)
    assert len(outcomes) > 30 and any(outcomes) and not all(outcomes)
