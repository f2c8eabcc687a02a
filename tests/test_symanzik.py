import random
from fractions import Fraction as F

import pytest

import oracles
from conftest import (
    P1,
    P2,
    bubble_chain_graph,
    connected_multigraphs,
    ladder_graph,
    single_edge_graph,
    tadpole_graph,
    wheel_graph,
)
from rbren import (
    DisconnectedError,
    FeynmanGraph,
    MomentumError,
    PreconditionError,
    cut_sets,
    edge_variables,
    eta_form,
    graph_matrix,
    graph_matrix_det,
    matrix_tree_check,
    poly_det,
    psi,
    second_symanzik,
    spanning_trees,
    upsilon_embedding_tests,
    upsilon_matrix,
)
from rbren.poly import MultiPoly, parse_poly


def test_psi_triangle(triangle):
    assert psi(triangle) == parse_poly("t1+t2+t3", edge_variables(triangle))


def test_psi_sunset(sunset):
    assert psi(sunset) == parse_poly("t1*t2+t1*t3+t2*t3", edge_variables(sunset))


def test_psi_self_loop():
    g = tadpole_graph()
    assert psi(g) == parse_poly("t1", ("t1",))


def test_psi_is_homogeneous_with_unit_coefficients(gamma2, banana4, sunset):
    from rbren import loop_number, spanning_trees

    for g in (gamma2, banana4, sunset):
        p = psi(g)
        assert p.is_homogeneous(loop_number(g))
        assert set(p.terms.values()) == {F(1)}
        assert len(p.terms) == len(spanning_trees(g))


def test_graph_matrix_triangle(triangle):
    m = graph_matrix(triangle)
    assert len(m) == 1
    assert m[0][0] == parse_poly("t1+t2+t3", edge_variables(triangle))


def test_graph_matrix_sunset(sunset):
    m = graph_matrix(sunset)
    assert len(m) == 2
    assert graph_matrix_det(sunset) == psi(sunset)
    for k in range(2):
        for r in range(2):
            assert m[k][r] == m[r][k]


def test_graph_matrix_tree_is_empty():
    g = single_edge_graph()
    assert graph_matrix(g) == []
    assert graph_matrix_det(g) == parse_poly("1", ("t1",))
    assert psi(g) == parse_poly("1", ("t1",))


def test_matrix_tree_on_library(triangle, sunset, gamma2, gamma3, banana4):
    for g in (triangle, sunset, gamma2, gamma3, banana4, tadpole_graph()):
        assert matrix_tree_check(g)


def test_matrix_tree_independent_of_edge_order(sunset, gamma2):
    rng = random.Random(2)
    for g in (sunset, gamma2):
        edges = list(g.internal_edges)
        for _ in range(3):
            rng.shuffle(edges)
            shuffled = FeynmanGraph(g.vertices, tuple(edges), g.external_edges)
            assert matrix_tree_check(shuffled)


def test_second_symanzik_sunset(sunset):
    # legs (p, -p) with p = (1,0,0,0): single cut through all three edges
    assert second_symanzik(sunset) == parse_poly(
        "t1*t2*t3", edge_variables(sunset)
    )


def test_second_symanzik_scales_with_momentum_square():
    p = (F(1), F(2), F(0), F(0))  # p.p = 5
    g = FeynmanGraph(
        ("u", "v"),
        (("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v")),
        (("u", p), ("v", tuple(-q for q in p))),
    )
    assert second_symanzik(g) == parse_poly("5*t1*t2*t3", edge_variables(g))


def test_second_symanzik_zero_momenta(triangle):
    zeros = tuple((v, (F(0),) * 4) for v, _ in triangle.external_edges)
    g = FeynmanGraph(triangle.vertices, triangle.internal_edges, zeros)
    assert second_symanzik(g).is_zero()


def test_second_symanzik_single_edge():
    g = single_edge_graph()
    assert second_symanzik(g) == parse_poly("t1", ("t1",))


def test_second_symanzik_is_homogeneous(triangle, gamma2):
    from rbren import loop_number

    for g in (triangle, gamma2):
        p = second_symanzik(g)
        assert p.is_homogeneous(loop_number(g) + 1)


def assert_forest_sums_match_brute_force(g, legged):
    """Trees and cut sets as equal lists, order included, and both Symanzik
    polynomials, the second one on the ``legged`` copies of g, against the
    subset scans of ``oracles``."""
    assert spanning_trees(g) == oracles.brute_spanning_trees(g)
    assert cut_sets(g) == oracles.brute_cut_sets(g)
    assert psi(g) == oracles.brute_psi(g)
    for h in legged:
        assert second_symanzik(h) == oracles.brute_second_symanzik(h)


def leg_patterns(g):
    """g with legs p/-p on two vertex pairs, and with three legs p, q, -p-q
    whose cut squares 1, 4 and 9 tell the sides apart."""
    first, middle, last = g.vertices[0], g.vertices[len(g.vertices) // 2], g.vertices[-1]
    p, q, minus_p, minus_pq = (F(1),), (F(2),), (F(-1),), (F(-3),)
    legsets = [
        ((first, p), (last, minus_p)),
        ((middle, p), (first, minus_p)),
        ((first, p), (g.vertices[1 % len(g.vertices)], q), (last, minus_pq)),
    ]
    return [FeynmanGraph(g.vertices, g.internal_edges, legs) for legs in legsets]


def test_forest_sums_match_brute_force_exhaustively():
    """Every connected multigraph with <= 5 vertices and <= 6 edges, the
    second polynomial with legs p/-p on the first and last vertex and with
    three legs."""
    checked = 0
    for g in connected_multigraphs(5, 6):
        checked += 1
        assert_forest_sums_match_brute_force(g, leg_patterns(g)[::2])
    assert checked == 12702


def test_forest_sums_of_ladders_and_wheels_match_brute_force():
    for g in [ladder_graph(n) for n in (3, 4, 5, 6)] + [wheel_graph(n) for n in range(3, 8)]:
        assert_forest_sums_match_brute_force(g, [g] + leg_patterns(g))


def random_connected_multigraph(rng, n, max_edges):
    """A seeded connected multigraph on 0..n-1: a random spanning tree plus
    up to ``max_edges`` - n + 1 random edges, self-loops and parallel edges
    among them, in shuffled order."""
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, max_edges - n + 1))]
    rng.shuffle(edges)
    return FeynmanGraph(tuple(range(n)), tuple((f"e{i}", a, b) for i, (a, b) in enumerate(edges)))


def test_spanning_trees_match_networkx_iterator():
    """Bubble chains B3-B6 and seeded random connected multigraphs on 7-10
    vertices with up to 20 edges, beyond the subset scans' range, against
    networkx's SpanningTreeIterator on the keyed MultiGraph."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.tree.mst import SpanningTreeIterator

    rng = random.Random(27)
    graphs = [bubble_chain_graph(n) for n in range(3, 7)]
    graphs += [random_connected_multigraph(rng, rng.randint(7, 10), 20) for _ in range(8)]
    loops = parallel = 0
    for g in graphs:
        multi = nx.MultiGraph()
        multi.add_nodes_from(g.vertices)
        multi.add_edges_from((tail, head, eid) for eid, tail, head in g.internal_edges)
        expected = {frozenset(eid for *_, eid in t.edges(keys=True)) for t in SpanningTreeIterator(multi)}
        trees = spanning_trees(g)
        assert len(trees) == len(expected) and set(trees) == expected
        pairs = [frozenset((tail, head)) for _, tail, head in g.internal_edges]
        loops += sum(len(p) == 1 for p in pairs)
        parallel += len(pairs) - len(set(pairs))
    assert loops and parallel


def renamed(poly, perm, variables):
    """poly over the variables ``variables``, the i-th taking the exponents of
    the perm[i]-th variable of poly."""
    return MultiPoly(variables, {tuple(e[j] for j in perm): c for e, c in poly.terms.items()})


def test_forest_sums_are_invariant_under_edge_permutation():
    """With the edge list (and the vertex tuple) shuffled, psi and the second
    polynomial are the original ones with the edge variables renamed, on
    ladders, wheels and seeded random multigraphs with legs."""
    rng = random.Random(2718)
    graphs = [ladder_graph(n) for n in (3, 4, 5)] + [wheel_graph(n) for n in (3, 4, 5, 6)]
    graphs += [random_connected_multigraph(rng, rng.randint(3, 7), 12) for _ in range(12)]
    for g in graphs:
        for h in [g] + leg_patterns(g):
            for _ in range(3):
                perm = list(range(len(h.internal_edges)))
                rng.shuffle(perm)
                vertices = list(h.vertices)
                rng.shuffle(vertices)
                shuffled = FeynmanGraph(
                    tuple(vertices),
                    tuple(h.internal_edges[j] for j in perm),
                    h.external_edges,
                )
                variables = edge_variables(shuffled)
                assert psi(shuffled) == renamed(psi(h), perm, variables)
                assert second_symanzik(shuffled) == renamed(second_symanzik(h), perm, variables)


def test_forest_sums_need_a_connected_graph():
    legs = (("a", P1), ("d", tuple(-q for q in P1)))
    for external in ((), legs):
        g = FeynmanGraph(
            ("a", "b", "c", "d"), (("e1", "a", "b"), ("e2", "c", "d"), ("e3", "c", "c")), external
        )
        for fn in (spanning_trees, cut_sets, psi, second_symanzik):
            with pytest.raises(DisconnectedError):
                fn(g)


def test_momentum_conservation_checked_at_construction():
    with pytest.raises(MomentumError):
        FeynmanGraph(
            ("u", "v"),
            (("e1", "u", "v"),),
            (("u", P1), ("v", P2)),
        )


def test_upsilon_matrix_triangle(triangle):
    m = upsilon_matrix(triangle)
    assert m == [[1], [1], [1]]


def test_upsilon_matrix_sunset(sunset):
    from rbren._linalg import rational_rank

    m = upsilon_matrix(sunset)
    assert len(m) == 3 and len(m[0]) == 4
    assert rational_rank(m) == 3


def test_upsilon_report_sunset(sunset):
    report = upsilon_embedding_tests(sunset)
    assert report["globally_injective"]
    assert report["upsilon_rank"] == 3
    assert report["three_edge_connected"]
    assert report["injective_loops_cover_all_edges"]


def test_upsilon_report_bubble_rank_deficient(bubble):
    # both edges lie in the single loop: the two flattened rows coincide
    report = upsilon_embedding_tests(bubble)
    assert report["upsilon_rank"] == 1
    assert not report["globally_injective"]


def test_upsilon_report_tree_degenerate():
    report = upsilon_embedding_tests(single_edge_graph())
    assert report["degenerate"]
    assert report["loops"] == 0
    assert not report["injective_loops_cover_all_edges"]


def test_upsilon_rank_invariant_under_edge_order(gamma2):
    from rbren._linalg import rational_rank

    rng = random.Random(4)
    base = rational_rank(upsilon_matrix(gamma2))
    edges = list(gamma2.internal_edges)
    for _ in range(3):
        rng.shuffle(edges)
        shuffled = FeynmanGraph(gamma2.vertices, tuple(edges), gamma2.external_edges)
        assert rational_rank(upsilon_matrix(shuffled)) == base


def test_eta_form_exponents(sunset, bubble):
    spec = eta_form(sunset, 4)
    assert (spec.numerator_exponent, spec.denominator_exponent) == (1, 3)
    assert spec.form_degree == 3 and spec.ambient_dim == 4
    spec = eta_form(bubble, 4)
    assert (spec.numerator_exponent, spec.denominator_exponent) == (0, 2)


def test_eta_form_log_divergent_case(bubble):
    # n = D*l/2 gives numerator exponent zero
    spec = eta_form(bubble, 4)
    assert spec.numerator_exponent == 0


def test_eta_form_parity_error(bubble):
    with pytest.raises(PreconditionError):
        eta_form(bubble, 3)


def test_poly_det_matches_cofactor_expansion():
    variables = ("a", "b", "c", "d")
    m = [
        [parse_poly("a", variables), parse_poly("b", variables)],
        [parse_poly("c", variables), parse_poly("d", variables)],
    ]
    assert poly_det(m) == parse_poly("a*d-b*c", variables)


def test_symanzik_data_aggregate(sunset, gamma2):
    from rbren import symanzik_data

    for g in (sunset, gamma2):
        data = symanzik_data(g)
        assert data.psi == psi(g)
        assert data.second == second_symanzik(g)
        assert len(data.eta) == len(g.internal_edges)


def complete_graph_k4():
    edges = []
    k = 1
    for a in range(4):
        for b in range(a + 1, 4):
            edges.append((f"e{k}", a, b))
            k += 1
    return FeynmanGraph(tuple(range(4)), tuple(edges))


def wheel_graph_w4():
    """Hub 0 with rim 1-2-3-4: eight edges, four loops."""
    edges = [(f"s{i}", 0, i) for i in range(1, 5)]
    edges += [("r1", 1, 2), ("r2", 2, 3), ("r3", 3, 4), ("r4", 4, 1)]
    return FeynmanGraph(tuple(range(5)), tuple(edges))


def test_upsilon_report_on_three_edge_connected_graphs():
    import oracles

    # entries of the flattened map are in {-1, 0, 1}; Hadamard bounds every
    # maximal minor well below 1009, so rank mod 1009 equals rank over Q
    for g in (complete_graph_k4(), wheel_graph_w4()):
        report = upsilon_embedding_tests(g)
        assert report["three_edge_connected"]
        matrix = upsilon_matrix(g)
        assert report["upsilon_rank"] == oracles.rank_mod(matrix, 1009)
        assert report["globally_injective"] == (
            report["upsilon_rank"] == len(g.internal_edges)
        )
        assert matrix_tree_check(g)


def test_k4_map_is_injective():
    report = upsilon_embedding_tests(complete_graph_k4())
    assert report["globally_injective"]
    assert report["injective_loops_cover_all_edges"]


def test_one_cycle_basis_per_symanzik_call(monkeypatch, tmp_path):
    """The CLI's upsilon and matrix commands and symanzik_data each build the
    cycle basis once and reuse it for the flattened map and the determinant."""
    import json

    import rbren.symanzik as symanzik
    from rbren import serde, symanzik_data
    from rbren.cli import run

    calls = []
    cycle_basis = symanzik.cycle_basis_matrix

    def counted(g):
        calls.append(g)
        return cycle_basis(g)

    monkeypatch.setattr(symanzik, "cycle_basis_matrix", counted)
    g = wheel_graph(5)
    path = tmp_path / "w5.json"
    path.write_text(json.dumps(serde.dump_graph(g)))
    for command in ("upsilon", "matrix"):
        calls.clear()
        assert run(["symanzik", command, str(path)]).status == 0
        assert len(calls) == 1, command
    calls.clear()
    symanzik_data(g)
    assert len(calls) == 1
