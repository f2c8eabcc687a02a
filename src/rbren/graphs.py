"""Feynman multigraphs and the combinatorics behind coproducts and graph
polynomials.

Graphs are immutable: a vertex id set, oriented internal edges (id, tail,
head) that may be parallel or self-loops, and external legs carrying exact
rational momentum vectors.  All enumeration below is deterministic in the
declared edge order.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    ContextError,
    DisconnectedError,
    MomentumError,
    QuotientError,
    SizeBoundError,
)

VertexId = str | int
EdgeId = str | int

# relabelings x internal edges that canonical_key may search (2M relabelings
# of a 12-edge graph)
CANONICAL_KEY_WORK_BOUND = 24_000_000


def _sort_ids(ids):
    return tuple(sorted(ids, key=lambda x: (isinstance(x, str), str(x))))


def _id_order(ids) -> tuple[tuple[bool, EdgeId], ...]:
    """Sort key of an id set: its sorted ids, each paired with its type, so
    that an int id and a str id are never compared with each other."""
    return tuple((isinstance(x, str), x) for x in _sort_ids(ids))


@dataclass(frozen=True)
class FeynmanGraph:
    vertices: tuple[VertexId, ...]
    internal_edges: tuple[tuple[EdgeId, VertexId, VertexId], ...]
    external_edges: tuple[tuple[VertexId, tuple[Fraction, ...]], ...] = ()
    valences: frozenset[int] | None = None

    def __post_init__(self):
        vertices = tuple(self.vertices)
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise ContextError("repeated vertex id")
        edges = []
        seen = set()
        for eid, tail, head in self.internal_edges:
            if eid in seen:
                raise ContextError(f"repeated edge id {eid!r}")
            seen.add(eid)
            if tail not in vset or head not in vset:
                raise ContextError(f"edge {eid!r} has unknown endpoint")
            edges.append((eid, tail, head))
        externals = []
        dim = None
        total = None
        for vertex, momentum in self.external_edges:
            if vertex not in vset:
                raise ContextError(f"external leg at unknown vertex {vertex!r}")
            momentum = tuple(Fraction(q) for q in momentum)
            if dim is None:
                dim = len(momentum)
                total = [Fraction(0)] * dim
            elif len(momentum) != dim:
                raise MomentumError("external momenta have mixed dimensions")
            for i, q in enumerate(momentum):
                total[i] += q
            externals.append((vertex, momentum))
        if total is not None and any(q != 0 for q in total):
            raise MomentumError(f"external momenta do not sum to zero: {total}")
        valences = None if self.valences is None else frozenset(self.valences)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "internal_edges", tuple(edges))
        object.__setattr__(self, "external_edges", tuple(externals))
        object.__setattr__(self, "valences", valences)

    # -- basic queries -------------------------------------------------------

    def edge_ids(self) -> tuple[EdgeId, ...]:
        return tuple(e[0] for e in self.internal_edges)

    def edge(self, eid: EdgeId) -> tuple[EdgeId, VertexId, VertexId]:
        for e in self.internal_edges:
            if e[0] == eid:
                return e
        raise ContextError(f"no internal edge {eid!r}")

    def external_multiplicity(self) -> dict[VertexId, int]:
        counts = {v: 0 for v in self.vertices}
        for v, _ in self.external_edges:
            counts[v] += 1
        return counts

    def momentum_dim(self) -> int | None:
        return len(self.external_edges[0][1]) if self.external_edges else None


# -- connectivity -----------------------------------------------------------


def _find(parent, v):
    """Union-find root of v, halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _union_find(n: int, ends) -> tuple[list[int], list[int]]:
    """Join the vertices 0..n-1 by the edges ``ends`` (pairs of vertex
    indices), in order: the root of each vertex, and the indices of the
    edges that joined two trees, which form a spanning forest."""
    parent = list(range(n))
    joined = []
    for i, (a, b) in enumerate(ends):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
            joined.append(i)
    return [_find(parent, v) for v in range(n)], joined


def connected_components(g: FeynmanGraph) -> list[frozenset[VertexId]]:
    root, _ = _union_find(len(g.vertices), _edge_ends(g))
    groups: dict[int, set[VertexId]] = {}
    for v, r in zip(g.vertices, root):
        groups.setdefault(r, set()).add(v)
    return [frozenset(s) for s in groups.values()]


def is_connected(g: FeynmanGraph) -> bool:
    return len(connected_components(g)) <= 1


def loop_number(g: FeynmanGraph) -> int:
    return len(g.internal_edges) - len(g.vertices) + len(connected_components(g))


def _edge_ends(g: FeynmanGraph) -> list[tuple[int, int]]:
    """(tail, head) of every internal edge as indices into g.vertices."""
    index = {v: i for i, v in enumerate(g.vertices)}
    return [(index[tail], index[head]) for _, tail, head in g.internal_edges]


def _is_2_edge_connected(n: int, ends: list[tuple[int, int]]) -> bool:
    """Connected and bridgeless, for the multigraph on vertices 0..n-1 with
    edge i joining ends[i].

    One iterative Tarjan lowlink search, O(n + edges).  A vertex steps back
    only over the edge id it came by, so a parallel edge is a back edge and
    a self-loop never lowers anything.
    """
    if n <= 1:
        return True
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (a, b) in enumerate(ends):
        adjacency[a].append((b, i))
        adjacency[b].append((a, i))
    disc = [-1] * n
    low = [0] * n
    disc[0] = 0
    visited = 1
    stack = [(0, -1, iter(adjacency[0]))]
    while stack:
        v, via, todo = stack[-1]
        for w, i in todo:
            if i == via:
                continue
            if disc[w] < 0:
                disc[w] = low[w] = visited
                visited += 1
                stack.append((w, i, iter(adjacency[w])))
                break
            low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                if low[v] > disc[parent]:
                    return False  # the edge ``via`` is a bridge
                low[parent] = min(low[parent], low[v])
    return visited == n


def edge_connectivity(g: FeynmanGraph) -> int | float:
    """Minimum number of internal edges whose removal disconnects g.

    Stoer-Wagner minimum cut on the vertices weighted by edge multiplicity,
    self-loops dropped (they never cross a cut): n - 1 maximum-adjacency
    phases, O(n^3) for n vertices.  A graph on fewer than two vertices
    cannot be disconnected, giving math.inf.
    """
    if not is_connected(g):
        raise DisconnectedError("edge connectivity needs a connected graph")
    n = len(g.vertices)
    if n < 2:
        return math.inf
    weight = [[0] * n for _ in range(n)]
    for a, b in _edge_ends(g):
        if a != b:
            weight[a][b] += 1
            weight[b][a] += 1
    alive = list(range(n))
    best = math.inf
    while len(alive) > 1:
        # add vertices in maximum-adjacency order; the last one's attachment
        # is the cut of the phase, then it merges into the one before it
        attach = {v: weight[alive[0]][v] for v in alive[1:]}
        last = alive[0]
        while attach:
            before = last
            last = max(attach, key=attach.__getitem__)
            cut = attach.pop(last)
            for v in attach:
                attach[v] += weight[last][v]
        best = min(best, cut)
        alive.remove(last)
        for v in alive:
            weight[before][v] += weight[last][v]
            weight[v][before] = weight[before][v]
        weight[before][before] = 0
    return best


def is_1pi(g: FeynmanGraph) -> bool:
    """One-particle-irreducible: connected and bridgeless (2-edge-connected),
    by one linear-time lowlink search."""
    return _is_2_edge_connected(len(g.vertices), _edge_ends(g))


# -- spanning forests, trees and cut sets ---------------------------------------


def _spanning_forests(g: FeynmanGraph, k: int) -> list[tuple[int, list[int]]]:
    """Every spanning forest of g with exactly k trees, over its non-loop
    edges, as (edge bitmask over g.internal_edges, roots); roots[v] is the
    representative vertex index of the tree holding vertex index v.

    Include/exclude backtracking over the edges in declared order, the chosen
    edges' trees kept as a root list.  An edge is included only if it joins
    two trees while more than k remain; it is excluded only if the chosen
    edges plus the later ones still leave at most k components.  Either rule
    keeps a completion open, so every leaf is a forest and the cost is
    output-polynomial (Read & Tarjan, Networks 5, 1975): O(|E| (|V| + |E|))
    per forest, where a subset scan tests C(|E|, |V| - k) edge sets.
    """
    ends = [(i, a, b) for i, (a, b) in enumerate(_edge_ends(g)) if a != b]
    n = len(g.vertices)
    if n == 0:
        raise ValueError("a graph without vertices has no spanning forest")
    if not _at_most_components(list(range(n)), n, ends, 1):
        raise DisconnectedError("spanning trees need a connected graph")
    forests: list[tuple[int, list[int]]] = []
    if n < k:
        return forests
    later = [ends[pos + 1 :] for pos in range(len(ends))]

    def grow(pos: int, mask: int, roots: list[int], trees: int) -> None:
        # once k trees remain, every later edge is excluded
        while trees > k:
            i, a, b = ends[pos]
            ra, rb = roots[a], roots[b]
            pos += 1
            if ra == rb:
                continue
            joined = [ra if r == rb else r for r in roots]
            if _at_most_components(roots, trees, later[pos - 1], k):
                grow(pos, mask | 1 << i, joined, trees - 1)
            else:
                mask, roots, trees = mask | 1 << i, joined, trees - 1
        forests.append((mask, roots))

    grow(0, 0, list(range(n)), n)
    return forests


def _at_most_components(roots, trees, ends, k) -> bool:
    """Whether the trees given by ``roots`` joined by the (i, a, b) edges
    ``ends`` form at most k components."""
    if trees <= k:
        return True
    parent = list(roots)
    for _, a, b in ends:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
            trees -= 1
            if trees == k:
                return True
    return False


def _sorted_edge_sets(g: FeynmanGraph, masks: list[int]) -> list[frozenset[EdgeId]]:
    """The edge sets of the bitmasks, ordered by ``_id_order``: each set is
    keyed on the ranks of its ids, listed in ``_sort_ids`` order, where a
    rank is an id's place among the ``_id_order`` pairs."""
    ids = g.edge_ids()
    position = {eid: i for i, eid in enumerate(ids)}
    order = [position[eid] for eid in _sort_ids(ids)]
    rank = [0] * len(ids)
    for r, (_, eid) in enumerate(sorted(_id_order(ids))):
        rank[position[eid]] = r

    def key(mask):
        return tuple(rank[i] for i in order if mask >> i & 1)

    return [
        frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)
        for mask in sorted(masks, key=key)
    ]


def spanning_trees(g: FeynmanGraph) -> list[frozenset[EdgeId]]:
    return _sorted_edge_sets(g, [mask for mask, _ in _spanning_forests(g, 1)])


def cut_sets(g: FeynmanGraph) -> list[frozenset[EdgeId]]:
    """Edge sets whose removal leaves a spanning forest of two trees: the
    complements E \\ F of the spanning 2-forests F, which are the sets
    (E \\ T) + {e} over spanning trees T and e in T.  All have
    |E| - |V| + 2 edges, so they are ordered by edge ids alone."""
    full = (1 << len(g.internal_edges)) - 1
    return _sorted_edge_sets(g, [full & ~mask for mask, _ in _spanning_forests(g, 2)])


# -- subgraphs and quotients --------------------------------------------------


@dataclass(frozen=True)
class SubgraphSpec:
    edges: frozenset[EdgeId]
    vertices: frozenset[VertexId]

    @staticmethod
    def from_edges(g: FeynmanGraph, edges: Iterable[EdgeId]) -> "SubgraphSpec":
        edges = frozenset(edges)
        known = set(g.edge_ids())
        for e in edges:
            if e not in known:
                raise ContextError(f"unknown edge id {e!r}")
        verts = set()
        for eid, tail, head in g.internal_edges:
            if eid in edges:
                verts.add(tail)
                verts.add(head)
        return SubgraphSpec(edges, frozenset(verts))


def subgraph_view(g: FeynmanGraph, spec: SubgraphSpec) -> FeynmanGraph:
    """The subgraph as a standalone graph.

    External legs are the original legs at its vertices plus one leg per cut
    internal edge endpoint; all leg momenta are zeroed (only multiplicities
    matter downstream, for isomorphism keying).
    """
    verts = _sort_ids(spec.vertices)
    edges = tuple(e for e in g.internal_edges if e[0] in spec.edges)
    legs = []
    vset = set(spec.vertices)
    for v, _ in g.external_edges:
        if v in vset:
            legs.append((v, ()))
    for eid, tail, head in g.internal_edges:
        if eid in spec.edges:
            continue
        if tail in vset:
            legs.append((tail, ()))
        if head in vset:
            legs.append((head, ()))
    return FeynmanGraph(verts, edges, tuple(legs), g.valences)


def subgraph_components(g: FeynmanGraph, spec: SubgraphSpec) -> list[SubgraphSpec]:
    """The connected components of the subgraph, ordered by vertex ids; a
    vertex of spec that none of its edges touches is a component alone."""
    verts = tuple(spec.vertices)
    index = {v: i for i, v in enumerate(verts)}
    members = [e for e in g.internal_edges if e[0] in spec.edges]
    for eid, tail, head in members:
        if tail not in index or head not in index:
            raise ContextError(f"edge {eid!r} has unknown endpoint")
    root, _ = _union_find(len(verts), [(index[t], index[h]) for _, t, h in members])
    # (edge ids, vertex ids) of each component, keyed by its root
    comps: dict[int, tuple[set, set]] = {r: (set(), set()) for r in root}
    for v, r in zip(verts, root):
        comps[r][1].add(v)
    for eid, tail, _ in members:
        comps[root[index[tail]]][0].add(eid)
    out = [SubgraphSpec(frozenset(e), frozenset(v)) for e, v in comps.values()]
    return sorted(out, key=lambda s: _id_order(s.vertices))


def quotient(g: FeynmanGraph, spec: SubgraphSpec) -> FeynmanGraph:
    """Contract each connected component of the subgraph to a vertex."""
    if spec.edges >= set(g.edge_ids()):
        raise QuotientError("cannot contract the whole graph")
    mapping: dict[VertexId, VertexId] = {v: v for v in g.vertices}
    for comp in subgraph_components(g, spec):
        rep = _sort_ids(comp.vertices)[0]
        for v in comp.vertices:
            mapping[v] = rep
    new_vertices = _sort_ids(set(mapping.values()))
    new_edges = tuple(
        (eid, mapping[tail], mapping[head])
        for eid, tail, head in g.internal_edges
        if eid not in spec.edges
    )
    new_legs = tuple((mapping[v], p) for v, p in g.external_edges)
    return FeynmanGraph(new_vertices, new_edges, new_legs, g.valences)


# -- divergence power counting -------------------------------------------------


def superficial_degree(g: FeynmanGraph, dim: int) -> int:
    """dim * b1 - 2 * (number of internal edges); >= 0 marks divergence."""
    return dim * loop_number(g) - 2 * len(g.internal_edges)


def divergent_subgraphs(
    g: FeynmanGraph, dim: int, even_only: bool = False
) -> list[SubgraphSpec]:
    """Proper non-empty edge subsets whose components are all divergent and
    1PI (and, under ``even_only``, each have an even number of edges) and
    whose contraction is again 1PI (respecting the valence set when the graph
    declares one), by size and then by edge ids.

    An edge set whose components are all 1PI is exactly a union of circuits,
    so only those sets are visited: the union closure of the graph's circuits
    (self-loops, parallel pairs and simple cycles) as edge bitmasks, whose
    components are bridgeless by construction.  Each candidate costs
    near-linear integer work: union-find for its components, the superficial
    degree dim * (E_c - V_c + 1) - 2 * E_c >= 0 of each component from its
    edge and vertex counts, then one lowlink search and a valence count on
    the contracted multigraph.  The total is O(U * (C + |E|)) for U unions
    of C circuits, where a subset scan costs 2^|E| tests.
    """
    ids = g.edge_ids()
    ends = _edge_ends(g)
    n = len(g.vertices)
    legs = list(g.external_multiplicity().values())

    def spec_of(members: tuple[int, ...]) -> SubgraphSpec:
        verts = {g.vertices[v] for i in members for v in ends[i]}
        return SubgraphSpec(frozenset(ids[i] for i in members), frozenset(verts))

    found = []
    for mask in _circuit_unions(n, ends):
        members = tuple(i for i in range(len(ids)) if mask >> i & 1)
        if len(members) == len(ids):
            continue
        root, _ = _union_find(n, [ends[i] for i in members])
        # each component's edges and vertices, keyed by its root
        edges = Counter(root[ends[i][0]] for i in members)
        verts = Counter(root)
        if any(
            dim * (e - verts[r] + 1) < 2 * e or (even_only and e % 2)
            for r, e in edges.items()
        ):
            continue
        # the contraction: one vertex per root
        label = {r: k for k, r in enumerate(dict.fromkeys(root))}
        rest = [
            (label[root[a]], label[root[b]])
            for i, (a, b) in enumerate(ends)
            if not mask >> i & 1
        ]
        if not _is_2_edge_connected(len(label), rest):
            continue
        if g.valences is not None:
            valence = [0] * len(label)
            for v in range(n):
                valence[label[root[v]]] += legs[v]
            for a, b in rest:
                valence[a] += 1
                valence[b] += 1
            if not all(val in g.valences for val in valence):
                continue
        found.append(members)
    specs = [spec_of(members) for members in found]
    return sorted(specs, key=lambda s: (len(s.edges), _id_order(s.edges)))


def _circuit_unions(n: int, ends: list[tuple[int, int]]) -> set[int]:
    """Every non-empty union of circuits of the multigraph on 0..n-1, as edge
    bitmasks; these are its bridgeless edge sets."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    circuits = set()
    for i, (a, b) in enumerate(ends):
        if a == b:
            circuits.add(1 << i)
        else:
            adjacency[a].append((b, i))
            adjacency[b].append((a, i))
    # each circuit through two or more vertices is a path leaving its smallest
    # vertex s, through larger vertices only, and closing at s
    for s in range(n):
        stack = [(s, 1 << s, 0)]
        while stack:
            v, seen, used = stack.pop()
            for w, i in adjacency[v]:
                if used >> i & 1:
                    continue
                if w == s:
                    if used:
                        circuits.add(used | 1 << i)
                elif w > s and not seen >> w & 1:
                    stack.append((w, seen | 1 << w, used | 1 << i))
    unions: set[int] = set()
    for c in sorted(circuits):
        unions |= {u | c for u in unions}
        unions.add(c)
    return unions


# -- cycle basis ---------------------------------------------------------------


def cycle_basis_matrix(g: FeynmanGraph) -> list[list[int]]:
    """Signed edge/loop incidence matrix from the first spanning tree.

    Row i corresponds to the i-th internal edge, column k to the fundamental
    cycle of the k-th non-tree edge (in declared edge order).  Entries are
    +1, -1, 0 according to how the edge is traversed in the loop.
    """
    _, joined = _union_find(len(g.vertices), _edge_ends(g))
    if len(joined) < len(g.vertices) - 1:
        raise DisconnectedError("cycle basis needs a connected graph")
    in_tree = set(joined)
    tree = [g.internal_edges[i] for i in joined]
    chords = [e for i, e in enumerate(g.internal_edges) if i not in in_tree]

    adjacency: dict[VertexId, list[tuple[VertexId, EdgeId, int]]] = {
        v: [] for v in g.vertices
    }
    for eid, tail, head in tree:
        adjacency[tail].append((head, eid, +1))
        adjacency[head].append((tail, eid, -1))

    def tree_path(a: VertexId, b: VertexId) -> list[tuple[EdgeId, int]]:
        """Edges from a to b along the tree with traversal directions."""
        prev: dict[VertexId, tuple[VertexId, EdgeId, int]] = {a: (a, None, 0)}
        stack = [a]
        while stack:
            v = stack.pop()
            if v == b:
                break
            for w, eid, sign in adjacency[v]:
                if w not in prev:
                    prev[w] = (v, eid, sign)
                    stack.append(w)
        path = []
        v = b
        while v != a:
            u, eid, sign = prev[v]
            path.append((eid, sign))
            v = u
        path.reverse()
        return path

    index = {eid: i for i, eid in enumerate(g.edge_ids())}
    n = len(g.internal_edges)
    eta = [[0] * len(chords) for _ in range(n)]
    for k, (eid, tail, head) in enumerate(chords):
        eta[index[eid]][k] = 1
        for tid, sign in tree_path(head, tail):
            eta[index[tid]][k] = sign
    return eta


# -- canonical labeling ---------------------------------------------------------


def canonical_key(g: FeynmanGraph) -> bytes:
    """Isomorphism-invariant key by exhaustive search over color-preserving
    vertex relabelings (colors are external-leg multiplicities).

    Orientation of internal edges and momentum values are ignored.  Raises
    SizeBoundError when relabelings x internal edges exceed
    CANONICAL_KEY_WORK_BOUND; name such generators explicitly instead of
    relying on isomorphism collapsing.
    """
    ext = g.external_multiplicity()
    degree = {v: 0 for v in g.vertices}
    for _, tail, head in g.internal_edges:
        degree[tail] += 1
        degree[head] += 1
    # refine permutation classes by invariants; only ext counts enter the key
    invariant = {v: (ext[v], degree[v]) for v in g.vertices}
    order = sorted(g.vertices, key=invariant.__getitem__)
    classes = [list(c) for _, c in itertools.groupby(order, invariant.__getitem__)]
    work = max(len(g.internal_edges), 1)
    for cls in classes:
        work *= math.factorial(len(cls))
        if work > CANONICAL_KEY_WORK_BOUND:
            raise SizeBoundError(
                "relabeling search exceeds the work bound"
                f" {CANONICAL_KEY_WORK_BOUND} (relabelings x internal edges);"
                " name generators explicitly"
            )
    pairs = [(tail, head) for _, tail, head in g.internal_edges]
    best = None
    for assignment in itertools.product(*[itertools.permutations(c) for c in classes]):
        label: dict[VertexId, int] = {}
        i = 0
        for perm in assignment:
            for v in perm:
                label[v] = i
                i += 1
        edges = sorted(
            (min(label[t], label[h]), max(label[t], label[h])) for t, h in pairs
        )
        if best is None or edges < best:
            best = edges
    colors = tuple(ext[v] for cls in classes for v in cls)
    canon = (len(g.vertices), colors, tuple(best or []))
    return repr(canon).encode()
