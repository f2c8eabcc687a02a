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
from dataclasses import dataclass, field
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


def _id_key(x) -> tuple[bool, EdgeId]:
    """The one order on ids: ints by value, then strs by text; an int id and
    a str id are never compared with each other."""
    return (isinstance(x, str), x)


def _sort_ids(ids):
    return tuple(sorted(ids, key=_id_key))


def _id_order(ids) -> tuple[tuple[bool, EdgeId], ...]:
    """Sort key of an id set: the keys of its ids, in order."""
    return tuple(sorted(map(_id_key, ids)))


@dataclass(frozen=True)
class FeynmanGraph:
    vertices: tuple[VertexId, ...]
    internal_edges: tuple[tuple[EdgeId, VertexId, VertexId], ...]
    external_edges: tuple[tuple[VertexId, tuple[Fraction, ...]], ...] = ()
    valences: frozenset[int] | None = None
    # the graph on vertex indices, positions in ``vertices``: the (tail, head)
    # of each internal edge, and the number of legs at each vertex
    ends: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    legs: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vertices = tuple(self.vertices)
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ContextError("repeated vertex id")
        edges = []
        ends = []
        seen = set()
        for eid, tail, head in self.internal_edges:
            if eid in seen:
                raise ContextError(f"repeated edge id {eid!r}")
            seen.add(eid)
            if tail not in index or head not in index:
                raise ContextError(f"edge {eid!r} has unknown endpoint")
            edges.append((eid, tail, head))
            ends.append((index[tail], index[head]))
        externals = []
        legs = [0] * len(vertices)
        dim = None
        total = None
        for vertex, momentum in self.external_edges:
            if vertex not in index:
                raise ContextError(f"external leg at unknown vertex {vertex!r}")
            legs[index[vertex]] += 1
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
        object.__setattr__(self, "ends", tuple(ends))
        object.__setattr__(self, "legs", tuple(legs))

    # -- basic queries -------------------------------------------------------

    def edge_ids(self) -> tuple[EdgeId, ...]:
        return tuple(e[0] for e in self.internal_edges)

    def external_multiplicity(self) -> dict[VertexId, int]:
        return dict(zip(self.vertices, self.legs))

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
    root, _ = _union_find(len(g.vertices), g.ends)
    groups: dict[int, set[VertexId]] = {}
    for v, r in zip(g.vertices, root):
        groups.setdefault(r, set()).add(v)
    return [frozenset(s) for s in groups.values()]


def is_connected(g: FeynmanGraph) -> bool:
    return len(connected_components(g)) <= 1


def loop_number(g: FeynmanGraph) -> int:
    return len(g.internal_edges) - len(g.vertices) + len(connected_components(g))


def _is_2_edge_connected(n: int, ends) -> bool:
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
    for a, b in g.ends:
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
    return _is_2_edge_connected(len(g.vertices), g.ends)


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
    ends = [(i, a, b) for i, (a, b) in enumerate(g.ends) if a != b]
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
    """The edge sets of the bitmasks, ordered by ``_id_order``."""
    ids = g.edge_ids()
    sets = [frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1) for mask in masks]
    return sorted(sets, key=_id_order)


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

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "vertices", frozenset(self.vertices))

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


def _members(g: FeynmanGraph, spec: SubgraphSpec) -> list[int]:
    """The indices of spec's edges in g.internal_edges.  Refuses an edge or
    vertex id that g lacks, and an edge of spec with an end outside spec's
    vertices."""
    for kind, unknown in (
        ("edge", spec.edges - set(g.edge_ids())),
        ("vertex", spec.vertices - set(g.vertices)),
    ):
        if unknown:
            raise ContextError(f"unknown {kind} id {_sort_ids(unknown)[0]!r}")
    members = []
    for i, (eid, tail, head) in enumerate(g.internal_edges):
        if eid in spec.edges:
            if tail not in spec.vertices or head not in spec.vertices:
                raise ContextError(f"edge {eid!r} has unknown endpoint")
            members.append(i)
    return members


def _roots(g: FeynmanGraph, spec: SubgraphSpec) -> tuple[list[int], list[int]]:
    """spec's edge indices, and the union-find root of each vertex index of g
    once those edges are contracted: the one contraction of an edge subset."""
    members = _members(g, spec)
    root, _ = _union_find(len(g.vertices), [g.ends[i] for i in members])
    return members, root


def subgraph_view(g: FeynmanGraph, spec: SubgraphSpec) -> FeynmanGraph:
    """The subgraph as a standalone graph.

    External legs are the original legs at its vertices plus one leg per cut
    internal edge endpoint; all leg momenta are zeroed (only multiplicities
    matter downstream, for isomorphism keying).
    """
    edges = tuple(g.internal_edges[i] for i in _members(g, spec))
    inside = spec.vertices
    legs = [(v, ()) for v, _ in g.external_edges if v in inside]
    for eid, tail, head in g.internal_edges:
        if eid in spec.edges:
            continue
        if tail in inside:
            legs.append((tail, ()))
        if head in inside:
            legs.append((head, ()))
    return FeynmanGraph(_sort_ids(inside), edges, tuple(legs), g.valences)


def subgraph_components(g: FeynmanGraph, spec: SubgraphSpec) -> list[SubgraphSpec]:
    """The connected components of the subgraph, ordered by vertex ids; a
    vertex of spec that none of its edges touches is a component alone."""
    members, root = _roots(g, spec)
    # (edge ids, vertex ids) of each component, keyed by its root
    comps: dict[int, tuple[set, set]] = {}
    for v, r in zip(g.vertices, root):
        if v in spec.vertices:
            comps.setdefault(r, (set(), set()))[1].add(v)
    for i in members:
        comps[root[g.ends[i][0]]][0].add(g.internal_edges[i][0])
    out = [SubgraphSpec(frozenset(e), frozenset(v)) for e, v in comps.values()]
    return sorted(out, key=lambda s: _id_order(s.vertices))


def quotient(g: FeynmanGraph, spec: SubgraphSpec) -> FeynmanGraph:
    """Contract each connected component of the subgraph to its least
    vertex id."""
    if spec.edges >= set(g.edge_ids()):
        raise QuotientError("cannot contract the whole graph")
    _, root = _roots(g, spec)
    least: dict[int, VertexId] = {}
    for v, r in zip(g.vertices, root):
        if r not in least or _id_key(v) < _id_key(least[r]):
            least[r] = v
    mapping = {v: least[r] for v, r in zip(g.vertices, root)}
    new_vertices = _sort_ids(least.values())
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
    ends = g.ends
    n = len(g.vertices)
    legs = g.legs

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
    n = len(g.vertices)
    _, joined = _union_find(n, g.ends)
    if len(joined) < n - 1:
        raise DisconnectedError("cycle basis needs a connected graph")
    # hang the tree from vertex 0: each vertex's parent, depth, the edge up
    # to its parent, and the sign of crossing that edge upwards
    tree: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in joined:
        a, b = g.ends[i]
        tree[a].append((b, i))
        tree[b].append((a, i))
    parent, depth, up, sign = [0] * n, [0] * n, [0] * n, [0] * n
    hung = [0] if n else []
    for v in hung:
        for w, i in tree[v]:
            if w != parent[v]:
                parent[w], depth[w], up[w] = v, depth[v] + 1, i
                sign[w] = 1 if g.ends[i][0] == w else -1
                hung.append(w)
    chords = sorted(set(range(len(g.ends))) - set(joined))
    eta = [[0] * len(chords) for _ in g.ends]
    for k, i in enumerate(chords):
        eta[i][k] = 1
        # the tree path from the chord's head back to its tail: climb from
        # the deeper end until both ends meet
        tail, head = g.ends[i]
        while tail != head:
            if depth[head] >= depth[tail]:
                eta[up[head]][k] = sign[head]
                head = parent[head]
            else:
                eta[up[tail]][k] = -sign[tail]
                tail = parent[tail]
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
    n = len(g.vertices)
    degree = [0] * n
    for a, b in g.ends:
        degree[a] += 1
        degree[b] += 1
    # refine permutation classes by invariants; only leg counts enter the key
    invariant = list(zip(g.legs, degree))
    order = sorted(range(n), key=invariant.__getitem__)
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
    best = None
    label = [0] * n
    for assignment in itertools.product(*[itertools.permutations(c) for c in classes]):
        for i, v in enumerate(itertools.chain.from_iterable(assignment)):
            label[v] = i
        edges = sorted(
            (min(label[a], label[b]), max(label[a], label[b])) for a, b in g.ends
        )
        if best is None or edges < best:
            best = edges
    colors = tuple(g.legs[v] for v in order)
    canon = (n, colors, tuple(best or []))
    return repr(canon).encode()
