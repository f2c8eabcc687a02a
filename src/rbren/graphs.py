"""Feynman multigraphs and the combinatorics behind coproducts and graph
polynomials.

Graphs are immutable: a vertex id set, oriented internal edges (id, tail,
head) that may be parallel or self-loops, and external legs carrying exact
rational momentum vectors.  Enumeration is deterministic; spanning forests
come from one frontier dynamic programme that writes packed keys.
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
    _, joined = _union_find(len(g.vertices), g.ends)
    return len(joined) >= len(g.vertices) - 1


def loop_number(g: FeynmanGraph) -> int:
    return len(g.internal_edges) - len(_union_find(len(g.vertices), g.ends)[1])


def _spanning_tree(n: int, ends):
    """The spanning tree that ``_union_find`` joins on 0..n-1, hung from
    vertex 0: the chords (non-tree edge indices, in order) and each vertex's
    parent, depth, edge up to its parent and sign of crossing that edge
    upwards.  None when the graph is disconnected."""
    _, joined = _union_find(n, ends)
    if len(joined) < n - 1:
        return None
    tree: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in joined:
        a, b = ends[i]
        tree[a].append((b, i))
        tree[b].append((a, i))
    parent, depth, up, sign = [0] * n, [0] * n, [0] * n, [0] * n
    hung = [0] if n else []
    for v in hung:
        for w, i in tree[v]:
            if w != parent[v]:
                parent[w], depth[w], up[w] = v, depth[v] + 1, i
                sign[w] = 1 if ends[i][0] == w else -1
                hung.append(w)
    chords = sorted(set(range(len(ends))) - set(joined))
    return chords, parent, depth, up, sign


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
    """One-particle-irreducible: connected and bridgeless.  A bridge is a
    spanning-tree edge on no chord's fundamental cycle, so each chord marks
    the edges up from the vertices of its tree path (a self-loop marks none,
    a parallel edge its twin)."""
    n = len(g.vertices)
    tree = _spanning_tree(n, g.ends)
    if tree is None:
        return False
    chords, parent, depth, _, _ = tree
    covered = [False] * n
    for i in chords:
        a, b = g.ends[i]
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            covered[a] = True
            a = parent[a]
    return all(covered[1:])


# -- spanning forests, trees and cut sets ---------------------------------------


def _forest_keys(g: FeynmanGraph, k: int, units: list[int], marked=()) -> dict[tuple, list[int]]:
    """Every spanning forest of g with exactly k trees, as {labels: keys}: a
    forest's key sums ``units[i]`` over the edges i outside it, self-loops
    always among them, and ``labels`` names the tree of each vertex index in
    ``marked`` by the least marked vertex index on it.

    A frontier dynamic programme (Sekine, Imai and Tani, ISAAC 1995) decides
    the non-loop edges in a greedy order: next the edge that is the last one
    left at the most vertices, then the one with the most ends seen, then the
    least index.  A vertex is live from its first edge to its last, or to the
    end when marked.  A state is the labels of the live vertices' trees, each
    tree labelled by its least live vertex, and the counts of closed trees
    (with no live vertex left) and of all trees (|V| less the edges included).
    Each edge is excluded or, between two trees, included.  A state is cut
    when more than k trees are closed, when k are closed and live vertices
    remain, or when its trees less k are negative or more than the edges left.
    Later decisions depend on the state alone, so paths that reach one state
    concatenate their key lists.  A path is an edge set without a cycle that
    survives exactly when it is a forest of k trees, so each forest is one
    path, and its key is its excluded set: it appears exactly once.  The cost
    is the states reached times the live vertices, plus one addition per key
    and excluded edge.
    """
    ends, n = g.ends, len(g.vertices)
    if n == 0:
        raise ValueError("a graph without vertices has no spanning forest")
    if not is_connected(g):
        raise DisconnectedError("spanning trees need a connected graph")
    if n < k:
        return {}
    rest = [i for i, (a, b) in enumerate(ends) if a != b]
    degree = Counter(v for i in rest for v in ends[i])
    order, last = [], {}  # the edges, and the step of each vertex's last edge
    while rest:
        # max keeps the first, least index among equal scores
        i = max(rest, key=lambda i: 3 * ((degree[ends[i][0]] == 1) + (degree[ends[i][1]] == 1))
                + (ends[i][0] in last) + (ends[i][1] in last))
        rest.remove(i)
        a, b = ends[i]
        degree[a] -= 1
        degree[b] -= 1
        last[a] = last[b] = len(order)
        order.append(i)
    live = sorted(set(marked) - last.keys())  # only a lone vertex has no edge
    loops = sum(units[i] for i, (a, b) in enumerate(ends) if a == b)
    # a state: the live vertices' labels, the closed trees and all trees
    states = {(tuple(live), n - len(last) - len(live), n): [loops]}
    for step, i in enumerate(order):
        new = tuple(v for v in ends[i] if v not in live)
        here = live + list(new)
        pa, pb = here.index(ends[i][0]), here.index(ends[i][1])
        gone = [p for p in (pa, pb) if last[here[p]] == step and here[p] not in marked]
        stay = [p for p in range(len(here)) if p not in gone]
        live = [here[p] for p in stay]
        left, unit, nxt = len(order) - step - 1, units[i], {}
        for (labels, closed, trees), keys in states.items():
            labels += new
            la, lb = labels[pa], labels[pb]
            branches = []
            if trees - k <= left:
                branches.append((labels, trees, [x + unit for x in keys]))
            if la != lb and trees > k:
                lo, hi = (la, lb) if la < lb else (lb, la)
                branches.append((tuple([lo if x == hi else x for x in labels]), trees - 1, keys))
            for labels, t, keys in branches:
                c = closed
                if gone:
                    retired = {labels[p] for p in gone}
                    labels = tuple([labels[p] for p in stay])
                    for r in retired:
                        if r not in labels:
                            c += 1
                        elif r not in live:  # the tree's least live vertex left
                            lo = min(v for v, x in zip(live, labels) if x == r)
                            labels = tuple([lo if x == r else x for x in labels])
                    if c > k or c == k and labels:
                        continue
                if (got := nxt.setdefault((labels, c, t), keys)) is not keys:
                    got += keys
        states = nxt
    at = [live.index(v) for v in marked]
    return {tuple(labels[p] for p in at): keys for (labels, *_), keys in states.items()}


def _sorted_edge_sets(g: FeynmanGraph, k: int, flip: int = 0) -> list[frozenset[EdgeId]]:
    """The edge sets outside the spanning forests of g with k trees, each
    one's bitmask xor ``flip``, ordered by ``_id_order``."""
    ids = g.edge_ids()
    forests = _forest_keys(g, k, [1 << i for i in range(len(ids))])
    masks = [key ^ flip for keys in forests.values() for key in keys]
    sets = [frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1) for mask in masks]
    return sorted(sets, key=_id_order)


def spanning_trees(g: FeynmanGraph) -> list[frozenset[EdgeId]]:
    return _sorted_edge_sets(g, 1, flip=(1 << len(g.internal_edges)) - 1)


def cut_sets(g: FeynmanGraph) -> list[frozenset[EdgeId]]:
    """Edge sets whose removal leaves a spanning forest of two trees: the
    complements E \\ F of the spanning 2-forests F, which are the sets
    (E \\ T) + {e} over spanning trees T and e in T.  All have
    |E| - |V| + 2 edges, so they are ordered by edge ids alone."""
    return _sorted_edge_sets(g, 2)


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
    components are bridgeless by construction.  Their contractions are 1PI
    exactly when the graph is, tested once.  Each candidate costs near-linear
    integer work: union-find for its components, the superficial degree
    dim * (E_c - V_c + 1) - 2 * E_c >= 0 of each component from its edge and
    vertex counts, and a valence count on the contracted multigraph when the
    graph declares valences.  The total is O(U * (C + |E|)) for U unions of C
    circuits, where a subset scan costs 2^|E| tests.
    """
    ids = g.edge_ids()
    ends = g.ends
    n = len(g.vertices)
    legs = g.legs

    def spec_of(members: tuple[int, ...]) -> SubgraphSpec:
        verts = {g.vertices[v] for i in members for v in ends[i]}
        return SubgraphSpec(frozenset(ids[i] for i in members), frozenset(verts))

    # g/gamma is 1PI iff g is: if g is bridgeless and e is not in gamma,
    # g/gamma - e = (g - e)/gamma is connected; a bridge of g lies on no
    # circuit, so it stays a bridge of g/gamma; a disconnected g stays so.
    if not is_1pi(g):
        return []
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
        if g.valences is not None:
            # the contraction's valences, one vertex per root
            valence = [0] * n
            for v in range(n):
                valence[root[v]] += legs[v]
            for i, (a, b) in enumerate(ends):
                if not mask >> i & 1:
                    valence[root[a]] += 1
                    valence[root[b]] += 1
            if not all(valence[r] in g.valences for r in set(root)):
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
    tree = _spanning_tree(len(g.vertices), g.ends)
    if tree is None:
        raise DisconnectedError("cycle basis needs a connected graph")
    chords, parent, depth, up, sign = tree
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
