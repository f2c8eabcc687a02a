"""Independent brute-force oracles.

Everything here recomputes expected values from first principles with code
paths disjoint from the library: subset enumeration for connectivity,
divergent subgraphs, spanning trees, cut sets and the second Symanzik
polynomial, Laplacian minors for tree counts, Whitney's subset expansion for
arrangement polynomials, exhaustive finite-field point counting for class
polynomials, and schoolbook arithmetic on plain {exponent tuple: Fraction}
dicts for the packed polynomial kernel.  The library calls are
``SubgraphSpec.from_edges``, which names each edge subset the divergence scan
visits, and the ``MultiPoly`` constructor, which holds the polynomial
oracles' terms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


# -- graph oracles (plain edge lists, no library types) -------------------------


def components(vertices, edges) -> list[set]:
    vertices = list(vertices)
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for v in vertices:
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def brute_edge_connectivity(vertices, edges) -> int | float:
    """Smallest k such that deleting some k edges disconnects the graph."""
    if len(vertices) < 2:
        return float("inf")
    indices = range(len(edges))
    for k in range(0, len(edges) + 1):
        for drop in itertools.combinations(indices, k):
            kept = [e for i, e in enumerate(edges) if i not in drop]
            if len(components(vertices, kept)) > 1:
                return k
    return float("inf")


def laplacian_tree_count(vertices, edges) -> int:
    """Matrix-tree count via a reduced-Laplacian determinant (self-loops drop)."""
    vertices = list(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for a, b in edges:
        if a == b:
            continue
        i, j = index[a], index[b]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    if n == 1:
        return 1
    minor = [row[1:] for row in lap[1:]]
    return int(_det_fraction(minor))


def _det_fraction(m) -> Fraction:
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def is_two_edge_connected(vertices, edges) -> bool:
    """Connected, and still connected after deleting any one edge."""
    edges = list(edges)
    if len(components(vertices, edges)) > 1:
        return False
    return all(
        len(components(vertices, edges[:i] + edges[i + 1 :])) <= 1
        for i in range(len(edges))
    )


def _id_order(ids):
    """The library's order on id sets: the sorted (is str, id) pairs of the
    ids, so ints go by value before strs by text."""
    return tuple(sorted((isinstance(x, str), x) for x in ids))


def brute_spanning_trees(g) -> list[frozenset]:
    """The C(|E|, |V|-1) scan: every choice of |V|-1 non-loop edges that
    closes no cycle, sorted by edge ids."""
    usable = [e for e in g.internal_edges if e[1] != e[2]]
    trees = []
    for combo in itertools.combinations(usable, len(g.vertices) - 1):
        if len(components(g.vertices, [(t, h) for _, t, h in combo])) == 1:
            trees.append(frozenset(e[0] for e in combo))
    return sorted(trees, key=_id_order)


def brute_psi(g):
    """sum_T prod_{e not in T} t_e over ``brute_spanning_trees``."""
    from rbren import MultiPoly

    ids = [e[0] for e in g.internal_edges]
    terms = {
        tuple(int(eid not in tree) for eid in ids): 1 for tree in brute_spanning_trees(g)
    }
    return MultiPoly(tuple(f"t{i + 1}" for i in range(len(ids))), terms)


def brute_cut_sets(g) -> list[frozenset]:
    """The distinct sets (E \\ T) + {e} over spanning trees T and e in T, by
    size and then by edge ids."""
    all_edges = frozenset(e[0] for e in g.internal_edges)
    cuts = set()
    for tree in brute_spanning_trees(g):
        for e in tree:
            cuts.add(all_edges - tree | {e})
    return sorted(cuts, key=lambda c: (len(c), _id_order(c)))


def brute_second_symanzik(g):
    """sum_C s_C prod_{e in C} t_e over ``brute_cut_sets``, each cut's two
    sides found from the edges it keeps, s_C the square of the leg momentum
    on the side of the first vertex."""
    from rbren import MultiPoly

    ids = [e[0] for e in g.internal_edges]
    terms = {}
    for cut in brute_cut_sets(g):
        kept = [(t, h) for eid, t, h in g.internal_edges if eid not in cut]
        sides = components(g.vertices, kept)
        assert len(sides) == 2
        first = next(side for side in sides if g.vertices[0] in side)
        flow = None
        for v, p in g.external_edges:
            if v in first:
                flow = list(p) if flow is None else [a + b for a, b in zip(flow, p)]
        s = sum(q * q for q in flow) if flow else 0
        if s:
            terms[tuple(int(eid in cut) for eid in ids)] = s
    return MultiPoly(tuple(f"t{i + 1}" for i in range(len(ids))), terms)


def spec_is_divergent(g, spec, dim: int) -> bool:
    """The per-spec predicates of a coproduct subgraph, by brute force: every
    component is 2-edge-connected and divergent, and the contraction of the
    components is 2-edge-connected with its valences in the graph's valence
    set (when it declares one).

    The degree is counted here from each component's edges and vertices."""
    sub = [(eid, t, h) for eid, t, h in g.internal_edges if eid in spec.edges]
    comps = [
        (comp, [e for e in sub if e[1] in comp])
        for comp in components(spec.vertices, [(t, h) for _, t, h in sub])
    ]
    # dim * loops - 2 * edges, checked first because it is cheap
    if any(dim * (len(es) - len(c) + 1) - 2 * len(es) < 0 for c, es in comps):
        return False
    if not all(is_two_edge_connected(c, [(t, h) for _, t, h in es]) for c, es in comps):
        return False
    # contract each component to one vertex
    mapping = {v: v for v in g.vertices}
    for k, (comp, _) in enumerate(comps):
        for v in comp:
            mapping[v] = ("component", k)
    rest = [(mapping[t], mapping[h]) for eid, t, h in g.internal_edges if eid not in spec.edges]
    q_vertices = set(mapping.values())
    if not is_two_edge_connected(q_vertices, rest):
        return False
    if g.valences is not None:
        valence = {v: 0 for v in q_vertices}
        for v, _ in g.external_edges:
            valence[mapping[v]] += 1
        for a, b in rest:
            valence[a] += 1
            valence[b] += 1
        if any(val not in g.valences for val in valence.values()):
            return False
    return True


def brute_divergent_subgraphs(g, dim: int, even_only: bool = False):
    """The 2^|E| subset scan: every proper non-empty edge subset (under
    ``even_only``, with an even number of edges in each component) that
    passes ``spec_is_divergent``, sorted by size and then by edge ids."""
    from rbren import SubgraphSpec

    ids = g.edge_ids()
    found = []
    for size in range(1, len(ids)):
        for combo in itertools.combinations(ids, size):
            spec = SubgraphSpec.from_edges(g, combo)
            sub = [(t, h) for eid, t, h in g.internal_edges if eid in spec.edges]
            if even_only and any(
                sum(t in comp for t, _ in sub) % 2
                for comp in components(spec.vertices, sub)
            ):
                continue
            if spec_is_divergent(g, spec, dim):
                found.append(spec)
    return sorted(found, key=lambda s: (len(s.edges), _id_order(s.edges)))


# -- arrangement oracles ------------------------------------------------------------


def _echelon_insert(basis, form):
    """``basis`` (pivot, Fraction row) pairs extended by ``form`` when it is
    independent of them."""
    row = [Fraction(c) for c in form]
    for pivot, b in basis:
        if row[pivot]:
            factor = row[pivot] / b[pivot]
            row = [x - factor * y for x, y in zip(row, b)]
    pivot = next((i for i, x in enumerate(row) if x), None)
    return basis if pivot is None else basis + [(pivot, row)]


def fraction_rank(forms) -> int:
    basis = []
    for form in forms:
        basis = _echelon_insert(basis, form)
    return len(basis)


def whitney_char_poly(ambient, forms) -> dict[int, int]:
    """The 2^n subset walk chi(t) = sum_S (-1)^|S| t^(ambient - rank S), as
    exponent -> coefficient, each rank by Fraction elimination."""
    coeffs: dict[int, int] = {}

    def walk(i, size, basis):
        if i == len(forms):
            e = ambient - len(basis)
            coeffs[e] = coeffs.get(e, 0) + (-1) ** size
            return
        walk(i + 1, size, basis)
        walk(i + 1, size + 1, _echelon_insert(basis, forms[i]))

    walk(0, 0, [])
    return {e: c for e, c in coeffs.items() if c}


# -- finite-field oracles -----------------------------------------------------------


def det_mod(matrix, q: int) -> int:
    m = [[x % q for x in row] for row in matrix]
    n = len(m)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % q), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = (det * m[col][col]) % q
        inv = pow(m[col][col], q - 2, q)
        for r in range(col + 1, n):
            factor = (m[r][col] * inv) % q
            if factor:
                m[r] = [(x - factor * y) % q for x, y in zip(m[r], m[col])]
    return det % q


def count_gl(size: int, q: int) -> int:
    """|GL_size(F_q)| by enumerating all matrices."""
    count = 0
    for entries in itertools.product(range(q), repeat=size * size):
        matrix = [list(entries[i * size : (i + 1) * size]) for i in range(size)]
        if det_mod(matrix, q) != 0:
            count += 1
    return count


def rank_mod(matrix, q: int) -> int:
    m = [[x % q for x in row] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(m)) if m[r][col] % q), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], q - 2, q)
        for r in range(len(m)):
            if r != row and m[r][col]:
                factor = (m[r][col] * inv) % q
                m[r] = [(x - factor * y) % q for x, y in zip(m[r], m[row])]
        row += 1
        rank += 1
    return rank


def count_subspaces(d: int, n: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^n: full-rank d x n matrices
    divided by |GL_d|."""
    full = 0
    for entries in itertools.product(range(q), repeat=d * n):
        matrix = [list(entries[i * n : (i + 1) * n]) for i in range(d)]
        if rank_mod(matrix, q) == d:
            full += 1
    return full // count_gl(d, q)


def count_union_affine(forms, q: int) -> int:
    """Points of A^dim(F_q) lying on at least one of the linear forms."""
    dim = len(forms[0])
    count = 0
    for point in itertools.product(range(q), repeat=dim):
        for form in forms:
            if sum(int(c) * x for c, x in zip(form, point)) % q == 0:
                count += 1
                break
    return count


def count_union_projective(forms, q: int) -> int:
    """Points of P^{dim-1}(F_q) on the union (forms are homogeneous)."""
    affine = count_union_affine(forms, q)
    return (affine - 1) // (q - 1)


def frac_forms(forms, q: int):
    """Clear denominators so a rational form can be read mod q."""
    out = []
    for form in forms:
        denominators = [Fraction(c).denominator for c in form]
        lcm = 1
        for d in denominators:
            lcm = lcm * d // _gcd(lcm, d)
        out.append([int(Fraction(c) * lcm) for c in form])
    return out


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# -- polynomial arithmetic on plain {exponent tuple: Fraction} dicts -------------


def terms_sum(*parts) -> dict:
    """The sum of term dicts; zero coefficients dropped."""
    out = {}
    for terms in parts:
        for exps, c in terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
    return {exps: c for exps, c in out.items() if c}


def terms_product(a, b) -> dict:
    """The bilinear product: exponent tuples add, coefficients multiply."""
    return terms_sum(
        *(
            {tuple(x + y for x, y in zip(e1, e2)): c1 * c2}
            for e1, c1 in a.items()
            for e2, c2 in b.items()
        )
    )


def terms_value(terms, values) -> Fraction:
    """The value at ``values``, one per exponent slot (no zero to a negative power)."""
    total = Fraction(0)
    for exps, c in terms.items():
        for v, e in zip(values, exps):
            c *= Fraction(v) ** e
        total += c
    return total


def terms_render(names, terms) -> str:
    """The compact rendering, descending lex: ``t1^2-t2^2``, ``5/6*x``."""
    parts = []
    for exps in sorted(terms, reverse=True):
        c = terms[exps]
        factors = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)
        if not factors:
            parts.append(str(c))
        elif abs(c) == 1:
            parts.append(("-" if c < 0 else "") + factors)
        else:
            parts.append(f"{c}*{factors}")
    return "+".join(parts).replace("+-", "-") or "0"
