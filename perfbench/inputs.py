"""Seeded benchmark inputs and the benchmark's own exact oracles.

Nothing here imports rbren: graphs are plain specs
``(name, vertices, edges, legs)`` with ``edges`` as ``(id, tail, head)`` and
``legs`` as ``(vertex, momentum)`` integer vectors.  The oracles use only
exact integer and rational arithmetic written for this benchmark, so they
stay independent of the code they check.
"""

from __future__ import annotations

import re
from fractions import Fraction

P1 = (1, 0, 0, 0)
P2 = (0, 1, 0, 0)


def _neg(p):
    return tuple(-q for q in p)


def _spec(name, vertices, edges, legs):
    return (name, tuple(vertices), tuple(edges), tuple(legs))


# -- named families --------------------------------------------------------------


def wheel(n):
    """W_n: hub joined to an n-cycle (n loops, 2n edges); legs p/-p on the rim."""
    rim = [f"r{i}" for i in range(n)]
    edges = [(f"s{i}", "h", rim[i]) for i in range(n)]
    edges += [(f"c{i}", rim[i], rim[(i + 1) % n]) for i in range(n)]
    return _spec(f"W{n}", ["h"] + rim, edges, [(rim[0], P1), (rim[n // 2], _neg(P1))])


def ladder(n):
    """L_n: ladder with n rungs (n-1 loops, 3n-2 edges); legs p/-p at opposite corners."""
    a = [f"a{i}" for i in range(n)]
    b = [f"b{i}" for i in range(n)]
    edges = [(f"r{i}", a[i], b[i]) for i in range(n)]
    edges += [(f"x{i}", a[i], a[i + 1]) for i in range(n - 1)]
    edges += [(f"y{i}", b[i], b[i + 1]) for i in range(n - 1)]
    return _spec(f"L{n}", a + b, edges, [(a[0], P1), (b[-1], _neg(P1))])


def bubble_chain(n):
    """C_n: n bubbles in series (n loops, 2n edges); legs p/-p at the ends."""
    vs = [f"v{i}" for i in range(n + 1)]
    edges = []
    for i in range(n):
        edges += [(f"e{2 * i}", vs[i], vs[i + 1]), (f"e{2 * i + 1}", vs[i], vs[i + 1])]
    return _spec(f"C{n}", vs, edges, [(vs[0], P1), (vs[-1], _neg(P1))])


def banana(n):
    """B_n: n parallel edges between two vertices (n-1 loops)."""
    edges = [(f"e{i}", "u", "v") for i in range(n)]
    return _spec(f"B{n}", ["u", "v"], edges, [("u", P1), ("v", _neg(P1))])


def acceptance_library():
    """Bubble, sunset, triangle, Gamma2, Gamma3, banana4 and tadpole, with the
    leg structure under which their sub- and quotient graphs resolve to each
    other."""
    four_legs = lambda u, w: [(u, P1), (u, P2), (w, _neg(P1)), (w, _neg(P2))]
    p12 = tuple(x + y for x, y in zip(P1, P2))
    return [
        _spec("bubble", "ab", [("e1", "a", "b"), ("e2", "a", "b")], four_legs("a", "b")),
        _spec(
            "sunset",
            "uv",
            [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v")],
            [("u", P1), ("v", _neg(P1))],
        ),
        _spec(
            "triangle",
            "abc",
            [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")],
            [("a", P1), ("b", P2), ("c", _neg(p12))],
        ),
        _spec(
            "Gamma2",
            "uvw",
            [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "v", "w"), ("e4", "v", "w")],
            four_legs("u", "w"),
        ),
        _spec(
            "Gamma3",
            "uvwx",
            [(f"e{2 * i + k + 1}", "uvwx"[i], "uvwx"[i + 1]) for i in range(3) for k in range(2)],
            four_legs("u", "x"),
        ),
        _spec("banana4", "uv", [(f"e{i}", "u", "v") for i in range(1, 5)], [("u", P1), ("v", _neg(P1))]),
        _spec("tadpole", "z", [("s1", "z", "z")], [("z", P1), ("z", _neg(P1))]),
    ]


# -- seeded random graphs ------------------------------------------------------------


def _two_legs(rng, vs):
    a, b = rng.sample(vs, 2)
    return [(a, P1), (b, _neg(P1))]


def two_tree_graph(rng, name, nv):
    """Union of two random spanning trees on ``nv`` vertices (2nv-2 edges).

    Such a multigraph is bridgeless, and by Nash-Williams no edge subset has
    more than twice its rank in edges, so in dimension 4 no subgraph has a
    positive superficial degree: every divergence is logarithmic.
    """
    vs = [f"v{i}" for i in range(nv)]
    pairs = []
    for _ in range(2):
        order = vs[:]
        rng.shuffle(order)
        pairs += [(order[i], order[rng.randrange(i)]) for i in range(1, nv)]
    rng.shuffle(pairs)
    edges = [(f"e{i}", a, b) for i, (a, b) in enumerate(pairs)]
    return _spec(name, vs, edges, _two_legs(rng, vs))


def cycle_plus_graph(rng, name, nv, ne):
    """Random Hamiltonian cycle plus random extra edges: bridgeless, with no
    restriction on the superficial degrees of its subgraphs."""
    vs = [f"v{i}" for i in range(nv)]
    order = vs[:]
    rng.shuffle(order)
    pairs = [(order[i], order[(i + 1) % nv]) for i in range(nv)]
    while len(pairs) < ne:
        pairs.append(tuple(rng.sample(vs, 2)))
    edges = [(f"e{i}", a, b) for i, (a, b) in enumerate(pairs)]
    return _spec(name, vs, edges, _two_legs(rng, vs))


def connected_graph(rng, name, nv, ne):
    """Random spanning tree plus random extra edges (parallel edges allowed,
    no self-loops); legs p/-p at two distinct vertices."""
    vs = [f"v{i}" for i in range(nv)]
    order = vs[:]
    rng.shuffle(order)
    pairs = [(order[i], order[rng.randrange(i)]) for i in range(1, nv)]
    while len(pairs) < ne:
        pairs.append(tuple(rng.sample(vs, 2)))
    rng.shuffle(pairs)
    edges = [(f"e{i}", a, b) for i, (a, b) in enumerate(pairs)]
    return _spec(name, vs, edges, _two_legs(rng, vs))


def random_arrangement(rng, ambient, count):
    """``count`` pairwise non-proportional integer linear forms in ``ambient``
    coordinates, entries in [-2, 2]."""
    seen = set()
    forms = []
    while len(forms) < count:
        form = tuple(rng.randint(-2, 2) for _ in range(ambient))
        if not any(form):
            continue
        lead = next(c for c in form if c)
        normal = tuple(Fraction(c, lead) for c in form)
        if normal in seen:
            continue
        seen.add(normal)
        forms.append(form)
    return forms


def sigma_forms(loops, genus):
    """Linear forms of the (l, g) matrix-coordinate divisor family, built
    from its definition: x_ij (1 <= i < j <= f-1) and the row sums
    x_i1 + ... + x_i,f-1 (1 <= i <= f-1), f = l - 2g + 1."""
    f = loops - 2 * genus + 1
    ambient = loops * loops
    forms = []
    for i in range(1, f):
        for j in range(i + 1, f):
            v = [0] * ambient
            v[(i - 1) * loops + (j - 1)] = 1
            forms.append(tuple(v))
    for i in range(1, f):
        v = [0] * ambient
        for j in range(1, f):
            v[(i - 1) * loops + (j - 1)] = 1
        forms.append(tuple(v))
    return ambient, forms


# -- oracles ------------------------------------------------------------------------


def bareiss_det(matrix):
    """Integer determinant by fraction-free elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def laplacian_minor(spec, removed):
    """det of the graph Laplacian with the rows and columns of ``removed``
    deleted (self-loops ignored).  With one vertex removed this counts
    spanning trees; with two, the spanning 2-forests separating them."""
    _, vs, edges, _ = spec
    keep = [v for v in vs if v not in removed]
    index = {v: i for i, v in enumerate(keep)}
    lap = [[0] * len(keep) for _ in keep]
    for _, a, b in edges:
        if a == b:
            continue
        for x, y in ((a, b), (b, a)):
            if x in index:
                lap[index[x]][index[x]] += 1
                if y in index:
                    lap[index[x]][index[y]] -= 1
    return bareiss_det(lap)


def spanning_tree_count(spec):
    return laplacian_minor(spec, {spec[1][0]})


def separating_forest_count(spec):
    """Spanning 2-forests with the two leg vertices in different trees: the
    value at t = 1 of the second Symanzik polynomial when the legs carry
    p and -p with p.p = 1."""
    legs = {v for v, _ in spec[3]}
    return laplacian_minor(spec, legs)


def _rank_insert(basis, row):
    """Add ``row`` to an echelon basis of Fraction rows; True if independent."""
    v = [Fraction(c) for c in row]
    for pivot, brow in basis:
        if v[pivot]:
            f = v[pivot] / brow[pivot]
            v = [x - f * y for x, y in zip(v, brow)]
    pivot = next((i for i, c in enumerate(v) if c), None)
    if pivot is None:
        return False
    basis.append((pivot, v))
    return True


def whitney_char_poly(ambient, forms):
    """chi(t) = sum over subsets S of (-1)^|S| t^(ambient - rank S), as a
    dict exponent -> coefficient."""
    coeffs: dict[int, int] = {}
    n = len(forms)

    def walk(i, size, basis):
        if i == n:
            e = ambient - len(basis)
            coeffs[e] = coeffs.get(e, 0) + (-1 if size % 2 else 1)
            return
        walk(i + 1, size, basis)
        extended = list(basis)
        _rank_insert(extended, forms[i])
        walk(i + 1, size + 1, extended)

    walk(0, 0, [])
    return {e: c for e, c in coeffs.items() if c}


def projective_arrangement_class(ambient, chi):
    """[P^(ambient-1)] - chi(L)/(L-1) as a dict exponent -> coefficient."""
    quotient: dict[int, int] = {}
    carry = 0
    for e in range(max(chi), 0, -1):
        carry += chi.get(e, 0)
        quotient[e - 1] = carry
    if carry + chi.get(0, 0) != 0:
        raise ValueError("chi(1) != 0: not divisible by L - 1")
    out = {e: 1 for e in range(ambient)}
    for e, c in quotient.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


_TERM = re.compile(r"\s*([+-])?\s*(\d+)?\*?([A-Za-z])?(?:\^(\d+))?")


def parse_univariate(text, symbol):
    """Parse '3*L^2 - L + 4' into {2: 3, 1: -1, 0: 4}."""
    text = text.replace(" ", "")
    if text == "0":
        return {}
    out: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        sign, coeff, var, power = m.groups()
        if var is not None and var != symbol:
            raise ValueError(f"unexpected symbol {var!r} in {text!r}")
        c = int(coeff) if coeff else 1
        e = (int(power) if power else 1) if var else 0
        out[e] = out.get(e, 0) + (-c if sign == "-" else c)
        pos = m.end()
    return {e: c for e, c in out.items() if c}


def coefficient_sum(text):
    """Value at all-ones of a rendered multivariate polynomial such as
    '2*t1*t2+t1*t3' (top-level terms separated by + and -)."""
    text = text.replace(" ", "")
    if text == "0":
        return Fraction(0)
    total = Fraction(0)
    for sign, body in re.findall(r"([+-]?)([^+-]+)", text):
        head = body.split("*", 1)[0]
        coeff = Fraction(head) if re.fullmatch(r"\d+(/\d+)?", head) else Fraction(1)
        total += -coeff if sign == "-" else coeff
    return total


def cycle_rank(spec):
    _, vs, edges, _ = spec
    parent = {v: v for v in vs}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    rank = 0
    for _, a, b in edges:
        x, y = find(a), find(b)
        if x != y:
            parent[x] = y
            rank += 1
    return len(edges) - rank

