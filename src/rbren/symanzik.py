"""Graph polynomials and the linear map from edge variables into matrix space.

The first Symanzik polynomial is the spanning-tree sum
Psi(t) = sum_T prod_{e not in T} t_e; it equals det M(t) for the cycle-based
matrix M_kr(t) = sum_i t_i eta_ik eta_ir.  The second polynomial sums squared
momentum transfer over cut sets.  Both sums take each forest's monomial as a
packed MultiPoly key from the forest enumerator.  Flattening the rank-one blocks
eta_i eta_i^T row by row gives the linear map from A^n into the space of
l x l matrices whose injectivity is probed by exact rank computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import rational_rank
from .errors import MomentumError, PreconditionError
from .graphs import (
    FeynmanGraph,
    _forest_keys,
    cycle_basis_matrix,
    edge_connectivity,
    loop_number,
)
from .poly import MultiPoly, _numerators, _units


def edge_variables(g: FeynmanGraph) -> tuple[str, ...]:
    """One variable per internal edge, in declared order: t1, t2, ..."""
    return tuple(f"t{i+1}" for i in range(len(g.internal_edges)))


def psi(g: FeynmanGraph) -> MultiPoly:
    """First Symanzik polynomial, all coefficients 1, homogeneous of degree
    equal to the loop number."""
    variables = edge_variables(g)
    forests = _forest_keys(g, 1, _units(len(variables)))
    return MultiPoly._make({key: 1 for keys in forests.values() for key in keys}, variables)


def graph_matrix(g: FeynmanGraph) -> list[list[MultiPoly]]:
    """M_kr(t) = sum_i t_i eta_ik eta_ir over the fundamental cycle basis."""
    return _cycle_matrix(g, cycle_basis_matrix(g))


def _cycle_matrix(g: FeynmanGraph, eta: list[list[int]]) -> list[list[MultiPoly]]:
    """The graph matrix from the cycle basis ``eta`` of ``g``."""
    variables = edge_variables(g)
    loops = len(eta[0]) if eta else loop_number(g)
    units = _units(len(variables))
    # sum_i eta_ik eta_ir t_i; the trusted constructor drops the zero terms
    entry = lambda k, r: MultiPoly._make({u: e[k] * e[r] for u, e in zip(units, eta)}, variables)
    return [[entry(k, r) for r in range(loops)] for k in range(loops)]


def poly_det(matrix: list[list[MultiPoly]]) -> MultiPoly:
    """Determinant by first-row Laplace expansion, memoized on column sets."""
    n = len(matrix)
    if n == 0:
        raise PreconditionError("poly_det needs a variable context for 0x0")
    variables = matrix[0][0].variables
    memo: dict[tuple[int, ...], MultiPoly] = {}

    def expand(cols: tuple[int, ...]) -> MultiPoly:
        row = n - len(cols)
        if not cols:
            return MultiPoly.const(variables, 1)
        if cols in memo:
            return memo[cols]
        total = MultiPoly.zero(variables)
        for pos, c in enumerate(cols):
            entry = matrix[row][c]
            if entry.is_zero():
                continue
            sub = expand(cols[:pos] + cols[pos + 1 :])
            contrib = entry * sub
            total = total + (contrib if pos % 2 == 0 else -contrib)
        memo[cols] = total
        return total

    return expand(tuple(range(n)))


def graph_matrix_det(g: FeynmanGraph) -> MultiPoly:
    return _matrix_det(g, graph_matrix(g))


def _matrix_det(g: FeynmanGraph, matrix: list[list[MultiPoly]]) -> MultiPoly:
    """det of the graph matrix of ``g``; 1 for the empty matrix of a tree."""
    return poly_det(matrix) if matrix else MultiPoly.const(edge_variables(g), 1)


def matrix_tree_check(g: FeynmanGraph) -> bool:
    return graph_matrix_det(g) == psi(g)


# -- second Symanzik polynomial -------------------------------------------------


def _dot(p: tuple[Fraction, ...], q: tuple[Fraction, ...]) -> Fraction:
    return sum((a * b for a, b in zip(p, q)), Fraction(0))


def second_symanzik(g: FeynmanGraph) -> MultiPoly:
    """P(t) = sum_C s_C prod_{e in C} t_e over cut sets C, with s_C the
    Euclidean square of the momentum flowing through the cut.

    The cut sets are the complements of the spanning 2-forests, and s_C
    depends only on which leg vertices lie on each of the forest's two
    trees, so the enumeration, marking the leg vertices, groups the forests
    by it and it is computed once per group.  Momentum
    conservation makes the two sides agree; both are computed and compared.
    """
    variables = edge_variables(g)
    index = {v: i for i, v in enumerate(g.vertices)}
    legs = [(index[v], p) for v, p in g.external_edges]
    forests = _forest_keys(g, 2, _units(len(variables)), [v for v, _ in legs])
    dim = g.momentum_dim()
    if dim is None:
        return MultiPoly(variables, {})
    terms = {}
    for labels, keys in forests.items():
        # the legs on the tree of the first leg, then the others
        sums = [[Fraction(0)] * dim, [Fraction(0)] * dim]
        for (_, p), label in zip(legs, labels):
            total = sums[label != labels[0]]
            for i, q in enumerate(p):
                total[i] += q
        s_first, s_second = (_dot(total, total) for total in sums)
        if s_first != s_second:
            raise MomentumError("cut momentum square differs between the two sides")
        terms.update(dict.fromkeys(keys, s_first))
    terms, d = _numerators(terms, terms.values())
    return MultiPoly._make(terms, variables, d=d)


# -- the map into matrix space -----------------------------------------------------


def upsilon_matrix(g: FeynmanGraph) -> list[list[int]]:
    """n x l^2 integer matrix; row i is the flattened block eta_i eta_i^T."""
    return _flat_blocks(cycle_basis_matrix(g))


def _flat_blocks(eta: list[list[int]]) -> list[list[int]]:
    loops = len(eta[0]) if eta else 0
    return [[row[k] * row[r] for k in range(loops) for r in range(loops)] for row in eta]


def upsilon_embedding_tests(g: FeynmanGraph) -> dict:
    """Injectivity report for the edge-to-matrix map.

    Global injectivity is full row rank of the flattened map.  The per-loop
    maps project onto one matrix row; each is tested for injectivity on the
    span of its own loop's edge variables, and the report says whether the
    loops passing that test cover every edge.  It ends with the flattened
    map itself, the ``upsilon_matrix`` of ``g``.
    """
    eta = cycle_basis_matrix(g)
    n = len(g.internal_edges)
    loops = len(eta[0]) if eta else 0
    conn = edge_connectivity(g)
    ups = _flat_blocks(eta)
    rank = rational_rank(ups) if ups else 0
    ids = g.edge_ids()
    loop_reports = []
    covered: set = set()
    for k in range(loops):
        members = [i for i in range(n) if eta[i][k] != 0]
        sub = [eta[i] for i in members]
        injective = rational_rank(sub) == len(members)
        if injective:
            covered.update(members)
        loop_reports.append(
            {
                "index": k,
                "edges": [str(ids[i]) for i in members],
                "injective": injective,
            }
        )
    return {
        "edges": n,
        "loops": loops,
        "edge_connectivity": None if conn == float("inf") else int(conn),
        "three_edge_connected": conn >= 3,
        "upsilon_rank": rank,
        "globally_injective": bool(ups) and rank == n,
        "loop_maps": loop_reports,
        "injective_loops_cover_all_edges": loops > 0 and len(covered) == n,
        "degenerate": loops == 0,
        "matrix": ups,
    }


# -- aggregate record ---------------------------------------------------------


@dataclass(frozen=True)
class SymanzikData:
    """Everything the integrand construction consumes for one graph: the
    tree polynomial, the cycle matrix with det M = Psi, the cut-set
    polynomial, and the signed edge/loop incidence matrix."""

    psi: MultiPoly
    matrix: list[list[MultiPoly]]
    second: MultiPoly
    eta: list[list[int]]


def symanzik_data(g: FeynmanGraph) -> SymanzikData:
    loops = loop_number(g)
    tree_poly = psi(g)
    if not tree_poly.is_homogeneous(loops):
        raise PreconditionError("tree polynomial is not homogeneous of loop degree")
    if set(tree_poly.terms.values()) - {Fraction(1)}:
        raise PreconditionError("tree polynomial has a non-unit coefficient")
    second = second_symanzik(g)
    if not second.is_homogeneous(loops + 1):
        raise PreconditionError("cut polynomial is not homogeneous of degree l+1")
    eta = cycle_basis_matrix(g)
    matrix = _cycle_matrix(g, eta)
    if _matrix_det(g, matrix) != tree_poly:
        raise PreconditionError("cycle-matrix determinant disagrees with trees")
    return SymanzikData(tree_poly, matrix, second, eta)


# -- integrand exponents ---------------------------------------------------------


@dataclass(frozen=True)
class EtaFormSpec:
    """Exponent data of the matrix-space integrand: numerator polynomial to
    the power a = -n + D*l/2 over det to the power b = -n + (l+1)*D/2, an
    n-form on an l^2-dimensional ambient space."""

    numerator_exponent: int
    denominator_exponent: int
    form_degree: int
    ambient_dim: int


def eta_form(g: FeynmanGraph, dim: int) -> EtaFormSpec:
    if dim < 1:
        raise PreconditionError("dimension must be >= 1")
    n = len(g.internal_edges)
    loops = loop_number(g)
    if (dim * loops) % 2 != 0 or (dim * (loops + 1)) % 2 != 0:
        raise PreconditionError(
            f"half-integral exponents for dim={dim}, loops={loops}"
        )
    return EtaFormSpec(
        numerator_exponent=-n + dim * loops // 2,
        denominator_exponent=-n + (loops + 1) * dim // 2,
        form_degree=n,
        ambient_dim=loops * loops,
    )
