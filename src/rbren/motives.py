"""Integer polynomial classes in the Lefschetz symbol L.

Covers the stock of classes needed around determinant hypersurface
complements: projective spaces, GL_l via L^C(l,2) * prod (L^i - 1),
Grassmannians as box-partition sums, the blowup formula
[Bl_Y X] = [X] + sum_{k=1}^{codim-1} [Y] L^k, characteristic polynomials of
central hyperplane arrangements as products over their direct summands of
Whitney's no-broken-circuit sums (walked on integer rows, within
``ARRANGEMENT_WORK_BOUND``), projective arrangement classes
[P^n] - chi(L)/(L-1), the matrix-coordinate divisor family indexed by
(l, g), and a pole-order bound for the integrand pulled back through
rank-stratum blowups.  An iterated-blowup class, such as that of
a GL_l compactification, is ``blowup_class`` of [P^{l^2}] with one
``BlowupStep`` per center the caller supplies.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from ._linalg import eliminate, integer_row, rational_rank
from ._terms import Terms, _exact
from .errors import PreconditionError, SizeBoundError
from .graphs import _union_find
from .poly import parse_terms

ARRANGEMENT_WORK_BOUND = 10_000_000


@dataclass(frozen=True)
class LefschetzPolynomial(Terms):
    """Sparse integer polynomial in one symbol (printed as L by default)."""

    terms: Mapping[int, int] = field()

    _scalars = (int,)
    _join = staticmethod(operator.add)

    def _term(self, e, c):
        e, c = _exact(e, "exponent"), _exact(c)
        if e.denominator != 1 or c.denominator != 1:
            raise PreconditionError(f"non-integer term {c}*L^{e} in a class polynomial")
        if e < 0:
            raise PreconditionError("negative exponent in a class polynomial")
        return int(e), int(c)

    @staticmethod
    def zero() -> "LefschetzPolynomial":
        return LefschetzPolynomial._make({})

    @staticmethod
    def const(c: int) -> "LefschetzPolynomial":
        return LefschetzPolynomial({0: c})

    _lift = const

    @staticmethod
    def lefschetz(power: int = 1) -> "LefschetzPolynomial":
        return LefschetzPolynomial({power: 1})

    def degree(self) -> int:
        return max(self.terms, default=-1)

    def __call__(self, value: int) -> int:
        return sum(c * value**e for e, c in self.terms.items())

    def divide_by_lef_minus_one(self) -> "LefschetzPolynomial":
        """Exact division by (L - 1); the remainder must vanish."""
        if self(1) != 0:
            raise PreconditionError("polynomial is not divisible by (L - 1)")
        degree = self.degree()
        quotient: dict[int, int] = {}
        carry = 0
        for e in range(degree, 0, -1):
            carry += self.terms.get(e, 0)
            quotient[e - 1] = carry
        return LefschetzPolynomial._make(quotient)

    def render(self, symbol: str = "L") -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                power = symbol if e == 1 else f"{symbol}^{e}"
                body = power if abs(c) == 1 else f"{abs(c)}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"LefschetzPolynomial({self.render()!r})"


def parse_class(text: str, symbol: str = "L") -> LefschetzPolynomial:
    """Parse a class in the polynomial term grammar of ``poly.parse_terms``."""
    terms = parse_terms(text, (symbol,))
    if any(c.denominator != 1 for c in terms.values()):
        raise PreconditionError(f"non-integer coefficient in the class {text!r}")
    return LefschetzPolynomial({e: int(c) for (e,), c in terms.items()})


# -- stock classes ------------------------------------------------------------


def projective_class(n: int) -> LefschetzPolynomial:
    """[P^n] = 1 + L + ... + L^n."""
    if n < 0:
        raise PreconditionError("projective space needs n >= 0")
    return LefschetzPolynomial({e: 1 for e in range(n + 1)})


def gl_class(loops: int) -> LefschetzPolynomial:
    """[GL_l] = L^C(l,2) * prod_{i=1}^{l} (L^i - 1)."""
    if loops < 1:
        raise PreconditionError("gl_class needs l >= 1")
    out = LefschetzPolynomial.lefschetz(loops * (loops - 1) // 2)
    for i in range(1, loops + 1):
        out = out * (LefschetzPolynomial.lefschetz(i) - 1)
    return out


def grassmannian_class(d: int, n: int) -> LefschetzPolynomial:
    """[G(d, n)] = sum over partitions in the d x (n-d) box of L^|lambda|."""
    if not 0 <= d <= n:
        raise PreconditionError("need 0 <= d <= n")
    coeffs: dict[int, int] = {}

    def boxed(parts: int, bound: int):
        if parts == 0:
            yield 0
            return
        for first in range(bound + 1):
            for rest in boxed(parts - 1, first):
                yield first + rest

    for weight in boxed(d, n - d):
        coeffs[weight] = coeffs.get(weight, 0) + 1
    return LefschetzPolynomial(coeffs)


@dataclass(frozen=True)
class BlowupStep:
    center: LefschetzPolynomial
    codim: int

    def __post_init__(self):
        if self.codim < 1:
            raise PreconditionError("blowup center must have codimension >= 1")


def blowup_class(
    x: LefschetzPolynomial, steps: Iterable[BlowupStep]
) -> LefschetzPolynomial:
    """Iterated [X'] = [X] + sum_{k=1}^{codim-1} [center] L^k."""
    out = x
    for step in steps:
        for k in range(1, step.codim):
            out = out + step.center * LefschetzPolynomial.lefschetz(k)
    return out


# -- hyperplane arrangements ------------------------------------------------------


@dataclass(frozen=True)
class Arrangement:
    """Rational hyperplane arrangement: ``ambient`` is the number of
    coordinates (so central in A^ambient, or in P^{ambient-1} when flagged
    projective)."""

    ambient: int
    hyperplanes: tuple[tuple[Fraction, ...], ...]
    projective: bool = False

    def __post_init__(self):
        planes = []
        seen = set()
        for form in self.hyperplanes:
            form = tuple(Fraction(c) for c in form)
            if len(form) != self.ambient:
                raise PreconditionError("hyperplane length does not match ambient")
            row = integer_row(form)
            if not any(row):
                raise PreconditionError("zero linear form")
            # a plane's key: its primitive integer row, first nonzero entry > 0
            lead = next(x for x in row if x)
            content = math.gcd(*row) if lead > 0 else -math.gcd(*row)
            normal = tuple(x // content for x in row)
            if normal in seen:
                raise PreconditionError("duplicate hyperplane rejected")
            seen.add(normal)
            planes.append(form)
        object.__setattr__(self, "hyperplanes", tuple(planes))


def _direct_summands(rows: list[list[int]]) -> list[list[list[int]]]:
    """The rows grouped into direct summands, planes that share a coordinate
    being joined, each summand in declared order and cut to the coordinates
    its planes use; coordinates that no plane uses belong to no summand."""
    owner: dict[int, int] = {}
    joins = []
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                joins.append((i, owner.setdefault(j, i)))
    root, _ = _union_find(len(rows), joins)
    groups: dict[int, list[int]] = {}
    for i, r in enumerate(root):
        groups.setdefault(r, []).append(i)
    summands = []
    for members in groups.values():
        columns = sorted({j for i in members for j, x in enumerate(rows[i]) if x})
        summands.append([[rows[i][j] for j in columns] for i in members])
    return summands


def _walk_bound(rows: list[list[int]]) -> int:
    """(n + 1) * sum_{k <= r} C(n, k) for n planes of rank r: the nodes of
    the pruned Whitney walk are pairs (depth, independent chosen set)."""
    n = len(rows)
    return (n + 1) * sum(math.comb(n, k) for k in range(rational_rank(rows) + 1))


def _nbc_counts(rows: list[list[int]]) -> list[int]:
    """counts[k] = number of k-subsets of the planes that contain no broken
    circuit for the reversed order, so chi(t) = sum_k (-1)^k counts[k]
    t^(columns - k) (Whitney's theorem).

    The walk decides the planes in declared order, keeping the planes still
    to decide eliminated against the chosen ones.  Once one of them lies in
    the chosen span, choosing it or not gives the same rank in every
    completion with opposite signs, so the whole subtree cancels and is cut.
    """
    counts = [0] * (len(rows) + 1)

    def walk(chosen: int, rest: list[list[int]]):
        if not rest:
            counts[chosen] += 1
            return
        v, later = rest[0], rest[1:]
        walk(chosen, later)
        p = next(j for j, x in enumerate(v) if x)
        reduced = []
        for row in later:
            if row[p]:
                row = eliminate(row, p, v)
                if not any(row):
                    return
            reduced.append(row)
        walk(chosen + 1, reduced)

    walk(0, rows)
    return counts


def char_poly(arr: Arrangement) -> LefschetzPolynomial:
    """chi(t) of the central arrangement: t^(coordinates no plane uses)
    times the product over the direct summands of their no-broken-circuit
    sums, each walked on integer rows (see ``_nbc_counts``).  The walks'
    node bound, summed over the summands, is checked against
    ``ARRANGEMENT_WORK_BOUND`` before any walk."""
    rows = [integer_row(form) for form in arr.hyperplanes]
    summands = _direct_summands(rows)
    work = sum(_walk_bound(summand) for summand in summands)
    if work > ARRANGEMENT_WORK_BOUND:
        raise SizeBoundError(
            f"the arrangement's walk bound {work} exceeds "
            f"ARRANGEMENT_WORK_BOUND = {ARRANGEMENT_WORK_BOUND}"
        )
    used = sum(len(summand[0]) for summand in summands)
    out = LefschetzPolynomial.lefschetz(arr.ambient - used)
    for summand in summands:
        columns = len(summand[0])
        counts = _nbc_counts(summand)
        out = out * LefschetzPolynomial(
            {columns - k: (-1) ** k * c for k, c in enumerate(counts) if c}
        )
    return out


def arrangement_class(arr: Arrangement) -> LefschetzPolynomial:
    """Class of the union of the hyperplanes in P^{ambient-1}:
    [P^{n}] - chi(L)/(L-1) with chi from the associated central arrangement."""
    if not arr.hyperplanes:
        return LefschetzPolynomial.zero()
    chi = char_poly(arr)
    return projective_class(arr.ambient - 1) - chi.divide_by_lef_minus_one()


def sigma_arrangement(loops: int, genus: int) -> Arrangement:
    """Divisor family in the l x l matrix coordinates, components
    x_ij = 0 (1 <= i < j <= f-1) and x_i1 + ... + x_i,f-1 = 0 (1 <= i <= f-1)
    with f = l - 2g + 1; in total C(f, 2) components."""
    f = loops - 2 * genus + 1
    if f < 2:
        raise PreconditionError(f"need l - 2g + 1 >= 2, got {f}")
    ambient = loops * loops

    def coord(i: int, j: int) -> int:
        # 1-based matrix entry (i, j) in row-major order
        return (i - 1) * loops + (j - 1)

    planes = []
    for i in range(1, f):
        for j in range(i + 1, f):
            form = [Fraction(0)] * ambient
            form[coord(i, j)] = Fraction(1)
            planes.append(tuple(form))
    for i in range(1, f):
        form = [Fraction(0)] * ambient
        for j in range(1, f):
            form[coord(i, j)] = Fraction(1)
        planes.append(tuple(form))
    return Arrangement(ambient, tuple(planes), projective=True)


# -- pole order bound ---------------------------------------------------------------


def pole_order_bound(n: int, loops: int, dim: int) -> int:
    """Lower bound n - (l-1)(-n + (l+1)D/2) + (l-1)^2 for the polar filtration
    position of the integrand after the first rank-stratum blowup."""
    if n < loops - 2:
        raise PreconditionError("bound assumes n >= l - 2")
    if ((loops + 1) * dim) % 2 != 0 or (loops * dim) % 2 != 0:
        raise PreconditionError("exponents are not integral for these parameters")
    b = -n + (loops + 1) * dim // 2
    return n - (loops - 1) * b + (loops - 1) ** 2
