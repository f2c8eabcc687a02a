"""Exterior (anticommuting) elements with Laurent polynomial coefficients.

An ExteriorElement is a finite sum of wedge monomials e_S = g_{i1} ^ g_{i2}
^ ... (S a strictly increasing index tuple into the generator list), each
with a LaurentPoly coefficient.  Generators are odd symbols, so the wedge
follows the Koszul sign rule; elements of even degree commute.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from numbers import Rational
from typing import Iterable, Mapping

from ._terms import Terms, _set
from .errors import ContextError
from .poly import LaurentPoly, MultiPoly

Subset = tuple[int, ...]


def merge_sign(a: Subset, b: Subset) -> tuple[Subset, int]:
    """Sorted merge of disjoint index tuples with the Koszul sign.

    Returns sign 0 when the tuples overlap (wedge of a repeated generator).
    """
    if not a or not b:
        return a or b, 1
    inversions = 0
    for j in b:
        # the entries of a above j
        k = bisect_left(a, j)
        if k < len(a) and a[k] == j:
            return (), 0
        inversions += len(a) - k
    return tuple(sorted(a + b)), (-1 if inversions % 2 else 1)


@dataclass(frozen=True)
class ExteriorElement(Terms):
    gens: tuple[str, ...]
    terms: Mapping[Subset, LaurentPoly] = field()

    _context = ("gens",)
    _scalars = (Rational, LaurentPoly, MultiPoly)

    def _check_context(self):
        gens = tuple(self.gens)
        if len(set(gens)) != len(gens):
            raise ContextError("repeated generator name")
        coeffs = self.terms.values()
        if len(coeffs) > 1 and len(
            {(c.dist, c.variables) for c in coeffs if isinstance(c, LaurentPoly)}
        ) > 1:
            raise ContextError("coefficients live in different contexts")
        _set(self, "gens", gens)

    def _term(self, subset, coeff):
        subset = tuple(subset)
        if len(subset) > 1 and list(subset) != sorted(set(subset)):
            raise ContextError(f"subset {subset} is not strictly sorted")
        if subset and not (0 <= subset[0] and subset[-1] < len(self.gens)):
            raise ContextError(f"subset {subset} out of range")
        if not isinstance(coeff, LaurentPoly):
            raise ContextError("coefficients must be LaurentPoly")
        return subset, coeff

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(gens: Iterable[str]) -> "ExteriorElement":
        return ExteriorElement._make({}, tuple(gens))

    @staticmethod
    def scalar(gens: Iterable[str], coeff: LaurentPoly) -> "ExteriorElement":
        return ExteriorElement._make({(): coeff}, tuple(gens))

    @staticmethod
    def generator(gens: Iterable[str], name: str, coeff: LaurentPoly) -> "ExteriorElement":
        gens = tuple(gens)
        if name not in gens:
            raise ContextError(f"unknown generator {name!r}")
        return ExteriorElement._make({(gens.index(name),): coeff}, gens)

    @staticmethod
    def term(gens: Iterable[str], names: Iterable[str], coeff: LaurentPoly):
        gens = tuple(gens)
        idx = []
        for name in names:
            if name not in gens:
                raise ContextError(f"unknown generator {name!r}")
            idx.append(gens.index(name))
        return ExteriorElement(gens, {tuple(sorted(idx)): coeff})

    # -- graded algebra -----------------------------------------------------

    def __mul__(self, other):
        """Wedge product (also accepts coefficient-ring scalars)."""
        if not isinstance(other, ExteriorElement):
            return Terms.__mul__(self, other)
        self._check(other)
        out: dict[Subset, LaurentPoly] = {}
        for s1, c1 in self._t.items():
            for s2, c2 in other._t.items():
                merged, sign = merge_sign(s1, s2)
                if sign:
                    p, prev = c1 * c2, out.get(merged)
                    if prev is None:
                        out[merged] = p if sign > 0 else -p
                    else:
                        out[merged] = prev + p if sign > 0 else prev - p
        return self._like(out)

    # -- degree structure ---------------------------------------------------

    def degrees(self) -> set[int]:
        return {len(s) for s in self.terms}

    def is_even(self) -> bool:
        return all(len(s) % 2 == 0 for s in self.terms)

    def degree(self) -> int | None:
        """Degree of a homogeneous element; None for 0 or mixed degrees."""
        d = self.degrees()
        return d.pop() if len(d) == 1 else None

    # -- structural helpers -------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for subset, coeff in self.terms.items():
            body = "^".join(self.gens[i] for i in subset) if subset else "1"
            parts.append(f"({coeff}) {body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"ExteriorElement({str(self)!r})"
