"""Exact sparse polynomial arithmetic over the rationals.

Two layers:

  MultiPoly   -- polynomial in an ordered tuple of named variables; terms are
                 a dict mapping exponent tuples (non-negative ints) to
                 Fraction coefficients.
  LaurentPoly -- adds a tuple of *distinguished* variables whose exponents may
                 be negative; the coefficient of each distinguished monomial
                 is a MultiPoly in the ordinary variables.

Canonical form: zero coefficients are never stored and term dicts are kept in
sorted key order, so equal elements have identical stored representation.
Printing is descending lexicographic in the declared variable sequence, e.g.
``t1*t2+t1*t3+t2*t3`` or ``3*z^-2-z^-1+z^3``.  Values are immutable and all
operations pure, so they can be shared freely across threads.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping

from ._terms import Terms, _set
from .errors import ContextError, PoleAtPointError, PreconditionError

Exponents = tuple[int, ...]


def _add_exps(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(operator.add, a, b))


def _max_exps(terms: Mapping[Exponents, Fraction]) -> Exponents:
    """Componentwise maximum of nonempty exponent keys."""
    return tuple(max(col) for col in zip(*terms))


@dataclass(frozen=True)
class MultiPoly(Terms):
    variables: tuple[str, ...]
    terms: Mapping[Exponents, Fraction]

    _context = ("variables",)
    _scalars = (Rational,)
    _join = staticmethod(_add_exps)

    def _check_context(self):
        variables = tuple(self.variables)
        if len(set(variables)) != len(variables):
            raise ContextError(f"repeated variable name in {variables}")
        _set(self, "variables", variables)

    def _term(self, exps, coeff):
        exps = tuple(exps)
        if len(exps) != len(self.variables):
            raise ContextError(
                f"exponent vector {exps} does not match variables {self.variables}"
            )
        if exps and min(exps) < 0:
            raise ContextError(f"negative exponent in ordinary variables: {exps}")
        # Fraction(coeff) copies a Fraction at some cost
        return exps, coeff if coeff.__class__ is Fraction else Fraction(coeff)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str]) -> "MultiPoly":
        return MultiPoly._make({}, tuple(variables))

    @staticmethod
    def const(variables: Iterable[str], value) -> "MultiPoly":
        variables = tuple(variables)
        return MultiPoly._make({(0,) * len(variables): Fraction(value)}, variables)

    @staticmethod
    def variable(variables: Iterable[str], name: str, power: int = 1) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise ContextError(f"{name!r} is not among variables {variables}")
        if power < 0:
            raise PreconditionError("MultiPoly does not allow negative powers")
        exps = tuple(power if v == name else 0 for v in variables)
        return MultiPoly._make({exps: Fraction(1)}, variables)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Rational):
            other = MultiPoly.const(self.variables, other)
        return Terms.__add__(self, other)

    __radd__ = __add__
    # perfbench/tracing.py wraps the operators in the class's own __dict__
    __mul__ = Terms.__mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PreconditionError("MultiPoly does not allow negative powers")
        result = MultiPoly.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exact_quotient(self, divisor: "MultiPoly") -> "MultiPoly | None":
        """q with q * divisor == self, or None when divisor does not divide self.

        Division by leading terms in lex order over the sorted exponent keys.
        A quotient term whose exponent of some variable is negative, or exceeds
        that variable's degree in self less its degree in divisor, proves that
        no exact quotient exists, so the loop stops there.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise PreconditionError("division by the zero polynomial")
        if self.is_zero():
            return self
        lead, lead_coeff = next(reversed(divisor.terms.items()))
        bounds = [a - b for a, b in zip(_max_exps(self.terms), _max_exps(divisor.terms))]
        rest = dict(self.terms)
        quotient = {}
        while rest:
            top = max(rest)
            shift = tuple(a - b for a, b in zip(top, lead))
            if any(s < 0 or s > b for s, b in zip(shift, bounds)):
                return None
            coeff = rest[top] / lead_coeff
            quotient[shift] = coeff
            for exps, c in divisor.terms.items():
                key = _add_exps(shift, exps)
                value = rest.get(key, 0) - coeff * c
                if value:
                    rest[key] = value
                else:
                    del rest[key]
        return self._like(quotient)

    # -- queries ------------------------------------------------------------

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degrees = {sum(e) for e in self.terms}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def evaluate(self, point: Mapping[str, object]) -> Fraction:
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise ContextError(f"unassigned variables: {missing}")
        values = [Fraction(point[v]) for v in self.variables]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for val, e in zip(values, exps):
                if e:
                    term *= val**e
            total += term
        return total

    def set_var_zero(self, name: str) -> "MultiPoly":
        """Substitute name := 0 (keeps the variable slot in the context)."""
        if name not in self.variables:
            raise ContextError(f"{name!r} is not among variables {self.variables}")
        i = self.variables.index(name)
        return self.select(lambda e: e[i] == 0)

    def __str__(self):
        return render_terms(self.variables, self.terms)

    def __repr__(self):
        return f"MultiPoly({str(self) or '0'!r})"


# ---------------------------------------------------------------------------


def render_terms(variables: tuple[str, ...], terms: Mapping[Exponents, Fraction]) -> str:
    """Compact canonical rendering, descending lex: ``t1^2-t2^2``, ``5/6*x``."""
    if not terms:
        return "0"
    parts = []
    for exps in sorted(terms, reverse=True):
        coeff = terms[exps]
        factors = []
        for v, e in zip(variables, exps):
            if e == 0:
                continue
            factors.append(v if e == 1 else f"{v}^{e}")
        if not factors:
            body = str(coeff)
        elif coeff == 1:
            body = "*".join(factors)
        elif coeff == -1:
            body = "-" + "*".join(factors)
        else:
            body = str(coeff) + "*" + "*".join(factors)
        parts.append(body)
    out = "+".join(parts).replace("+-", "-")
    return out


_TERM_SPLIT = re.compile(r"(?<!\^)(?=[+-])")
_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_terms(
    text: str, variables: tuple[str, ...], allow_negative: frozenset[str] = frozenset()
) -> dict[Exponents, Fraction]:
    """Parse the canonical compact rendering back into a term dict."""
    text = text.replace(" ", "")
    if text in ("", "0"):
        return {}
    index = {v: i for i, v in enumerate(variables)}
    terms: dict[Exponents, Fraction] = {}
    for chunk in _TERM_SPLIT.split(text):
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = Fraction(-1)
            chunk = chunk[1:]
        coeff = sign
        exps = [0] * len(variables)
        for factor in chunk.split("*"):
            if _RATIONAL.match(factor):
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            if name not in index:
                raise ContextError(f"unknown variable {name!r} in {text!r}")
            e = int(power) if power else 1
            if e < 0 and name not in allow_negative:
                raise ContextError(f"negative power of ordinary variable {name!r}")
            exps[index[name]] += e
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return {e: c for e, c in terms.items() if c}


def parse_poly(text: str, variables: Iterable[str]) -> MultiPoly:
    variables = tuple(variables)
    return MultiPoly(variables, parse_terms(text, variables))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentPoly(Terms):
    """Laurent polynomial in ``dist`` with MultiPoly coefficients."""

    dist: tuple[str, ...]
    variables: tuple[str, ...]
    terms: Mapping[Exponents, MultiPoly]

    _context = ("dist", "variables")
    _scalars = (Rational, MultiPoly)
    _join = staticmethod(_add_exps)

    def _check_context(self):
        dist = tuple(self.dist)
        variables = tuple(self.variables)
        if set(dist) & set(variables):
            raise ContextError("distinguished and ordinary variables overlap")
        _set(self, "dist", dist)
        _set(self, "variables", variables)

    def _term(self, exps, coeff):
        exps = tuple(exps)
        if len(exps) != len(self.dist):
            raise ContextError(
                f"exponent vector {exps} does not match distinguished {self.dist}"
            )
        if not isinstance(coeff, MultiPoly):
            coeff = MultiPoly.const(self.variables, coeff)
        if coeff.variables != self.variables:
            raise ContextError("coefficient has wrong variable context")
        return exps, coeff

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(dist: Iterable[str], variables: Iterable[str]) -> "LaurentPoly":
        return LaurentPoly._make({}, tuple(dist), tuple(variables))

    @staticmethod
    def const(dist: Iterable[str], variables: Iterable[str], value) -> "LaurentPoly":
        dist = tuple(dist)
        variables = tuple(variables)
        return LaurentPoly._make(
            {(0,) * len(dist): MultiPoly.const(variables, value)}, dist, variables
        )

    @staticmethod
    def from_poly(p: MultiPoly, dist: Iterable[str] = ()) -> "LaurentPoly":
        dist = tuple(dist)
        return LaurentPoly._make({(0,) * len(dist): p}, dist, p.variables)

    @staticmethod
    def variable(dist: Iterable[str], variables: Iterable[str], name: str, power: int = 1):
        dist = tuple(dist)
        variables = tuple(variables)
        one = MultiPoly.const(variables, 1)
        if name in dist:
            exps = tuple(power if v == name else 0 for v in dist)
            return LaurentPoly._make({exps: one}, dist, variables)
        return LaurentPoly.from_poly(
            MultiPoly.variable(variables, name, power), dist
        )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Rational):
            other = LaurentPoly.const(self.dist, self.variables, other)
        return Terms.__add__(self, other)

    __radd__ = __add__
    # perfbench/tracing.py wraps the operators in the class's own __dict__
    __mul__ = Terms.__mul__

    # -- polar split --------------------------------------------------------

    def polar_part(self, name: str | None = None) -> "LaurentPoly":
        """Terms with a negative exponent of the given distinguished variable.

        With a single distinguished variable the argument may be omitted.
        """
        i = self._dist_index(name)
        return self.select(lambda e: e[i] < 0)

    def regular_part(self, name: str | None = None) -> "LaurentPoly":
        i = self._dist_index(name)
        return self.select(lambda e: e[i] >= 0)

    def polar_any(self) -> "LaurentPoly":
        """Terms negative in at least one distinguished variable."""
        return self.select(lambda e: any(x < 0 for x in e))

    def _dist_index(self, name: str | None) -> int:
        if name is None:
            if len(self.dist) != 1:
                raise ContextError("polar part needs an explicit variable name here")
            return 0
        if name not in self.dist:
            raise ContextError(f"{name!r} is not distinguished in {self.dist}")
        return self.dist.index(name)

    def evaluate(self, point: Mapping[str, object]) -> Fraction:
        missing = [v for v in self.dist + self.variables if v not in point]
        if missing:
            raise ContextError(f"unassigned variables: {missing}")
        dvals = [Fraction(point[v]) for v in self.dist]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            cval = coeff.evaluate(point)
            if cval == 0:
                continue
            term = cval
            for v, val, e in zip(self.dist, dvals, exps):
                if e < 0 and val == 0:
                    raise PoleAtPointError(f"{v} = 0 hit with exponent {e}")
                if e:
                    term *= val**e
            total += term
        return total

    def __str__(self):
        flat: dict[Exponents, Fraction] = {}
        for dexps, coeff in self.terms.items():
            for pexps, c in coeff.terms.items():
                flat[dexps + pexps] = c
        return render_terms(self.dist + self.variables, flat)

    def __repr__(self):
        return f"LaurentPoly({str(self) or '0'!r})"


def parse_laurent(text: str, dist: Iterable[str], variables: Iterable[str]) -> LaurentPoly:
    dist = tuple(dist)
    variables = tuple(variables)
    flat = parse_terms(text, dist + variables, allow_negative=frozenset(dist))
    nd = len(dist)
    terms: dict[Exponents, dict] = {}
    for exps, coeff in flat.items():
        terms.setdefault(exps[:nd], {})[exps[nd:]] = coeff
    return LaurentPoly(
        dist, variables, {d: MultiPoly(variables, t) for d, t in terms.items()}
    )
