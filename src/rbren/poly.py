"""Exact sparse polynomial arithmetic over the rationals.

  MultiPoly   -- polynomial in an ordered tuple of named variables.
  LaurentPoly -- adds a tuple of *distinguished* variables whose exponents may
                 be negative; the coefficient of each distinguished monomial
                 is a MultiPoly in the ordinary variables.

Both keep the integral form of ``Terms`` (see ``_Packed``), which supplies
``+``, ``*`` and ``**``.  ``_Packed._lift`` makes a scalar operand, a
rational or, for a LaurentPoly, a MultiPoly over its ordinary variables, a
constant; a float is refused.  Their ``terms`` is a view built on each
access, in sorted key order: exponent tuples to Fraction coefficients for a
MultiPoly, distinguished exponent tuples to MultiPoly coefficients for a
LaurentPoly.  Printing is descending lex in the declared variable sequence,
e.g. ``t1*t2+t1*t3+t2*t3`` or ``3*z^-2-z^-1+z^3``.  Values are immutable and
all operations pure, so they can be shared freely across threads.
"""

from __future__ import annotations

import operator
import re
import struct
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm, prod
from numbers import Rational
from typing import Iterable, Mapping

from ._terms import Terms, _exact, _set
from .errors import ContextError, PoleAtPointError, PreconditionError, SizeBoundError

Exponents = tuple[int, ...]

_B = 1 << 14  # a distinguished exponent e is stored as e + _B
_RANGE = f"exponents must lie in [0, {2 * _B}), distinguished ones in [{-_B}, {_B})"


@cache
def _fields(nd: int, n: int):
    """(fmt, bias, guard) of keys with n 16-bit fields, the first nd
    distinguished: ``fmt`` packs the fields, ``bias`` is the key of the zero
    exponents and ``guard`` has the top bit of every field set."""
    bias = int.from_bytes(b"\x40\x00" * nd + bytes(2 * (n - nd)), "big")
    return struct.Struct(f">{n}h"), bias, int.from_bytes(b"\x80\x00" * n, "big")


def _keys(given, names: tuple[str, ...], dist: bool) -> list[int]:
    """The keys of the exponent tuples ``given`` over ``names``, stored plus
    _B when ``dist``; a tuple that does not fit is refused."""
    fmt, _, guard = _fields(0, len(names))
    try:
        keys = [int.from_bytes(fmt.pack(*e), "big") for e in given]
        if dist:  # a two's complement field with its sign bit flipped is e + 2 * _B
            keys = [(k ^ guard) - (guard >> 1) for k in keys]
        if not reduce(operator.or_, keys, 0) & guard:
            return keys
    except struct.error:
        pass
    lo, hi = (-_B, _B) if dist else (0, 2 * _B)
    for e in map(tuple, given):
        if len(e) != len(names):
            kind = "distinguished" if dist else "variables"
            raise ContextError(f"exponent vector {e} does not match {kind} {names}")
        if not all(isinstance(x, int) for x in e):
            raise ContextError(f"non-integer exponent in {e}")
        if not dist and min(e, default=0) < 0:
            raise ContextError(f"negative exponent in ordinary variables: {e}")
        if not all(lo <= x < hi for x in e):
            raise SizeBoundError(f"exponent vector {e}: {_RANGE}")


def _numerators(keys, coeffs) -> tuple[dict, int]:
    """{key: numerator} of the rational ``coeffs`` over their least common
    denominator, zeros dropped, and that denominator."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    d = lcm(*[m for _, m in ratios])
    return {k: n * (d // m) for k, (n, m) in zip(keys, ratios) if n}, d


def _fieldwise(keys, guard: int, low: bool) -> int:
    """The fieldwise minimum (``low``) or maximum of nonempty packed keys."""
    keys = iter(keys)
    out = next(keys)
    for k in keys:
        # all ones in the fields where out >= k: there no borrow takes the guard
        ge = ((((out | guard) - k) & guard) >> 15) * 0xFFFF
        if not low:
            out = out & ge | k & ~ge
        elif not (out := k & ge | out & ~ge):
            break
    return out


class _Packed(Terms):
    """The integral form of MultiPoly and LaurentPoly: int numerators over
    ``_d`` and an int key per monomial, which holds the exponents over
    ``dist + variables`` in 16-bit fields, the first variable in the high
    bits, a distinguished exponent e as e + _B.  Int order is then exponent
    tuple order, and a monomial product is a sum of keys less ``bias``.  The
    top bit of every field stays clear, so a sum of two fields never carries
    into the next; a product that sets one raises SizeBoundError."""

    _integral = True
    _join = staticmethod(operator.add)

    def _layout(self):
        return _fields(len(self.dist), len(self.dist) + len(self.variables))

    def _fit(self, out):
        _, bias, guard = self._layout()
        if bias:
            out = {k - bias: c for k, c in out.items()}
        if reduce(operator.or_, out, 0) & guard:
            raise SizeBoundError(f"a product leaves the packed exponent range: {_RANGE}")
        return out

    def _lift(self, s):
        """The scalar ``s`` as an element of this type and context."""
        if isinstance(s, MultiPoly):  # a coefficient of a LaurentPoly
            if s.variables != self.variables:
                raise ContextError("coefficient has wrong variable context")
            return LaurentPoly.from_poly(s, self.dist)
        return self._like({self._layout()[1]: s.numerator}, s.denominator)

    def _exps(self, k) -> Exponents:
        """The exponents over ``dist + variables`` of the key ``k``."""
        fmt, nd = self._layout()[0], len(self.dist)
        e = fmt.unpack(k.to_bytes(fmt.size, "big"))
        return tuple([x - _B for x in e[:nd]]) + e[nd:] if nd else e

    def _band(self, i: int, lo: int, hi: int):
        """The terms whose stored field i lies in [lo, hi)."""
        s = 16 * (len(self.dist) + len(self.variables) - 1 - i)
        t = {k: c for k, c in self._t.items() if lo <= k >> s & 0xFFFF < hi}
        return self._like(t, self._d, ordered=True)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine = (self._t, self._d, self.dist, self.variables)
        return mine == (other._t, other._d, other.dist, other.variables)

    def select(self, keep):
        """Projection onto the terms whose key, as in ``terms``, satisfies ``keep``."""
        return replace(self, terms={k: c for k, c in self.terms.items() if keep(k)})

    def map_coeffs(self, fn):
        """Apply ``fn`` to every coefficient, as in ``terms``; zeros are dropped."""
        return replace(self, terms={k: fn(c) for k, c in self.terms.items()})

    def set_var_zero(self, name: str):
        """Substitute name := 0 for an ordinary variable (keeps its slot)."""
        if name not in self.variables:
            raise ContextError(f"{name!r} is not among variables {self.variables}")
        return self._band(len(self.dist) + self.variables.index(name), 0, 1)

    def evaluate(self, point: Mapping[str, object]) -> Fraction:
        """The value at ``point``.  A negative power of a distinguished variable
        at 0 raises PoleAtPointError where its coefficient does not vanish."""
        names, nd = self.dist + self.variables, len(self.dist)
        missing = [v for v in names if v not in point]
        if missing:
            raise ContextError(f"unassigned variables: {missing}")
        values = [Fraction(point[v]) for v in names]
        groups = {}
        for k, c in self._t.items():
            e = self._exps(k)
            value = c * prod(v**x for v, x in zip(values[nd:], e[nd:]) if x)
            groups[e[:nd]] = groups.get(e[:nd], 0) + value
        total = Fraction(0)
        for e, c in filter(operator.itemgetter(1), groups.items()):
            for name, v, x in zip(self.dist, values, e):
                if x < 0 and v == 0:
                    raise PoleAtPointError(f"{name} = 0 hit with exponent {x}")
            total += c * prod(v**x for v, x in zip(values, e) if x)
        return total / self._d

    def __str__(self):
        """Compact canonical rendering, descending lex: ``t1^2-t2^2``, ``5/6*x``."""
        names, d, parts = self.dist + self.variables, self._d, []
        for k in sorted(self._t, reverse=True):
            c = self._t[k]
            g = gcd(c, d)
            coeff = str(c // g) if g == d else f"{c // g}/{d // g}"
            body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, self._exps(k)) if e)
            if body:
                coeff = coeff[:-1] + body if coeff in ("1", "-1") else f"{coeff}*{body}"
            parts.append(coeff)
        return "+".join(parts).replace("+-", "-") or "0"

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"


@dataclass(frozen=True, eq=False)
class MultiPoly(_Packed):
    variables: tuple[str, ...]
    terms: Mapping[Exponents, Fraction] = field()

    _context = ("variables",)
    _scalars = (Rational,)
    dist = ()  # no distinguished variables

    def _check_context(self):
        variables = tuple(self.variables)
        if len(set(variables)) != len(variables):
            raise ContextError(f"repeated variable name in {variables}")
        _set(self, "variables", variables)

    def _over(self, given):
        keys = _keys(given, self.variables, False)
        return _numerators(keys, [_exact(c) for c in given.values()])

    def _view(self):
        fmt, d = self._layout()[0], self._d
        return {
            fmt.unpack(k.to_bytes(fmt.size, "big")): Fraction(c, d) for k, c in sorted(self._t.items())
        }

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str]) -> "MultiPoly":
        return MultiPoly._make({}, tuple(variables))

    @staticmethod
    def const(variables: Iterable[str], value) -> "MultiPoly":
        q = _exact(value)
        return MultiPoly._make({0: q.numerator}, tuple(variables), d=q.denominator)

    @staticmethod
    def variable(variables: Iterable[str], name: str, power: int = 1) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise ContextError(f"{name!r} is not among variables {variables}")
        if power < 0:
            raise PreconditionError("MultiPoly does not allow negative powers")
        return MultiPoly(variables, {tuple(power if v == name else 0 for v in variables): 1})

    # -- ring operations ----------------------------------------------------

    # perfbench/tracing.py wraps the operators in the class's own __dict__
    __add__ = Terms.__add__
    __mul__ = Terms.__mul__

    def exact_quotient(self, divisor: "MultiPoly") -> "MultiPoly | None":
        """q with q * divisor == self, or None when divisor does not divide self:
        division by leading terms in lex order over the keys.  A quotient term
        whose exponent of some variable is negative, or exceeds that
        variable's degree in self less its degree in divisor, proves that no
        exact quotient exists, so the loop stops there."""
        self._check(divisor)
        if divisor.is_zero():
            raise PreconditionError("division by the zero polynomial")
        if self.is_zero():
            return self
        g = self._layout()[2]
        # a - b keeps every guard bit of a | g when no field of b exceeds a's
        fits = lambda a, b: ((a | g) - b) & g == g
        top, low = (_fieldwise(p._t, g, low=False) for p in (self, divisor))
        if not fits(top, low):
            return None
        bound, lead = top - low, max(divisor._t)
        rest, quotient = dict(self._t), {}
        while rest:
            high = max(rest)
            shift = high - lead
            if not (fits(high, lead) and fits(bound, shift)):
                return None
            coeff = quotient[shift] = Fraction(rest[high], divisor._t[lead])
            for k, c in divisor._t.items():
                value = rest.pop(k + shift, 0) - coeff * c
                if value:
                    rest[k + shift] = value
        # the numerators of self and divisor divide to q * self._d / divisor._d
        t, d = _numerators(quotient, quotient.values())
        return self._like({k: c * divisor._d for k, c in t.items()}, d * self._d)

    # -- queries ------------------------------------------------------------

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        return max((sum(self._exps(k)) for k in self._t), default=-1)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degrees = {sum(self._exps(k)) for k in self._t}
        return len(degrees) <= 1 and (degree is None or degrees <= {degree})


# ---------------------------------------------------------------------------


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
    for chunk in filter(None, _TERM_SPLIT.split(text)):
        coeff = Fraction(-1 if chunk[0] == "-" else 1)
        exps = [0] * len(variables)
        for factor in (chunk[1:] if chunk[0] in "+-" else chunk).split("*"):
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


@dataclass(frozen=True, eq=False)
class LaurentPoly(_Packed):
    """Laurent polynomial in ``dist`` with MultiPoly coefficients."""

    dist: tuple[str, ...]
    variables: tuple[str, ...]
    terms: Mapping[Exponents, MultiPoly] = field()

    _context = ("dist", "variables")
    _scalars = (Rational, MultiPoly)

    def _check_context(self):
        dist = tuple(self.dist)
        variables = tuple(self.variables)
        if set(dist) & set(variables):
            raise ContextError("distinguished and ordinary variables overlap")
        _set(self, "dist", dist)
        _set(self, "variables", variables)

    def _over(self, given):
        """The coefficients' terms moved into their distinguished monomials."""
        keys, variables = _keys(given, self.dist, True), self.variables
        coeffs = [
            c if isinstance(c, MultiPoly) else MultiPoly.const(variables, c) for c in given.values()
        ]
        if any(c.variables != variables for c in coeffs):
            raise ContextError("coefficient has wrong variable context")
        d, low = lcm(*[c._d for c in coeffs]), 16 * len(variables)
        t = {h << low | k: n * (d // c._d) for h, c in zip(keys, coeffs) for k, n in c._t.items()}
        return t, d

    def _view(self):
        low, groups = 16 * len(self.variables), {}
        for k, c in sorted(self._t.items()):
            groups.setdefault(k >> low, {})[k & (1 << low) - 1] = c
        fmt = _fields(0, len(self.dist))[0]
        return {
            tuple([e - _B for e in fmt.unpack(h.to_bytes(fmt.size, "big"))]): MultiPoly._make(
                t, self.variables, d=self._d, ordered=True
            )
            for h, t in groups.items()
        }

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(dist: Iterable[str], variables: Iterable[str]) -> "LaurentPoly":
        return LaurentPoly._make({}, tuple(dist), tuple(variables))

    @staticmethod
    def const(dist: Iterable[str], variables: Iterable[str], value) -> "LaurentPoly":
        return LaurentPoly.from_poly(MultiPoly.const(variables, value), dist)

    @staticmethod
    def from_poly(p: MultiPoly, dist: Iterable[str] = ()) -> "LaurentPoly":
        dist = tuple(dist)
        bias = _fields(len(dist), len(dist) + len(p.variables))[1]
        t = {k + bias: c for k, c in p._t.items()} if bias else p._t
        return LaurentPoly._make(t, dist, p.variables, d=p._d, ordered=True)

    @staticmethod
    def variable(dist: Iterable[str], variables: Iterable[str], name: str, power: int = 1):
        dist = tuple(dist)
        if name in dist:
            return LaurentPoly(dist, variables, {tuple(power if v == name else 0 for v in dist): 1})
        return LaurentPoly.from_poly(MultiPoly.variable(variables, name, power), dist)

    # -- ring operations ----------------------------------------------------

    # perfbench/tracing.py wraps the operator in the class's own __dict__
    __mul__ = Terms.__mul__

    # -- polar split --------------------------------------------------------

    def polar_part(self, name: str | None = None) -> "LaurentPoly":
        """Terms with a negative exponent of the given distinguished variable.

        With a single distinguished variable the argument may be omitted.
        """
        return self._band(self._dist_index(name), 0, _B)

    def regular_part(self, name: str | None = None) -> "LaurentPoly":
        return self._band(self._dist_index(name), _B, 2 * _B)

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


# the views, set past the decorator, which would take them for field defaults
MultiPoly.terms = property(MultiPoly._view, Terms._store)
LaurentPoly.terms = property(LaurentPoly._view, Terms._store)


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
