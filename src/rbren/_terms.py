"""Finite linear combinations: the one copy of their arithmetic.

Every exact value in rbren is a sum of basis keys with nonzero coefficients:
polynomials over exponent vectors, exterior forms over generator subsets,
Hopf elements over monomials, tensors over words, classes over powers of L.
``Terms`` holds such a sum and its context and implements the linear
operations and the canonical form once; each element type adds its per-term
check, named constructors, queries and rendering.

An element stores ``_t``, a dict from keys to nonzero numerators, over the
common denominator ``_d``.  Most types keep whole coefficients over 1 in
sorted key order, and ``terms`` is ``_t``.  The integral types (``MultiPoly``,
``LaurentPoly``) pack each key into one int and keep int numerators over the
least ``_d``, unordered; their ``terms`` is a view built on each access.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import attrgetter

from .errors import ContextError

# bypasses the frozen dataclass guard, as the dataclass's own __init__ does
_set = object.__setattr__


class Terms:
    """Base of the element types that are finite linear combinations.

    An element holds ``_t`` and ``_d`` in canonical form, so equal elements
    are stored identically, and the context fields named in ``_context``;
    elements combine only when their contexts agree.  A subclass is a frozen
    dataclass that declares ``terms`` with ``field()`` and supplies:

      _context        names of the context fields, in constructor order
      _scalars        coefficient types an element can be scaled by
      _join           key of the product of two basis keys
      _term           check of one term: (key, coeff) -> normalized pair
      _check_context  check of the context fields, which it stores normalized

    An integral type supplies ``_over`` (the given terms checked and stored)
    instead of ``_term``, ``_lift`` (a scalar as an element) and ``_fit``
    (the checked keys of a product).
    """

    _context: tuple[str, ...] = ()
    _scalars: tuple[type, ...] = ()
    _integral = False

    def _store(self, terms):  # the dataclass __init__ hands the terms over here
        _set(self, "_t", terms)

    terms = property(attrgetter("_t"), _store)

    def __post_init__(self):
        """Validating constructor: the context and the given terms pass the
        type's checks and are stored in canonical form."""
        self._check_context()
        self.__dict__.update(zip(("_t", "_d"), self._over(self._t)))

    def _check_context(self):
        """Types whose context fields need no check keep them as given."""

    def _over(self, given):
        """``(_t, _d)`` of the given terms: each passes ``_term``, equal keys
        are summed, zero coefficients dropped and the keys sorted."""
        term = self._term
        terms = {}
        for k, c in given.items():
            k, c = term(k, c)
            terms[k] = terms[k] + c if k in terms else c
        return dict(sorted((k, c) for k, c in terms.items() if c)), 1

    @classmethod
    def _make(cls, terms: dict, *context, d=1, ordered=False):
        """Trusted constructor: keys taken as valid, stored as by ``_put``."""
        x = object.__new__(cls)
        x.__dict__.update(zip(cls._context, context))
        return x._put(terms, d, ordered)

    def _like(self, terms: dict, d=1, ordered=False):
        """Trusted constructor with the context of ``self``, as ``_make``."""
        x = object.__new__(self.__class__)
        x.__dict__.update(self.__dict__)
        return x._put(terms, d, ordered)

    def _put(self, terms: dict, d: int, ordered: bool):
        """Store ``terms`` over ``d`` and return self.  Zero coefficients are
        dropped and the keys of a non-integral type sorted, unless ``ordered``
        says that an operation that cannot move a key or create a zero gave
        them; the content shared with ``d`` is divided out."""
        if not ordered:
            terms = ({k: c for k, c in terms.items() if c} if self._integral
                     else dict(sorted((k, c) for k, c in terms.items() if c)))
        if d != 1:
            g = gcd(d, *terms.values())
            if g != 1:
                terms = {k: c // g for k, c in terms.items()}
                d //= g
        # the instance dict, as the frozen dataclass guards setattr
        v = self.__dict__
        v["_t"], v["_d"] = terms, d
        return self

    def _check(self, other):
        for name in self._context:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is not theirs and mine != theirs:
                raise ContextError(
                    f"{type(self).__name__}.{name} differs: {mine!r} vs {theirs!r}"
                )

    def zero_like(self):
        return self._like({})

    # -- linear structure ------------------------------------------------------

    def __add__(self, other):
        return self._plus(other, False)

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            return self + (-other)  # a scalar, which the type's __add__ takes
        return self._plus(other, True)

    def _plus(self, other, minus: bool):
        """self + other, or self - other when ``minus``."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        self._check(other)
        # values are immutable, so a sum with zero may share the other operand
        if not other._t:
            return self
        if not self._t:
            return -other if minus else other
        a, b, d, e = self._t, other._t, self._d, other._d
        if d != e:
            m = lcm(d, e)
            a = {k: c * (m // d) for k, c in a.items()}
            b = {k: c * (m // e) for k, c in b.items()}
            d = m
        out = dict(a)
        for k, c in b.items():
            prev = out.get(k)
            out[k] = (-c if minus else c) if prev is None else (prev - c if minus else prev + c)
        return self._like(out, d)

    def __neg__(self):
        return self._like({k: -c for k, c in self._t.items()}, self._d, ordered=True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product of basis keys extended bilinearly, or scalar product."""
        if other.__class__ is not self.__class__:
            if not isinstance(other, self._scalars):
                return NotImplemented
            if not self._integral:
                # coefficients form an integral domain, so only a zero scalar
                # leaves a zero coefficient
                return self._like({k: c * other for k, c in self._t.items()}, ordered=bool(other))
            other = self._lift(other)
        self._check(other)
        if not self._t:
            return self
        if not other._t:
            return other
        join = self._join
        out = {}
        get = out.get
        for k1, c1 in self._t.items():
            for k2, c2 in other._t.items():
                k = join(k1, k2)
                prev = get(k)
                out[k] = c1 * c2 if prev is None else prev + c1 * c2
        return self._like(self._fit(out) if self._integral else out, self._d * other._d)

    # a product of two elements always reaches __mul__, so only scalars get here
    __rmul__ = __mul__

    def __bool__(self):
        return bool(self._t)

    def is_zero(self) -> bool:
        return not self._t

    # -- structural helpers -----------------------------------------------------

    def map_coeffs(self, fn):
        """Apply ``fn`` to every coefficient; zero results are dropped."""
        out = {k: fn(c) for k, c in self._t.items()}
        return self._like({k: c for k, c in out.items() if c}, ordered=True)

    def select(self, keep):
        """Projection onto the terms whose key satisfies ``keep``."""
        return self._like({k: c for k, c in self._t.items() if keep(k)}, ordered=True)
