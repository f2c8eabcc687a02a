"""Finite linear combinations: the one copy of their arithmetic.

Every exact value in rbren is a sum of basis keys with nonzero coefficients:
polynomials over exponent vectors, exterior forms over generator subsets,
Hopf elements over monomials, tensors over words, classes over powers of L.
``Terms`` holds such a sum and its context and implements the linear
operations and the canonical form once; each element type adds its per-term
check, named constructors, queries and rendering.
"""

from __future__ import annotations

from .errors import ContextError

# bypasses the frozen dataclass guard, as the dataclass's own __init__ does
_set = object.__setattr__


def _canonical(terms: dict) -> dict:
    """The nonzero terms in sorted key order."""
    return dict(sorted((k, c) for k, c in terms.items() if c))


class Terms:
    """Base of the element types that are finite linear combinations.

    An element holds ``terms``, a dict from basis keys to nonzero
    coefficients in sorted key order, so equal elements are stored
    identically, plus the context fields named in ``_context``.  Elements
    combine only when their contexts agree.  A subclass (a frozen dataclass)
    supplies:

      _context        names of the context fields, in constructor order
      _scalars        coefficient types an element can be scaled by
      _join           key of the product of two basis keys
      _term           check of one term: (key, coeff) -> normalized pair
      _check_context  check of the context fields, which it stores normalized
    """

    _context: tuple[str, ...] = ()
    _scalars: tuple[type, ...] = ()

    def __post_init__(self):
        """Validating constructor: the context and every term pass the type's
        checks, then equal keys are summed, zero coefficients dropped and the
        keys sorted."""
        self._check_context()
        term = self._term
        terms = {}
        for k, c in self.terms.items():
            k, c = term(k, c)
            if k in terms:
                c = terms.pop(k) + c
            if c:
                terms[k] = c
        _set(self, "terms", dict(sorted(terms.items())))

    def _check_context(self):
        """Types whose context fields need no check keep them as given."""

    @classmethod
    def _make(cls, terms: dict, *context, ordered=False):
        """Trusted constructor: keys taken as valid.  Zero coefficients are
        dropped and the keys sorted, unless ``ordered`` says that ``terms``
        already holds nonzero coefficients in sorted key order, as the result
        of an operation that cannot move a key or create a zero does."""
        x = object.__new__(cls)
        for name, value in zip(cls._context, context):
            _set(x, name, value)
        _set(x, "terms", terms if ordered else _canonical(terms))
        return x

    def _like(self, terms: dict, ordered=False):
        """Trusted constructor with the context of ``self``, as ``_make``."""
        x = object.__new__(self.__class__)
        for name in self._context:
            _set(x, name, getattr(self, name))
        _set(x, "terms", terms if ordered else _canonical(terms))
        return x

    def _check(self, other):
        for name in self._context:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                raise ContextError(
                    f"{type(self).__name__}.{name} differs: {mine!r} vs {theirs!r}"
                )

    def zero_like(self):
        return self._like({})

    # -- linear structure ------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        self._check(other)
        # values are immutable, so a sum with zero may share the other operand
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for k, c in other.terms.items():
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()}, ordered=True)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product of basis keys extended bilinearly, or scalar product."""
        if other.__class__ is self.__class__:
            self._check(other)
            if not self.terms:
                return self
            if not other.terms:
                return other
            join = self._join
            out = {}
            get = out.get
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    k = join(k1, k2)
                    prev = get(k)
                    out[k] = c1 * c2 if prev is None else prev + c1 * c2
            return self._like(out)
        if isinstance(other, self._scalars):
            # coefficients form an integral domain, so only a zero scalar
            # leaves a zero coefficient
            return self._like({k: c * other for k, c in self.terms.items()}, ordered=bool(other))
        return NotImplemented

    # a product of two elements always reaches __mul__, so only scalars get here
    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- structural helpers -----------------------------------------------------

    def map_coeffs(self, fn):
        """Apply ``fn`` to every coefficient; zero results are dropped."""
        out = {}
        for k, c in self.terms.items():
            c = fn(c)
            if c:
                out[k] = c
        return self._like(out, ordered=True)

    def select(self, keep):
        """Projection onto the terms whose key satisfies ``keep``."""
        return self._like({k: c for k, c in self.terms.items() if keep(k)}, ordered=True)
