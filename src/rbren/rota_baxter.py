"""Weight -1 Rota-Baxter algebras of Laurent elements and differential forms.

Five algebra kinds, each a commutative algebra with a polar-part operator T
satisfying  T(x)T(y) + T(xy) = T(xT(y)) + T(T(x)y):

  laurent_ms      Laurent polynomials in one variable z; T keeps negative
                  powers (minimal subtraction).
  merom_form      even exterior elements whose coefficients are Laurent in a
                  single divisor variable f; T keeps the f-polar part.
  nc_log_form     even exterior elements over dlog_1..dlog_m, dx_1..dx_N with
                  coefficients polynomial in (f_1..f_m, x_1..x_N); T projects
                  onto the ideal of terms containing a dlog factor.  T is
                  idempotent, T(T(x)y) = T(x)y, T(xT(y)) = xT(y), and 1-T is
                  multiplicative.
  smooth_log_form nc_log_form with m = 1; additionally T(x)T(y) = 0 and T is
                  a derivation.
  saito_form      triples (f, xi, eta) representing (dlog(h)^xi + eta)/f for
                  a fixed divisor h; T keeps the dlog(h) part and is a
                  derivation.

``RBAlgebraDescriptor`` is the public type and each kind one subclass of it:
its fields are the sizes the kind reads, and it supplies the variables, the
element type and T.

Divisor equations are distinguished formal variables (the local normal form
of a smooth component), which makes polar-part extraction canonical.

All values are immutable; operators are pure functions.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, ClassVar, Iterable

from .errors import ContextError, InvariantError, PreconditionError
from .exterior import ExteriorElement
from .poly import LaurentPoly, MultiPoly, _fieldwise, _keys, parse_laurent, parse_poly


@dataclass(frozen=True)
class SaitoForm:
    """(f, xi, eta) with gcd(f, h) = 1, representing (dlog(h)^xi + eta)/f.

    xi is odd, eta is even, so the form itself is even.  ``==`` compares
    the triples structurally, so one form may be written by unequal
    triples; ``SaitoAlgebra.eq`` compares the forms, by cross-multiplying.
    """

    denom: MultiPoly
    xi: ExteriorElement
    eta: ExteriorElement


def _names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{k}" for k in range(1, count + 1))


def _random_poly(rng, variables, hfree=False) -> MultiPoly:
    """One or two seeded terms; ``hfree`` keeps the divisor h out."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exps = [rng.randint(0, 2) if rng.random() < 0.5 else 0 for _ in variables]
        if hfree:
            exps[variables.index("h")] = 0
        # a coefficient in {-2, -1, 1, 2} / {1, 2}, as a numerator over 2
        half = rng.choice([-2, -1, 1, 2]) * (2 // rng.choice([1, 1, 2]))
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + half
    keys = _keys(terms, variables, False)
    return MultiPoly._make(dict(zip(keys, terms.values())), variables, d=2)


def _random_form(gens, draws) -> ExteriorElement:
    """The sum of the seeded (subset, coefficient) ``draws``."""
    terms = {}
    for subset, coeff in draws:
        terms[subset] = terms[subset] + coeff if subset in terms else coeff
    return ExteriorElement(gens, terms)


# -- the descriptor and one subclass per kind -------------------------------------


class RBAlgebraDescriptor:
    """A weight -1 Rota-Baxter algebra.  Each kind is a frozen dataclass
    subclass (``KINDS``) whose fields are exactly the sizes that kind reads,
    so equal algebras compare equal; its generated ``__init__`` calls
    ``__post_init__`` here.  The defaults here are those of even exterior
    forms.

    ``mul``, ``add`` and ``T`` are defined here only, and each kind supplies
    ``_mul``, ``_add`` and ``_T``, so that a wrapper installed on this class
    (a profiler, a tracer) sees each call."""

    kind: ClassVar[str]
    # T^2 = T, T(T(x)y) = T(x)y and T(xT(y)) = xT(y); such targets admit the
    # non-recursive factorization formulas
    has_simple_T: ClassVar[bool] = False
    # T(x)T(y) = 0 and T(xy) = T(x)y + xT(y)
    derivation_T: ClassVar[bool] = False

    def __post_init__(self):
        for size in fields(self):
            value = getattr(self, size.name)
            if isinstance(value, int) and value < 0:
                raise PreconditionError(f"{self.kind} {size.name} must be >= 0, got {value}")
        object.__setattr__(self, "_vars", self._variables())

    def _variables(self) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
        """(dist_vars, poly_vars, gens) of the kind at these sizes."""
        raise NotImplementedError

    # -- constructors per kind ----------------------------------------------

    @staticmethod
    def laurent_ms(coeff_vars: Iterable[str] = ()) -> "RBAlgebraDescriptor":
        return LaurentAlgebra(tuple(coeff_vars))

    @staticmethod
    def merom(ambient: int) -> "RBAlgebraDescriptor":
        return MeromAlgebra(ambient=ambient)

    @staticmethod
    def nc_log(divisors: int, ambient: int) -> "RBAlgebraDescriptor":
        return NcLogAlgebra(divisors, ambient)

    @staticmethod
    def smooth_log(ambient: int) -> "RBAlgebraDescriptor":
        return SmoothLogAlgebra(ambient=ambient)

    @staticmethod
    def saito(ambient: int) -> "RBAlgebraDescriptor":
        return SaitoAlgebra(ambient)

    # -- contexts -------------------------------------------------------------

    def dist_vars(self) -> tuple[str, ...]:
        return self._vars[0]

    def poly_vars(self) -> tuple[str, ...]:
        return self._vars[1]

    def gens(self) -> tuple[str, ...]:
        return self._vars[2]

    # -- element builders ------------------------------------------------------

    def coeff(self, text_or_poly) -> LaurentPoly:
        if isinstance(text_or_poly, LaurentPoly):
            return text_or_poly
        if isinstance(text_or_poly, MultiPoly):
            return LaurentPoly.from_poly(text_or_poly, self.dist_vars())
        return parse_laurent(str(text_or_poly), self.dist_vars(), self.poly_vars())

    def form(self, *terms) -> ExteriorElement:
        """Build an exterior element from (generator-names, coefficient) pairs."""
        total = ExteriorElement.zero(self.gens())
        for names, coeff in terms:
            total = total + ExteriorElement.term(self.gens(), names, self.coeff(coeff))
        return total

    def zero(self):
        return ExteriorElement.zero(self.gens())

    def one(self):
        return ExteriorElement.scalar(
            self.gens(), LaurentPoly.const(self.dist_vars(), self.poly_vars(), 1)
        )

    # -- algebra operations -----------------------------------------------------

    def add(self, x, y):
        return self._add(x, y)

    _add = staticmethod(operator.add)

    def neg(self, x):
        return -x

    def sub(self, x, y):
        return x - y

    def scalar(self, c, x):
        return Fraction(c) * x

    def mul(self, x, y):
        return self._mul(x, y)

    def _mul(self, x, y):
        for operand in (x, y):
            if not operand.is_even():
                raise PreconditionError(
                    "algebra multiplication is defined on even-degree forms"
                )
        return x * y

    def is_zero(self, x) -> bool:
        return x.is_zero()

    def eq(self, x, y) -> bool:
        return x == y

    # -- the Rota-Baxter operator -------------------------------------------------

    def T(self, x):
        return self._T(x)

    def T_complement(self, x):
        return self.sub(x, self.T(x))

    # -- random sampling (seeded sweeps) --------------------------------------------

    def random_coeff(self, rng: random.Random) -> LaurentPoly:
        dist, variables = self.dist_vars(), self.poly_vars()
        out = {}
        for _ in range(rng.randint(1, 2)):
            dexps = tuple(rng.randint(-2, 2) for _ in dist)
            out[dexps] = _random_poly(rng, variables)
        return LaurentPoly(dist, variables, out)

    def random_element(self, rng: random.Random, even: bool = True):
        gens = self.gens()
        sizes = [d for d in range(len(gens) + 1) if d % 2 == 0 or not even]
        subsets = [s for d in sizes for s in itertools.combinations(range(len(gens)), d)]
        draws = range(rng.randint(1, 3))
        return _random_form(gens, ((rng.choice(subsets), self.random_coeff(rng)) for _ in draws))


def _single_divisor(desc: RBAlgebraDescriptor) -> None:
    if desc.divisors != 1:
        raise PreconditionError(f"{desc.kind} has exactly one divisor")


@dataclass(frozen=True)
class LaurentAlgebra(RBAlgebraDescriptor):
    kind = "laurent_ms"
    coeff_vars: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeff_vars", tuple(self.coeff_vars))
        super().__post_init__()

    def _variables(self):
        return ("z",), self.coeff_vars, ()

    def zero(self):
        return LaurentPoly.zero(self.dist_vars(), self.poly_vars())

    def one(self):
        return LaurentPoly.const(self.dist_vars(), self.poly_vars(), 1)

    _mul = staticmethod(operator.mul)

    def _T(self, x):
        return x.polar_part("z")

    def random_element(self, rng: random.Random, even: bool = True):
        return self.random_coeff(rng)


@dataclass(frozen=True)
class MeromAlgebra(RBAlgebraDescriptor):
    kind = "merom_form"
    divisors: int = 1
    ambient: int = 0

    def _variables(self):
        _single_divisor(self)
        return ("f",), _names("x", self.ambient), _names("dx", self.ambient)

    def _T(self, x):
        return x.map_coeffs(lambda c: c.polar_part("f"))


@dataclass(frozen=True)
class NcLogAlgebra(RBAlgebraDescriptor):
    kind = "nc_log_form"
    has_simple_T = True
    divisors: int = 0
    ambient: int = 0

    def _variables(self):
        m, n = self.divisors, self.ambient
        return (), _names("f", m) + _names("x", n), _names("dlog", m) + _names("dx", n)

    def _T(self, x):
        m = self.divisors
        return x.select(lambda s: any(i < m for i in s))


@dataclass(frozen=True)
class SmoothLogAlgebra(NcLogAlgebra):
    kind = "smooth_log_form"
    derivation_T = True
    divisors: int = 1

    def _variables(self):
        _single_divisor(self)
        return super()._variables()


@dataclass(frozen=True)
class SaitoAlgebra(RBAlgebraDescriptor):
    kind = "saito_form"
    has_simple_T = True
    derivation_T = True
    ambient: int = 0

    def _variables(self):
        return (), ("h",) + _names("x", self.ambient), _names("dx", self.ambient)

    def saito_element(self, denom, xi: ExteriorElement, eta: ExteriorElement) -> SaitoForm:
        if isinstance(denom, str):
            denom = parse_poly(denom, self.poly_vars())
        return self.reduce(denom, xi, eta)

    def zero(self):
        return SaitoForm(MultiPoly.const(self.poly_vars(), 1), super().zero(), super().zero())

    def one(self):
        return SaitoForm(MultiPoly.const(self.poly_vars(), 1), super().zero(), super().one())

    @staticmethod
    def _common(x, y):
        """(denom, mx, my) with denom = mx * x.denom = my * y.denom.

        denom is the shared denominator when the two are equal, the multiple
        when one divides the other, and their product otherwise; a multiplier
        of None stands for 1.
        """
        f, g = x.denom, y.denom
        if f == g:
            return f, None, None
        if f.total_degree() >= g.total_degree():
            q = f.exact_quotient(g)
            if q is not None:
                return f, None, q
        else:
            q = g.exact_quotient(f)
            if q is not None:
                return g, q, None
        return f * g, g, f

    def _add(self, x, y):
        denom, mx, my = self._common(x, y)
        return self.reduce(
            denom,
            _times(mx, x.xi) + _times(my, y.xi),
            _times(mx, x.eta) + _times(my, y.eta),
        )

    def neg(self, x):
        return SaitoForm(x.denom, -x.xi, -x.eta)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def scalar(self, c, x):
        c = Fraction(c)
        return SaitoForm(x.denom, c * x.xi, c * x.eta)

    def _mul(self, a, b):
        denom = a.denom * b.denom
        xi = a.xi * b.eta + a.eta * b.xi  # eta slots are even, no extra sign
        eta = a.eta * b.eta
        return self.reduce(denom, xi, eta)

    def is_zero(self, x) -> bool:
        return x.xi.is_zero() and x.eta.is_zero()

    def eq(self, x, y) -> bool:
        _, mx, my = self._common(x, y)
        return _times(mx, x.xi) == _times(my, y.xi) and _times(mx, x.eta) == _times(my, y.eta)

    def _T(self, x):
        return SaitoForm(x.denom, x.xi, x.eta.zero_like())

    def reduce(self, denom, xi, eta) -> SaitoForm:
        if denom.is_zero():
            raise InvariantError("zero denominator in a Saito triple")
        # h is the first variable, so the least key has the least h exponent
        if denom._exps(min(denom._t))[0]:
            raise InvariantError("denominator shares the divisor h")
        for part, parity in ((xi, 1), (eta, 0)):
            if any(len(s) % 2 != parity for s in part._t):
                raise PreconditionError("Saito slots must have odd/even parity")
        # the slot coefficients are polynomials in the variables of denom,
        # packed alike
        polys = [denom, *xi._t.values(), *eta._t.values()]
        if any(p.dist for p in polys):
            raise ContextError("expected a plain polynomial coefficient")
        # divide out the common rational content num/den and the common monomial
        num = gcd(*[gcd(*p._t.values()) for p in polys])
        den = lcm(*[p._d for p in polys])
        shift = _fieldwise(itertools.chain(*[p._t for p in polys]), denom._layout()[2], low=True)
        if num == den == 1 and not shift:
            return SaitoForm(denom, xi, eta)

        def divide(p):
            # num divides every numerator and p._d divides den: what is left
            # is integral and primitive
            t = {k - shift: c // num * (den // p._d) for k, c in p._t.items()}
            return p._like(t, ordered=True)

        return SaitoForm(divide(denom), xi.map_coeffs(divide), eta.map_coeffs(divide))

    def random_element(self, rng: random.Random, even: bool = True):
        variables = self.poly_vars()
        # h-free part first so gcd(f, h) = 1 is guaranteed
        denom = _random_poly(rng, variables, hfree=True)
        if denom.is_zero():
            denom = MultiPoly.const(variables, 1)
        if rng.random() < 0.5:
            h = MultiPoly.variable(variables, "h")
            denom = denom + h * _random_poly(rng, variables)
        gens = self.gens()
        n = len(gens)
        odd = [s for d in range(1, n + 1, 2) for s in itertools.combinations(range(n), d)]
        even = [s for d in range(0, n + 1, 2) for s in itertools.combinations(range(n), d)]
        plain = lambda: LaurentPoly.from_poly(_random_poly(rng, variables))
        xi = _random_form(gens, ((rng.choice(odd), plain()) for _ in range(rng.randint(0, 2))))
        eta = _random_form(gens, ((rng.choice(even), plain()) for _ in range(rng.randint(0, 2))))
        return self.reduce(denom, xi, eta)


# the one place a kind name selects a class
KINDS = {
    cls.kind: cls
    for cls in (LaurentAlgebra, MeromAlgebra, NcLogAlgebra, SmoothLogAlgebra, SaitoAlgebra)
}


def _times(m: MultiPoly | None, part: ExteriorElement) -> ExteriorElement:
    """m * part, with None standing for the multiplier 1; m is made a
    coefficient once, not once per term."""
    return part if m is None else LaurentPoly.from_poly(m) * part


# -- seeded sweeps: one descriptor per kind and the laws each kind obeys -----------


SWEEP_DESCRIPTORS = {
    "laurent_ms": RBAlgebraDescriptor.laurent_ms(coeff_vars=("c",)),
    "merom_form": RBAlgebraDescriptor.merom(4),
    "nc_log_form": RBAlgebraDescriptor.nc_log(2, 2),
    "smooth_log_form": RBAlgebraDescriptor.smooth_log(3),
    "saito_form": RBAlgebraDescriptor.saito(3),
}

# (class flag, law, check) for the laws beyond the Rota-Baxter identity; a
# kind obeys the laws whose flag its class sets
EXTRA_LAWS = (
    ("has_simple_T", "T^2=T", lambda d, x, y: d.eq(d.T(d.T(x)), d.T(x))),
    ("has_simple_T", "T(T(x)y)=T(x)y", lambda d, x, y: d.eq(d.T(d.mul(d.T(x), y)), d.mul(d.T(x), y))),
    ("has_simple_T", "T(xT(y))=xT(y)", lambda d, x, y: d.eq(d.T(d.mul(x, d.T(y))), d.mul(x, d.T(y)))),
    ("derivation_T", "T(x)T(y)=0", lambda d, x, y: d.is_zero(d.mul(d.T(x), d.T(y)))),
    ("derivation_T", "Leibniz", lambda d, x, y: d.eq(
        d.T(d.mul(x, y)), d.add(d.mul(d.T(x), y), d.mul(x, d.T(y))))),
)


def failed_laws(desc: RBAlgebraDescriptor, x, y) -> list[str]:
    """The laws of EXTRA_LAWS that desc's kind obeys but the pair breaks."""
    return [
        law
        for flag, law, holds in EXTRA_LAWS
        if getattr(desc, flag) and not holds(desc, x, y)
    ]


def sweep(desc: RBAlgebraDescriptor, pairs: int, seed: int) -> tuple[int, int]:
    """Seeded random pairs of even elements: the number of pairs with a
    nonzero ``rb_defect`` and the number of ``failed_laws`` over all pairs."""
    if pairs < 0:
        raise PreconditionError(f"pairs must be >= 0, got {pairs}")
    rng = random.Random(seed)
    rb_failures = law_failures = 0
    for _ in range(pairs):
        x = desc.random_element(rng)
        y = desc.random_element(rng)
        if not desc.is_zero(rb_defect(desc, x, y)):
            rb_failures += 1
        law_failures += len(failed_laws(desc, x, y))
    return rb_failures, law_failures


# -- defects and residues ----------------------------------------------------------


def rb_defect(desc: RBAlgebraDescriptor, x, y):
    """T(x)T(y) - T(xT(y)) - T(T(x)y) + T(xy); zero certifies the weight -1
    Rota-Baxter identity on the pair."""
    T, mul = desc.T, desc.mul
    tx, ty = T(x), T(y)
    out = mul(tx, ty)
    out = desc.sub(out, T(mul(x, ty)))
    out = desc.sub(out, T(mul(tx, y)))
    return desc.add(out, T(mul(x, y)))


def operator_defect(T: Callable, x, y):
    """Same defect for an arbitrary operator on a ring with dunder arithmetic.

    Lets one probe non-examples, e.g. the inclusion-exclusion polar operator
    1 - (1-T1)(1-T2) on a two-variable Laurent ring, which fails weight -1.
    """
    return T(x) * T(y) - T(x * T(y)) - T(T(x) * y) + T(x * y)


def residue(desc: RBAlgebraDescriptor, x: ExteriorElement, j: int) -> ExteriorElement:
    """Poincare residue along divisor j: the signed dlog_j coefficient with
    f_j set to zero (restriction to the component)."""
    if not isinstance(desc, NcLogAlgebra):
        raise PreconditionError("residue is defined on log-form algebras")
    if not 1 <= j <= desc.divisors:
        raise PreconditionError(f"divisor index {j} out of range")
    out = {}
    for subset, coeff in x.terms.items():
        if j - 1 in subset:
            pos = subset.index(j - 1)
            c = coeff.set_var_zero(f"f{j}")
            rest = subset[:pos] + subset[pos + 1 :]
            out[rest] = out.get(rest, c.zero_like()) + (-c if pos % 2 else c)
    return ExteriorElement(x.gens, out)


def iterated_residue(
    desc: RBAlgebraDescriptor, x: ExteriorElement, indices: Iterable[int]
) -> ExteriorElement:
    """Res_{i_k} o ... o Res_{i_1} for indices = (i_1, ..., i_k)."""
    indices = tuple(indices)
    if len(set(indices)) != len(indices):
        raise PreconditionError("iterated residue needs distinct indices")
    out = x
    for j in indices:
        out = residue(desc, out, j)
    return out
