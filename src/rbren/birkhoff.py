"""Characters of the graph Hopf algebra with values in a Rota-Baxter algebra,
and their factorization into divergent and finite parts.

The recursive factorization is

    phi_minus(G) = -T(phi(G) + sum phi_minus(G') phi(G''))
    phi_plus(G)  = (1-T)(phi(G) + sum phi_minus(G') phi(G''))

with the sum over the reduced coproduct.  phi_minus extends multiplicatively;
its positive-degree values land in the image of T, so the unitization
T(R) + Q is represented inside R itself via the canonical embedding.  On
targets whose operator satisfies T^2 = T and T(T(x)y) = T(x)y the module also
provides the non-recursive series for phi_minus, the Atkinson fixed points
b_l = e + T(b_l * a), b_r = e + (1-T)(a * b_r) with a = e - phi, and the
closed form b_l = e + T(a)(1-a)^{-1}.

Characters and convolution elements memoize into plain dicts without
locking; they are not safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable

from .errors import MissingValueError, PreconditionError
from .graphs import FeynmanGraph, superficial_degree
from .hopf import (
    GeneratorRegistry,
    HopfElement,
    Monomial,
    antipode,
    coproduct,
    reduced_coproduct,
    reduced_coproduct_iterated,
)
from .poly import LaurentPoly
from .rota_baxter import RBAlgebraDescriptor

def _product(target, value: Callable[[str], Any], mono: Monomial) -> Any:
    """The product of value(name) over the factors of a monomial."""
    out = target.one()
    for name in mono:
        out = target.mul(out, value(name))
    return out


class _LinearMap:
    """A map into ``target`` given on the monomial basis by ``on_monomial``
    and extended linearly to HopfElements; a generator name stands for its
    one-factor monomial."""

    target: RBAlgebraDescriptor

    def __call__(self, x) -> Any:
        if isinstance(x, str):
            x = (x,)
        if isinstance(x, tuple):
            return self.on_monomial(x)
        out = self.target.zero()
        for mono, coeff in x.terms.items():
            out = self.target.add(out, self.target.scalar(coeff, self.on_monomial(mono)))
        return out


class Character(_LinearMap):
    """Multiplicative map from generator names into a target algebra.

    ``values`` fixes generators explicitly; ``rule`` (name, graph) -> element
    supplies values on demand, so auto-registered quotient generators are
    covered without enumeration.
    """

    def __init__(
        self,
        target: RBAlgebraDescriptor,
        values: dict[str, Any] | None = None,
        rule: Callable[[str, FeynmanGraph], Any] | None = None,
        reg: GeneratorRegistry | None = None,
    ):
        self.target = target
        self.values = dict(values or {})
        self.rule = rule
        self.reg = reg
        self._parts: dict[str, tuple[Any, Any]] = {}  # (phi_minus, phi_plus)

    def value(self, name: str) -> Any:
        if name in self.values:
            return self.values[name]
        if self.rule is not None and self.reg is not None:
            out = self.rule(name, self.reg.graph(name))
            self.values[name] = out
            return out
        raise MissingValueError(f"character has no value for generator {name!r}")

    def on_monomial(self, mono: Monomial) -> Any:
        return _product(self.target, self.value, mono)

    def __call__(self, x) -> Any:
        if isinstance(x, str):
            return self.value(x)
        return super().__call__(x)


def pole_power_character(
    reg: GeneratorRegistry,
    c=Fraction(0),
    coeff_vars: tuple[str, ...] = (),
) -> Character:
    """Toy rule phi(G) = z^-max(omega(G), 1) + c, with omega the superficial
    degree of divergence in the registry's dimension."""
    target = RBAlgebraDescriptor.laurent_ms(coeff_vars=coeff_vars)
    c = Fraction(c)

    def rule(name: str, graph: FeynmanGraph):
        power = max(superficial_degree(graph, reg.dim), 1)
        return LaurentPoly(target.dist_vars(), target.poly_vars(), {(-power,): 1, (0,): c})

    return Character(target, rule=rule, reg=reg)


# -- convolution ----------------------------------------------------------------


class ConvolutionElement(_LinearMap):
    """A map on the graded monomial basis, memoized per monomial.  Maps built
    from the reduced coproduct recurse only into legs of lower degree, so the
    grading alone ends their evaluation."""

    def __init__(self, target, fn: Callable[[Monomial], Any]):
        self.target = target
        self._fn = fn
        self._memo: dict[Monomial, Any] = {}

    def on_monomial(self, mono: Monomial) -> Any:
        if mono not in self._memo:
            self._memo[mono] = self._fn(mono)
        return self._memo[mono]


def unit_character(target) -> ConvolutionElement:
    """The convolution unit e: 1 on the empty monomial, 0 above."""

    def fn(mono: Monomial):
        return target.one() if not mono else target.zero()

    return ConvolutionElement(target, fn)


def _pair(target, acc, tensor, left: Callable, right: Callable):
    """acc + sum of coeff * left(L) right(R) over the terms L (x) R of a
    two-leg tensor, added in term order."""
    for (mono_l, mono_r), coeff in tensor.terms.items():
        acc = target.add(acc, target.scalar(coeff, target.mul(left(mono_l), right(mono_r))))
    return acc


def convolve(phi1, phi2, x, reg: GeneratorRegistry):
    """(phi1 * phi2)(x) via the coproduct pairing."""
    target = phi1.target
    if getattr(phi2, "target", target) != target:
        raise PreconditionError("convolution needs a shared target algebra")
    if isinstance(x, (str, tuple)):
        x = HopfElement.gen(x) if isinstance(x, str) else HopfElement({x: 1})
    return _pair(target, target.zero(), coproduct(x, reg), phi1, phi2)


def convolution_product(phi1, phi2, reg) -> ConvolutionElement:
    return ConvolutionElement(phi1.target, lambda mono: convolve(phi1, phi2, mono, reg))


# -- Birkhoff factorization --------------------------------------------------------


def birkhoff_factorize(char: Character, reg: GeneratorRegistry, name: str):
    """(phi_minus, phi_plus) values on the generator ``name``, memoized."""
    if name in char._parts:
        return char._parts[name]
    target = char.target
    minus_gen = lambda n: (char._parts.get(n) or birkhoff_factorize(char, reg, n))[0]
    minus_of = lambda mono: _product(target, minus_gen, mono)
    value = char.value(name)
    tensor = reduced_coproduct(HopfElement.gen(name), reg)
    arg = _pair(target, value, tensor, minus_of, char.on_monomial)
    polar = target.T(arg)
    minus = target.neg(polar)
    plus = target.sub(arg, polar)
    char._parts[name] = minus, plus
    return minus, plus


def factorize_all(char: Character, reg: GeneratorRegistry) -> tuple[str, ...]:
    """Factorize every registered generator, chasing the sub- and quotient
    generators the coproduct auto-registers; returns the final name list."""
    done: set[str] = set()
    while True:
        names = set(reg.names())
        todo = names - done
        if not todo:
            return tuple(sorted(names))
        for name in sorted(todo):
            birkhoff_factorize(char, reg, name)
        done |= todo


def birkhoff_parts(char: Character, reg: GeneratorRegistry) -> tuple[Character, Character]:
    """phi_minus and phi_plus as characters; a generator's values are
    factorized, and memoized in ``char``, when first asked for."""

    def part(i: int) -> Character:
        rule = lambda name, graph: birkhoff_factorize(char, reg, name)[i]
        return Character(char.target, rule=rule, reg=reg)

    return part(0), part(1)


def phi_minus_nonrecursive(char: Character, reg: GeneratorRegistry, name: str):
    """Series form of phi_minus:

        -T(phi(G)) - sum_{n>=1} (-1)^n sum T(phi(G_1)) phi(G_2) ... phi(G_{n+1})

    over iterated reduced coproducts, truncated by grading nilpotence.  Valid
    when the target operator satisfies T^2 = T and T(T(x)y) = T(x)y.
    """
    if not char.target.has_simple_T:
        raise PreconditionError(
            f"non-recursive phi_minus needs a simple-T target, not {char.target.kind}"
        )
    target = char.target
    result = target.neg(target.T(char.value(name)))
    degree = reg.degree(name)
    for n in range(1, degree):
        tensor = reduced_coproduct_iterated(HopfElement.gen(name), n, reg)
        if tensor.is_zero():
            break
        sign = Fraction(-1) ** n
        for word, coeff in tensor.terms.items():
            term = target.T(char.on_monomial(word[0]))
            for leg in word[1:]:
                term = target.mul(term, char.on_monomial(leg))
            result = target.sub(result, target.scalar(sign * coeff, term))
    return result


def verify_factorization(
    char: Character,
    minus: Character | dict[str, Any],
    plus: Character | dict[str, Any],
    name: str,
    reg: GeneratorRegistry,
):
    """Check phi = (phi_minus o S) * phi_plus on a generator.

    Returns (ok, defect) with defect = ((phi_minus o S) * phi_plus)(G) - phi(G).
    """
    target = char.target
    minus_char = minus if isinstance(minus, Character) else Character(target, dict(minus))
    plus_char = plus if isinstance(plus, Character) else Character(target, dict(plus))

    minus_of_antipode = lambda mono: minus_char(antipode(HopfElement({mono: 1}), reg))
    tensor = coproduct(HopfElement.gen(name), reg)
    total = _pair(target, target.zero(), tensor, minus_of_antipode, plus_char)
    defect = target.sub(total, char.value(name))
    return target.is_zero(defect), defect


# -- Atkinson fixed points -----------------------------------------------------------


def _e_minus_phi(char: Character, mono: Monomial):
    """a = e - phi on a monomial; it vanishes on the empty monomial."""
    return char.target.neg(char.on_monomial(mono)) if mono else char.target.zero()


def atkinson_solve(char: Character, reg: GeneratorRegistry):
    """Fixed points b_l = e + T(b_l a), b_r = e + (1-T)(a b_r) with a = e - phi,
    solved degree by degree in the convolution algebra.

    Then b_l * phi * b_r = e, and b_l agrees with phi_minus.
    """
    target = char.target
    a_value = lambda mono: _e_minus_phi(char, mono)

    b_l: ConvolutionElement
    b_r: ConvolutionElement

    def bl_fn(mono: Monomial):
        if not mono:
            return target.one()
        # (b_l * a)(mono): the a(1) leg vanishes, so recursion is well founded
        acc = a_value(mono)
        tensor = reduced_coproduct(HopfElement({mono: 1}), reg)
        return target.T(_pair(target, acc, tensor, b_l.on_monomial, a_value))

    def br_fn(mono: Monomial):
        if not mono:
            return target.one()
        acc = a_value(mono)
        tensor = reduced_coproduct(HopfElement({mono: 1}), reg)
        return target.T_complement(_pair(target, acc, tensor, a_value, b_r.on_monomial))

    b_l = ConvolutionElement(target, bl_fn)
    b_r = ConvolutionElement(target, br_fn)
    return b_l, b_r


def atkinson_closed_form(char: Character, reg: GeneratorRegistry, name: str):
    """b_l evaluated through the geometric series e + T(a) * sum_n a^{*n}.

    Needs the simple-T identities; agrees with atkinson_solve's b_l.
    """
    if not char.target.has_simple_T:
        raise PreconditionError(
            f"closed-form solution needs a simple-T target, not {char.target.kind}"
        )
    target = char.target
    # a vanishes on the empty monomial and each generator in a leg of Delta
    # has degree >= 1 (a quotient keeps an edge, and a 1PI graph with an edge
    # has a loop), so a^{*n} vanishes below degree n; the legs of Delta(name)
    # have degree <= deg(name), so the series ends at that power
    bound = reg.degree(name)
    a_map = ConvolutionElement(target, lambda mono: _e_minus_phi(char, mono))
    powers = [unit_character(target)]
    for _ in range(bound):
        prev = powers[-1]
        powers.append(
            ConvolutionElement(target, lambda mono, prev=prev: convolve(a_map, prev, mono, reg))
        )

    def series(mono: Monomial):
        out = target.zero()
        for p in powers:
            out = target.add(out, p(mono))
        return out

    series_map = ConvolutionElement(target, series)
    t_a = ConvolutionElement(target, lambda mono: target.T(a_map(mono)))
    # the unit e vanishes on the generator
    return convolve(t_a, series_map, (name,), reg)
