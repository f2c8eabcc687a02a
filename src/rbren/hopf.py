"""Free commutative Hopf algebra on 1PI graph generators.

Monomials are sorted tuples of generator names; elements and tensors are
sparse Fraction-coefficient dicts.  The coproduct sums over divergent
subgraphs gamma with gamma (x) G/gamma, extended multiplicatively; the
antipode is the usual graded recursion.  Sub- and quotient graphs are
identified with registered generators through canonical graph keys, with
unknown ones auto-registered.

Values are immutable.  The registry memoizes and auto-registers without
locking, so it is not safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Mapping

from ._terms import Terms
from .errors import PreconditionError, UnknownGeneratorError
from .graphs import (
    FeynmanGraph,
    canonical_key,
    divergent_subgraphs,
    is_1pi,
    loop_number,
    quotient,
    subgraph_components,
    subgraph_view,
)

Monomial = tuple[str, ...]


def _merge(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(sorted(m1 + m2))


def _merge_words(w1: tuple[Monomial, ...], w2: tuple[Monomial, ...]):
    return tuple([tuple(sorted(a + b)) for a, b in zip(w1, w2)])


@dataclass(frozen=True)
class HopfElement(Terms):
    terms: Mapping[Monomial, Fraction] = field()

    _scalars = (Rational,)
    _join = staticmethod(_merge)

    def _term(self, mono, coeff):
        return tuple(sorted(mono)), coeff if coeff.__class__ is Fraction else Fraction(coeff)

    @staticmethod
    def zero() -> "HopfElement":
        return HopfElement._make({})

    @staticmethod
    def unit(coeff=1) -> "HopfElement":
        return HopfElement._make({(): Fraction(coeff)})

    @staticmethod
    def gen(name: str, coeff=1) -> "HopfElement":
        return HopfElement({(name,): Fraction(coeff)})

    @staticmethod
    def mono(names, coeff=1) -> "HopfElement":
        return HopfElement({tuple(sorted(names)): Fraction(coeff)})

    def __add__(self, other):
        if isinstance(other, Rational):
            other = HopfElement.unit(other)
        return Terms.__add__(self, other)

    __radd__ = __add__

    def generators(self) -> set[str]:
        return {name for mono in self.terms for name in mono}

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms.items():
            body = "*".join(mono) if mono else "1"
            parts.append(f"{coeff}*{body}" if body != "1" else str(coeff))
        return " + ".join(parts)


def counit(x: HopfElement) -> Fraction:
    """Coefficient of the empty monomial."""
    return x.terms.get((), Fraction(0))


@dataclass(frozen=True)
class TensorElement(Terms):
    """Element of the ``legs``-fold tensor power of the Hopf algebra."""

    legs: int
    terms: Mapping[tuple[Monomial, ...], Fraction] = field()

    _context = ("legs",)
    _scalars = (Rational,)
    _join = staticmethod(_merge_words)

    def _check_context(self):
        if self.legs < 0:
            raise PreconditionError(f"a tensor has no negative number of legs: {self.legs}")

    def _term(self, word, coeff):
        word = tuple(tuple(sorted(m)) for m in word)
        if len(word) != self.legs:
            raise PreconditionError("tensor word has wrong number of legs")
        return word, coeff if coeff.__class__ is Fraction else Fraction(coeff)

    @staticmethod
    def zero(legs: int = 2) -> "TensorElement":
        return TensorElement._make({}, legs)

    @staticmethod
    def word(monomials, coeff=1) -> "TensorElement":
        word = tuple(tuple(sorted(m)) for m in monomials)
        return TensorElement(len(word), {word: Fraction(coeff)})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for word, coeff in self.terms.items():
            body = " (x) ".join("*".join(m) if m else "1" for m in word)
            parts.append(f"{coeff}*[{body}]")
        return " + ".join(parts)


# ---------------------------------------------------------------------------


class GeneratorRegistry:
    """Named 1PI graph generators with canonical-key identification.

    ``dim`` is the spacetime dimension of the power counting: a coproduct
    subgraph's components each have dim * loops - 2 * edges >= 0.
    ``even_only`` restricts generators, and each component of a coproduct
    subgraph, to an even number of internal edges.  The algebra is graded by
    loop number and connected: every generator has an internal edge, so,
    being 1PI, at least one loop.

    Sub- and quotient graphs the coproduct encounters are auto-registered
    under reserved names ``!g1, !g2, ...``; registering an isomorphic graph
    explicitly afterwards promotes the explicit name.
    """

    def __init__(self, dim: int = 4, even_only: bool = False):
        self.dim = dim
        self.even_only = even_only
        self._graphs: dict[str, FeynmanGraph] = {}
        self._primary: dict[bytes, str] = {}
        self._aliases: dict[str, str] = {}
        self._auto = 0
        self._coproduct_cache: dict[str, TensorElement] = {}
        self._antipode_cache: dict[str, HopfElement] = {}

    # -- registration ------------------------------------------------------

    def register(self, name: str, graph: FeynmanGraph) -> str:
        """Register a generator; returns the primary name for its class.

        An explicit registration of a graph isomorphic to an auto-registered
        one takes over as the primary name.  A name bound to a generator, or
        as an alias, is never rebound to a non-isomorphic graph.
        """
        return self._register(name, graph, None)

    def resolve(self, graph: FeynmanGraph) -> str:
        """Primary name for the isomorphism class, auto-registering new ones."""
        key = canonical_key(graph)
        name = self._primary.get(key)
        if name is not None:
            return name
        self._auto += 1
        return self._register(f"!g{self._auto}", graph, key)

    def _register(self, name: str, graph: FeynmanGraph, key: bytes | None) -> str:
        """``register``, given the graph's canonical key when the caller has
        already computed it."""
        if not is_1pi(graph):
            raise PreconditionError(f"generator {name!r} is not 1PI")
        if not graph.internal_edges:
            raise PreconditionError(f"generator {name!r} has no internal edge")
        if self.even_only and len(graph.internal_edges) % 2 != 0:
            raise PreconditionError(
                f"generator {name!r} has an odd number of internal edges"
            )
        if key is None:
            key = canonical_key(graph)
        bound = self._aliases.get(name, name)
        if bound in self._graphs and self._primary.get(key) != bound:
            raise PreconditionError(f"name {name!r} already bound to another graph")
        existing = self._primary.get(key)
        if existing is not None:
            if name != existing and not name.startswith("!"):
                if existing.startswith("!"):
                    # explicit name supersedes the auto-generated one; cached
                    # structure maps embed names, so drop them
                    self._graphs[name] = graph
                    self._primary[key] = name
                    self._aliases[existing] = name
                    self._coproduct_cache.clear()
                    self._antipode_cache.clear()
                    return name
                self._aliases[name] = existing
            return self._primary[key]
        self._graphs[name] = graph
        self._primary[key] = name
        return name

    def graph(self, name: str) -> FeynmanGraph:
        name = self._aliases.get(name, name)
        if name not in self._graphs:
            raise UnknownGeneratorError(f"unregistered generator {name!r}")
        return self._graphs[name]

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(n for n in self._graphs if n not in self._aliases))

    def degree(self, item) -> int:
        """Loop number of a generator name or monomial (sum over factors)."""
        if isinstance(item, tuple):
            return sum(self.degree(name) for name in item)
        return loop_number(self.graph(item))

    # -- structure maps ------------------------------------------------------

    def coproduct_gen(self, name: str) -> TensorElement:
        name = self._aliases.get(name, name)
        cached = self._coproduct_cache.get(name)
        if cached is not None:
            return cached
        g = self.graph(name)
        terms: dict[tuple[Monomial, Monomial], Fraction] = {
            ((name,), ()): Fraction(1),
            ((), (name,)): Fraction(1),
        }
        for spec in divergent_subgraphs(g, self.dim, even_only=self.even_only):
            left = tuple(
                sorted(
                    self.resolve(subgraph_view(g, comp))
                    for comp in subgraph_components(g, spec)
                )
            )
            right = (self.resolve(quotient(g, spec)),)
            key = (left, right)
            terms[key] = terms.get(key, Fraction(0)) + 1
        result = TensorElement._make(terms, 2)
        self._coproduct_cache[name] = result
        return result

    def antipode_gen(self, name: str) -> HopfElement:
        """S(G) = -G - sum S(G') G'' over the reduced coproduct, memoized."""
        name = self._aliases.get(name, name)
        cached = self._antipode_cache.get(name)
        if cached is not None:
            return cached
        result = HopfElement.gen(name, -1)
        for (left, right), coeff in reduced_coproduct(HopfElement.gen(name), self).terms.items():
            s_left = antipode(HopfElement({left: 1}), self)
            result = result - coeff * (s_left * HopfElement({right: 1}))
        self._antipode_cache[name] = result
        return result


def _multiplicative(x: HopfElement, unit, gen):
    """The algebra map with unit ``unit`` that sends a generator by ``gen``."""
    total = unit.zero_like()
    for mono, coeff in x.terms.items():
        part = unit
        for name in mono:
            part = part * gen(name)
        total = total + coeff * part
    return total


def coproduct(x: HopfElement, reg: GeneratorRegistry) -> TensorElement:
    """Algebra-homomorphism extension of the generator coproduct."""
    return _multiplicative(x, TensorElement.word(((), ()), 1), reg.coproduct_gen)


def reduced_coproduct(x: HopfElement, reg: GeneratorRegistry) -> TensorElement:
    """Delta(x) - x(x)1 - 1(x)x + counit(x) 1(x)1 (zero on the unit)."""
    full = coproduct(x, reg)
    corr: dict[tuple[Monomial, Monomial], Fraction] = {}
    for mono, coeff in x.terms.items():
        for word in (((mono), ()), ((), mono)):
            corr[word] = corr.get(word, Fraction(0)) - coeff
    eps = counit(x)
    if eps:
        corr[((), ())] = corr.get(((), ()), Fraction(0)) + eps
    return full + TensorElement(2, corr)


def reduced_coproduct_iterated(
    x: HopfElement, n: int, reg: GeneratorRegistry
) -> TensorElement:
    """n applications of the reduced coproduct; an (n+1)-leg tensor.

    Vanishes on a degree-d generator once n >= d.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    current = reduced_coproduct(x, reg)
    for _ in range(n - 1):
        out: dict[tuple[Monomial, ...], Fraction] = {}
        for word, coeff in current.terms.items():
            last = HopfElement({word[-1]: 1})
            expanded = reduced_coproduct(last, reg)
            for (a, b), c in expanded.terms.items():
                key = word[:-1] + (a, b)
                out[key] = out.get(key, Fraction(0)) + coeff * c
        current = TensorElement._make(out, current.legs + 1)
    return current


def antipode(x: HopfElement, reg: GeneratorRegistry) -> HopfElement:
    return _multiplicative(x, HopfElement.unit(1), reg.antipode_gen)
