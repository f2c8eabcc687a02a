"""The packed polynomial kernel against schoolbook arithmetic on plain dicts.

``MultiPoly`` and ``LaurentPoly`` store each monomial as one int and their
coefficients as int numerators over one denominator.  Every operation here is
compared with ``oracles``' arithmetic on {exponent tuple: Fraction} dicts,
which shares no code with the kernel, on derandomized draws with
denominators in {1, 2, 3, 6} and negative distinguished exponents.
"""

from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from rbren import ContextError, LaurentPoly, MultiPoly, PoleAtPointError, PreconditionError
from rbren import GeneratorRegistry, HopfElement, RBAlgebraDescriptor, SizeBoundError
from rbren import TensorElement, pole_power_character

import oracles

VARS = ("a", "b", "c")
DIST, ORD = ("z", "w"), ("a",)
POINT = st.sampled_from([F(-2), F(-1), F(0), F(1, 2), F(3)])
COEFFS = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 6]))
KERNEL = settings(derandomize=True, max_examples=80, deadline=None)


def flat_terms(low, high, width):
    """Term dicts of up to 4 terms, exponents in [low, high] over ``width`` slots."""
    exps = st.tuples(*[st.integers(low[i], high) for i in range(width)])
    return st.dictionaries(exps, COEFFS, max_size=4)


POLY_TERMS = flat_terms((0, 0, 0), 3, 3)
# two distinguished slots with negative exponents, then one ordinary slot
LAURENT_TERMS = flat_terms((-3, -3, 0), 3, 3)


def laurent(flat) -> LaurentPoly:
    grouped = {}
    for e, c in flat.items():
        grouped.setdefault(e[:2], {})[e[2:]] = c
    return LaurentPoly(DIST, ORD, {d: MultiPoly(ORD, t) for d, t in grouped.items()})


def flat(x) -> dict:
    """The terms of x over dist + variables, read through the public view."""
    if isinstance(x, MultiPoly):
        return dict(x.terms)
    return {d + e: c for d, p in x.terms.items() for e, c in p.terms.items()}


def negated(terms) -> dict:
    return {e: -c for e, c in terms.items()}


def laurent_value(terms, values):
    """The value with the Laurent pole rule: a distinguished monomial whose
    coefficient does not vanish at the point may not divide by zero."""
    groups = {}
    for e, c in terms.items():
        groups[e[:2]] = groups.get(e[:2], 0) + oracles.terms_value({e[2:]: c}, values[2:])
    total = F(0)
    for d, c in groups.items():
        if not c:
            continue
        if any(x < 0 and v == 0 for v, x in zip(values, d)):
            return "pole"
        total += c * prod(v**x for v, x in zip(values, d))
    return total


@KERNEL
@given(POLY_TERMS, POLY_TERMS, st.tuples(POINT, POINT, POINT))
def test_multipoly_matches_reference_arithmetic(a_terms, b_terms, point):
    a, b = MultiPoly(VARS, a_terms), MultiPoly(VARS, b_terms)
    ref_a, ref_b = oracles.terms_sum(a_terms), oracles.terms_sum(b_terms)
    assert flat(a) == ref_a and list(a.terms) == sorted(ref_a)
    assert flat(a + b) == oracles.terms_sum(ref_a, ref_b)
    assert flat(a - b) == oracles.terms_sum(ref_a, negated(ref_b))
    assert flat(a * b) == oracles.terms_product(ref_a, ref_b)
    power = {(0, 0, 0): F(1)}
    for n in range(4):
        assert flat(a**n) == power
        power = oracles.terms_product(power, ref_a)
    assert str(a) == oracles.terms_render(VARS, ref_a)
    assert a.evaluate(dict(zip(VARS, point))) == oracles.terms_value(ref_a, point)


@KERNEL
@given(POLY_TERMS, POLY_TERMS)
def test_exact_quotient_matches_reference_product(a_terms, b_terms):
    a, b = MultiPoly(VARS, a_terms), MultiPoly(VARS, b_terms)
    if b.is_zero():
        return
    assert (a * b).exact_quotient(b) == a
    q = (a + 1).exact_quotient(b)
    if q is not None:
        assert oracles.terms_product(flat(q), flat(b)) == flat(a + 1)


@KERNEL
@given(LAURENT_TERMS, LAURENT_TERMS, st.tuples(POINT, POINT, POINT))
def test_laurent_matches_reference_arithmetic(a_terms, b_terms, point):
    a, b = laurent(a_terms), laurent(b_terms)
    ref_a, ref_b = oracles.terms_sum(a_terms), oracles.terms_sum(b_terms)
    assert flat(a) == ref_a and list(a.terms) == sorted({e[:2] for e in ref_a})
    assert flat(a + b) == oracles.terms_sum(ref_a, ref_b)
    assert flat(a - b) == oracles.terms_sum(ref_a, negated(ref_b))
    assert flat(a * b) == oracles.terms_product(ref_a, ref_b)
    assert str(a) == oracles.terms_render(DIST + ORD, ref_a)
    for i, name in enumerate(DIST):
        assert flat(a.polar_part(name)) == {e: c for e, c in ref_a.items() if e[i] < 0}
        assert flat(a.regular_part(name)) == {e: c for e, c in ref_a.items() if e[i] >= 0}
    expected = laurent_value(ref_a, point)
    if expected == "pole":
        with pytest.raises(PoleAtPointError):
            a.evaluate(dict(zip(DIST + ORD, point)))
    else:
        assert a.evaluate(dict(zip(DIST + ORD, point))) == expected


@KERNEL
@given(POLY_TERMS, LAURENT_TERMS)
def test_packed_key_order_is_exponent_tuple_order(poly_terms, laurent_terms):
    for x, terms in ((MultiPoly(VARS, poly_terms), poly_terms), (laurent(laurent_terms), laurent_terms)):
        assert [x._exps(k) for k in sorted(x._t)] == sorted(oracles.terms_sum(terms))


# -- the field bound ---------------------------------------------------------------

TOP = 2**15 - 1  # the largest ordinary exponent a 16-bit field holds


def test_an_exponent_past_its_field_is_refused_not_carried():
    """x^(2^15 - 1) * x would carry into y's field; the kernel refuses it and
    names the bound."""
    x = MultiPoly.variable(("x", "y"), "x")
    top = MultiPoly(("x", "y"), {(TOP, 0): 1})
    assert (top * MultiPoly.const(("x", "y"), 2)).terms == {(TOP, 0): 2}
    for build in (lambda: top * x, lambda: top * (x + 1), lambda: (x**TOP) ** 2):
        with pytest.raises(SizeBoundError, match="32768"):
            build()
    with pytest.raises(SizeBoundError, match="32768"):
        MultiPoly(("x", "y"), {(TOP + 1, 0): 1})
    y = MultiPoly.variable(("x", "y"), "y")
    assert (MultiPoly(("x", "y"), {(0, TOP - 1): 1}) * y).terms == {(0, TOP): 1}


def test_a_distinguished_exponent_past_its_field_is_refused():
    z = LaurentPoly.variable(("z", "w"), ("a",), "z")
    high = LaurentPoly(("z", "w"), ("a",), {(2**14 - 1, 0): 1})
    low = LaurentPoly(("z", "w"), ("a",), {(-(2**14), 0): 1})
    assert flat(high * low) == {(-1, 0, 0): 1}
    with pytest.raises(SizeBoundError, match="16384"):
        high * z
    with pytest.raises(SizeBoundError, match="16384"):
        low * LaurentPoly(("z", "w"), ("a",), {(-1, 0): 1})
    with pytest.raises(SizeBoundError, match="16384"):
        LaurentPoly(("z", "w"), ("a",), {(0, 2**14): 1})


# -- the validating constructors refuse inexact and malformed input -------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiPoly(("x",), {(1,): 0.1}),
        lambda: MultiPoly.const(("x",), 0.1),
        lambda: LaurentPoly(("z",), ("x",), {(1,): 0.5}),
        lambda: LaurentPoly.const(("z",), ("x",), 0.25),
        lambda: HopfElement.gen("a", 0.1),
        lambda: HopfElement.unit(0.1),
        lambda: TensorElement(2, {(("a",), ()): 0.1}),
        lambda: (A := RBAlgebraDescriptor.laurent_ms()).scalar(0.1, A.one()),
        lambda: (A := RBAlgebraDescriptor.saito(1)).scalar(0.1, A.one()),
        lambda: pole_power_character(GeneratorRegistry(), c=0.1),
    ],
    ids=["multipoly", "multipoly-const", "laurent", "laurent-const", "hopf-gen", "hopf-unit",
         "tensor", "laurent_ms-scalar", "saito-scalar", "pole-power-character"],
)
def test_float_coefficients_are_refused(build):
    """0.1 used to be stored as 3602879701896397/36028797018963968."""
    with pytest.raises(PreconditionError, match="inexact coefficient") as info:
        build()
    assert info.value.code == "precondition"


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiPoly(("x",), {(1.5,): 1}),
        lambda: LaurentPoly(("z",), ("x",), {(0.5,): 1}),
    ],
    ids=["multipoly", "laurent"],
)
def test_non_integer_exponents_are_refused(build):
    """MultiPoly(("x",), {(1.5,): 1}) used to render as x^1.5."""
    with pytest.raises(ContextError, match="non-integer exponent"):
        build()
