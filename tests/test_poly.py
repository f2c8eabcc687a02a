import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from rbren import (
    ContextError,
    LaurentPoly,
    MultiPoly,
    PoleAtPointError,
    PreconditionError,
)
from rbren.poly import parse_laurent, parse_poly

import oracles

T_VARS = ("t1", "t2", "t3")


def test_inverse_pair_multiplies_to_one():
    z = LaurentPoly.variable(("z",), (), "z")
    zinv = LaurentPoly(("z",), (), {(-1,): MultiPoly.const((), 1)})
    assert z * zinv == LaurentPoly.const(("z",), (), 1)


def test_difference_of_squares():
    a = parse_poly("t1+t2", T_VARS)
    b = parse_poly("t1-t2", T_VARS)
    assert a * b == parse_poly("t1^2-t2^2", T_VARS)


def test_fraction_coefficients_combine():
    x = MultiPoly.variable(("x",), "x")
    assert F(1, 2) * x + F(1, 3) * x == parse_poly("5/6*x", ("x",))


def test_evaluate_gl2_order_matches_brute_force():
    # L(L-1)(L^2-1) at L=2 against the exhaustive invertible-matrix count
    lef = ("L",)
    L = MultiPoly.variable(lef, "L")
    p = L * (L - 1) * (L**2 - 1)
    assert p.evaluate({"L": 2}) == oracles.count_gl(2, 2) == 6


def test_evaluate_pole_error():
    zinv = LaurentPoly(("z",), (), {(-1,): MultiPoly.const((), 1)})
    with pytest.raises(PoleAtPointError):
        zinv.evaluate({"z": 0})
    assert zinv.evaluate({"z": 2}) == F(1, 2)


def test_evaluate_symmetric_point():
    p = parse_poly("t1*t2+t1*t3+t2*t3", T_VARS)
    assert p.evaluate({"t1": 1, "t2": 1, "t3": 1}) == 3


def test_context_mismatch_raises():
    with pytest.raises(ContextError):
        parse_poly("t1", ("t1",)) + parse_poly("t1", ("t1", "t2"))
    with pytest.raises(ContextError):
        parse_laurent("z", ("z",), ()) * parse_laurent("w", ("w",), ())


def test_negative_powers_are_a_precondition_error():
    """Both used to raise ContextError, a context mismatch; a negative power
    is a bad argument, as for LefschetzPolynomial."""
    x = MultiPoly.variable(("x", "y"), "x")
    for build in (lambda: x**-1, lambda: MultiPoly.variable(("x", "y"), "y", -2)):
        with pytest.raises(PreconditionError, match="negative powers") as info:
            build()
        assert type(info.value) is PreconditionError


def test_unassigned_variable_raises():
    with pytest.raises(ContextError):
        parse_poly("t1+t2", T_VARS).evaluate({"t1": 1})


def test_rendering_round_trip_and_canonical_order():
    p = parse_poly("t2*t3+t1*t3+t1*t2", T_VARS)
    assert str(p) == "t1*t2+t1*t3+t2*t3"
    assert parse_poly(str(p), T_VARS) == p
    lp = parse_laurent("3*z^-2-z^-1+z^3", ("z",), ())
    assert str(lp) == "z^3-z^-1+3*z^-2"
    assert parse_laurent(str(lp), ("z",), ()) == lp


coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=3)


@st.composite
def polys(draw, variables=("a", "b")):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        exps = tuple(draw(st.integers(0, 3)) for _ in variables)
        terms[exps] = draw(coeffs)
    return MultiPoly(variables, terms)


@st.composite
def laurents(draw, dist=("z",), variables=("a",)):
    n = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n):
        dexps = tuple(draw(st.integers(-3, 3)) for _ in dist)
        terms[dexps] = draw(polys(variables))
    return LaurentPoly(dist, variables, {d: c for d, c in terms.items()})


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polys(), polys())
def test_canonical_representation(a, b):
    # identical stored representation for equal elements
    left = a + b
    right = b + a
    assert list(left.terms.items()) == list(right.terms.items())
    assert repr(left) == repr(right)


@given(laurents(), laurents(), laurents())
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(laurents())
def test_polar_split_is_complementary_projection(a):
    polar = a.polar_part("z")
    regular = a.regular_part("z")
    assert polar + regular == a
    assert polar.polar_part("z") == polar
    assert regular.polar_part("z").is_zero()


@given(polys())
def test_poly_string_round_trip(a):
    assert parse_poly(str(a), a.variables) == a


@given(laurents())
def test_laurent_string_round_trip(a):
    assert parse_laurent(str(a), a.dist, a.variables) == a


# -- exact division against sympy ----------------------------------------------------

Q_VARS = ("a", "b", "c", "d")


def _random_poly(rng, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.choice((0, 0, 1, 2)) for _ in Q_VARS)
        terms[exps] = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 5)))
    return MultiPoly(Q_VARS, terms)


def _to_sympy(p):
    import sympy

    symbols = sympy.symbols(Q_VARS)
    expr = sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(s**e for s, e in zip(symbols, exps)))
        for exps, c in p.terms.items()
    )
    return sympy.Poly(expr, *symbols, domain="QQ")


def test_exact_quotient_recovers_the_cofactor():
    rng = random.Random(11)
    for _ in range(150):
        q, d = _random_poly(rng), _random_poly(rng)
        assert (q * d).exact_quotient(d) == q


def test_exact_quotient_is_none_exactly_where_sympy_leaves_a_remainder():
    rng = random.Random(12)
    divisible = 0
    for _ in range(200):
        d = _random_poly(rng, 3)
        p = _random_poly(rng, 3) * d
        if rng.random() < 0.6:
            p = p + _random_poly(rng, 2)
        got = p.exact_quotient(d)
        _, remainder = _to_sympy(p).div(_to_sympy(d))
        assert (got is None) == (not remainder.is_zero)
        if got is not None:
            divisible += 1
            assert got * d == p
    assert 50 < divisible < 150


def test_exact_quotient_by_constants_and_monomials():
    p = parse_poly("a^2*b-3*c*d+1/2*a*b^2*c", Q_VARS)
    assert p.exact_quotient(MultiPoly.const(Q_VARS, F(-2, 3))) == p * F(-3, 2)
    m = parse_poly("2*a*b", Q_VARS)
    assert (p * m).exact_quotient(m) == p
    assert p.exact_quotient(m) is None
    assert parse_poly("a^2*b+a*b^2", Q_VARS).exact_quotient(m) == parse_poly(
        "1/2*a+1/2*b", Q_VARS
    )
    zero = MultiPoly.zero(Q_VARS)
    assert zero.exact_quotient(m) == zero
    assert zero.exact_quotient(parse_poly("a+b-1", Q_VARS)) == zero


def test_exact_quotient_rejects_zero_divisor_and_other_context():
    p = parse_poly("a+1", Q_VARS)
    with pytest.raises(PreconditionError):
        p.exact_quotient(MultiPoly.zero(Q_VARS))
    with pytest.raises(ContextError):
        p.exact_quotient(parse_poly("a", ("a",)))
