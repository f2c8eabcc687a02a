"""Canonical form of the six linear-combination element types."""

import dataclasses
import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest

from rbren import (
    ContextError,
    ExteriorElement,
    HopfElement,
    LaurentPoly,
    LefschetzPolynomial,
    MultiPoly,
    PreconditionError,
    TensorElement,
)
from rbren.poly import parse_laurent, parse_poly


def _laurent(text, dist=("z",), variables=("c",)):
    return parse_laurent(text, dist, variables)


def _form(gens, terms):
    return ExteriorElement(gens, {s: _laurent(t) for s, t in terms.items()})


# per type: two elements with several terms, and an element over another
# context (None for the types without a context)
CASES = {
    "MultiPoly": (
        parse_poly("y^2+3*x*y-x", ("x", "y")),
        parse_poly("x^2-3*x*y+2*y+1", ("x", "y")),
        parse_poly("x", ("x", "z")),
    ),
    "LaurentPoly": (
        _laurent("z^-2+c*z+c"),
        _laurent("3*z^-1-c*z+1/2"),
        _laurent("w^-1", ("w",)),
    ),
    "ExteriorElement": (
        _form(("a", "b", "d"), {(1,): "z^-1", (0,): "c", (0, 2): "1"}),
        _form(("a", "b", "d"), {(2,): "c*z", (0,): "-c", (): "2"}),
        _form(("a", "e", "d"), {(0,): "1"}),
    ),
    "HopfElement": (
        HopfElement({("G",): 2, ("B", "B"): 1, (): -1}),
        HopfElement({("A",): F(1, 3), ("G",): -2, ("B",): 5}),
        None,
    ),
    "TensorElement": (
        TensorElement(2, {(("G",), ()): 1, ((), ("B",)): 3, (("A",), ("A",)): -1}),
        TensorElement(2, {((), ("G",)): 2, (("G",), ()): -1, (("B",), ()): 1}),
        TensorElement(3, {((), (), ("G",)): 1}),
    ),
    "LefschetzPolynomial": (
        LefschetzPolynomial({3: 1, 0: -2, 1: 4}),
        LefschetzPolynomial({1: -4, 2: 1, 5: 3}),
        None,
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def _canonical(x):
    return list(x.terms) == sorted(x.terms) and all(x.terms.values())


def test_cancelling_sum_leaves_no_terms(case):
    x, y, _ = case
    assert (x + (-x)).terms == {}
    partial = x + y
    assert _canonical(partial)
    assert (partial - y).terms == x.terms


def test_keys_sorted_after_add_and_multiply(case):
    x, y, _ = case
    for value in (x + y, y + x, x * y, y * x, x * x):
        assert _canonical(value)


def test_scalar_zero_gives_zero(case):
    x, _, _ = case
    assert (x * 0).is_zero() and (0 * x).is_zero()
    assert not x * 0
    assert (x * 0).terms == {}


def test_difference_with_itself_is_zero(case):
    x, y, _ = case
    for value in (x, y, x * y):
        assert (value - value).is_zero()
        assert value - value == value.zero_like()


# per type: nonzero scalars beyond the integer 3, from each scalar type
SCALARS = {
    "MultiPoly": (F(-2, 3),),
    "LaurentPoly": (F(-2, 3), parse_poly("c-1", ("c",))),
    "ExteriorElement": (F(-2, 3), parse_poly("c-1", ("c",)), _laurent("z^-1+c")),
    "HopfElement": (F(-2, 3),),
    "TensorElement": (F(-2, 3),),
    "LefschetzPolynomial": (),
}


def _results(name, x, y):
    """(label, value) for every operation result on x and y, with the
    operands x and y either of which may be zero."""
    first = next(iter(x.terms.values()), None)
    keys = list(x.terms)[::2]
    out = [("x+y", x + y), ("x-y", x - y), ("-x", -x), ("x*y", x * y), ("y*x", y * x)]
    for c in (3, 0, *SCALARS[name]):
        out += [(f"x*{c}", x * c), (f"{c}*x", c * x)]
    out += [
        ("select", x.select(lambda k: k in keys)),
        ("select none", x.select(lambda k: False)),
        # zero on every coefficient equal to the first one
        ("map_coeffs", x.map_coeffs(lambda c: c - first)),
        ("map_coeffs double", x.map_coeffs(lambda c: c + c)),
    ]
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_result_is_in_canonical_form(name):
    """The operations that store their result without sorting (negation,
    select, map_coeffs, a nonzero scalar) or return an operand (a sum or
    product with zero) give what the validating constructor gives."""
    x, y, _ = CASES[name]
    zero = x.zero_like()
    for a, b in ((x, y), (y, x), (x, zero), (zero, x), (zero, zero), (x * y, x)):
        for label, value in _results(name, a, b):
            rebuilt = dataclasses.replace(value, terms=dict(reversed(value.terms.items())))
            assert rebuilt == value, label
            assert list(rebuilt.terms.items()) == list(value.terms.items()), label
            assert _canonical(value), label
    assert x + zero == x and zero + x == x and x - zero == x and zero - x == -x
    assert (x * zero).is_zero() and (zero * x).is_zero()


# per type: a key that none of the elements built from CASES holds
SPARE_KEYS = {
    "MultiPoly": (7, 7),
    "LaurentPoly": (9,),
    "ExteriorElement": (0, 1, 2),
    "HopfElement": ("Z",),
    "TensorElement": (("Z",), ()),
    "LefschetzPolynomial": 20,
}


def _unsorted(name, key):
    """A Hopf monomial or tensor word with each monomial reversed."""
    if name == "HopfElement":
        return key[::-1]
    if name == "TensorElement":
        return tuple(m[::-1] for m in key)
    return key


@pytest.mark.parametrize("name", sorted(CASES))
def test_constructor_gives_the_canonical_form(name):
    """The public constructor sorts the keys, drops zero coefficients and
    merges keys that name one basis element, whatever order it is given."""
    x, y, _ = CASES[name]
    spare = SPARE_KEYS[name]
    merged = 0
    for value in (x, y, x * y):
        assert spare not in value.terms
        raw = {}
        for key, coeff in reversed(value.terms.items()):
            twin = _unsorted(name, key)
            if twin != key:
                # the coefficient split over two spellings of the key
                raw[twin], raw[key] = 1, coeff - 1
                merged += 1
            else:
                raw[key] = coeff
        raw[spare] = coeff - coeff  # a zero of the coefficients' type and context
        rebuilt = dataclasses.replace(value, terms=raw)
        assert rebuilt == value
        assert list(rebuilt.terms.items()) == list(value.terms.items())
        assert _canonical(rebuilt)
    assert merged or name not in ("HopfElement", "TensorElement")


def _form_with(terms):
    return ExteriorElement(("a", "b", "d"), terms)


# per type, a malformed input: the error type and message the constructor gives
MALFORMED = {
    "MultiPoly-repeated-variable": (
        lambda: MultiPoly(("x", "x"), {}),
        ContextError,
        "repeated variable name in ('x', 'x')",
    ),
    "MultiPoly-exponent-length": (
        lambda: MultiPoly(("x", "y"), {(1,): 1}),
        ContextError,
        "exponent vector (1,) does not match variables ('x', 'y')",
    ),
    "MultiPoly-negative-exponent": (
        lambda: MultiPoly(("x", "y"), {(1, -1): 1}),
        ContextError,
        "negative exponent in ordinary variables: (1, -1)",
    ),
    "LaurentPoly-overlap": (
        lambda: LaurentPoly(("z",), ("z",), {}),
        ContextError,
        "distinguished and ordinary variables overlap",
    ),
    "LaurentPoly-exponent-length": (
        lambda: LaurentPoly(("z",), ("c",), {(1, 0): 1}),
        ContextError,
        "exponent vector (1, 0) does not match distinguished ('z',)",
    ),
    "LaurentPoly-coefficient-context": (
        lambda: LaurentPoly(("z",), ("c",), {(1,): parse_poly("d", ("d",))}),
        ContextError,
        "coefficient has wrong variable context",
    ),
    "ExteriorElement-repeated-generator": (
        lambda: ExteriorElement(("a", "a"), {}),
        ContextError,
        "repeated generator name",
    ),
    "ExteriorElement-unsorted-subset": (
        lambda: _form_with({(1, 0): _laurent("c")}),
        ContextError,
        "subset (1, 0) is not strictly sorted",
    ),
    "ExteriorElement-repeated-index": (
        lambda: _form_with({(1, 1): _laurent("c")}),
        ContextError,
        "subset (1, 1) is not strictly sorted",
    ),
    "ExteriorElement-subset-out-of-range": (
        lambda: _form_with({(0, 3): _laurent("c")}),
        ContextError,
        "subset (0, 3) out of range",
    ),
    "ExteriorElement-coefficient-type": (
        lambda: _form_with({(0,): 1}),
        ContextError,
        "coefficients must be LaurentPoly",
    ),
    "ExteriorElement-two-contexts": (
        lambda: _form_with({(0,): _laurent("c"), (1,): _laurent("w", ("w",))}),
        ContextError,
        "coefficients live in different contexts",
    ),
    "ExteriorElement-two-contexts-one-zero": (
        lambda: _form_with({(0,): _laurent("c"), (1,): _laurent("0", ("w",))}),
        ContextError,
        "coefficients live in different contexts",
    ),
    "TensorElement-legs": (
        lambda: TensorElement(2, {(("G",),): 1}),
        PreconditionError,
        "tensor word has wrong number of legs",
    ),
    "LefschetzPolynomial-negative-exponent": (
        lambda: LefschetzPolynomial({-1: 1}),
        PreconditionError,
        "negative exponent in a class polynomial",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_constructor_rejects_malformed_terms(name):
    build, error, message = MALFORMED[name]
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if CASES[n][2]])
def test_mismatched_contexts_raise_context_error(name):
    x, _, other = CASES[name]
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ContextError):
            op(x, other)


def test_benchmark_traced_operators_are_own_class_attributes():
    """perfbench/tracing.py wraps operators through ``owner.__dict__[attr]``,
    so these must stay in each class's own ``__dict__``, not only in the
    shared base; otherwise the traced benchmark run fails with KeyError."""
    assert "__add__" in MultiPoly.__dict__
    assert "__mul__" in MultiPoly.__dict__
    assert "__mul__" in LaurentPoly.__dict__
    assert "__mul__" in ExteriorElement.__dict__


def test_benchmark_traced_algebra_operations_stay_in_place():
    """perfbench/tracing.py wraps RBAlgebraDescriptor's mul, add and T through
    ``RBAlgebraDescriptor.__dict__[attr]`` and finds rb_defect as the module
    function ``rbren.rota_baxter.rb_defect``. Each kind is a subclass of
    RBAlgebraDescriptor: a kind that defined its own mul, add or T would
    shadow the wrapped method, so its calls would go uncounted, and moving
    any of them (into a kind, a base class or another module) breaks the
    traced benchmark run, so this guard fails first."""
    import rbren
    from rbren import rota_baxter

    assert rota_baxter.KINDS
    for attr in ("mul", "add", "T"):
        assert attr in rota_baxter.RBAlgebraDescriptor.__dict__
        for kind in rota_baxter.KINDS.values():
            assert issubclass(kind, rota_baxter.RBAlgebraDescriptor)
            assert attr not in kind.__dict__, (kind.kind, attr)
    assert rbren.rota_baxter is rota_baxter
    assert rota_baxter.rb_defect.__module__ == "rbren.rota_baxter"


def test_benchmark_tracer_installs_and_uninstalls():
    """perfbench/tracing.py wraps rbren functions, methods and operators by
    name; renaming or moving any of them makes ``install`` fail here, not
    only in a traced benchmark run."""
    import rbren
    import rbren.cli  # the tracer wraps CLI entry points too
    from rbren import rota_baxter

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mul = rota_baxter.RBAlgebraDescriptor.__dict__["mul"]
    rb_defect = rota_baxter.rb_defect
    tracer = tracing.Tracer()
    try:
        tracer.install(rbren)
        assert tracer._patches
        assert rota_baxter.rb_defect is not rb_defect
    finally:
        tracer.uninstall()
    assert rota_baxter.RBAlgebraDescriptor.__dict__["mul"] is mul
    assert rota_baxter.rb_defect is rb_defect
