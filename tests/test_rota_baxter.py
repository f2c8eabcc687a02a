import random
from fractions import Fraction as F

import pytest

from rbren import (
    ExteriorElement,
    InvariantError,
    LaurentPoly,
    MultiPoly,
    SWEEP_DESCRIPTORS,
    PreconditionError,
    RBAlgebraDescriptor,
    SaitoForm,
    failed_laws,
    iterated_residue,
    operator_defect,
    rb_defect,
    residue,
    sweep,
)
from rbren import serde
from rbren.poly import parse_laurent, parse_poly
from rbren.rota_baxter import EXTRA_LAWS


def laurent(text):
    return parse_laurent(text, ("z",), ())


def test_laurent_polar_projection():
    t = RBAlgebraDescriptor.laurent_ms().T
    assert t(laurent("z^-1+5+z")) == laurent("z^-1")
    assert t(laurent("7")).is_zero()
    assert t(laurent("3*z^-2-z^-1+z^3")) == laurent("3*z^-2-z^-1")
    x = laurent("z^-2+4+z")
    assert t(t(x)) == t(x)


def test_merom_polar_part():
    desc = RBAlgebraDescriptor.merom(4)
    omega = desc.form(((), "1+f^-1"))
    assert desc.T(omega) == desc.form(((), "f^-1"))
    holomorphic = desc.form((("dx1", "dx2"), "f^2+x1"))
    assert desc.T(holomorphic).is_zero()


def test_merom_defect_on_inverse_pair():
    desc = RBAlgebraDescriptor.merom(4)
    x = desc.form((("dx1", "dx2"), "f^-1"))
    y = desc.mul(x, desc.form(((), "f^2")))
    assert desc.is_zero(rb_defect(desc, x, y))


def test_nc_log_projection():
    desc = RBAlgebraDescriptor.nc_log(2, 2)
    omega = desc.form((("dlog1", "dx1"), "x1"), (("dx1", "dx2"), "f1"), ((), "3"))
    assert desc.T(omega) == desc.form((("dlog1", "dx1"), "x1"))
    dlog_free = desc.form((("dx1", "dx2"), "x2"), ((), "1"))
    assert desc.T(dlog_free).is_zero()


def test_smooth_log_products_of_polar_parts_vanish():
    desc = RBAlgebraDescriptor.smooth_log(3)
    x = desc.form((("dlog1", "dx1"), "x1"))
    y = desc.form((("dlog1", "dx2"), "x2"))
    assert desc.is_zero(desc.mul(desc.T(x), desc.T(y)))


def test_laurent_defect_example():
    desc = RBAlgebraDescriptor.laurent_ms()
    x = laurent("z^-1")
    y = laurent("z^-1+1")
    assert rb_defect(desc, x, y).is_zero()


def test_naive_two_variable_polar_operator_fails():
    # inclusion-exclusion polar projection on the full bi-Laurent ring
    x = LaurentPoly(("f1", "f2"), (), {(-1, 1): MultiPoly.const((), 1)})
    y = LaurentPoly(("f1", "f2"), (), {(1, -1): MultiPoly.const((), 1)})
    defect = operator_defect(lambda e: e.polar_any(), x, y)
    assert defect == LaurentPoly.const(("f1", "f2"), (), 1)


def test_odd_elements_rejected_by_algebra_mul():
    desc = RBAlgebraDescriptor.nc_log(1, 2)
    odd = desc.form((("dx1",), "1"))
    with pytest.raises(PreconditionError):
        desc.mul(odd, odd)


# -- residues ---------------------------------------------------------------------


def test_residue_extracts_signed_coefficient():
    desc = RBAlgebraDescriptor.nc_log(2, 2)
    omega = desc.form((("dlog1", "dx1"), "x1"), (("dx1", "dx2"), "x2"))
    assert residue(desc, omega, 1) == desc.form((("dx1",), "x1"))
    assert residue(desc, desc.form((("dx1", "dx2"), "x2")), 1).is_zero()


def test_residue_restricts_to_divisor():
    desc = RBAlgebraDescriptor.nc_log(2, 2)
    omega = desc.form((("dlog1", "dx1"), "f1+x1"))
    assert residue(desc, omega, 1) == desc.form((("dx1",), "x1"))


def test_iterated_residue_signs():
    desc = RBAlgebraDescriptor.nc_log(2, 2)
    # dlog2 ^ dlog1 ^ (x1) = -dlog1 ^ dlog2 ^ (x1)
    omega = desc.form((("dlog1", "dlog2"), "-x1"))
    res12 = iterated_residue(desc, omega, (1, 2))
    res21 = iterated_residue(desc, omega, (2, 1))
    assert res12 == desc.form(((), "-x1")) or res12 == desc.form(((), "x1"))
    assert res12 == -res21
    assert not res12.is_zero()


def test_iterated_residue_on_missing_divisor_is_zero():
    desc = RBAlgebraDescriptor.nc_log(2, 2)
    omega = desc.form((("dlog2", "dx1"), "x2"))
    assert iterated_residue(desc, omega, (1,)).is_zero()


def test_iterated_residue_rejects_repeats():
    desc = RBAlgebraDescriptor.nc_log(2, 2)
    with pytest.raises(PreconditionError):
        iterated_residue(desc, desc.one(), (1, 1))


def test_residue_T_compatibility_on_single_dlog_forms():
    # T(w) = sum_j dlog_j ^ Res_j(w) when every term has at most one dlog
    # factor and dlog_j coefficients avoid f_j (the canonical normal form)
    desc = RBAlgebraDescriptor.nc_log(2, 2)
    omega = desc.form(
        (("dlog1", "dx1"), "x1+f2"),
        (("dlog2", "dx2"), "x2^2"),
        (("dx1", "dx2"), "f1*f2"),
        ((), "5"),
    )
    total = ExteriorElement.zero(desc.gens())
    for j in (1, 2):
        dlog = desc.form(((f"dlog{j}",), "1"))
        total = total + dlog * residue(desc, omega, j)
    assert total == desc.T(omega)


# -- Saito triples -------------------------------------------------------------------


def saito_desc():
    return RBAlgebraDescriptor.saito(3)


def test_saito_T_keeps_log_part():
    desc = saito_desc()
    w = desc.saito_element(
        "x1+1", desc.form((("dx1",), "x2")), desc.form((("dx1", "dx2"), "1"))
    )
    t = desc.T(w)
    assert t.denom == w.denom and t.xi == w.xi and t.eta.is_zero()
    again = desc.T(t)
    assert desc.eq(again, t)


def test_saito_unit_is_neutral():
    desc = saito_desc()
    one = desc.one()
    w = desc.saito_element(
        "h+x1", desc.form((("dx2",), "x1")), desc.form(((), "x3"))
    )
    assert desc.eq(desc.mul(one, w), w)
    assert desc.eq(desc.mul(w, one), w)


def test_saito_pure_log_squares_to_zero_xi():
    desc = saito_desc()
    w = desc.saito_element("x1+2", desc.form((("dx1",), "1")), desc.form(((), "0")))
    sq = desc.mul(w, w)
    assert sq.xi.is_zero()


def test_saito_even_forms_commute():
    desc = saito_desc()
    rng = random.Random(11)
    for _ in range(50):
        a = desc.random_element(rng)
        b = desc.random_element(rng)
        assert desc.eq(desc.mul(a, b), desc.mul(b, a))


def test_saito_T_of_pure_eta_vanishes():
    desc = saito_desc()
    w = desc.saito_element("1", desc.form((("dx1",), "0")), desc.form(((), "x2")))
    assert desc.is_zero(desc.T(w))


def test_saito_rejects_denominator_divisible_by_h():
    desc = saito_desc()
    with pytest.raises(InvariantError):
        desc.saito_element("h*x1", desc.form((("dx1",), "1")), desc.form(((), "0")))


def test_saito_wedge_gcd_guard():
    desc = saito_desc()
    # legal factors whose product would stay coprime to h are fine; a direct
    # triple with h-divisible denominator is rejected above, and the product
    # of valid triples keeps an h-free monomial automatically
    a = desc.saito_element("x1+h", desc.form((("dx1",), "1")), desc.form(((), "1")))
    b = desc.saito_element("x2", desc.form((("dx2",), "1")), desc.form(((), "1")))
    out = desc.mul(a, b)
    h_idx = desc.poly_vars().index("h")
    assert any(e[h_idx] == 0 for e in out.denom.terms)


def test_saito_equality_is_cross_multiplied():
    desc = saito_desc()
    xi = desc.form((("dx1",), "x2"))
    eta = desc.form(((), "x3"))
    a = desc.saito_element("x1", xi, eta)
    b = SaitoForm(
        MultiPoly(desc.poly_vars(), {(0, 2, 0, 0): F(1)}),  # x1^2
        (xi * desc.coeff("x1")),
        (eta * desc.coeff("x1")),
    )
    assert desc.eq(a, b)


def test_saito_sum_keeps_a_shared_denominator():
    desc = saito_desc()
    w = desc.saito_element("x1+1", desc.form((("dx1",), "x2")), desc.form(((), "1")))
    total = w
    for _ in range(7):
        total = desc.add(total, w)
    assert total.denom == parse_poly("x1+1", desc.poly_vars())
    assert desc.eq(total, desc.scalar(8, w))


def test_saito_sum_over_a_dividing_denominator():
    desc = saito_desc()
    a = desc.saito_element("x1+1", desc.form((("dx1",), "1")), desc.form(((), "x2")))
    b = desc.saito_element("x1^2-1", desc.form((("dx2",), "1")), desc.form(((), "1")))
    total = desc.add(a, b)
    assert total.denom == b.denom
    assert total.xi == desc.form((("dx1",), "x1-1"), (("dx2",), "1"))
    assert desc.eq(desc.add(b, a), total)
    assert desc.is_zero(desc.sub(total, total))


def test_saito_equality_with_coprime_denominators():
    desc = saito_desc()
    a = desc.saito_element("x1+1", desc.form((("dx1",), "1")), desc.form(((), "0")))
    b = desc.saito_element("x2+1", desc.form((("dx1",), "1")), desc.form(((), "0")))
    assert not desc.eq(a, b)
    # equal values over denominators neither of which divides the other
    c = desc.saito_element("x1*x2+x1+x2+1", desc.form((("dx1",), "x2+1")), desc.form(((), "0")))
    d = desc.saito_element("x1*x3+x1+x3+1", desc.form((("dx1",), "x3+1")), desc.form(((), "0")))
    assert desc.eq(c, d) and desc.eq(c, a)
    assert not desc.eq(c, b)


def test_saito_defect_denominator_stays_within_its_operands():
    # every sum in rb_defect runs over a denominator that divides or equals
    # the other, so the zero defect keeps the product of the two operand
    # denominators (up to monomial and rational content)
    desc = SWEEP_DESCRIPTORS["saito_form"]
    rng = random.Random(21)
    for _ in range(200):
        x = desc.random_element(rng)
        y = desc.random_element(rng)
        defect = rb_defect(desc, x, y)
        assert desc.is_zero(defect)
        bound = x.denom.total_degree() + y.denom.total_degree()
        assert defect.denom.total_degree() <= bound


# -- seeded identity sweeps (smaller versions; acceptance runs the full sizes) ------


@pytest.mark.parametrize("kind", sorted(SWEEP_DESCRIPTORS))
def test_weight_minus_one_identity_sample(kind):
    desc = SWEEP_DESCRIPTORS[kind]
    rng = random.Random(5)
    for _ in range(100):
        x = desc.random_element(rng)
        y = desc.random_element(rng)
        assert desc.is_zero(rb_defect(desc, x, y))


def test_extra_laws_detect_a_breach():
    # minimal subtraction breaks absorption and Leibniz, as T(z^-1 * z^2) = 0
    # but T(z^-1) * z^2 = z; its kind claims neither law
    desc = RBAlgebraDescriptor.laurent_ms()
    x, y = laurent("z^-1"), laurent("z^2")
    broken = [law for _, law, holds in EXTRA_LAWS if not holds(desc, x, y)]
    assert broken == ["T(T(x)y)=T(x)y", "Leibniz"]
    assert failed_laws(desc, x, y) == []


def test_T_complement_splits_every_element():
    for kind, desc in SWEEP_DESCRIPTORS.items():
        if kind == "saito_form":
            continue
        rng = random.Random(9)
        for _ in range(30):
            x = desc.random_element(rng)
            assert desc.add(desc.T(x), desc.T_complement(x)) == x


def test_smooth_log_one_minus_T_is_multiplicative():
    desc = RBAlgebraDescriptor.smooth_log(3)
    rng = random.Random(21)
    for _ in range(200):
        x = desc.random_element(rng)
        y = desc.random_element(rng)
        lhs = desc.T_complement(desc.mul(x, y))
        rhs = desc.mul(desc.T_complement(x), desc.T_complement(y))
        assert lhs == rhs


def test_descriptor_rejects_other_weights():
    with pytest.raises(PreconditionError):
        serde.load_descriptor({"kind": "laurent_ms", "weight": "1"})


def test_residue_T_compatibility_randomized():
    """T(w) = sum_j dlog_j ^ Res_j(w) on random single-dlog forms whose
    dlog_j coefficients avoid f_j."""
    import itertools

    from rbren import ExteriorElement
    from rbren.poly import LaurentPoly, MultiPoly

    desc = RBAlgebraDescriptor.nc_log(2, 2)
    gens = desc.gens()
    variables = desc.poly_vars()
    rng = random.Random(42)
    subsets = [
        s
        for d in (0, 2)
        for s in itertools.combinations(range(len(gens)), d)
        if sum(1 for i in s if i < 2) <= 1
    ]
    for _ in range(300):
        omega = ExteriorElement.zero(gens)
        for _ in range(rng.randint(1, 3)):
            subset = rng.choice(subsets)
            exps = [rng.randint(0, 2) for _ in variables]
            for j in range(2):
                if j in subset:
                    exps[j] = 0  # keep dlog_j coefficients f_j-free
            coeff = MultiPoly(
                variables, {tuple(exps): rng.choice([-2, -1, 1, 2])}
            )
            omega = omega + ExteriorElement(
                gens, {subset: LaurentPoly.from_poly(coeff)}
            )
        total = ExteriorElement.zero(gens)
        for j in (1, 2):
            dlog = desc.form(((f"dlog{j}",), "1"))
            total = total + dlog * residue(desc, omega, j)
        assert total == desc.T(omega)


@pytest.mark.parametrize(
    "build",
    [
        lambda: RBAlgebraDescriptor.nc_log(-2, 3),
        lambda: RBAlgebraDescriptor.nc_log(2, -1),
        lambda: RBAlgebraDescriptor.merom(-1),
        lambda: RBAlgebraDescriptor.smooth_log(-1),
        lambda: RBAlgebraDescriptor.saito(-1),
    ],
    ids=["nc-log-divisors", "nc-log-ambient", "merom", "smooth-log", "saito"],
)
def test_negative_sizes_are_refused(build):
    """nc_log(-2, 3) used to build, with generators dx1..dx3."""
    with pytest.raises(PreconditionError, match="must be >= 0"):
        build()


def test_sweep_refuses_a_negative_pair_count():
    """-3 pairs used to report no failures."""
    with pytest.raises(PreconditionError, match="pairs"):
        sweep(SWEEP_DESCRIPTORS["laurent_ms"], -3, 0)
    assert sweep(SWEEP_DESCRIPTORS["laurent_ms"], 0, 0) == (0, 0)
