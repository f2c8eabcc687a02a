import random
from fractions import Fraction as F

import pytest

from conftest import (
    bubble_chain_graph,
    bubble_graph,
    gamma2_graph,
    gamma3_chain_graph,
    sunset_graph,
    tadpole_graph,
    wheel_graph,
)
from rbren import (
    Character,
    MissingValueError,
    PreconditionError,
    RBAlgebraDescriptor,
    atkinson_closed_form,
    atkinson_solve,
    birkhoff_factorize,
    birkhoff_parts,
    convolve,
    phi_minus_nonrecursive,
    pole_power_character,
    unit_character,
    verify_factorization,
)
from rbren.birkhoff import convolution_product, factorize_all
from rbren.hopf import GeneratorRegistry, HopfElement
from rbren.poly import parse_laurent

H = HopfElement
LAURENT = RBAlgebraDescriptor.laurent_ms()


def z(text):
    return parse_laurent(text, ("z",), ())


@pytest.fixture
def laurent_char(library_registry):
    values = {
        "B": z("z^-1"),
        "Gamma2": z("z^-2"),
        "Gamma3": z("z^-3+2"),
        "sunset": z("z^-2+z"),
        "tadpole": z("z^-2"),
        "triangle": z("z^-1+1"),
        "banana4": z("z^-4"),
    }

    def rule(name, graph):
        # fallback for auto-registered sub/quotient generators
        from rbren.graphs import superficial_degree

        return z(f"z^-{max(superficial_degree(graph, 4), 1)}")

    return Character(LAURENT, values=values, rule=rule, reg=library_registry)


def nc_char(reg, seed=17):
    desc = RBAlgebraDescriptor.nc_log(2, 2)
    rng = random.Random(seed)

    def rule(name, graph):
        return desc.random_element(rng)

    return Character(desc, rule=rule, reg=reg)


# -- convolution -------------------------------------------------------------------


def test_convolution_unit(library_registry, laurent_char):
    e = unit_character(LAURENT)
    for name in ("B", "Gamma2", "sunset"):
        assert convolve(e, laurent_char, name, library_registry) == laurent_char(name)
        assert convolve(laurent_char, e, name, library_registry) == laurent_char(name)


def test_convolution_on_primitive(library_registry, laurent_char):
    phi = laurent_char
    assert convolve(phi, phi, "B", library_registry) == 2 * phi("B")


def test_convolution_on_gamma2(library_registry, laurent_char):
    phi1 = laurent_char
    phi2 = Character(
        LAURENT,
        values={"B": z("z^-1+1"), "Gamma2": z("3")},
        reg=library_registry,
    )
    expected = phi1("Gamma2") + phi2("Gamma2") + 2 * phi1("B") * phi2("B")
    assert convolve(phi1, phi2, "Gamma2", library_registry) == expected


# -- recursive factorization -----------------------------------------------------------


def test_primitive_pole_subtraction(library_registry):
    char = Character(LAURENT, values={"B": z("z^-1+5+z")}, reg=library_registry)
    minus, plus = birkhoff_factorize(char, library_registry, "B")
    assert minus == z("-z^-1")
    assert plus == z("5+z")


def test_gamma2_hand_recursion(library_registry, laurent_char):
    minus, plus = birkhoff_factorize(laurent_char, library_registry, "Gamma2")
    assert minus == z("z^-2")
    assert plus.is_zero()


def test_missing_value_is_reported(library_registry):
    char = Character(LAURENT, values={"Gamma2": z("z^-2")}, reg=library_registry)
    with pytest.raises(MissingValueError):
        birkhoff_factorize(char, library_registry, "Gamma2")


def test_factorization_verifies_on_all_generators(library_registry, laurent_char):
    names = factorize_all(laurent_char, library_registry)
    assert len(names) >= 7
    minus, plus = birkhoff_parts(laurent_char, library_registry)
    for name in names:
        ok, defect = verify_factorization(laurent_char, minus, plus, name, library_registry)
        assert ok and defect.is_zero()


def test_perturbed_plus_part_fails_verification(library_registry, laurent_char):
    minus, plus = birkhoff_parts(laurent_char, library_registry)
    perturbed = {"B": plus("B") + z("1")}
    ok, defect = verify_factorization(
        laurent_char, minus, perturbed, "B", library_registry
    )
    assert not ok
    assert defect == z("1")


def test_minus_in_image_plus_regular(library_registry, laurent_char):
    for name in factorize_all(laurent_char, library_registry):
        minus, plus = birkhoff_factorize(laurent_char, library_registry, name)
        assert LAURENT.T(minus) == minus
        assert LAURENT.T(plus).is_zero()


def test_plus_equals_one_minus_T_on_log_target(library_registry):
    char = nc_char(library_registry)
    desc = char.target
    for name in factorize_all(char, library_registry):
        _, plus = birkhoff_factorize(char, library_registry, name)
        assert plus == desc.T_complement(char(name))


def test_nonrecursive_needs_simple_T(library_registry, laurent_char):
    with pytest.raises(PreconditionError):
        phi_minus_nonrecursive(laurent_char, library_registry, "B")


def test_nonrecursive_matches_recursive(library_registry):
    char = nc_char(library_registry)
    for name in factorize_all(char, library_registry):
        minus, _ = birkhoff_factorize(char, library_registry, name)
        assert phi_minus_nonrecursive(char, library_registry, name) == minus


def test_nonrecursive_on_primitive_is_minus_T(library_registry):
    char = nc_char(library_registry, seed=3)
    desc = char.target
    got = phi_minus_nonrecursive(char, library_registry, "B")
    assert got == desc.neg(desc.T(char("B")))


def test_smooth_log_two_level_nesting_formula(library_registry):
    """phi_minus(Gamma2) = -dlog^xi_G2 + 2 dlog^(xi_B ^ eta_B) for
    phi(G) = dlog ^ xi_G + eta_G over a single divisor."""
    desc = RBAlgebraDescriptor.smooth_log(3)
    xi_b = desc.form((("dx1",), "x1"))
    eta_b = desc.form((("dx2", "dx3"), "x2"), ((), "2"))
    xi_g = desc.form((("dx3",), "f1"))
    eta_g = desc.form((("dx1", "dx2"), "1"))
    dlog = desc.form((("dlog1",), "1"))
    char = Character(
        desc,
        values={"B": dlog * xi_b + eta_b, "Gamma2": dlog * xi_g + eta_g},
        reg=library_registry,
    )
    minus, _ = birkhoff_factorize(char, library_registry, "Gamma2")
    expected = -(dlog * xi_g) + 2 * (dlog * (xi_b * eta_b))
    assert minus == expected
    assert phi_minus_nonrecursive(char, library_registry, "Gamma2") == expected


# -- Atkinson ---------------------------------------------------------------------


def test_atkinson_on_unit_character(library_registry):
    char = Character(
        LAURENT,
        values={name: LAURENT.zero() for name in library_registry.names()},
        reg=library_registry,
    )
    # phi = e means a = 0, so both fixed points are the unit
    char.values = {name: LAURENT.zero() for name in library_registry.names()}
    b_l, b_r = atkinson_solve(char, library_registry)
    for name in ("B", "Gamma2"):
        assert b_l(name) == LAURENT.zero()
        assert b_r(name) == LAURENT.zero()
    assert b_l(()) == LAURENT.one()


def test_atkinson_primitive(library_registry):
    char = Character(LAURENT, values={"B": z("z^-1+3")}, reg=library_registry)
    b_l, _ = atkinson_solve(char, library_registry)
    assert b_l("B") == z("-z^-1")


def test_atkinson_agrees_with_birkhoff(library_registry, laurent_char):
    b_l, _ = atkinson_solve(laurent_char, library_registry)
    for name in factorize_all(laurent_char, library_registry):
        minus, _ = birkhoff_factorize(laurent_char, library_registry, name)
        assert b_l(name) == minus


def test_atkinson_factorization_identity(library_registry, laurent_char):
    names = factorize_all(laurent_char, library_registry)
    b_l, b_r = atkinson_solve(laurent_char, library_registry)
    product = convolution_product(
        convolution_product(b_l, laurent_char, library_registry),
        b_r,
        library_registry,
    )
    e = unit_character(LAURENT)
    for name in names:
        assert product(name) == e(name)
    assert product(()) == LAURENT.one()


def test_atkinson_closed_form_matches_iterative(library_registry):
    char = nc_char(library_registry, seed=23)
    names = factorize_all(char, library_registry)
    b_l, _ = atkinson_solve(char, library_registry)
    for name in names:
        assert atkinson_closed_form(char, library_registry, name) == b_l(name)


def test_atkinson_closed_form_needs_simple_T(library_registry, laurent_char):
    with pytest.raises(PreconditionError):
        atkinson_closed_form(laurent_char, library_registry, "B")


def test_pole_power_character(library_registry):
    char = pole_power_character(library_registry, c=F(1, 2))
    assert char("B") == z("z^-1+1/2")
    assert char("sunset") == z("z^-2+1/2")
    assert char("triangle") == z("z^-1+1/2")  # max(omega, 1) floor
    minus, plus = birkhoff_parts(char, library_registry)
    for name in factorize_all(char, library_registry):
        ok, _ = verify_factorization(char, minus, plus, name, library_registry)
        assert ok


@pytest.mark.parametrize("n", [7, 8])
def test_wheels_past_twelve_edges_register_and_factorize(n):
    """W7 and W8 (14 and 16 edges) at dim 4: every generator factorizes and
    verifies."""
    reg = GeneratorRegistry(dim=4)
    assert reg.register(f"W{n}", wheel_graph(n)) == f"W{n}"
    char = pole_power_character(reg, c=F(1, 2))
    names = factorize_all(char, reg)
    minus, plus = birkhoff_parts(char, reg)
    for name in names:
        ok, defect = verify_factorization(char, minus, plus, name, reg)
        assert ok, (name, defect)
    assert f"W{n}" in names and reg.degree(f"W{n}") == n


def test_plus_and_minus_parts_are_characters(library_registry, laurent_char):
    """phi+ = phi- * phi evaluated on a product monomial equals the product
    of the generator phi+ values."""
    import itertools

    names = factorize_all(laurent_char, library_registry)
    minus_char, plus_char = birkhoff_parts(laurent_char, library_registry)
    sample = sorted(names)[:6]
    for a, b in itertools.combinations_with_replacement(sample, 2):
        mono = H.mono((a, b))
        via_convolution = convolve(
            minus_char, laurent_char, mono, library_registry
        )
        product_of_parts = plus_char(a) * plus_char(b)
        assert via_convolution == product_of_parts


def test_saito_valued_character(library_registry):
    desc = RBAlgebraDescriptor.saito(3)
    rng = random.Random(31)
    char = Character(
        desc, rule=lambda name, graph: desc.random_element(rng), reg=library_registry
    )
    minus_char, plus_char = birkhoff_parts(char, library_registry)
    for name in factorize_all(char, library_registry):
        minus, plus = birkhoff_factorize(char, library_registry, name)
        assert desc.eq(plus, desc.T_complement(char(name)))
        assert desc.eq(phi_minus_nonrecursive(char, library_registry, name), minus)
        ok, defect = verify_factorization(
            char, minus_char, plus_char, name, library_registry
        )
        assert ok and desc.is_zero(defect)


def test_atkinson_closed_form_of_unit_character(library_registry):
    desc = RBAlgebraDescriptor.nc_log(2, 2)
    char = Character(
        desc, rule=lambda name, graph: desc.zero(), reg=library_registry
    )
    # phi = e gives a = 0, so the closed form collapses to the unit
    assert atkinson_closed_form(char, library_registry, "B") == desc.zero()


def test_atkinson_closed_form_on_saito_character_matches_phi_minus():
    # the closed form adds many Saito triples; over the product of
    # denominators it grew them to degree 154 on Gamma3 and took minutes
    reg = GeneratorRegistry(dim=4)
    names = ("B", "sunset", "Gamma2", "Gamma3", "tadpole")
    graphs = (bubble_graph, sunset_graph, gamma2_graph, gamma3_chain_graph, tadpole_graph)
    for name, graph in zip(names, graphs):
        reg.register(name, graph())
    desc = RBAlgebraDescriptor.saito(2)
    rng = random.Random(5)
    char = Character(desc, rule=lambda name, graph: desc.random_element(rng), reg=reg)
    for name in names:
        minus, _ = birkhoff_factorize(char, reg, name)
        assert desc.eq(atkinson_closed_form(char, reg, name), minus)


def test_atkinson_on_six_bubble_chain_matches_phi_minus():
    # C6 has degree 6; a series stopped at a^{*4} gave -720 x1 dlog1^dx1
    reg = GeneratorRegistry(dim=4)
    reg.register("C6", bubble_chain_graph(6))
    desc = RBAlgebraDescriptor.nc_log(1, 1)
    phi = desc.add(desc.one(), desc.form((("dlog1", "dx1"), "x1")))
    char = Character(desc, rule=lambda name, graph: phi, reg=reg)
    minus, _ = birkhoff_factorize(char, reg, "C6")
    b_l, _ = atkinson_solve(char, reg)
    assert minus == desc.zero()
    assert atkinson_closed_form(char, reg, "C6") == minus
    assert b_l("C6") == minus
