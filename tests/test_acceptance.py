"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they go.
Every check is exact (Fraction / integer arithmetic); there are no
tolerances anywhere.
"""

import itertools
import random
import time
from fractions import Fraction as F

import oracles
from conftest import (
    banana4_graph,
    bubble_graph,
    gamma2_graph,
    gamma3_chain_graph,
    sunset_graph,
    tadpole_graph,
    triangle_graph,
)
from rbren import (
    Arrangement,
    Character,
    ExteriorElement,
    FeynmanGraph,
    GeneratorRegistry,
    HopfElement,
    SWEEP_DESCRIPTORS,
    RBAlgebraDescriptor,
    antipode,
    arrangement_class,
    atkinson_closed_form,
    atkinson_solve,
    birkhoff_factorize,
    birkhoff_parts,
    connected_components,
    coproduct,
    counit,
    edge_variables,
    factorize_all,
    failed_laws,
    gl_class,
    grassmannian_class,
    iterated_residue,
    matrix_tree_check,
    phi_minus_nonrecursive,
    pole_order_bound,
    pole_power_character,
    psi,
    rb_defect,
    residue,
    second_symanzik,
    sigma_arrangement,
    unit_character,
    verify_factorization,
)
from rbren.birkhoff import convolution_product
from rbren.hopf import TensorElement
from rbren.poly import parse_poly

H = HopfElement

def report(criterion: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def seeded_pairs(desc, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield desc.random_element(rng), desc.random_element(rng)


def fresh_library() -> GeneratorRegistry:
    reg = GeneratorRegistry(dim=4)
    reg.register("B", bubble_graph())
    reg.register("sunset", sunset_graph())
    reg.register("triangle", triangle_graph())
    reg.register("Gamma2", gamma2_graph())
    reg.register("Gamma3", gamma3_chain_graph())
    reg.register("banana4", banana4_graph())
    reg.register("tadpole", tadpole_graph())
    return reg


def nc_rule_character(reg, seed=101) -> Character:
    desc = RBAlgebraDescriptor.nc_log(2, 2)
    rng = random.Random(seed)
    return Character(desc, rule=lambda name, graph: desc.random_element(rng), reg=reg)


def test_criterion_01_rota_baxter_identity_all_kinds():
    ok = True
    for kind, desc in SWEEP_DESCRIPTORS.items():
        for x, y in seeded_pairs(desc, seed=2024, count=1000):
            if not desc.is_zero(rb_defect(desc, x, y)):
                ok = False
                break
    report("criterion 1: weight -1 Rota-Baxter identity, 1000 pairs x 5 kinds", ok)


def test_criterion_02_nc_log_operator_suite():
    desc = SWEEP_DESCRIPTORS["nc_log_form"]
    T, mul = desc.T, desc.mul
    ok = True
    for x, y in seeded_pairs(desc, seed=7, count=1000):
        # T^2 = T and both absorption laws
        if failed_laws(desc, x, y):
            ok = False
        if T(mul(x, y)) != desc.sub(
            desc.add(mul(T(x), y), mul(x, T(y))), mul(T(x), T(y))
        ):
            ok = False
        if desc.T_complement(mul(x, y)) != mul(
            desc.T_complement(x), desc.T_complement(y)
        ):
            ok = False
        if not ok:
            break
    report(
        "criterion 2: normal-crossings suite (T^2=T, simplified identity,"
        " absorption, 1-T multiplicative), 1000 pairs",
        ok,
    )


def test_criterion_03_smooth_hypersurface_suite():
    desc = SWEEP_DESCRIPTORS["smooth_log_form"]
    ok = True
    for x, y in seeded_pairs(desc, seed=11, count=1000):
        # T(x)T(y) = 0 and Leibniz, besides the simple-T laws
        if failed_laws(desc, x, y):
            ok = False
            break
    report("criterion 3: smooth-divisor suite (T(x)T(y)=0, Leibniz), 1000 pairs", ok)


def test_criterion_04_saito_leibniz():
    desc = SWEEP_DESCRIPTORS["saito_form"]
    ok = True
    for x, y in seeded_pairs(desc, seed=13, count=500):
        # Leibniz, besides the simple-T laws and T(x)T(y) = 0
        if failed_laws(desc, x, y):
            ok = False
            break
    report("criterion 4: Saito triple Leibniz rule, 500 pairs", ok)


def test_criterion_05_hopf_axioms():
    reg = fresh_library()
    names = factorize_all(
        Character(
            RBAlgebraDescriptor.laurent_ms(),
            rule=lambda n, g: RBAlgebraDescriptor.laurent_ms().zero(),
            reg=reg,
        ),
        reg,
    )
    explicit = [n for n in names if not n.startswith("!")]
    ok = len(explicit) >= 6
    for name in names:
        x = H.gen(name)
        delta = coproduct(x, reg)
        # coassociativity
        left: dict = {}
        right: dict = {}
        for (a, b), c in delta.terms.items():
            for (a1, a2), c2 in coproduct(H({a: 1}), reg).terms.items():
                left[(a1, a2, b)] = left.get((a1, a2, b), F(0)) + c * c2
            for (b1, b2), c2 in coproduct(H({b: 1}), reg).terms.items():
                right[(a, b1, b2)] = right.get((a, b1, b2), F(0)) + c * c2
        ok = ok and TensorElement(3, left) == TensorElement(3, right)
        # counit
        lhs = HopfElement.zero()
        rhs = HopfElement.zero()
        for (a, b), c in delta.terms.items():
            lhs = lhs + c * counit(H({a: 1})) * H({b: 1})
            rhs = rhs + c * counit(H({b: 1})) * H({a: 1})
        ok = ok and lhs == x and rhs == x
        # antipode convolution inverse
        total = HopfElement.zero()
        for (a, b), c in delta.terms.items():
            total = total + c * (antipode(H({a: 1}), reg) * H({b: 1}))
        ok = ok and total == HopfElement.unit(counit(x))
        # grading
        d = reg.degree(name)
        ok = ok and all(
            reg.degree(a) + reg.degree(b) == d for (a, b) in delta.terms
        )
    report(
        f"criterion 5: Hopf axioms (coassociativity, counit, antipode) on"
        f" {len(names)} generators",
        ok,
    )


def _characters_for_acceptance(reg):
    return [
        ("pole_power c=0", pole_power_character(reg, c=F(0))),
        ("pole_power c=1/2", pole_power_character(reg, c=F(1, 2))),
        ("nc_log seeded", nc_rule_character(reg)),
    ]


def test_criterion_06_birkhoff_correctness():
    ok = True
    for label, char in _characters_for_acceptance(fresh_library()):
        reg = char.reg
        desc = char.target
        minus_char, plus_char = birkhoff_parts(char, reg)
        for name in factorize_all(char, reg):
            minus, plus = birkhoff_factorize(char, reg, name)
            verified, defect = verify_factorization(char, minus_char, plus_char, name, reg)
            ok = ok and verified and desc.is_zero(defect)
            ok = ok and desc.is_zero(desc.T(plus))
            ok = ok and desc.eq(desc.T(minus), minus)
        if not ok:
            break
    report(
        "criterion 6: Birkhoff factorization verifies (3 characters, all"
        " generators; phi+ polar-free, phi- polar)",
        ok,
    )


def test_criterion_07_oracle_equivalences():
    ok = True
    # (a) phi+ = (1-T) phi and nonrecursive phi- on the log-form target
    reg = fresh_library()
    nc_char = nc_rule_character(reg)
    names = factorize_all(nc_char, reg)
    desc = nc_char.target
    for name in names:
        minus, plus = birkhoff_factorize(nc_char, reg, name)
        ok = ok and plus == desc.T_complement(nc_char(name))
        ok = ok and phi_minus_nonrecursive(nc_char, reg, name) == minus
    # (b) Atkinson fixed point vs recursive phi-, on laurent and nc targets
    reg2 = fresh_library()
    for label, char in _characters_for_acceptance(reg2):
        names2 = factorize_all(char, reg2)
        b_l, b_r = atkinson_solve(char, reg2)
        for name in names2:
            minus, _ = birkhoff_factorize(char, reg2, name)
            ok = ok and char.target.eq(b_l(name), minus)
        if char.target.has_simple_T:
            for name in names2:
                ok = ok and char.target.eq(
                    atkinson_closed_form(char, reg2, name), b_l(name)
                )
        # b_l * phi * b_r = e through degree 4
        product = convolution_product(
            convolution_product(b_l, char, reg2), b_r, reg2
        )
        e = unit_character(char.target)
        for mono in _monomials_up_to_degree(reg2, 4):
            ok = ok and char.target.eq(product(mono), e(mono))
    report(
        "criterion 7: oracle equivalences (nonrecursive phi-, phi+=(1-T)phi,"
        " Atkinson b_l, closed form, b_l*phi*b_r=e through degree 4)",
        ok,
    )


def _monomials_up_to_degree(reg, bound):
    gens = [n for n in reg.names() if reg.degree(n) <= bound]
    monos = [()]
    for size in range(1, bound + 1):
        for combo in itertools.combinations_with_replacement(sorted(gens), size):
            if reg.degree(tuple(combo)) <= bound:
                monos.append(tuple(combo))
    return monos


def test_criterion_08_matrix_tree_exhaustive():
    started = time.time()
    checked = 0
    ok = True
    for n_vertices in range(1, 6):
        pairs = [(a, b) for a in range(n_vertices) for b in range(a, n_vertices)]
        for n_edges in range(1, 7):
            for combo in itertools.combinations_with_replacement(pairs, n_edges):
                if {v for e in combo for v in e} != set(range(n_vertices)):
                    continue
                g = FeynmanGraph(
                    tuple(range(n_vertices)),
                    tuple((f"e{i}", a, b) for i, (a, b) in enumerate(combo)),
                )
                if len(connected_components(g)) != 1:
                    continue
                checked += 1
                if not matrix_tree_check(g):
                    ok = False
                    break
    elapsed = time.time() - started
    ok = ok and checked > 10000 and elapsed < 60
    report(
        f"criterion 8: det M = Psi on all {checked} connected multigraphs"
        f" (<=6 edges, <=5 vertices) in {elapsed:.1f}s",
        ok,
    )


def test_criterion_09_sunset_polynomials():
    g = sunset_graph()
    variables = edge_variables(g)
    ok = psi(g) == parse_poly("t1*t2+t1*t3+t2*t3", variables)
    ok = ok and second_symanzik(g) == parse_poly("t1*t2*t3", variables)
    report("criterion 9: sunset Psi and P for legs (p, -p)", ok)


def test_criterion_10_point_count_oracles():
    ok = True
    for size in (1, 2, 3):
        for q in (2, 3):
            ok = ok and gl_class(size)(q) == oracles.count_gl(size, q)
    for d, n in ((1, 2), (1, 3), (2, 4)):
        ok = ok and grassmannian_class(d, n)(2) == oracles.count_subspaces(d, n, 2)
    braid = Arrangement(
        3,
        ((F(1), F(-1), F(0)), (F(1), F(0), F(-1)), (F(0), F(1), F(-1))),
        projective=True,
    )
    for arr in (braid, sigma_arrangement(2, 0)):
        for q in (2, 3):
            forms = oracles.frac_forms(arr.hyperplanes, q)
            ok = ok and arrangement_class(arr)(q) == oracles.count_union_projective(
                forms, q
            )
    report(
        "criterion 10: point counts (GL_l, Grassmannians, braid-3 and"
        " sigma(2,0) arrangements) over F_2, F_3",
        ok,
    )


def test_criterion_11_pole_order_bound_instance():
    report(
        "criterion 11: pole_order_bound(14, 7, 4) = 38",
        pole_order_bound(14, 7, 4) == 38,
    )


def test_criterion_12_residue_properties():
    desc = RBAlgebraDescriptor.nc_log(2, 2)
    rng = random.Random(99)
    ok = True
    gens = desc.gens()
    m = desc.divisors
    single_dlog_subsets = [
        s
        for d in (0, 2)
        for s in itertools.combinations(range(len(gens)), d)
        if sum(1 for i in s if i < m) <= 1
    ]
    for _ in range(500):
        # antisymmetry on general even forms
        omega = desc.random_element(rng)
        ok = ok and iterated_residue(desc, omega, (1, 2)) == -iterated_residue(
            desc, omega, (2, 1)
        )
        # Res_j after projection equals Res_j, on single-dlog forms
        single = ExteriorElement.zero(gens)
        for _ in range(rng.randint(1, 3)):
            subset = rng.choice(single_dlog_subsets)
            single = single + ExteriorElement(
                gens, {subset: desc.random_coeff(rng)}
            )
        for j in (1, 2):
            ok = ok and residue(desc, desc.T(single), j) == residue(desc, single, j)
        if not ok:
            break
    report(
        "criterion 12: iterated residue antisymmetry and Res_j o T = Res_j"
        " on single-dlog forms, 500 forms",
        ok,
    )
