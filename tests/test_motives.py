import itertools
import random
from fractions import Fraction as F

import pytest

import oracles
from rbren import (
    Arrangement,
    BlowupStep,
    LefschetzPolynomial,
    PreconditionError,
    SizeBoundError,
    arrangement_class,
    blowup_class,
    char_poly,
    gl_class,
    grassmannian_class,
    parse_class,
    pole_order_bound,
    projective_class,
    sigma_arrangement,
)
from rbren import motives

L = LefschetzPolynomial.lefschetz


def test_projective_classes():
    assert projective_class(0) == LefschetzPolynomial.const(1)
    assert projective_class(1) == parse_class("L + 1")
    assert projective_class(2) == parse_class("L^2 + L + 1")
    with pytest.raises(PreconditionError):
        projective_class(-1)


def test_gl_class_instances():
    assert gl_class(1) == parse_class("L - 1")
    assert gl_class(2) == L(1) * (L(1) - 1) * (L(2) - 1)
    assert gl_class(2).render() == "L^4 - L^3 - L^2 + L"
    with pytest.raises(PreconditionError):
        gl_class(0)


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3])
def test_gl_class_counts_invertible_matrices(size, q):
    assert gl_class(size)(q) == oracles.count_gl(size, q)


def test_grassmannian_classes():
    assert grassmannian_class(1, 2) == parse_class("L + 1")
    assert grassmannian_class(2, 4) == parse_class("L^4 + L^3 + 2*L^2 + L + 1")
    with pytest.raises(PreconditionError):
        grassmannian_class(3, 2)


def test_grassmannian_at_one_counts_partitions():
    from math import comb

    for d, n in [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6)]:
        assert grassmannian_class(d, n)(1) == comb(n, d)


@pytest.mark.parametrize("d,n", [(1, 2), (1, 3), (2, 4)])
def test_grassmannian_counts_subspaces(d, n):
    assert grassmannian_class(d, n)(2) == oracles.count_subspaces(d, n, 2)


def test_blowup_point_in_plane():
    got = blowup_class(projective_class(2), [BlowupStep(LefschetzPolynomial.const(1), 2)])
    assert got == parse_class("L^2 + 2*L + 1")


def test_blowup_identity_cases():
    x = projective_class(3)
    assert blowup_class(x, []) == x
    assert blowup_class(x, [BlowupStep(projective_class(1), 1)]) == x


def test_char_poly_single_hyperplane():
    arr = Arrangement(3, ((F(1), F(0), F(0)),))
    assert char_poly(arr) == parse_class("t^3 - t^2", "t")


def test_char_poly_braid3():
    arr = Arrangement(
        3,
        (
            (F(1), F(-1), F(0)),
            (F(1), F(0), F(-1)),
            (F(0), F(1), F(-1)),
        ),
    )
    # t(t-1)(t-2)
    assert char_poly(arr) == parse_class("t^3 - 3*t^2 + 2*t", "t")


def test_char_poly_boolean():
    arr = Arrangement(
        4, ((F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0)))
    )
    expected = L(2) * (L(1) - 1) ** 2
    assert char_poly(arr) == expected


def test_char_poly_bound(monkeypatch):
    """21 coordinate planes used to be refused (more than 20 planes); they
    are 21 summands of one plane each.  A dense arrangement past the work
    bound is refused before any walk."""
    forms = tuple(tuple(F(int(i == j)) for i in range(21)) for j in range(21))
    assert char_poly(Arrangement(21, forms)) == (L(1) - 1) ** 21
    dense = Arrangement(12, _random_forms(random.Random("work bound"), 12, 60, range(-2, 3)))

    def walk(rows):
        raise AssertionError("walked an arrangement past the work bound")

    monkeypatch.setattr(motives, "_nbc_counts", walk)
    with pytest.raises(SizeBoundError, match=str(motives.ARRANGEMENT_WORK_BOUND)):
        char_poly(dense)


def _random_forms(rng, ambient, count, entries):
    """``count`` pairwise non-proportional forms with entries drawn from
    ``entries``."""
    forms, normals = [], set()
    while len(forms) < count:
        form = tuple(F(rng.choice(entries)) for _ in range(ambient))
        if not any(form):
            continue
        lead = next(c for c in form if c)
        normal = tuple(c / lead for c in form)
        if normal not in normals:
            normals.add(normal)
            forms.append(form)
    return tuple(forms)


# the forms in {-1, 0, 1}^3 whose first nonzero entry is 1: one per plane
SMALL_FORMS = [
    f for f in itertools.product((-1, 0, 1), repeat=3) if any(f) and next(filter(None, f)) == 1
]


def test_char_poly_matches_whitney_and_point_counts_exhaustively():
    """Every arrangement of at most 6 of the 13 planes.  No minor of these
    forms exceeds 4 in absolute value, so reduction mod 5 keeps the
    intersection lattice and chi(5) counts the points of F_5^3 off the
    planes."""
    count = 0
    for size in range(7):
        for planes in itertools.combinations(SMALL_FORMS, size):
            chi = char_poly(Arrangement(3, planes))
            assert dict(chi.terms) == oracles.whitney_char_poly(3, planes), planes
            on_planes = oracles.count_union_affine(planes, 5) if planes else 0
            assert chi(5) == 5**3 - on_planes, planes
            count += 1
    assert count == 4096


@pytest.mark.parametrize("seed", range(12))
def test_char_poly_matches_whitney_on_random_arrangements(seed):
    rng = random.Random(f"char_poly:{seed}")
    ambient = rng.randint(4, 6)
    forms = _random_forms(rng, ambient, rng.randint(8, 11), range(-2, 3))
    expected = oracles.whitney_char_poly(ambient, forms)
    assert dict(char_poly(Arrangement(ambient, forms)).terms) == expected


def test_char_poly_matches_whitney_on_rational_entries():
    entries = [F(0), F(1), F(-1, 2), F(2, 3), F(-3, 4), F(5, 6), F(7, 3)]
    forms = _random_forms(random.Random("char_poly:rational"), 4, 9, entries)
    assert any(c.denominator > 1 for form in forms for c in form)
    expected = oracles.whitney_char_poly(4, forms)
    assert dict(char_poly(Arrangement(4, forms)).terms) == expected


@pytest.mark.parametrize("loops", range(1, 8))
def test_char_poly_of_sigma_arrangements(loops):
    """Each row-sum plane alone uses its diagonal entry, so the C(f, 2)
    planes are independent and chi = t^(l^2 - C(f, 2)) (t - 1)^C(f, 2);
    the subset walk checks the ones of at most 10 planes."""
    for genus in range((loops + 1) // 2):
        arr = sigma_arrangement(loops, genus)
        n = len(arr.hyperplanes)
        assert oracles.fraction_rank(arr.hyperplanes) == n
        chi = char_poly(arr)
        assert chi == L(loops * loops - n) * (L(1) - 1) ** n
        if n <= 10:
            assert dict(chi.terms) == oracles.whitney_char_poly(arr.ambient, arr.hyperplanes)


def test_duplicate_hyperplane_rejected():
    with pytest.raises(PreconditionError, match="duplicate"):
        Arrangement(2, ((F(1), F(0)), (F(2), F(0))))
    with pytest.raises(PreconditionError, match="duplicate"):
        Arrangement(2, ((F(-1, 2), F(0)), (F(1), F(0))))
    with pytest.raises(PreconditionError, match="zero"):
        Arrangement(2, ((F(0), F(0)),))
    # the same first entry, not proportional: two planes, kept as given
    planes = ((F(1), F(2)), (F(1), F(3)))
    assert Arrangement(2, planes).hyperplanes == planes


def test_arrangement_class_single_hyperplane():
    arr = Arrangement(4, ((F(1), F(0), F(0), F(0)),), projective=True)
    assert arrangement_class(arr) == projective_class(2)


def test_arrangement_class_empty_is_zero():
    arr = Arrangement(3, (), projective=True)
    assert arrangement_class(arr).is_zero()


@pytest.mark.parametrize("q", [2, 3])
def test_arrangement_class_counts_points_braid3(q):
    forms = ((F(1), F(-1), F(0)), (F(1), F(0), F(-1)), (F(0), F(1), F(-1)))
    arr = Arrangement(3, forms, projective=True)
    got = arrangement_class(arr)(q)
    assert got == oracles.count_union_projective(oracles.frac_forms(forms, q), q)


@pytest.mark.parametrize("q", [2, 3])
def test_arrangement_class_counts_points_sigma20(q):
    arr = sigma_arrangement(2, 0)
    got = arrangement_class(arr)(q)
    forms = oracles.frac_forms(arr.hyperplanes, q)
    assert got == oracles.count_union_projective(forms, q)


def test_sigma_arrangement_shapes():
    assert len(sigma_arrangement(3, 1).hyperplanes) == 1
    # f = 2: the single hyperplane is x_11 = 0
    form = sigma_arrangement(3, 1).hyperplanes[0]
    assert form[0] == 1 and all(c == 0 for c in form[1:])
    assert len(sigma_arrangement(3, 0).hyperplanes) == 6  # C(4, 2)
    assert len(sigma_arrangement(2, 0).hyperplanes) == 3  # C(3, 2)
    with pytest.raises(PreconditionError):
        sigma_arrangement(2, 1)  # f = 1


def test_pole_order_bound_values():
    assert pole_order_bound(14, 7, 4) == 38
    assert pole_order_bound(5, 1, 4) == 5
    assert pole_order_bound(2, 1, 4) == 2


def test_pole_order_bound_hypothesis_violation():
    with pytest.raises(PreconditionError):
        pole_order_bound(1, 7, 4)


def test_kausz_class_data_driven():
    """The Kausz compactification class is blowup_class of [P^{l^2}], one
    BlowupStep per supplied stratum (base, fiber, codim)."""
    one = LefschetzPolynomial.const(1)
    assert blowup_class(projective_class(1 * 1), []) == projective_class(1)
    got = blowup_class(projective_class(1 * 1), [BlowupStep(one * one, 2)])
    assert got == parse_class("2*L + 1")


def test_kausz_class_dominates_open_part():
    # rank-stratum data for the l = 2 compactification: blow up the origin
    # (codim 4) and the projective rank-one locus P^1 x P^1 (codim 2)
    one = LefschetzPolynomial.const(1)
    steps = [
        BlowupStep(one * one, 4),
        BlowupStep(projective_class(1) * projective_class(1), 2),
    ]
    total = blowup_class(projective_class(2 * 2), steps)
    for q in (2, 3):
        assert total(q) >= gl_class(2)(q)


def test_lefschetz_negative_power_is_refused():
    """A negative exponent used to give the class 1."""
    assert (L(1) + 1) ** 0 == LefschetzPolynomial.const(1)
    assert (L(1) + 1) ** 2 == parse_class("L^2 + 2*L + 1")
    with pytest.raises(PreconditionError, match="negative"):
        (L(1) + 1) ** -1


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: LefschetzPolynomial({0: F(1, 2), 1: 2.7}), "1/2"),
        (lambda: LefschetzPolynomial({1: 2.7}), "2.7"),
        (lambda: LefschetzPolynomial.const(F(3, 2)), "3/2"),
        (lambda: LefschetzPolynomial({1.5: 1}), "1.5"),
        (lambda: LefschetzPolynomial({F(3, 2): 1}), "3/2"),
        (lambda: LefschetzPolynomial.lefschetz(1.5), "1.5"),
        (lambda: LefschetzPolynomial.lefschetz(-1), "negative exponent"),
    ],
    ids=["fraction-coefficient", "float-coefficient", "const", "float-exponent",
         "fraction-exponent", "lefschetz-float", "lefschetz-negative"],
)
def test_lefschetz_invalid_terms_are_refused(build, named):
    """They used to be truncated: the first gave 2*L, const(3/2) gave 1 and
    the exponent 1.5 gave L; lefschetz(1.5) and lefschetz(-1) were stored as
    given."""
    with pytest.raises(PreconditionError, match=named):
        build()


def test_lefschetz_integral_fractions_are_accepted():
    assert LefschetzPolynomial({F(4, 2): F(4, 2)}) == 2 * L(2)
    assert LefschetzPolynomial.const(F(4, 2)) == LefschetzPolynomial.const(2)


def test_lefschetz_parse_round_trip():
    for poly in (gl_class(3), projective_class(5), grassmannian_class(2, 4)):
        assert parse_class(poly.render()) == poly


@pytest.mark.parametrize(
    "text, expected",
    [
        ("L*L", L(2)),
        ("2*L*L", L(2) * 2),
        ("L^2*3", L(2) * 3),
    ],
)
def test_parse_class_multiplies_every_factor(text, expected):
    assert parse_class(text) == expected


def test_parse_class_rejects_rational_coefficients():
    with pytest.raises(PreconditionError):
        parse_class("1/2*L + 1")
