import dataclasses
import random
from fractions import Fraction

import pytest

from epschar import covers
from epschar.corpus import constructed_corpus, synthetic_corpus
from epschar.covers import (
    INFINITY,
    CoverDatum,
    PlaceDatum,
    RationalFunctionDivisor,
    artin_schreier_cover,
    cover_from_json,
    cover_to_json,
    kummer_cover,
    random_weakly_ramified_cover,
    riemann_hurwitz_genus,
    subcover_data,
    synthetic_cover,
    validate_cover,
)
from epschar.errors import (
    ConstantExtensionError,
    CoverValidationError,
    DomainError,
    IncompleteDatumError,
    InvalidInputError,
    ReducibleCoverError,
    UnsupportedCoverError,
)
from epschar.groups import AbelianGroup, cyclic_character


def _place(cover, label):
    for q in cover.places:
        if q.label == label:
            return q
    raise AssertionError("no place %s in %r" % (label, cover))


# -- divisors ------------------------------------------------------------


def test_divisor_validation():
    with pytest.raises(InvalidInputError):
        RationalFunctionDivisor(4, [((0, 1), 1)])  # p not prime
    with pytest.raises(InvalidInputError):
        RationalFunctionDivisor(5, [((0, 2), 1)])  # not monic
    with pytest.raises(InvalidInputError):
        RationalFunctionDivisor(5, [((0, 1, 0), 1)])  # trailing zero
    with pytest.raises(InvalidInputError):
        RationalFunctionDivisor(5, [((1,), 1)])  # constant
    with pytest.raises(InvalidInputError):
        RationalFunctionDivisor(5, [((4, 0, 1), 1)])  # x^2 + 4 = (x+1)(x+4)
    with pytest.raises(InvalidInputError):
        RationalFunctionDivisor(5, [((0, 1), 1), ((0, 1), 2)])  # duplicate
    with pytest.raises(InvalidInputError):
        RationalFunctionDivisor(5, [((0, 1), 0)])  # zero multiplicity


def test_divisor_completed_and_labels():
    div = RationalFunctionDivisor(5, [((0, 1), 1), ((4, 1), 1)])
    assert div.degree_sum() == 2
    full = div.completed()
    assert dict(full.entries)[INFINITY] == -2
    assert full.degree_sum() == 0
    assert full.completed() is full
    assert div.function_label() == "x*(x+4)"
    assert RationalFunctionDivisor(5, [((2, 0, 1), 1)]).function_label() == "(x^2+2)"
    assert RationalFunctionDivisor(5, [((0, 1), 2), ((3, 1), 1)]).function_label() == "x^2*(x+3)"
    # unbalanced divisor that already mentions infinity cannot be completed
    with pytest.raises(InvalidInputError):
        RationalFunctionDivisor(5, [((0, 1), 1), (INFINITY, 1)]).completed()


# -- Kummer covers -------------------------------------------------------


def test_kummer_quadratic():
    cov = kummer_cover(5, 2, [((0, 1), 1), ((4, 1), 1)])
    assert cov.group.order == 2 and cov.g_base == 0 and cov.r == 1
    assert cov.g_cover == 0
    assert sorted(q.label for q in cov.places) == ["x", "x+4"]
    for q in cov.places:
        assert (q.e, q.e_t, q.e_w, q.f, q.degree) == (2, 2, 1, 1, 1)
        assert q.tame_char.value((1,)) == Fraction(1, 2)
        assert not q.is_wild
        assert q.tame_index(cov.group.character((1,))) == 1
        assert q.tame_index(cov.group.trivial_character()) == 0


def test_kummer_quartic_orientation():
    # y^4 = x ramifies at x and at infinity with opposite cotangent characters
    cov = kummer_cover(5, 4, [((0, 1), 1)])
    assert cov.g_cover == 0
    assert _place(cov, "x").tame_char.value((1,)) == Fraction(1, 4)
    assert _place(cov, INFINITY).tame_char.value((1,)) == Fraction(3, 4)
    chi = cov.group.character((1,))
    assert _place(cov, "x").tame_index(chi) == 1
    assert _place(cov, INFINITY).tame_index(chi) == 3


def test_kummer_residue_degrees():
    # y^4 = x^2(x+3) over F_5: the leading unit 3 at x = 0 is a nonsquare
    cov = kummer_cover(5, 4, [((0, 1), 2), ((3, 1), 1)])
    assert cov.g_cover == 1
    qx = _place(cov, "x")
    assert (qx.e, qx.f) == (2, 2)
    assert qx.decomposition.order == 4
    assert (_place(cov, "x+3").e, _place(cov, "x+3").f) == (4, 1)
    assert (_place(cov, INFINITY).e, _place(cov, INFINITY).f) == (4, 1)


def test_kummer_higher_degree_place():
    # x^2 + 2 is irreducible over F_5; the place has residue degree 2
    cov = kummer_cover(5, 2, [((0, 1), 1), ((2, 0, 1), 1)])
    assert cov.g_cover == 1
    q = _place(cov, "x^2+2")
    assert q.degree == 2 and q.e == 2
    assert _place(cov, INFINITY).e == 2  # v_inf = -3


def test_kummer_errors():
    with pytest.raises(ConstantExtensionError):
        kummer_cover(5, 3, [((0, 1), 1)])
    with pytest.raises(ReducibleCoverError):
        kummer_cover(5, 2, [((0, 1), 2)])  # y^2 = x^2
    with pytest.raises(InvalidInputError):
        kummer_cover(5, 1, [((0, 1), 1)])
    with pytest.raises(InvalidInputError):
        kummer_cover(6, 2, [((0, 1), 1)])


def test_kummer_genus_table():
    table = [
        (3, 2, [((0, 1), 1)], 0),
        (7, 2, [((0, 1), 1), ((4, 1), 1), ((5, 1), 1), ((6, 1), 1)], 1),
        (7, 3, [((0, 1), 1)], 0),
        (7, 6, [((0, 1), 1), ((6, 1), 1)], 2),
        (11, 5, [((0, 1), 1), ((9, 1), 3), ((10, 1), 2)], 4),
        (13, 4, [((0, 1), 1), ((2, 0, 1), 1)], 3),
    ]
    for p, n, div, genus in table:
        assert kummer_cover(p, n, div).g_cover == genus


# -- Artin-Schreier covers ------------------------------------------------


def test_artin_schreier_basic():
    cov = artin_schreier_cover(2, [((0, 1), -1)])
    assert cov.g_cover == 0 and cov.group.order == 2
    (q,) = cov.places
    assert q.label == "x"
    assert (q.e, q.e_t, q.e_w, q.f) == (2, 1, 2, 1)
    assert q.inertia == cov.group.full_subgroup()
    assert q.decomposition == cov.group.full_subgroup()
    chi = cov.group.character((1,))
    assert q.ramification_kind(chi) == "wild"
    assert q.conductor(chi, True) == 2
    assert q.conductor(cov.group.trivial_character(), True) == 0
    assert q.different_exponent() == 2


def test_artin_schreier_genus_table():
    table = [
        (2, [((0, 1), -1), ((1, 1), -1)], 1),
        (2, [((1, 1, 1), -1)], 1),
        (2, [((0, 1), -1), ((1, 1), -1), ((1, 1, 1), -1)], 3),
        (3, [((0, 1), -1), ((2, 1), -1)], 2),
        (3, [((1, 0, 1), -1)], 2),
        (3, [((0, 1), -1), ((1, 1), -1), ((2, 1), -1)], 4),
        (3, [((1, 2, 0, 1), -1)], 4),
        (5, [((0, 1), -1), ((4, 1), -1)], 4),
        (5, [((2, 0, 1), -1)], 4),
    ]
    for p, div, genus in table:
        assert artin_schreier_cover(p, div).g_cover == genus


def test_artin_schreier_ignores_zeros():
    cov = artin_schreier_cover(3, [((0, 1), 2), ((2, 1), -1)])
    assert [q.label for q in cov.places] == ["x+2"]


def test_artin_schreier_errors():
    with pytest.raises(UnsupportedCoverError):
        artin_schreier_cover(3, [((0, 1), -2)])  # double pole
    with pytest.raises(ReducibleCoverError):
        artin_schreier_cover(3, [((0, 1), 1)])  # no poles


# -- local data -----------------------------------------------------------


def test_conductor_needs_override_when_not_weak():
    cov = artin_schreier_cover(3, [((0, 1), -1)])
    (q,) = cov.places
    chi = cov.group.character((1,))
    with pytest.raises(IncompleteDatumError):
        q.conductor(chi, False)
    q2 = PlaceDatum(
        label=q.label,
        p=q.p,
        degree=q.degree,
        inertia=q.inertia,
        decomposition=q.decomposition,
        tame_char=q.tame_char,
        conductor_overrides={chi: 3},
    )
    assert q2.conductor(chi, False) == 3
    assert q2.conductor(chi**2, False) == 3  # chi^2 has chi's kernel on inertia
    # an override must not contradict a declared weakly ramified cover
    with pytest.raises(CoverValidationError):
        synthetic_cover(cov.group, 3, 1, 0, [q2], weakly_ramified=True)
    cov2 = synthetic_cover(cov.group, 3, 1, 0, [q2], weakly_ramified=False)
    assert cov2.places[0].conductor(chi, False) == 3


def test_an_override_covers_every_character_with_its_kernel_on_inertia():
    # Z/6 over F_3 with wild inertia <2>: chi(1), chi(2), chi(4) and chi(5)
    # restrict to the two faithful characters of Z/3, which share a kernel
    group = AbelianGroup((6,))
    full, wild = group.full_subgroup(), group.subgroup([(2,)])
    chi = group.character((1,))

    def place(overrides):
        return dict(label="q", degree=1, inertia=wild, decomposition=full,
                    tame_char=wild.trivial_character(), conductor_overrides=overrides)

    cov = synthetic_cover(group, 3, 1, 0, [place({chi: 3})], weakly_ramified=False)
    (q,) = cov.places
    assert [q.conductor(psi, False) for psi in cov.characters()] == [0, 3, 3, 0, 3, 3]
    assert len(q.conductors) == 2  # the keys of chi and chi^2 on inertia
    # chi^4 agrees with chi on inertia, and chi^5 with chi^2
    for other in (chi**4, chi**5):
        with pytest.raises(CoverValidationError) as info:
            synthetic_cover(group, 3, 1, 0, [place({chi: 3, other: 4})], weakly_ramified=False)
        assert info.value.invariant == "conductor-overrides"
    # the same conductor on a character with chi^2's kernel is accepted
    synthetic_cover(group, 3, 1, 0, [place({chi: 3, chi**5: 3})], weakly_ramified=False)


def test_twisted_place():
    group = AbelianGroup((7,))
    full = group.full_subgroup()
    xi = cyclic_character(full, (1,), 1)
    q = PlaceDatum(label="q", p=2, degree=3, inertia=full, decomposition=full, tame_char=xi)
    assert q.twisted(1).tame_char == xi**2
    assert q.twisted(2).tame_char == xi**4
    # the Frobenius orbit of the chosen point has length deg * f = 3
    assert q.twisted(3).tame_char == xi
    assert q.twisted(0).tame_char == xi
    # e_t = 1: the cotangent character is trivial on inertia, and stays so
    for q in artin_schreier_cover(3, [((0, 1), -1), ((1, 0, 1), -1)]).places:
        assert q.e_t == 1
        assert all(q.twisted(j).tame_char == q.tame_char for j in (0, 1, 2, 3, 7)), q.label


def test_riemann_hurwitz_parity_guard():
    group = AbelianGroup((2,))
    full = group.full_subgroup()
    xi = cyclic_character(full, (1,), 1)
    q = PlaceDatum(label="q", p=5, degree=1, inertia=full, decomposition=full, tame_char=xi)
    # a single tame place of odd degree gives odd 2g - 2
    with pytest.raises(CoverValidationError):
        riemann_hurwitz_genus(2, 0, [q])
    assert riemann_hurwitz_genus(2, 0, [q, q]) == 0


def test_constructed_genus_comes_from_the_equation(monkeypatch):
    # a constructor that misreads every place as degree 1 must not build:
    # its places no longer give the genus of the equation
    def degree_one(**kw):
        return PlaceDatum(**dict(kw, degree=1))

    monkeypatch.setattr(covers, "PlaceDatum", degree_one)
    with pytest.raises(CoverValidationError, match="genus-integral"):
        artin_schreier_cover(2, [((1, 1, 1), -1)])  # g = 1
    with pytest.raises(CoverValidationError, match="genus-integral"):
        kummer_cover(5, 2, [((0, 1), 1), ((2, 0, 1), 1)])  # g = 1
    monkeypatch.undo()
    assert artin_schreier_cover(2, [((1, 1, 1), -1)]).g_cover == 1
    assert kummer_cover(5, 2, [((0, 1), 1), ((2, 0, 1), 1)]).g_cover == 1


def test_divisor_over_another_prime_is_refused():
    over_7 = RationalFunctionDivisor(7, [((0, 1), 1), ((6, 1), 1)])
    with pytest.raises(InvalidInputError, match="F_7"):
        kummer_cover(5, 2, over_7)
    with pytest.raises(InvalidInputError, match="F_7"):
        artin_schreier_cover(5, RationalFunctionDivisor(7, [((0, 1), -1)]))
    over_5 = RationalFunctionDivisor(5, [((0, 1), 1), ((1, 1), 1)])
    assert kummer_cover(5, 2, over_5).divisor == over_5.completed()


def test_non_integer_fields_are_refused():
    cov = kummer_cover(5, 4, [((0, 1), 1)])
    q = cov.places[0]
    for field_name, value in (("p", 5.0), ("r", 1.0), ("r", True), ("g_base", 0.0)):
        with pytest.raises(CoverValidationError, match="^type: .* int"):
            validate_cover(dataclasses.replace(cov, **{field_name: value}))
    with pytest.raises(CoverValidationError, match="^type: .* bool"):
        validate_cover(dataclasses.replace(cov, weakly_ramified="no"))
    place = dataclasses.replace(q, degree=1.0)
    with pytest.raises(CoverValidationError, match="^type: .* int"):
        validate_cover(dataclasses.replace(cov, places=(place,) + cov.places[1:]))


def test_validate_cover_catches_corruption():
    cov = kummer_cover(5, 4, [((0, 1), 1)])
    q = cov.places[0]

    def rebuilt(**kw):
        spec = dict(
            label=q.label,
            p=q.p,
            degree=q.degree,
            inertia=q.inertia,
            decomposition=q.decomposition,
            tame_char=q.tame_char,
        )
        spec.update(kw)
        return PlaceDatum(**spec)

    def swap(place, **cover_kw):
        spec = dict(
            group=cov.group,
            p=cov.p,
            r=cov.r,
            g_base=cov.g_base,
            places=(place, cov.places[1]),
            weakly_ramified=True,
            kind="synthetic",
        )
        spec.update(cover_kw)
        return CoverDatum(**spec)

    with pytest.raises(CoverValidationError, match="prime"):
        validate_cover(swap(rebuilt(p=7)))
    with pytest.raises(CoverValidationError, match="degree"):
        validate_cover(swap(rebuilt(degree=0)))
    with pytest.raises(CoverValidationError, match="labels-distinct"):
        validate_cover(swap(rebuilt(label=INFINITY)))
    with pytest.raises(CoverValidationError, match="inertia-in-decomposition"):
        validate_cover(swap(rebuilt(decomposition=cov.group.subgroup([(2,)]))))
    with pytest.raises(CoverValidationError, match="tame-roots-of-unity"):
        # e_t = 4 does not divide 7^1 - 1
        validate_cover(swap(rebuilt(p=7), p=7))
    with pytest.raises(CoverValidationError, match="tame-character"):
        validate_cover(swap(rebuilt(tame_char=q.inertia.trivial_character())))
    with pytest.raises(CoverValidationError, match="genus-integral"):
        validate_cover(swap(q, g_cover=5))
    other_root = AbelianGroup((8,))
    with pytest.raises(CoverValidationError, match="subgroup-root"):
        validate_cover(swap(rebuilt(inertia=other_root.subgroup([(2,)]))))


def test_synthetic_wild_tame_dichotomy():
    group = AbelianGroup((6,))
    full = group.full_subgroup()
    # inertia of order 6 at p = 3 has e_t = 2 and e_w = 3 at once;
    # chi(j) = j/2 is a legitimate tame character (kernel the wild part)
    xi = cyclic_character(full, (1,), 3)
    q = dict(label="q", degree=1, inertia=full, decomposition=full, tame_char=xi)
    with pytest.raises(CoverValidationError, match="dichotomy"):
        synthetic_cover(group, 3, 1, 0, [q])
    # the same local datum is legal on a cover not declared weakly ramified
    cov = synthetic_cover(group, 3, 1, 0, [q], weakly_ramified=False)
    assert cov.places[0].e_t == 2 and cov.places[0].e_w == 3


# -- subcovers -------------------------------------------------------------


def test_subcover_quartic():
    cov = kummer_cover(5, 4, [((0, 1), 1)])
    sub = cov.group.subgroup([(2,)])
    quot = subcover_data(cov, sub)
    assert quot.group == sub
    assert quot.g_base == 0 and quot.g_cover == cov.g_cover
    assert len(quot.places) == 2
    for q in quot.places:
        assert (q.e, q.degree, q.f) == (2, 1, 1)
        assert q.tame_char.value((2,)) == Fraction(1, 2)


def test_subcover_splitting():
    # above the place x of y^4 = x^2(x+4), H = D_q gives two places
    cov = kummer_cover(5, 4, [((0, 1), 2), ((4, 1), 1)])
    qx = _place(cov, "x")
    assert qx.decomposition.order == 2
    sub = cov.group.subgroup([(2,)])
    quot = subcover_data(cov, sub)
    labels = sorted(q.label for q in quot.places)
    assert "x|0" in labels and "x|1" in labels


def test_subcover_full_and_trivial():
    cov = kummer_cover(5, 4, [((0, 1), 1)])
    full = subcover_data(cov, cov.group.full_subgroup())
    assert full.g_base == 0 and len(full.places) == len(cov.places)
    triv = subcover_data(cov, cov.group.subgroup([]))
    # X -> X is unramified and has base genus g_X
    assert triv.places == () and triv.g_base == cov.g_cover


def test_subcover_reports_a_fractional_quotient_genus():
    cov = kummer_cover(5, 2, [((0, 1), 1), ((4, 1), 1)])
    assert cov.g_cover == 0
    cov.g_cover = 1  # not the genus the different gives
    with pytest.raises(CoverValidationError, match="quotient genus 1/2"):
        subcover_data(cov, cov.group.full_subgroup())


def test_subcover_requires_genus():
    group = AbelianGroup((2,))
    full = group.full_subgroup()
    xi = cyclic_character(full, (1,), 1)
    q = dict(label="q", degree=2, inertia=full, decomposition=full, tame_char=xi)
    cov = synthetic_cover(group, 5, 1, 0, [q])
    assert cov.g_cover is None
    with pytest.raises(UnsupportedCoverError):
        subcover_data(cov, full)
    good = kummer_cover(5, 2, [((0, 1), 1), ((4, 1), 1)])
    with pytest.raises(InvalidInputError):
        subcover_data(good, AbelianGroup((3,)).full_subgroup())


# -- serialization ----------------------------------------------------------


def test_json_round_trip():
    covers = [
        kummer_cover(5, 4, [((0, 1), 2), ((3, 1), 1)]),
        artin_schreier_cover(3, [((0, 1), -1), ((2, 1), -1)]),
    ]
    rng = random.Random(9)
    covers += [random_weakly_ramified_cover(rng) for _ in range(5)]
    group = AbelianGroup((3, 3))
    wild = group.subgroup([(0, 1)])
    chi = group.character((1, 2))
    overrides = {chi: 3, chi**2: 3}
    q = dict(label="w", degree=2, inertia=wild, decomposition=wild,
             tame_char=wild.trivial_character(), conductor_overrides=overrides)
    covers.append(synthetic_cover(group, 3, 1, 0, [q], weakly_ramified=False))
    for cov in covers:
        text = cover_to_json(cov)
        back = cover_from_json(text)
        assert cover_to_json(back) == text
        assert back.p == cov.p and back.r == cov.r and back.g_base == cov.g_base
        assert back.group.order == cov.group.order
        assert len(back.places) == len(cov.places)
        for a, b in zip(sorted(cov.places, key=lambda q: q.label),
                        sorted(back.places, key=lambda q: q.label)):
            assert (a.label, a.degree, a.e, a.f) == (b.label, b.degree, b.e, b.f)
            assert a.tame_char == b.tame_char
            assert a.conductor_overrides == b.conductor_overrides


def test_json_rejects_malformed():
    with pytest.raises(InvalidInputError):
        cover_from_json("{not json")
    with pytest.raises(InvalidInputError):
        cover_from_json("{}")
    with pytest.raises(InvalidInputError):
        cover_from_json('{"format": "wrong"}')


def test_random_covers_validate():
    for seed in range(6):
        rng = random.Random(seed)
        for _ in range(20):
            cov = random_weakly_ramified_cover(rng)
            validate_cover(cov)  # raises on any broken invariant
            assert cov.weakly_ramified


def test_tame_index_is_the_value_at_the_tame_generator():
    for cover in constructed_corpus() + synthetic_corpus(40, seed=1):
        for q in cover.places:
            t = q.tame_generator
            for chi in cover.characters():
                assert q.tame_index(chi) == int(chi.value(t) * q.e_t), (q, chi)


def test_synthetic_corpus_refuses_a_negative_count():
    for count in (-1, -(10**9)):
        with pytest.raises(InvalidInputError):
            synthetic_corpus(count)
    assert synthetic_corpus(0) == []
    assert len(synthetic_corpus(2, seed=3)) == 2
