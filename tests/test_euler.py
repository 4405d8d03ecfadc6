import random
from fractions import Fraction

import pytest

from epschar.corpus import constructed_corpus, mixed_synthetic_example, synthetic_corpus
from epschar.covers import artin_schreier_cover, kummer_cover, synthetic_cover
from epschar.errors import IntegralityError, InvalidInputError, NotWeaklyRamifiedError
from epschar.euler import (
    DivisorSpec,
    LMParts,
    _closed_numerator,
    euler_char_structure_sheaf,
    g_term,
    lm_decompose,
    multiplicities_closed,
    multiplicities_direct,
    multiplicity_closed,
    multiplicity_direct,
    psi_structure,
)
from epschar.groups import AbelianGroup, K0Element, cyclic_character, decomposition_map, e_map, pairing


def test_g_term_frozen_values():
    assert g_term(1, 4, 3, 5, 0) == Fraction(-1, 4)
    assert g_term(0, 3, 2, 7, 0) == Fraction(2, 3)
    assert g_term(2, 3, 0, 7, 5) == 0
    # the window is [-l/e, 1 - l/e)
    assert g_term(0, 4, 3, 5, 0) == Fraction(3, 4)
    assert g_term(3, 4, 3, 5, 0) == Fraction(-1, 4)
    with pytest.raises(InvalidInputError):
        g_term(4, 4, 1, 5, 0)
    with pytest.raises(InvalidInputError):
        g_term(0, 4, 4, 5, 0)
    with pytest.raises(InvalidInputError):
        g_term(0, 4, 1, 5, -1)
    with pytest.raises(InvalidInputError):
        g_term(0, 4, 1, 1, 0)


def test_lm_decompose():
    tame = kummer_cover(5, 2, [((0, 1), 1), ((4, 1), 1)]).places[0]
    assert lm_decompose(tame, 0) == LMParts(0, 0)
    assert lm_decompose(tame, -1) == LMParts(1, -1)
    assert lm_decompose(tame, 5) == LMParts(1, 2)
    wild = artin_schreier_cover(2, [((0, 1), -1)]).places[0]
    assert lm_decompose(wild, -1) == LMParts(0, -1)
    assert lm_decompose(wild, 1) == LMParts(0, 0)
    with pytest.raises(InvalidInputError):
        lm_decompose(wild, 0)  # 0 is not -1 mod e_w = 2
    quartic = kummer_cover(5, 4, [((0, 1), 1)]).places[0]
    assert lm_decompose(quartic, 6) == LMParts(2, 1)


def test_divisor_spec_validation():
    cov = kummer_cover(5, 2, [((0, 1), 1), ((4, 1), 1)])
    spec = DivisorSpec(cov, {"x": -1})
    assert spec.value(cov.places[0]) == -1 and spec.value(cov.places[1]) == 0
    assert DivisorSpec(cov).values == {}
    with pytest.raises(InvalidInputError):
        DivisorSpec(cov, {"y": 1})  # unknown place
    with pytest.raises(InvalidInputError):
        DivisorSpec(cov, {"x": Fraction(1, 2)})
    # a float or a bool is no coefficient, even when it equals an integer
    for bad in (-1.0, 1.0, True):
        with pytest.raises(InvalidInputError):
            DivisorSpec(cov, {"x": bad})
    wild = artin_schreier_cover(2, [((0, 1), -1)])
    with pytest.raises(InvalidInputError):
        DivisorSpec(wild)  # 0 is not -1 mod e_w at the wild place
    canon = DivisorSpec.wild_canonical(wild)
    assert canon.values == {"x": -1}
    assert canon.degree_bar() == -1


def test_psi_quadratic_at_zero():
    cov = kummer_cover(5, 2, [((0, 1), 1), ((4, 1), 1)])
    psi = psi_structure(cov, DivisorSpec(cov))
    triv = cov.group.trivial_character()
    assert psi.coefficient(triv) == 1
    assert psi.coefficient(cov.group.character((1,))) == 0
    assert len(psi.coeffs) == 1
    assert psi.level == "projectives"


def test_structure_sheaf_artin_schreier():
    cov = artin_schreier_cover(2, [((0, 1), -1)])
    e = euler_char_structure_sheaf(cov)
    triv = cov.group.trivial_character()
    assert e.level == "modules"
    assert e.coefficient(triv) == 1
    assert len(e.coeffs) == 1


def test_multiplicity_routes_agree():
    rng = random.Random(13)
    covers = constructed_corpus()[:10] + [mixed_synthetic_example()]
    for cov in covers:
        divisors = [DivisorSpec.wild_canonical(cov)]
        if not cov.wild_places():
            entries = {}
            for q in cov.places:
                if rng.random() < 0.5:
                    entries[q.label] = rng.randrange(-2, 3)
            divisors.append(DivisorSpec(cov, entries))
        for divisor in divisors:
            psi = psi_structure(cov, divisor)
            projected = e_map(psi)
            for chi in cov.characters():
                closed = multiplicity_closed(cov, divisor, chi)
                direct = multiplicity_direct(cov, divisor, chi)
                via_e = projected.coefficient(chi)
                via_d = pairing(psi, decomposition_map(K0Element.of_character(chi, p=cov.p)))
                assert closed == direct == via_e == via_d


def test_riemann_roch_totals():
    # sum over characters of the multiplicity at D = 0 is 1 - g for tame covers
    for p, n, div, genus in [
        (5, 2, [((0, 1), 1), ((4, 1), 1)], 0),
        (5, 4, [((0, 1), 1)], 0),
        (7, 6, [((0, 1), 1), ((6, 1), 1)], 2),
    ]:
        cov = kummer_cover(p, n, div)
        assert cov.g_cover == genus
        zero = DivisorSpec(cov)
        total = sum(multiplicity_closed(cov, zero, chi) for chi in cov.characters())
        assert total == 1 - genus
    # with the canonical wild divisor the total is deg(D-bar) + 1 - g
    for p, div, genus in [
        (2, [((0, 1), -1)], 0),
        (3, [((0, 1), -1), ((2, 1), -1)], 2),
    ]:
        cov = artin_schreier_cover(p, div)
        assert cov.g_cover == genus
        canon = DivisorSpec.wild_canonical(cov)
        total = sum(multiplicity_closed(cov, canon, chi) for chi in cov.characters())
        assert total == canon.degree_bar() + 1 - genus


def test_psi_integrality_guard():
    # one lone tame place whose fractional parts sum to 1/2: no curve
    # carries this datum alone, and the assembly refuses it
    group = AbelianGroup((8,))
    full = group.full_subgroup()
    xi = cyclic_character(full, (1,), 1)
    q = dict(label="q", degree=2, inertia=full, decomposition=full, tame_char=xi)
    cov = synthetic_cover(group, 3, 1, 0, [q])
    with pytest.raises(IntegralityError):
        psi_structure(cov, DivisorSpec(cov))


def test_requires_weak_ramification():
    group = AbelianGroup((3,))
    full = group.full_subgroup()
    chi = group.character((1,))
    q = dict(label="q", degree=1, inertia=full, decomposition=full,
             tame_char=full.trivial_character(),
             conductor_overrides={chi: 3, chi**2: 3})
    cov = synthetic_cover(group, 3, 1, 0, [q], weakly_ramified=False)
    with pytest.raises(NotWeaklyRamifiedError):
        psi_structure(cov, None)
    with pytest.raises(NotWeaklyRamifiedError):
        euler_char_structure_sheaf(cov)
    with pytest.raises(NotWeaklyRamifiedError):
        multiplicity_closed(cov, None, chi)


def test_closed_term_is_the_sum_of_g_terms():
    for cover in constructed_corpus() + synthetic_corpus(40, seed=1):
        for q in cover.places:
            e = q.e_t
            if e == 1:
                continue
            for chi in cover.characters():
                d = q.tame_index(chi)
                for l in range(e):
                    # the representative of d p^i / e mod 1 in [-l/e, 1 - l/e)
                    window = [Fraction(d * cover.p**i % e, e) for i in range(q.degree)]
                    window = [x - 1 if x >= 1 - Fraction(l, e) else x for x in window]
                    terms = [g_term(l, e, d, cover.p, i) for i in range(q.degree)]
                    assert terms == window, (q, chi, l)
                    closed = Fraction(_closed_numerator(cover.p, q, l, chi), e)
                    assert closed == sum(terms), (q, chi, l)


def test_tabled_multiplicities_over_coprime_ramification_indices():
    # tame places with e_t = 2 and 3: the terms' common denominator is 6,
    # which neither place's e_t is
    group = AbelianGroup((6,))
    full = group.full_subgroup()
    places = []
    for label, gen in (("a", (3,)), ("b", (2,))):
        inertia = group.subgroup([gen])
        places.append(dict(label=label, degree=1, inertia=inertia, decomposition=full,
                           tame_char=group.character((1,)).restrict(inertia)))
    cover = synthetic_cover(group, 7, 1, 0, places)
    for n_a in range(2):
        for n_b in range(3):
            D = DivisorSpec(cover, {"a": n_a, "b": n_b})
            closed = [multiplicity_closed(cover, D, chi) for chi in cover.characters()]
            direct = [multiplicity_direct(cover, D, chi) for chi in cover.characters()]
            assert closed == direct
            assert list(multiplicities_closed(cover, D)) == closed
            assert list(multiplicities_direct(cover, D)) == direct
            assert {x.denominator for x in closed} >= {2, 3}
