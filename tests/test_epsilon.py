import random
from fractions import Fraction

import pytest

from epschar.corpus import constructed_corpus, mixed_synthetic_example, synthetic_corpus
from epschar.covers import PlaceDatum, artin_schreier_cover, kummer_cover, synthetic_cover
from epschar.epsilon import (
    ORACLE_PADIC,
    ORACLE_STICKELBERGER,
    E_element,
    EpsilonLedger,
    LocalEpsilonVal,
    epsilon_ledgers,
    global_epsilon_valuation,
    local_epsilon,
)
from epschar.errors import IncompleteDatumError, InvalidInputError
from epschar.groups import AbelianGroup, char_label
from epschar.verify import check_strong, check_weak


def test_local_kinds_and_values():
    cov = kummer_cover(5, 2, [((0, 1), 1), ((4, 1), 1)])
    chi = cov.group.character((1,))
    q = cov.places[0]
    lv = local_epsilon(cov, q, cov.group.trivial_character())
    assert (lv.kind, lv.valuation) == ("unramified", 0)
    lv = local_epsilon(cov, q, chi)
    assert (lv.kind, lv.valuation, lv.gauss_index) == ("tame", Fraction(1, 2), 2)

    wild = artin_schreier_cover(2, [((0, 1), -1)])
    lv = local_epsilon(wild, wild.places[0], wild.group.character((1,)))
    assert (lv.kind, lv.valuation) == ("wild", 1)


def test_wild_valuation_scales_with_degree():
    cov = artin_schreier_cover(3, [((1, 0, 1), -1)])
    chi = cov.group.character((1,))
    lv = local_epsilon(cov, cov.places[0], chi)
    assert lv.valuation == 2  # deg 2, conductor 2


def test_global_ledger_quadratic():
    cov = kummer_cover(5, 2, [((0, 1), 1), ((4, 1), 1)])
    led = global_epsilon_valuation(cov, cov.group.character((1,)))
    assert led.base_term == -1
    assert [lv.valuation for lv in led.locals] == [Fraction(1, 2), Fraction(1, 2)]
    assert led.total == 0
    assert global_epsilon_valuation(cov, cov.group.trivial_character()).total == -1
    assert char_label(led.character) in led.describe()
    assert "=>" in led.describe()


def test_global_ledger_asymmetric_quartic():
    # y^4 = x^2(x+3) over F_5: chi and chi^3 see different valuations
    cov = kummer_cover(5, 4, [((0, 1), 2), ((3, 1), 1)])
    totals = {}
    for k in range(4):
        chi = cov.group.character((k,))
        totals[k] = global_epsilon_valuation(cov, chi).total
    assert totals == {0: -1, 1: 0, 2: 0, 3: 1}
    e = E_element(cov)
    assert e.coefficient(cov.group.trivial_character()) == 1
    assert e.coefficient(cov.group.character((3,))) == -1
    assert e.coefficient(cov.group.character((1,))) == 0
    assert e.is_integral()


def test_oracles_agree():
    covers = constructed_corpus()[:6] + [
        kummer_cover(5, 4, [((0, 1), 2), ((3, 1), 1)]),
        mixed_synthetic_example(),
    ]
    for cov in covers:
        for chi in cov.characters():
            a = global_epsilon_valuation(cov, chi, oracle=ORACLE_STICKELBERGER)
            b = global_epsilon_valuation(cov, chi, oracle=ORACLE_PADIC)
            assert a.total == b.total
            assert [lv.valuation for lv in a.locals] == [lv.valuation for lv in b.locals]


def test_E_is_integral_across_corpus():
    covers = constructed_corpus() + synthetic_corpus(30, seed=2)
    for cov in covers:
        assert E_element(cov).is_integral(), cov.summary()


def test_incomplete_wild_datum():
    group = AbelianGroup((3,))
    full = group.full_subgroup()
    q = dict(label="q", degree=1, inertia=full, decomposition=full,
             tame_char=full.trivial_character())
    cov = synthetic_cover(group, 3, 1, 0, [q], weakly_ramified=False)
    chi = group.character((1,))
    with pytest.raises(IncompleteDatumError):
        local_epsilon(cov, cov.places[0], chi)
    q["conductor_overrides"] = {chi: 3, chi**2: 3}
    cov = synthetic_cover(group, 3, 1, 0, [q], weakly_ramified=False)
    # deg cond / 2; the L-function of y^3 - y = 1/x^2 has v_p(epsilon) = 1/2
    assert local_epsilon(cov, cov.places[0], chi).valuation == Fraction(3, 2)


def test_trivial_group_cover():
    cov = synthetic_cover(AbelianGroup(()), 5, 2, 3, [])
    e = E_element(cov)
    triv = cov.group.trivial_character()
    assert e.coefficient(triv) == -4  # r (g_base - 1) = 4, negated
    assert len(e.coeffs) == 1


def test_unknown_oracle():
    cov = kummer_cover(5, 2, [((0, 1), 1), ((4, 1), 1)])
    chi = cov.group.character((1,))
    with pytest.raises(InvalidInputError):
        global_epsilon_valuation(cov, chi, oracle="guesswork")


def test_unknown_oracle_is_refused_without_ramified_places():
    # no place asks an oracle for a local term, so the name is checked up front
    cov = synthetic_cover(AbelianGroup((2,)), 5, 1, 0, [])
    chi = cov.group.character((1,))
    with pytest.raises(InvalidInputError):
        global_epsilon_valuation(cov, chi, oracle="guesswork")
    with pytest.raises(InvalidInputError):
        list(epsilon_ledgers(cov, oracle="guesswork"))
    with pytest.raises(InvalidInputError):
        check_strong(cov, oracle="guesswork")
    with pytest.raises(InvalidInputError):
        check_weak(cov, oracle="guesswork")
