import random
from fractions import Fraction

import pytest

from epschar.errors import DomainError, InvalidInputError
from epschar.fields import PrimePower
from epschar.stickelberger import (
    TameLocalDatum,
    c_from_d,
    composition_exponent,
    d_from_c,
    digit_sum_valuation,
    minimal_power_clearing_wild,
    s_tuple,
    stickelberger_valuation,
)


def test_s_tuple_frozen_example():
    # q = 9, e_t = 8: the orbit of 1/8 under multiplication by 3 is {1/8, 3/8}
    datum = TameLocalDatum(PrimePower(3, 2), 8)
    assert s_tuple(datum, 1) == (Fraction(1, 8), Fraction(3, 8))
    assert stickelberger_valuation(datum, 1) == Fraction(1, 2)
    # d = 0 gives the zero tuple
    assert s_tuple(datum, 0) == (Fraction(0), Fraction(0))


def test_s_tuple_is_twist_invariant():
    # replacing d by d*p permutes the orbit, so the sorted tuple is unchanged
    datum = TameLocalDatum(PrimePower(5, 2), 24)
    for d in range(24):
        assert s_tuple(datum, d) == s_tuple(datum, (d * 5) % 24)


def test_minimal_power_clearing_wild():
    assert minimal_power_clearing_wild(TameLocalDatum(PrimePower(2, 1), 1, 1)) == 0
    assert minimal_power_clearing_wild(TameLocalDatum(PrimePower(2, 1), 1, 2)) == 1
    assert minimal_power_clearing_wild(TameLocalDatum(PrimePower(2, 2), 3, 8)) == 2
    assert minimal_power_clearing_wild(TameLocalDatum(PrimePower(3, 1), 2, 9)) == 2


def test_composition_exponent_tame_case():
    # e_w = 1: the exponent is just (q-1)/e_t
    datum = TameLocalDatum(PrimePower(3, 2), 8)
    assert composition_exponent(datum) == 1
    datum = TameLocalDatum(PrimePower(5, 1), 2)
    assert composition_exponent(datum) == 2


def test_composition_exponent_wild_case():
    # q = 3, e_t = 2, e_w = 3: N = 1 and the wild unit is 3/3 = 1
    datum = TameLocalDatum(PrimePower(3, 1), 2, 3)
    assert composition_exponent(datum) == 1
    # q = 9, e_t = 8, e_w = 3: N = 1 and the unit is 9/3 = 3
    datum = TameLocalDatum(PrimePower(3, 2), 8, 3)
    assert composition_exponent(datum) == 3 % 8


def test_c_d_round_trip():
    rng = random.Random(11)
    data = [
        TameLocalDatum(PrimePower(2, 3), 7, 2),
        TameLocalDatum(PrimePower(3, 2), 8),
        TameLocalDatum(PrimePower(3, 2), 4, 9),
        TameLocalDatum(PrimePower(5, 2), 24, 5),
        TameLocalDatum(PrimePower(7, 1), 6),
    ]
    for datum in data:
        for d in range(datum.e_t):
            assert d_from_c(datum, c_from_d(datum, d)) == d
        for _ in range(20):
            c = rng.randrange(datum.q - 1)
            try:
                d = d_from_c(datum, c)
            except DomainError:
                assert c % ((datum.q - 1) // datum.e_t) != 0
            else:
                assert c_from_d(datum, d) == c


def test_valuation_formulas_agree():
    # sum of fractional parts equals digit sum of the multiplicative index
    for pp, e_t, e_w in [
        (PrimePower(2, 3), 7, 1),
        (PrimePower(3, 2), 8, 1),
        (PrimePower(3, 2), 8, 3),
        (PrimePower(5, 2), 24, 5),
        (PrimePower(7, 2), 48, 1),
    ]:
        datum = TameLocalDatum(pp, e_t, e_w)
        for d in range(e_t):
            assert stickelberger_valuation(datum, d) == digit_sum_valuation(pp, c_from_d(datum, d))


def test_validation_errors():
    with pytest.raises(InvalidInputError):
        TameLocalDatum(PrimePower(3, 2), 5)  # 5 does not divide 8
    with pytest.raises(InvalidInputError):
        TameLocalDatum(PrimePower(3, 2), 8, 2)  # e_w not a power of 3
    with pytest.raises(InvalidInputError):
        TameLocalDatum(PrimePower(3, 2), 0)
    datum = TameLocalDatum(PrimePower(3, 2), 8)
    with pytest.raises(DomainError):
        s_tuple(datum, 8)
    with pytest.raises(DomainError):
        c_from_d(datum, -1)
    with pytest.raises(DomainError):
        digit_sum_valuation(PrimePower(3, 2), 8)
    with pytest.raises(DomainError):
        digit_sum_valuation(PrimePower(3, 2), -1)


def test_stickelberger_valuation_is_the_sum_of_the_tuple():
    for p in (2, 3, 5, 7):
        for r in (1, 2, 3):
            q = p**r
            for e_t in (e for e in range(1, q) if (q - 1) % e == 0):
                for e_w in (1, p):
                    datum = TameLocalDatum(PrimePower(p, r), e_t, e_w)
                    for d in range(e_t):
                        assert stickelberger_valuation(datum, d) == sum(s_tuple(datum, d))
                    for d in (-1, e_t):
                        with pytest.raises(DomainError):
                            stickelberger_valuation(datum, d)
