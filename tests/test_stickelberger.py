import random
from fractions import Fraction

import pytest

from epschar.errors import DomainError, InvalidInputError
from epschar.fields import PrimePower
from epschar.stickelberger import (
    TameLocalDatum,
    c_from_d,
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
    assert datum.composition_exponent == 1
    datum = TameLocalDatum(PrimePower(5, 1), 2)
    assert datum.composition_exponent == 2


def test_composition_exponent_wild_case():
    # q = 3, e_t = 2, e_w = 3: N = 1 and the wild unit is 3/3 = 1
    datum = TameLocalDatum(PrimePower(3, 1), 2, 3)
    assert datum.composition_exponent == 1
    # q = 9, e_t = 8, e_w = 3: N = 1 and the unit is 9/3 = 3
    datum = TameLocalDatum(PrimePower(3, 2), 8, 3)
    assert datum.composition_exponent == 3 % 8


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


def _wild_unit_d_from_c(datum, c):
    """d_from_c as an independent formula: divide c / step by the wild unit
    q^N / e_w mod e_t, N the least with e_w | q^N, derived afresh here."""
    q, e = datum.q, datum.e_t
    step = (q - 1) // e
    c %= q - 1
    if c % step != 0:
        raise DomainError("c = %d is not in the image" % c)
    if e == 1:
        return 0
    n = 0
    while q**n % datum.e_w:
        n += 1
    return (c // step) * pow(q**n // datum.e_w % e, -1, e) % e


def _outcome(f, datum, c):
    try:
        return f(datum, c)
    except DomainError:
        return DomainError


def test_d_from_c_matches_the_wild_unit_formula_on_the_wild_grid():
    # p <= 11, r <= 3, every e_t | q - 1, e_w in {1, p, p^2, p^3} and every c
    cases = 0
    for p in (2, 3, 5, 7, 11):
        for r in (1, 2, 3):
            q = p**r
            for e_t in (e for e in range(1, q) if (q - 1) % e == 0):
                for e_w in (1, p, p**2, p**3):
                    datum = TameLocalDatum(PrimePower(p, r), e_t, e_w)
                    for c in range(q - 1):
                        expected = _outcome(_wild_unit_d_from_c, datum, c)
                        assert _outcome(d_from_c, datum, c) == expected, (p, r, e_t, e_w, c)
                        cases += 1
    assert cases == 115828
