import random
from fractions import Fraction
from math import comb

import pytest

from epschar.errors import PrecisionError
from epschar.fields import PrimePower, make_field
from epschar.cyclotomic import MultChar
from epschar import padic
from epschar.padic import (
    WittRing,
    default_lambda_precision,
    padic_gauss_valuation,
    teichmuller,
)
from epschar.stickelberger import digit_sum_valuation


def test_teichmuller_is_frobenius_fixed():
    for p, r in [(2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]:
        ctx = make_field(p, r)
        for x in ctx.elements():
            t = teichmuller(ctx, x, 4)
            assert tuple(c % p for c in t.coeffs) == x  # reduces to x mod p
            assert t.ring.pow(t, ctx.q) == t


def test_teichmuller_is_multiplicative():
    rng = random.Random(7)
    for p, r in [(3, 2), (5, 1), (7, 1)]:
        ctx = make_field(p, r)
        els = [x for x in ctx.elements() if x != ctx.zero]
        for _ in range(25):
            x, y = rng.choice(els), rng.choice(els)
            tx = teichmuller(ctx, x, 4)
            ty = teichmuller(ctx, y, 4)
            # fresh rings per call, so compare the coefficient vectors
            assert (tx * ty).coeffs == teichmuller(ctx, ctx.mul(x, y), 4).coeffs


def test_witt_valuation():
    ctx = make_field(3, 2)
    ring = WittRing(ctx, 5)
    assert ring.valuation(ring.element([9, 27])) == 2
    assert ring.valuation(ring.element([0, 0])) == 5
    assert ring.valuation(ring.one) == 0


def test_padic_gauss_known_values():
    # F_3: the quadratic Gauss sum has valuation 1/2
    ctx = make_field(3, 1)
    assert padic_gauss_valuation(ctx, MultChar(ctx, 1)) == Fraction(1, 2)
    # F_5: digit sums 1, 2, 3 over p - 1 = 4
    ctx = make_field(5, 1)
    for c in (1, 2, 3):
        assert padic_gauss_valuation(ctx, MultChar(ctx, c)) == Fraction(c, 4)
    # trivial character: tau = -1, a unit
    assert padic_gauss_valuation(ctx, MultChar(ctx, 0)) == 0


def test_padic_matches_digit_sum():
    for p, r in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]:
        ctx = make_field(p, r)
        pp = PrimePower(p, r)
        for c in range(ctx.q - 1):
            assert padic_gauss_valuation(ctx, MultChar(ctx, c)) == digit_sum_valuation(pp, c)


def test_precision_floor_enforced():
    ctx = make_field(5, 1)
    with pytest.raises(PrecisionError):
        padic_gauss_valuation(ctx, MultChar(ctx, 1), lambda_precision=2)
    # at exactly the floor the maximal valuation (q-1 digits all p-1) resolves
    floor = ctx.r * (ctx.p - 1) + 1
    assert padic_gauss_valuation(ctx, MultChar(ctx, 3), lambda_precision=floor) == Fraction(3, 4)


def test_default_precision_covers_every_character():
    for p, r in [(3, 2), (7, 1)]:
        ctx = make_field(p, r)
        n = default_lambda_precision(ctx)
        for c in range(ctx.q - 1):
            v = padic_gauss_valuation(ctx, MultChar(ctx, c), lambda_precision=n)
            assert 0 <= v <= ctx.r


def test_memoized_valuation_equals_a_fresh_one():
    ctx = make_field(3, 3)
    chi = MultChar(ctx, 5)
    padic._gauss_valuation.cache_clear()
    fresh = padic_gauss_valuation(ctx, chi)
    hits = padic._gauss_valuation.cache_info().hits
    assert padic_gauss_valuation(ctx, chi) == fresh
    assert padic._gauss_valuation.cache_info().hits == hits + 1
    assert fresh == digit_sum_valuation(PrimePower(3, 3), 5)
    # the key is c mod q-1, so c and c + (q-1) share one entry
    assert padic_gauss_valuation(ctx, 5 + ctx.q - 1) == fresh
    assert padic._gauss_valuation.cache_info().hits == hits + 2


def test_precision_error_is_raised_every_time_and_never_cached():
    ctx = make_field(5, 1)
    padic._gauss_valuation.cache_clear()
    for _ in range(3):
        with pytest.raises(PrecisionError):
            padic_gauss_valuation(ctx, MultChar(ctx, 1), lambda_precision=2)
    assert padic._gauss_valuation.cache_info().currsize == 0
    # a valuation the precision cannot resolve (3 >= 3) is refused each time
    for _ in range(2):
        with pytest.raises(PrecisionError):
            padic._gauss_valuation(ctx, 3, 3)
    assert padic._gauss_valuation.cache_info().currsize == 0


def test_explicit_and_default_precision_agree():
    for p, r in [(2, 3), (3, 2), (5, 2), (7, 1)]:
        ctx = make_field(p, r)
        n = default_lambda_precision(ctx)
        for c in range(ctx.q - 1):
            v = padic_gauss_valuation(ctx, MultChar(ctx, c))
            assert padic_gauss_valuation(ctx, MultChar(ctx, c), lambda_precision=n) == v
            assert padic_gauss_valuation(ctx, MultChar(ctx, c), lambda_precision=n + 3) == v


def _stepwise_slot_constants(p, precision):
    """(1+lambda)^t for t = 0..p-1 as integer lambda-slot vectors, built by
    multiplying by 1+lambda one step at a time; a carry into lambda^(p-1)
    is rewritten by E(lambda) = 0, and every slot is reduced mod p^M."""
    pM = p**precision
    # lambda^(p-1) = -sum_(j<p-1) C(p, j+1) lambda^j
    relation = [-comb(p, j + 1) for j in range(p - 1)]
    row = [1] + [0] * (p - 2)
    rows = []
    for _ in range(p):
        rows.append(tuple(row))
        carry = row[-1]
        shifted = [0] + row[:-1]
        row = [(a + b + carry * e) % pM for a, b, e in zip(row, shifted, relation)]
    return tuple(rows)


def test_gauss_table_slot_constants_match_stepwise_multiplication():
    for p in (2, 3, 5, 7, 11, 13):
        for r in (1, 2):
            ctx = make_field(p, r)
            for precision in sorted({1, 2, r + 2}):
                consts = padic._gauss_tables(ctx, precision)[2]
                assert consts == _stepwise_slot_constants(p, precision), (p, r, precision)


def test_padic_matches_digit_sum_at_large_primes():
    for p in (211, 499):
        ctx = make_field(p, 1)
        pp = PrimePower(p, 1)
        for c in (1, 2, (p - 1) // 2, p - 2):
            assert padic_gauss_valuation(ctx, MultChar(ctx, c)) == digit_sum_valuation(pp, c)


def test_gauss_table_teichmuller_rows_equal_the_multiplication_chain():
    # the fields of test_fields' log-table pin, at the precision that
    # padic_gauss_valuation asks for by default, as the sweep does
    fields = [(p, r) for p in (2, 3, 5, 7) for r in (1, 2, 3)] + [(2, 8), (3, 8), (7, 4)]
    for p, r in fields:
        ctx = make_field(p, r)
        precision = default_lambda_precision(ctx) // (p - 1) + 2
        ring = WittRing(ctx, precision)
        omega = teichmuller(ctx, ctx.generator, precision)
        t = ring.one
        rows = [t.coeffs]
        for _ in range(ctx.q - 2):
            t = ring.mul(t, omega)
            rows.append(t.coeffs)
        assert padic._gauss_tables(ctx, precision)[1] == tuple(rows), (p, r, precision)
