import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from epschar.errors import PrecisionError
from epschar.fields import FieldContext, PrimePower, make_field
from epschar.cyclotomic import MultChar
from epschar import padic
from epschar.numutil import padic_valuation_int
from epschar.padic import padic_gauss_valuation, teichmuller
from epschar.stickelberger import digit_sum_valuation


def _lambda_precision(ctx):
    """The lambda precision padic_gauss_valuation works at."""
    return ctx.r * (ctx.p - 1) + 2


def _witt_mul(ctx, pM, a, b):
    """a * b in Z[x] / (p^M, F(x)) for the lifted field modulus F, by the
    schoolbook double loop and one reduction pass: the reference for the
    shared polynomial arithmetic the oracle runs on."""
    r, modulus = ctx.r, ctx.modulus
    prod = [0] * (2 * r - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for k in range(2 * r - 2, r - 1, -1):
        c = prod[k] % pM
        if c:
            for i in range(r + 1):
                prod[k - r + i] -= c * modulus[i]
    return tuple(v % pM for v in prod[:r])


def _witt_pow(ctx, pM, a, n):
    result = ctx.one
    for _ in range(n):
        result = _witt_mul(ctx, pM, result, a)
    return result


def test_teichmuller_is_frobenius_fixed():
    for p, r in [(2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]:
        ctx = make_field(p, r)
        for x in ctx.elements():
            t = teichmuller(ctx, x, 4)
            assert tuple(c % p for c in t) == x  # reduces to x mod p
            assert _witt_pow(ctx, p**4, t, ctx.q) == t


def test_teichmuller_is_multiplicative():
    rng = random.Random(7)
    for p, r in [(3, 2), (5, 1), (7, 1)]:
        ctx = make_field(p, r)
        els = [x for x in ctx.elements() if x != ctx.zero]
        for _ in range(25):
            x, y = rng.choice(els), rng.choice(els)
            tx = teichmuller(ctx, x, 4)
            ty = teichmuller(ctx, y, 4)
            assert _witt_mul(ctx, p**4, tx, ty) == teichmuller(ctx, ctx.mul(x, y), 4)


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
    # every character of every field with p <= 7, r <= 3, at the one
    # lambda precision the oracle works at
    for p, r in [(p, r) for p in (2, 3, 5, 7) for r in (1, 2, 3)]:
        ctx = make_field(p, r)
        pp = PrimePower(p, r)
        for c in range(ctx.q - 1):
            assert padic_gauss_valuation(ctx, MultChar(ctx, c)) == digit_sum_valuation(pp, c)


def test_precision_floor_enforced():
    # v_p(tau) <= r, so the floor r(p-1)+1 resolves every character, and
    # a lambda precision equal to the valuation itself is refused
    for p, r in [(2, 3), (3, 2), (5, 1)]:
        ctx = make_field(p, r)
        floor = r * (p - 1) + 1
        for c in range(1, ctx.q - 1):
            v = padic._gauss_valuation(ctx, c, floor)
            assert v == padic_gauss_valuation(ctx, c)
            with pytest.raises(PrecisionError):
                padic._gauss_valuation(ctx, c, int(v * (p - 1)))


def test_default_precision_covers_every_character():
    for p, r in [(3, 2), (7, 1)]:
        ctx = make_field(p, r)
        for c in range(ctx.q - 1):
            v = padic_gauss_valuation(ctx, MultChar(ctx, c))
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
    # a valuation the precision cannot resolve (3 >= 3) is refused each time
    for _ in range(2):
        with pytest.raises(PrecisionError):
            padic._gauss_valuation(ctx, 3, 3)
    assert padic._gauss_valuation.cache_info().currsize == 0


def test_explicit_and_default_precision_agree():
    # more lambda precision than the oracle works at changes no answer
    for p, r in [(2, 3), (3, 2), (5, 2), (7, 1)]:
        ctx = make_field(p, r)
        n = _lambda_precision(ctx)
        for c in range(ctx.q - 1):
            v = padic_gauss_valuation(ctx, MultChar(ctx, c))
            assert padic._gauss_valuation(ctx, c, n) == v
            assert padic._gauss_valuation(ctx, c, n + 3) == v


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


def _slot_constant_valuation(ctx, c, lambda_precision):
    """(p-1) times the lambda-adic valuation of tau(chi_c), capped at
    (p-1)M and assembled bucket by bucket: the Teichmueller powers by the
    _witt_mul chain, summed per trace value t, each bucket scaled by the
    stepwise slot constants of (1+lambda)^t."""
    p, n = ctx.p, ctx.q - 1
    precision = lambda_precision // (p - 1) + 2
    pM = p**precision
    omega = teichmuller(ctx, ctx.generator, precision)
    powers = [ctx.one]
    for _ in range(n - 1):
        powers.append(_witt_mul(ctx, pM, powers[-1], omega))
    buckets = [[0] * ctx.r for _ in range(p)]
    for k, t in enumerate(ctx.trace_by_log):
        buckets[t] = [a + b for a, b in zip(buckets[t], powers[(-c * k) % n])]
    acc = [[0] * ctx.r for _ in range(p - 1)]
    for bucket, consts in zip(buckets, _stepwise_slot_constants(p, precision)):
        for j, const in enumerate(consts):
            acc[j] = [a + const * b for a, b in zip(acc[j], bucket)]
    return min(j + (p - 1) * min(padic_valuation_int(v, p, precision) for v in row)
               for j, row in enumerate(acc))


def test_gauss_valuation_matches_the_slot_constant_assembly():
    # every character, at the oracle's lambda precision and three above it
    for p in (2, 3, 5, 7, 11, 13):
        for r in (1, 2):
            ctx = make_field(p, r)
            for lambda_precision in (r * (p - 1) + 2, r * (p - 1) + 5):
                for c in range(ctx.q - 1):
                    val = _slot_constant_valuation(ctx, c, lambda_precision)
                    assert padic._gauss_valuation(ctx, c, lambda_precision) == \
                        Fraction(val, p - 1), (p, r, lambda_precision, c)


def test_padic_matches_digit_sum_at_large_primes():
    for p in (211, 499):
        ctx = make_field(p, 1)
        pp = PrimePower(p, 1)
        for c in (1, 2, (p - 1) // 2, p - 2):
            assert padic_gauss_valuation(ctx, MultChar(ctx, c)) == digit_sum_valuation(pp, c)


def test_gauss_table_teichmuller_rows_equal_the_multiplication_chain():
    # the fields of test_fields' log-table pin, at the precision that
    # padic_gauss_valuation works at, as the sweep does
    fields = [(p, r) for p in (2, 3, 5, 7) for r in (1, 2, 3)] + [(2, 8), (3, 8), (7, 4)]
    for p, r in fields:
        ctx = make_field(p, r)
        precision = _lambda_precision(ctx) // (p - 1) + 2
        omega = teichmuller(ctx, ctx.generator, precision)
        t = ctx.one
        rows = [t]
        for _ in range(ctx.q - 2):
            t = _witt_mul(ctx, p**precision, t, omega)
            rows.append(t)
        # coordinate j of each stored int sits in slot j of width bit_length(q p^M)
        tables = padic._gauss_tables(ctx, precision)
        width = (ctx.q * p**precision).bit_length()
        assert tables[3] == width
        unpacked = tuple(tuple((v >> (j * width)) & ((1 << width) - 1) for j in range(r))
                         for v in tables[1])
        assert unpacked == tuple(rows), (p, r, precision)


def test_gauss_tables_of_f_3_8_build_in_bounded_memory(monkeypatch):
    # a fresh field and its tables, outside every lru_cache: the stored
    # Teichmueller powers are one packed int each, and the field keeps no
    # table of its own powers
    tracemalloc.start()
    try:
        ctx = FieldContext(3, 8)
        field_bytes = tracemalloc.get_traced_memory()[0]
        precision = _lambda_precision(ctx) // 2 + 2
        tables = padic._gauss_tables.__wrapped__(ctx, precision)
        monkeypatch.setattr(padic, "_gauss_tables", lambda field, m: tables)
        value = padic._gauss_valuation.__wrapped__(ctx, 1, _lambda_precision(ctx))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == digit_sum_valuation(PrimePower(3, 8), 1)
    assert field_bytes < 64 * 2**10, field_bytes
    assert peak < 1.5 * 2**20, peak


def test_gauss_valuation_over_f_1009_runs_in_bounded_memory(monkeypatch):
    # a fresh prime field, its tables and one valuation, outside every
    # lru_cache: Horner's rule keeps one int of p slots per coordinate,
    # and the tables hold no row per power of 1 + lambda
    tracemalloc.start()
    try:
        ctx = FieldContext(1009, 1)
        precision = _lambda_precision(ctx) // 1008 + 2
        tables = padic._gauss_tables.__wrapped__(ctx, precision)
        monkeypatch.setattr(padic, "_gauss_tables", lambda field, m: tables)
        value = padic._gauss_valuation.__wrapped__(ctx, 1, _lambda_precision(ctx))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == digit_sum_valuation(PrimePower(1009, 1), 1)
    assert peak < 2 * 2**20, peak
