import random

import pytest

from epschar.errors import CapacityError, DomainError, InvalidInputError
from epschar.fields import (
    PrimePower,
    make_field,
    poly_is_irreducible,
    power_table,
)
from epschar.numutil import factorize

FIELDS = [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (2, 6)]


def test_prime_power_validation():
    assert PrimePower(3, 2).q == 9
    with pytest.raises(InvalidInputError):
        PrimePower(6, 1)
    with pytest.raises(InvalidInputError):
        PrimePower(3, 0)


def test_make_field_bounds():
    with pytest.raises(CapacityError):
        make_field(2, 13)
    with pytest.raises(CapacityError):
        make_field(101, 3)
    with pytest.raises(InvalidInputError):
        make_field(4, 2)


def test_modulus_is_deterministic_and_irreducible():
    # first monic irreducible of degree 2 over F_3 in numeric order is x^2 + 1
    assert make_field(3, 2).modulus == (1, 0, 1)
    for p, r in FIELDS:
        ctx = make_field(p, r)
        assert len(ctx.modulus) == r + 1
        if r > 1:
            assert poly_is_irreducible(ctx.modulus, p)


def test_poly_is_irreducible_examples():
    assert poly_is_irreducible((1, 0, 1), 3)  # x^2 + 1, -1 not a square mod 3
    assert not poly_is_irreducible((1, 0, 1), 5)  # (x+2)(x+3) mod 5
    assert poly_is_irreducible((1, 1, 0, 1), 2)  # x^3 + x + 1
    assert not poly_is_irreducible((0, 1, 1), 5)  # x^2 + x = x(x+1)


def test_field_axioms_random():
    rng = random.Random(3)
    for p, r in FIELDS:
        ctx = make_field(p, r)
        els = [ctx.element_from_int(e) for e in range(ctx.q)]
        zero = ctx.element_from_int(0)
        for _ in range(40):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            # -a is (p - 1) a, and a^(-1) is a^(q - 2)
            minus_one = ctx.element_from_int(p - 1)
            assert ctx.add(a, ctx.mul(minus_one, a)) == zero
            if a != zero:
                assert ctx.mul(a, ctx.pow(a, ctx.q - 2)) == ctx.one


def test_generator_order_from_power_table():
    for p, r in FIELDS:
        ctx = make_field(p, r)
        q = ctx.q
        powers = list(power_table(ctx.generator, ctx.modulus, p, q - 1))
        # g^0, ..., g^(q-2) are q - 1 distinct nonzero elements: g has order q - 1
        assert len(powers) == q - 1
        assert len(set(powers)) == q - 1
        assert ctx.element_from_int(0) not in powers
        assert powers[0] == ctx.one
        assert ctx.pow(ctx.generator, q - 1) == ctx.one


def test_pow_negative_and_zero():
    ctx = make_field(5, 2)
    zero = ctx.element_from_int(0)
    assert ctx.pow(zero, 0) == ctx.one
    assert ctx.pow(zero, 4) == zero
    # negative exponents are refused, not looped on
    with pytest.raises(DomainError):
        ctx.pow(ctx.pow(ctx.generator, 3), -2)


def test_trace_properties():
    rng = random.Random(4)
    for p, r in FIELDS:
        ctx = make_field(p, r)
        els = [ctx.element_from_int(e) for e in range(ctx.q)]
        # additive, Frobenius-invariant, and equidistributed over F_p
        for _ in range(30):
            a, b = rng.choice(els), rng.choice(els)
            assert ctx.trace(ctx.add(a, b)) == (ctx.trace(a) + ctx.trace(b)) % p
            assert ctx.trace(ctx.pow(a, p)) == ctx.trace(a)
        counts = {}
        for x in els:
            counts[ctx.trace(x)] = counts.get(ctx.trace(x), 0) + 1
        assert counts == {t: ctx.q // p for t in range(p)}


def test_element_encoding_roundtrip():
    # element_from_int lists the base-p digits of enc, lowest first
    ctx = make_field(3, 3)
    for enc in range(ctx.q):
        assert sum(c * 3**i for i, c in enumerate(ctx.element_from_int(enc))) == enc


def test_check_rejects_malformed():
    ctx = make_field(5, 2)
    with pytest.raises(DomainError):
        ctx.check((1,))
    with pytest.raises(DomainError):
        ctx.check((5, 0))


def test_trace_by_log_matches_trace():
    fields = [(p, r) for p in (2, 3, 5, 7) for r in (1, 2, 3)] + [(2, 8)]
    for p, r in fields:
        ctx = make_field(p, r)
        table = ctx.trace_by_log
        powers = list(power_table(ctx.generator, ctx.modulus, p, ctx.q - 1))
        assert len(table) == ctx.q - 1
        for k in range(ctx.q - 1):
            assert table[k] == ctx.trace(powers[k])


# every field with p <= 7 and r <= 3, and the large fields of the synthetic sweep
POWER_TABLE_FIELDS = [(p, r) for p in (2, 3, 5, 7) for r in (1, 2, 3)] + [(2, 8), (3, 8), (7, 4)]


def _first_primitive(ctx):
    """The first element in numeric order whose powers fill F_q^*."""
    factors = factorize(ctx.q - 1) if ctx.q > 2 else {}
    for enc in range(1, ctx.q):
        g = ctx.element_from_int(enc)
        if all(ctx.pow(g, (ctx.q - 1) // ell) != ctx.one for ell in factors):
            return g
    raise AssertionError("no primitive element")


def _multiplication_chain(ctx, g):
    chain = [ctx.one]
    for _ in range(ctx.q - 2):
        chain.append(ctx.mul(chain[-1], g))
    return chain


def test_power_table_equals_the_multiplication_chain():
    for p, r in POWER_TABLE_FIELDS:
        ctx = make_field(p, r)
        g = _first_primitive(ctx)
        chain = _multiplication_chain(ctx, g)
        assert list(power_table(ctx.generator, ctx.modulus, p, ctx.q - 1)) == chain, (p, r)
        assert ctx.generator == (chain[1] if ctx.q > 2 else ctx.one)
        # power_table itself, on the last element in numeric order
        x = ctx.element_from_int(ctx.q - 1)
        assert list(power_table(x, ctx.modulus, p, ctx.q - 1)) == _multiplication_chain(ctx, x)
