import random

import pytest

from epschar.numutil import (
    digit_sum,
    factorize,
    is_prime,
    multiplicative_order,
    p_part,
    padic_valuation_int,
)


def test_is_prime_against_sieve():
    limit = 500
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n]


def test_factorize_roundtrip():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        fac = factorize(n)
        prod = 1
        for p, a in fac.items():
            assert is_prime(p)
            prod *= p**a
        assert prod == n
    assert factorize(1) == {}
    with pytest.raises(ValueError):
        factorize(0)


def test_prime_divisors_sorted():
    assert sorted(factorize(360)) == [2, 3, 5]
    assert sorted(factorize(1)) == []


def test_p_part_split():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        p = rng.choice([2, 3, 5, 7, 11])
        a = p_part(n, p)
        b, rest = divmod(n, a)
        assert rest == 0
        assert b % p != 0
        # a is a power of p
        while a % p == 0:
            a //= p
        assert a == 1


def test_multiplicative_order():
    rng = random.Random(2)
    for _ in range(200):
        m = rng.randrange(2, 400)
        units = [a for a in range(1, m) if __import__("math").gcd(a, m) == 1]
        a = rng.choice(units)
        k = multiplicative_order(a, m)
        assert pow(a, k, m) == 1
        for j in range(1, k):
            assert pow(a, j, m) != 1
    assert multiplicative_order(5, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(2, 4)


def test_digit_sum():
    assert digit_sum(0, 5) == 0
    assert digit_sum(1234, 10) == 10
    # base-p digits of p^k - 1 are all p-1
    for p in (2, 3, 7):
        for k in range(1, 6):
            assert digit_sum(p**k - 1, p) == k * (p - 1)
    with pytest.raises(ValueError):
        digit_sum(-1, 3)


def test_padic_valuation_int():
    assert padic_valuation_int(0, 3, 5) == 5
    assert padic_valuation_int(18, 3, 5) == 2
    assert padic_valuation_int(3**7, 3, 4) == 4  # capped
    assert padic_valuation_int(7, 3, 4) == 0
