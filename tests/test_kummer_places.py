"""Kummer decomposition groups against the unit-order rule they replaced.

kummer_cover reads each place's residue degree off the g-th power-residue
symbol of the leading unit.  The reference below is the earlier rule: the
multiplicative order of the unit, found by factoring p^deg - 1, and then
the order of p^deg modulo g times that order.
"""

import random
from math import gcd

from epschar.covers import INFINITY, kummer_cover
from epschar.errors import ReducibleCoverError
from epschar.fields import poly_is_irreducible, poly_mod, poly_mul, poly_powmod
from epschar.numutil import factorize, is_prime, multiplicative_order


def reference_decomposition_orders(p, n, divisor):
    """Place label -> e * f by the unit-order rule."""
    out = {}
    for place, m in divisor.entries:
        g = gcd(n, m % n)
        e = n // g
        if e == 1:
            continue
        deg = divisor.place_degree(place)
        unit_order = 1
        if place != INFINITY:
            modulus = list(place)
            z = [1]
            for other, mo in divisor.entries:
                if other == place or other == INFINITY:
                    continue
                base = poly_mod(list(other), modulus, p)
                if mo < 0:
                    base = poly_powmod(base, p**deg - 2, modulus, p)
                    mo = -mo
                z = poly_mod(poly_mul(z, poly_powmod(base, mo, modulus, p), p), modulus, p)
            unit_order = p**deg - 1
            for ell in factorize(p**deg - 1):
                while unit_order % ell == 0 and poly_powmod(z, unit_order // ell, modulus, p) == [1]:
                    unit_order //= ell
        og = unit_order * g
        out[divisor.place_label(place)] = e * (multiplicative_order(pow(p, deg, og), og) if og > 1 else 1)
    return out


def _random_place(rng, p):
    while True:
        degree = rng.randint(1, 3)
        poly = tuple(rng.randrange(p) for _ in range(degree)) + (1,)
        if poly_is_irreducible(poly, p):
            return poly


def test_decomposition_orders_match_the_unit_order_rule():
    rng = random.Random(20260)
    primes = [p for p in range(3, 44) if is_prime(p)]
    places = 0
    while places < 3000:
        p = rng.choice(primes)
        n = rng.choice([d for d in range(2, p) if (p - 1) % d == 0])
        entries = {}
        for _ in range(rng.randint(1, 4)):
            entries[_random_place(rng, p)] = rng.choice([-1, 1]) * rng.randint(1, 7)
        try:
            cover = kummer_cover(p, n, list(entries.items()))
        except ReducibleCoverError:
            continue
        divisor = cover.divisor  # with the place at infinity
        got = {q.label: q.decomposition.order for q in cover.places}
        assert got == reference_decomposition_orders(p, n, divisor), (p, n, divisor)
        places += len(got)
