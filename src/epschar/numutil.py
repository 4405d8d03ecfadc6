"""Small exact number-theory helpers used throughout the package."""

from fractions import Fraction
from math import gcd


def exact_ratio(num: int, den: int) -> int | Fraction:
    """num / den exactly: an int when den divides num, else a Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def exact_str(x) -> str | None:
    """x as str(Fraction(x)), the integer or a/b form every output prints;
    an int or a Fraction already prints so.  None stays None."""
    if x is None:
        return None
    return str(x) if type(x) is int or type(x) is Fraction else str(Fraction(x))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int):
    return sorted(factorize(n))


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def multiplicative_order(a: int, m: int) -> int:
    """Order of a modulo m; requires gcd(a, m) = 1."""
    if m == 1:
        return 1
    a %= m
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    # walk up one power of a at a time until it returns to 1
    order = 1
    t = a
    while t != 1:
        t = (t * a) % m
        order += 1
    return order


def digit_sum(n: int, base: int) -> int:
    if n < 0:
        raise ValueError("digit_sum expects n >= 0")
    s = 0
    while n:
        s += n % base
        n //= base
    return s


def padic_valuation_int(n: int, p: int, cap: int) -> int:
    """v_p(n) for an integer known modulo p**cap; returns cap when n == 0."""
    if n == 0:
        return cap
    v = 0
    while n % p == 0 and v < cap:
        n //= p
        v += 1
    return v
