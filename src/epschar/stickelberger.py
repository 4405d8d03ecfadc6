"""Tame local indices, fractional-part tuples and Gauss sum valuations.

Everything here is exact bookkeeping over a local datum (q = p^r,
e_t | q - 1 tame part, e_w a power of p wild part):

* s_tuple(datum, d): the multiset {{ d p^i / e_t }} for i < r, the
  fractional parts governing the valuation of the tame Gauss sum.
* composition_exponent: the power to which the composite of the local
  fundamental-class map and the cotangent character raises units of
  the residue field, ((q-1)/e_t) * (q^N / e_w) with the minimal N >= 0
  making e_w divide q^N.
* c_from_d / d_from_c: conversion between the cotangent index d of a
  residual character and its multiplicative index c over F_q.
* stickelberger_valuation / digit_sum_valuation: the two faces of the
  classical valuation formula v_p(tau) = sum of fractional parts =
  s_p(c) / (p-1); stickelberger_numerator is the first one's sum of
  d p^i mod e_t, e_t times the valuation, as an integer.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import DomainError, InvalidInputError
from .fields import PrimePower
from .numutil import digit_sum, p_part


@dataclass(frozen=True)
class TameLocalDatum:
    prime_power: PrimePower
    e_t: int
    e_w: int = 1

    def __post_init__(self):
        q, p = self.prime_power.q, self.prime_power.p
        if self.e_t < 1 or (q - 1) % self.e_t != 0:
            raise InvalidInputError(f"e_t = {self.e_t} must divide q - 1 = {q - 1}")
        if self.e_w < 1 or p_part(self.e_w, p) != self.e_w:
            raise InvalidInputError(f"e_w = {self.e_w} must be a power of p = {p}")

    @property
    def q(self) -> int:
        return self.prime_power.q

    @property
    def p(self) -> int:
        return self.prime_power.p

    @property
    def r(self) -> int:
        return self.prime_power.r

    @cached_property
    def composition_exponent(self) -> int:
        """composition_exponent of this datum, computed once and kept on it."""
        q = self.q
        n = minimal_power_clearing_wild(self)
        return (((q - 1) // self.e_t) * (q**n // self.e_w)) % (q - 1)


def _check_d(datum: TameLocalDatum, d: int) -> int:
    if not 0 <= d < datum.e_t:
        raise DomainError(f"d = {d} must lie in [0, {datum.e_t})")
    return d


def s_tuple(datum: TameLocalDatum, d: int) -> tuple:
    """Sorted tuple of fractional parts {d p^i / e_t}, i < r (a multiset)."""
    _check_d(datum, d)
    e, p, r = datum.e_t, datum.p, datum.r
    parts = []
    t = d % e
    for _ in range(r):
        parts.append(Fraction(t, e))
        t = (t * p) % e
    return tuple(sorted(parts))


def minimal_power_clearing_wild(datum: TameLocalDatum) -> int:
    """Smallest N >= 0 with e_w | q^N."""
    n = 0
    qn = 1
    while qn % datum.e_w != 0:
        qn *= datum.q
        n += 1
    return n


def composition_exponent(datum: TameLocalDatum) -> int:
    """Exponent in Z/(q-1) by which the composed local map raises units."""
    return datum.composition_exponent


def c_from_d(datum: TameLocalDatum, d: int) -> int:
    """Multiplicative index over F_q of the residual character with tame index d."""
    _check_d(datum, d)
    return (d * datum.composition_exponent) % (datum.q - 1)


def d_from_c(datum: TameLocalDatum, c: int) -> int:
    """Inverse of c_from_d on its image; c must be divisible by (q-1)/e_t."""
    q, e = datum.q, datum.e_t
    step = (q - 1) // e
    c %= q - 1
    if c % step != 0:
        raise DomainError(f"c = {c} is not in the image (must be divisible by {step})")
    n = minimal_power_clearing_wild(datum)
    unit = (datum.q**n // datum.e_w) % e if e > 1 else 0
    if e == 1:
        return 0
    if gcd(unit, e) != 1:
        raise AssertionError("wild unit must be invertible modulo e_t")
    return ((c // step) * pow(unit, -1, e)) % e


def stickelberger_numerator(datum: TameLocalDatum, d: int) -> int:
    """e_t times stickelberger_valuation(datum, d), for d already checked."""
    e, p = datum.e_t, datum.p
    total, t = 0, d
    for _ in range(datum.r):
        total += t
        t = t * p % e
    return total


def stickelberger_valuation(datum: TameLocalDatum, d: int) -> Fraction:
    """Sum of the fractional-part tuple: v_p of the tame Gauss sum."""
    _check_d(datum, d)
    return Fraction(stickelberger_numerator(datum, d), datum.e_t)


def digit_sum_valuation(pp: PrimePower, c: int) -> Fraction:
    """Base-p digit sum s(c) / (p-1) for a multiplicative index c over F_q."""
    if not 0 <= c <= max(pp.q - 2, 0):
        raise DomainError(f"c = {c} must lie in [0, q-2]")
    return Fraction(digit_sum(c, pp.p), pp.p - 1)
