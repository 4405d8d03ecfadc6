"""Fractional-part tuples of a local datum with a wild part.

A local datum (q = p^r, e_t | q - 1, e_w = p^k) carries two natural
indexings of its residual characters: the cotangent index d < e_t and
the multiplicative index c < q - 1 obtained by composing with the local
fundamental class.  The composition multiplies d by

    ((q - 1) / e_t) * (q^N / e_w),

where N is minimal with e_w | q^N.  The second factor is a power of p,
so it only rotates the Frobenius orbit: the multiset of fractional
parts {d p^i / e_t} is the same as {c p^i / (q - 1)}, and the digit-sum
formula applied to c still computes the same valuation.
"""

from fractions import Fraction

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


def main():
    pp = PrimePower(5, 2)
    datum = TameLocalDatum(pp, e_t=8, e_w=5)
    q, p = datum.q, datum.p
    print("datum: q = %d, e_t = %d, e_w = %d" % (q, datum.e_t, datum.e_w))
    print("minimal N with e_w | q^N:  N = %d" % minimal_power_clearing_wild(datum))
    print("composition exponent:      %d" % datum.composition_exponent)
    print()
    print("%3s %4s %18s %12s %12s" % ("d", "c", "tuple", "sum", "digits"))
    for d in range(datum.e_t):
        c = c_from_d(datum, d)
        assert d_from_c(datum, c) == d
        tup = s_tuple(datum, d)
        v = stickelberger_valuation(datum, d)
        assert v == digit_sum_valuation(pp, c)
        orbit = sorted(Fraction((c * p**i) % (q - 1), q - 1) for i in range(datum.r))
        assert sorted(tup) == orbit
        print("%3d %4d %18s %12s %12s" % (d, c, "(%s)" % ", ".join(map(str, tup)), v,
                                          digit_sum_valuation(pp, c)))
    print()
    print("the wild unit q^N / e_w only permutes each orbit, so every row agrees")


if __name__ == "__main__":
    main()
