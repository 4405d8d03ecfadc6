"""Truncated p-adic arithmetic for Gauss sum valuations.

Elements are plain int tuples in two rings:

* the unramified ring Z_q at precision p^M, realized as
  Z[x] / (p^M, F) where F is the field modulus of the FieldContext
  lifted verbatim to integer coefficients; an element is its r-tuple of
  coordinates.  Its arithmetic is the field's polynomial arithmetic
  (fields.poly_mul, poly_mod, poly_powmod and power_table) with
  coefficients mod p^M instead of mod p.  Teichmueller representatives
  come from the Frobenius fixed-point iteration t -> t^q, which gains
  one digit of agreement per step, and the powers of omega = Teich(g)
  fill this oracle's own table, each packed into one int; nothing is
  shared with the Stickelberger oracle.

* its extension by lambda = zeta_p - 1, a list of p-1 such tuples on
  the powers of lambda, modulo the Eisenstein relation
  E(lambda) = sum_(j=1..p) C(p,j) lambda^(j-1) = 0.
  The powers lambda^j p^k have pairwise distinct valuations
  j + k(p-1) in units of 1/(p-1), so the valuation of an element is
  read slotwise without cancellation.

padic_gauss_valuation sums the Gauss sum in the ramified ring
(multiplicative part through Teichmueller powers, additive part through
zeta_p = 1 + lambda, terms grouped by their trace) and reads off the
lambda-adic valuation.  Horner's rule in 1 + lambda gives the exact
lambda^j coefficients sum_t C(t, j) B_t of the trace buckets B_t in
O(p^3) bit operations, hence MAX_PADIC_P; lambda^(p-1) is rewritten
once through E(lambda).  The table of Teichmueller powers holds
(q-1) r bit_length(q p^M) bits, hence MAX_PADIC_TABLE_BITS.  It shares
no formula with the Stickelberger digit count, which is the point.

The lambda precision is fixed by the field: |tau|^2 = q bounds
v_p(tau) by r, that is the lambda-valuation by r(p-1), so r(p-1)+2
resolves every character.  A larger precision would only cost time.
Results are memoized on the exact key (field, c mod q-1); c is never
replaced by another member of its Frobenius orbit.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import lshift

from .errors import CapacityError, InvalidInputError, PrecisionError
from .fields import FieldContext, poly_pad, poly_powmod, power_table
from .numutil import padic_valuation_int

MAX_PADIC_P = 4500  # the first valuation at p = 4493 takes about 10 s
# Largest table of packed Teichmueller powers, (q-1) r bit_length(q p^M)
# bits; building it is most of a field's first valuation.  The largest
# admitted shape, F_31^4 at 1.85e8 bits, takes 6-10 s; F_7^7 (2.6e8) and
# F_3^12 (2.7e8) took 11-19 s and are refused.
MAX_PADIC_TABLE_BITS = 2 * 10**8


def teichmuller(ctx: FieldContext, x, precision: int) -> tuple:
    """The Teichmueller representative of x in Z_q at precision p^M.

    Iterates t -> t^q from the verbatim lift; each step fixes one more
    digit, and the limit is the unique root of unity (or 0) over x.
    Returned as its r-tuple of coordinates modulo p^M.
    """
    if precision < 1:
        raise InvalidInputError("precision must be >= 1")
    pM = ctx.p**precision
    t = tuple(v % pM for v in x)
    for _ in range(precision + 1):
        nxt = poly_pad(poly_powmod(t, ctx.q, ctx.modulus, pM), ctx.r)
        if nxt == t:
            return t
        t = nxt
    raise AssertionError("Teichmueller iteration failed to stabilize")


@lru_cache(maxsize=None)
def _gauss_tables(ctx: FieldContext, precision: int):
    """Per-field tables: the exponents k < q-1 grouped by the trace of
    g^k, the Teichmueller powers packed one int each, the Eisenstein
    binomials C(p, j+1) mod p^M for j < p-1, and the width of a packed slot.
    A field whose packed powers would pass MAX_PADIC_TABLE_BITS raises
    CapacityError before anything is built.

    Coordinate j of omega^k sits in bits [j w, (j+1) w) for
    w = bit_length(q p^M).  A trace bucket sums at most q-1 rows of
    coordinates below p^M, so a packed sum never carries across slots.
    """
    p, pM = ctx.p, ctx.p**precision
    width = (ctx.q * pM).bit_length()
    bits = (ctx.q - 1) * ctx.r * width
    if bits > MAX_PADIC_TABLE_BITS:
        raise CapacityError(f"the p-adic oracle supports tables of at most {MAX_PADIC_TABLE_BITS} "
                            f"bits; F_{p}^{ctx.r} needs {bits}")
    omega = teichmuller(ctx, ctx.generator, precision)
    shifts = range(0, width * ctx.r, width)
    teich_pow = tuple(sum(map(lshift, row, shifts))
                      for row in power_table(omega, ctx.modulus, pM, ctx.q - 1))
    eisenstein = tuple(comb(p, j + 1) % pM for j in range(p - 1))
    by_trace = [[] for _ in range(p)]
    for k, t in enumerate(ctx.trace_by_log):
        by_trace[t].append(k)
    return tuple(map(tuple, by_trace)), teich_pow, eisenstein, width


def padic_gauss_valuation(ctx: FieldContext, chi) -> Fraction:
    """lambda-adic valuation of tau(chi), in ordinary v_p units.

    chi is an integer index modulo q-1, or anything with one as .index (a MultChar).
    The sum is assembled in the ramified ring at lambda precision
    r(p-1)+2; the result is exact as a Fraction with denominator
    dividing p-1.
    """
    if ctx.p > MAX_PADIC_P:
        raise CapacityError(f"the p-adic oracle supports p <= {MAX_PADIC_P}, got p = {ctx.p}")
    c = int(getattr(chi, "index", chi)) % (ctx.q - 1)
    return _gauss_valuation(ctx, c, ctx.r * (ctx.p - 1) + 2)


def _gauss_rows(ctx: FieldContext, c: int, precision: int) -> list:
    """The lambda^j coefficients of tau(omega^(-c)) for j < p-1, after
    lambda^(p-1) is rewritten through E(lambda): row j holds the r
    coordinates of the lambda^j coefficient, correct mod p^precision."""
    p, n = ctx.p, ctx.q - 1
    by_trace, teich_pow, eisenstein, width = _gauss_tables(ctx, precision)
    shifts, mask = range(0, width * ctx.r, width), (1 << width) - 1
    # tau = sum_t B_t (1 + lambda)^t, B_t the packed omega^(-c k) of trace t.
    # Horner's rule from t = p-1 down leaves coordinate i of the lambda^j
    # coefficient sum_t C(t, j) B_t < 2^(p-1) q p^M in slot j of acc[i]; slots
    # of width + p bits never carry, and v_p capped at M reads the exact sums.
    acc, wide = [0] * ctx.r, width + p
    for ks in reversed(by_trace):
        packed = sum([teich_pow[(-c * k) % n] for k in ks])
        acc = [a + (a << wide) + ((packed >> s) & mask) for a, s in zip(acc, shifts)]
    mask = (1 << wide) - 1
    rows = [[(a >> (j * wide)) & mask for a in acc] for j in range(p)]
    # only t = p-1 reaches lambda^(p-1) = -sum_(j<p-1) C(p, j+1) lambda^j
    top = rows.pop()
    return [[v - e * t for v, t in zip(row, top)] for row, e in zip(rows, eisenstein)]


@lru_cache(maxsize=None)
def _gauss_valuation(ctx: FieldContext, c: int, lambda_precision: int) -> Fraction:
    """padic_gauss_valuation at the given lambda precision; raises PrecisionError
    when the valuation is not below it.  Errors are not cached."""
    p = ctx.p
    precision = lambda_precision // (p - 1) + 2
    rows = _gauss_rows(ctx, c, precision)
    # a coordinate of v_p = k in slot j is lambda^j p^k times a unit, of
    # valuation j + k(p-1); an all-zero slot 0 reads the cap (p-1)M
    val = min(
        j + (p - 1) * min(padic_valuation_int(v, p, precision) for v in row)
        for j, row in enumerate(rows)
    )
    if val >= lambda_precision:
        raise PrecisionError(
            f"valuation {val}/(p-1) not resolved at lambda precision {lambda_precision}")
    return Fraction(val, p - 1)
