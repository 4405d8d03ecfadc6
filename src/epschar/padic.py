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
lambda-adic valuation.  The slot constants of (1 + lambda)^t are plain
integers: the binomial row C(t, j) for t < p-1, and for t = p-1 that
row with lambda^(p-1) rewritten once through E(lambda).  It shares no
formula with the Stickelberger digit count, which is the point.

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

from .errors import InvalidInputError, PrecisionError
from .fields import FieldContext, poly_pad, poly_powmod, power_table
from .numutil import padic_valuation_int


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
    g^k, the Teichmueller powers packed one int each, the (1+lambda)^t
    slot constants, and the width of a packed slot.

    Coordinate j of omega^k sits in bits [j w, (j+1) w) for
    w = bit_length(q p^M).  A trace bucket sums at most q-1 rows of
    coordinates below p^M, so a packed sum never carries across slots.
    """
    p, pM = ctx.p, ctx.p**precision
    omega = teichmuller(ctx, ctx.generator, precision)
    width = (ctx.q * pM).bit_length()
    shifts = range(0, width * ctx.r, width)
    teich_pow = tuple(sum(map(lshift, row, shifts))
                      for row in power_table(omega, ctx.modulus, pM, ctx.q - 1))
    # (1+lambda)^t has integer Witt coordinates, one per lambda slot.  For
    # t < p-1 they are the binomials C(t, j) (Pascal's rule mod p^M); only
    # t = p-1 reaches lambda^(p-1) = -sum_(j<p-1) C(p, j+1) lambda^j.
    row = [1] + [0] * (p - 2)
    consts = []
    for _ in range(p - 1):
        consts.append(tuple(row))
        row = [row[0]] + [(a + b) % pM for a, b in zip(row[1:], row)]
    consts.append(tuple((a - comb(p, j + 1)) % pM for j, a in enumerate(row)))
    by_trace = [[] for _ in range(p)]
    for k, t in enumerate(ctx.trace_by_log):
        by_trace[t].append(k)
    return tuple(map(tuple, by_trace)), teich_pow, tuple(consts), width


def padic_gauss_valuation(ctx: FieldContext, chi) -> Fraction:
    """lambda-adic valuation of tau(chi), in ordinary v_p units.

    chi is a MultChar (anything with an integer .index modulo q-1).
    The sum is assembled in the ramified ring at lambda precision
    r(p-1)+2; the result is exact as a Fraction with denominator
    dividing p-1.
    """
    c = int(getattr(chi, "index", chi)) % (ctx.q - 1)
    return _gauss_valuation(ctx, c, ctx.r * (ctx.p - 1) + 2)


@lru_cache(maxsize=None)
def _gauss_valuation(ctx: FieldContext, c: int, lambda_precision: int) -> Fraction:
    """padic_gauss_valuation at the given lambda precision; raises PrecisionError
    when the valuation is not below it.  Errors are not cached."""
    p, n = ctx.p, ctx.q - 1
    precision = lambda_precision // (p - 1) + 2
    by_trace, teich_pow, consts, width = _gauss_tables(ctx, precision)
    shifts, mask = range(0, width * ctx.r, width), (1 << width) - 1
    # tau = sum_k omega^(-c k) (1 + lambda)^(trace g^k).  Sum the packed
    # Teichmueller powers in one bucket per trace value t, unpack it, then
    # scale it by the slot constants of (1 + lambda)^t.  Integer sums are
    # exact, and v_p capped at M reads them as if reduced mod p^M.
    acc = [[0] * ctx.r for _ in range(p - 1)]
    for t, ks in enumerate(by_trace):
        if not ks:  # trace 0 over a prime field: only 0 has it
            continue
        packed = sum([teich_pow[(-c * k) % n] for k in ks])
        bucket = [(packed >> s) & mask for s in shifts]
        for slot, const in enumerate(consts[t]):
            if const:
                acc[slot] = [a + const * b for a, b in zip(acc[slot], bucket)]
    # a coordinate of v_p = k in slot j is lambda^j p^k times a unit, of
    # valuation j + k(p-1); an all-zero slot 0 reads the cap (p-1)M
    val = min(
        j + (p - 1) * min(padic_valuation_int(v, p, precision) for v in row)
        for j, row in enumerate(acc)
    )
    if val >= lambda_precision:
        raise PrecisionError(
            f"valuation {val}/(p-1) not resolved at lambda precision {lambda_precision}")
    return Fraction(val, p - 1)
