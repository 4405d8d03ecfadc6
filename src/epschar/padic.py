"""Truncated p-adic arithmetic for Gauss sum valuations.

Two layers:

* WittRing / WittApprox: the unramified ring Z_q at precision p^M,
  realized as Z[x] / (p^M, F) where F is the field modulus of the
  FieldContext lifted verbatim to integer coefficients.  Teichmueller
  representatives come from the Frobenius fixed-point iteration
  t -> t^q, which gains one digit of agreement per step.  The table of
  powers of omega = Teich(g) is built by a linear map: multiplication
  by omega is Z/p^M-linear, so each power is its r x r matrix applied
  to the previous coordinate tuple.

* RamifiedRing / RamifiedElem: the extension by lambda = zeta_p - 1,
  a vector of length p-1 of Witt coefficients on the powers of lambda,
  modulo the Eisenstein relation
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
Results are memoized on the exact key (field, c mod q-1, lambda
precision); c is never replaced by another member of its Frobenius
orbit.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul

from .errors import InvalidInputError, PrecisionError
from .fields import FieldContext
from .numutil import padic_valuation_int


class WittRing:
    """Z[x] / (p^M, F(x)) for the lifted field modulus F."""

    def __init__(self, ctx: FieldContext, precision: int):
        if precision < 1:
            raise InvalidInputError("precision must be >= 1")
        self.ctx = ctx
        self.precision = precision
        self.pM = ctx.p**precision
        self.modulus = tuple(int(c) for c in ctx.modulus)  # monic, lifted verbatim
        self.r = ctx.r

    def element(self, coeffs) -> "WittApprox":
        c = [int(v) % self.pM for v in coeffs]
        c += [0] * (self.r - len(c))
        return WittApprox(self, tuple(c[: self.r]))

    @property
    def zero(self):
        return self.element([0])

    @property
    def one(self):
        return self.element([1])

    def lift(self, x) -> "WittApprox":
        """Lift a field element coefficientwise."""
        return self.element(list(x))

    def mul(self, a, b):
        r, pM = self.r, self.pM
        prod = [0] * (2 * r - 1)
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in enumerate(b.coeffs):
                    prod[i + j] += ai * bj
        # reduce by the monic modulus
        for k in range(2 * r - 2, r - 1, -1):
            c = prod[k] % pM
            if c:
                shift = k - r
                for i in range(r + 1):
                    prod[shift + i] -= c * self.modulus[i]
            prod[k] = 0
        return WittApprox(self, tuple(v % pM for v in prod[:r]))

    def pow(self, a, n: int):
        result, base = self.one, a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def valuation(self, a) -> int:
        """min v_p over coefficients; returns precision M when a = 0."""
        return min(padic_valuation_int(c, self.ctx.p, self.precision) for c in a.coeffs)


@dataclass(frozen=True)
class WittApprox:
    ring: WittRing
    coeffs: tuple

    def __mul__(self, other):
        return self.ring.mul(self, other)


def teichmuller(ctx: FieldContext, x, precision: int) -> WittApprox:
    """The Teichmueller representative of x in Z_q at precision p^M.

    Iterates t -> t^q from the verbatim lift; each step fixes one more
    digit, and the limit is the unique root of unity (or 0) over x.
    """
    if precision < 1:
        raise InvalidInputError("precision must be >= 1")
    ring = WittRing(ctx, precision)
    t = ring.lift(x)
    for _ in range(precision + 1):
        nxt = ring.pow(t, ctx.q)
        if nxt == t:
            break
        t = nxt
    else:
        raise AssertionError("Teichmueller iteration failed to stabilize")
    return t


class RamifiedRing:
    """W[lambda] / E(lambda) with lambda = zeta_p - 1 at fixed precision."""

    def __init__(self, witt: WittRing):
        self.witt = witt
        self.p = witt.ctx.p
        self.deg = self.p - 1
        # E(lambda) = sum_(j=1..p) C(p, j) lambda^(j-1), monic of degree p-1
        self.eisenstein = tuple(comb(self.p, j) for j in range(1, self.p + 1))

    def element(self, witt_coeffs) -> "RamifiedElem":
        c = list(witt_coeffs) + [self.witt.zero] * (self.deg - len(witt_coeffs))
        return RamifiedElem(self, tuple(c[: self.deg]))

    def lambda_valuation(self, a) -> int:
        """Valuation in units of 1/(p-1); capped at (p-1) * M."""
        best = self.deg * self.witt.precision
        for j, c in enumerate(a.coeffs):
            v = j + self.deg * self.witt.valuation(c)
            best = min(best, v)
        return best


@dataclass(frozen=True)
class RamifiedElem:
    ring: RamifiedRing
    coeffs: tuple  # WittApprox entries, powers of lambda, length p-1


# ---------------------------------------------------------------------------


def default_lambda_precision(ctx: FieldContext) -> int:
    return ctx.r * (ctx.p - 1) + 2


@lru_cache(maxsize=None)
def _gauss_tables(ctx: FieldContext, precision: int):
    """Per-field tables: Teichmueller powers, (1+lambda)^t slot constants,
    and the exponents k < q-1 grouped by the trace of g^k."""
    ring = WittRing(ctx, precision)
    ram = RamifiedRing(ring)
    omega = teichmuller(ctx, ctx.generator, precision)
    # multiplication by omega is Z/p^M-linear: row j of its matrix holds
    # coordinate j of omega x^i for each basis monomial x^i
    deg, pM = ram.deg, ring.pM
    cols = [(omega * ring.element([0] * i + [1])).coeffs for i in range(ring.r)]
    matrix = tuple(zip(*cols))
    t = ring.one.coeffs
    teich_pow = [t]
    for _ in range(ctx.q - 2):
        t = tuple(sum(map(mul, row, t)) % pM for row in matrix)
        teich_pow.append(t)
    # (1+lambda)^t has integer Witt coordinates, one per lambda slot.  For
    # t < p-1 they are the binomials C(t, j) (Pascal's rule mod p^M); only
    # t = p-1 reaches lambda^(p-1) = -sum_(j<p-1) C(p, j+1) lambda^j.
    row = [1] + [0] * (deg - 1)
    consts = []
    for _ in range(deg):
        consts.append(tuple(row))
        row = [row[0]] + [(a + b) % pM for a, b in zip(row[1:], row)]
    consts.append(tuple((a - e) % pM for a, e in zip(row, ram.eisenstein)))
    by_trace = [[] for _ in range(ctx.p)]
    for k, t in enumerate(ctx.trace_by_log):
        by_trace[t].append(k)
    return ram, tuple(teich_pow), tuple(consts), tuple(map(tuple, by_trace))


def padic_gauss_valuation(ctx: FieldContext, chi, lambda_precision: int = None) -> Fraction:
    """lambda-adic valuation of tau(chi), in ordinary v_p units.

    chi is a MultChar (anything with an integer .index modulo q-1).
    The sum is assembled in the ramified ring; the result is exact as a
    Fraction with denominator dividing p-1.  Raises PrecisionError if
    the requested precision cannot resolve the answer.
    """
    floor_n = ctx.r * (ctx.p - 1) + 1
    if lambda_precision is None:
        lambda_precision = floor_n + 1
    if lambda_precision < floor_n:
        raise PrecisionError(
            f"lambda precision {lambda_precision} is below the floor {floor_n}")
    c = int(getattr(chi, "index", chi)) % (ctx.q - 1)
    return _gauss_valuation(ctx, c, lambda_precision)


@lru_cache(maxsize=None)
def _gauss_valuation(ctx: FieldContext, c: int, lambda_precision: int) -> Fraction:
    """padic_gauss_valuation memoized on its exact key; errors are not cached."""
    p, n = ctx.p, ctx.q - 1
    ram, teich_pow, consts, by_trace = _gauss_tables(ctx, lambda_precision // (p - 1) + 2)
    w = ram.witt
    # tau = sum_k omega^(-c k) (1 + lambda)^(trace g^k).  Sum the
    # Teichmueller powers in one bucket per trace value t, then scale each
    # bucket by the slot constants of (1 + lambda)^t.  Integer sums are
    # exact; mod p^M happens once at the end.
    acc = [[0] * w.r for _ in range(ram.deg)]
    for t, ks in enumerate(by_trace):
        if not ks:  # trace 0 over a prime field: only 0 has it
            continue
        bucket = [sum(col) for col in zip(*[teich_pow[(-c * k) % n] for k in ks])]
        for slot, const in enumerate(consts[t]):
            if const:
                acc[slot] = [a + const * b for a, b in zip(acc[slot], bucket)]
    val = ram.lambda_valuation(ram.element([w.element(row) for row in acc]))
    if val >= lambda_precision:
        raise PrecisionError(
            f"valuation not resolved at lambda precision {lambda_precision}; "
            f"retry with lambda_precision >= {val + 1}")
    return Fraction(val, p - 1)
