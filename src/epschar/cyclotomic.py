"""Exact arithmetic in rings of cyclotomic integers Z[zeta_m].

Elements are integer coefficient vectors of length phi(m) on the power
basis 1, zeta, ..., zeta^(phi(m)-1), fully reduced modulo the m-th
cyclotomic polynomial, so equality is tuple equality.  Multiplication
folds exponents modulo m (zeta^m = 1) and then reduces through a cached
reduction table; the table is also exposed as an int64 matrix so that
bulk constructions (Gauss sums and their products) can run through
numpy with an exact overflow guard.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
import cmath

import numpy as np

from .errors import DomainError
from .fields import FieldContext

_INT64_GUARD = 2**62


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise DomainError("cyclotomic order must be positive")
    # divide x^m - 1 by the cyclotomic polynomials of the proper divisors
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_poly_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _exact_poly_div(num, den):
    """Exact division of integer polynomials, den monic."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        c = num[shift + len(den) - 1]
        out[shift] = c
        if c:
            for i, d in enumerate(den):
                num[shift + i] -= c * d
    if any(num):
        raise AssertionError("polynomial division was not exact")
    return out


@lru_cache(maxsize=None)
def _reduction_table(m: int):
    """Rows zeta^k (k < m) expressed on the reduced basis, plus numpy form."""
    phi = len(cyclotomic_polynomial(m)) - 1
    rows = []
    for k in range(phi):
        row = [0] * phi
        row[k] = 1
        rows.append(row)
    cyc = list(cyclotomic_polynomial(m))
    cur = rows[phi - 1]
    for _ in range(phi, m):
        nxt = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            for i in range(phi):
                nxt[i] -= lead * cyc[i]
        rows.append(nxt)
        cur = nxt
    matrix = np.array(rows, dtype=np.int64)
    max_entry = int(np.max(np.abs(matrix))) if m > 1 else 1
    return phi, tuple(tuple(r) for r in rows), matrix, max_entry


def euler_phi(m: int) -> int:
    return _reduction_table(m)[0]


@dataclass(frozen=True)
class CyclotomicInt:
    """An element of Z[zeta_m] on the reduced power basis."""

    order: int
    coeffs: tuple

    def __post_init__(self):
        phi = euler_phi(self.order)
        if len(self.coeffs) != phi:
            raise DomainError(f"coefficient vector must have length phi({self.order}) = {phi}")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_exponent_vector(m: int, vec) -> "CyclotomicInt":
        """Reduce an integer vector indexed by exponents 0..m-1."""
        phi, rows, matrix, max_entry = _reduction_table(m)
        if len(vec) != m:
            raise DomainError("exponent vector must have length m")
        peak = max((abs(v) for v in vec), default=0)
        if peak and peak * max_entry * m < _INT64_GUARD:
            out = np.asarray(vec, dtype=np.int64) @ matrix
            return CyclotomicInt(m, tuple(int(c) for c in out))
        acc = [0] * phi
        for k, v in enumerate(vec):
            if v:
                row = rows[k]
                for i in range(phi):
                    acc[i] += v * row[i]
        return CyclotomicInt(m, tuple(acc))

    @staticmethod
    def from_int(m: int, n: int) -> "CyclotomicInt":
        vec = [0] * m
        vec[0] = n
        return CyclotomicInt.from_exponent_vector(m, vec)

    @staticmethod
    def zeta(m: int, k: int = 1) -> "CyclotomicInt":
        vec = [0] * m
        vec[k % m] = 1
        return CyclotomicInt.from_exponent_vector(m, vec)

    # -- ring operations ------------------------------------------------

    def _match(self, other):
        if not isinstance(other, CyclotomicInt):
            other = CyclotomicInt.from_int(self.order, int(other))
        if other.order != self.order:
            raise DomainError("orders differ; embed into a common order first")
        return other

    def __add__(self, other):
        other = self._match(other)
        return CyclotomicInt(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._match(other)
        return CyclotomicInt(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CyclotomicInt(self.order, tuple(-a for a in self.coeffs))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.order, tuple(other * a for a in self.coeffs))
        other = self._match(other)
        m = self.order
        vec = [0] * m
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        vec[(i + j) % m] += a * b
        return CyclotomicInt.from_exponent_vector(m, vec)

    def galois_twist(self, t: int) -> "CyclotomicInt":
        """Apply the automorphism zeta -> zeta^t; requires gcd(t, m) = 1."""
        m = self.order
        if gcd(t, m) != 1:
            raise DomainError(f"twist exponent {t} is not invertible modulo {m}")
        vec = [0] * m
        for i, a in enumerate(self.coeffs):
            if a:
                vec[(i * t) % m] += a
        return CyclotomicInt.from_exponent_vector(m, vec)

    def embed(self, bigger: int) -> "CyclotomicInt":
        """Image under zeta_m = zeta_M^(M/m); requires m | M."""
        m = self.order
        if bigger % m != 0:
            raise DomainError(f"{m} does not divide {bigger}")
        scale = bigger // m
        vec = [0] * bigger
        for i, a in enumerate(self.coeffs):
            vec[(i * scale) % bigger] += a
        return CyclotomicInt.from_exponent_vector(bigger, vec)

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def rational_value(self) -> int:
        """The element as a plain integer, if it is one."""
        if any(self.coeffs[1:]):
            raise DomainError("element is not a rational integer")
        return self.coeffs[0]

    def complex_value(self) -> complex:
        root = cmath.exp(2j * cmath.pi / self.order)
        return sum(c * root**k for k, c in enumerate(self.coeffs))


def complex_abs2(z: CyclotomicInt) -> float:
    """|z|^2 under the embedding zeta_m -> exp(2 pi i / m)."""
    return abs(z.complex_value()) ** 2


# ---------------------------------------------------------------------------
# multiplicative characters and Gauss sums


@dataclass(frozen=True)
class MultChar:
    """Character of F_q^*: x -> zeta_(q-1)^(c * dlog x)."""

    ctx: FieldContext
    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", self.index % (self.ctx.q - 1) if self.ctx.q > 2 else 0)

    @property
    def is_trivial(self) -> bool:
        return self.index == 0

    def inverse(self) -> "MultChar":
        return MultChar(self.ctx, -self.index)

    def value_on_minus_one(self) -> int:
        """chi(-1) as +1 or -1."""
        ctx = self.ctx
        if ctx.p == 2:
            return 1
        half = (ctx.q - 1) // 2
        return -1 if (self.index * half) % (ctx.q - 1) == half else 1


def gauss_order(ctx: FieldContext) -> int:
    return lcm(ctx.p, ctx.q - 1) if ctx.q > 2 else ctx.p


def gauss_sum(ctx: FieldContext, chi: MultChar) -> CyclotomicInt:
    """tau(chi) = sum over x in F_q^* of chi(x)^(-1) zeta_p^(trace x).

    Returned in Z[zeta_m] with m = lcm(p, q-1); the trivial character
    gives the rational integer -1.
    """
    if chi.ctx is not ctx:
        raise DomainError("character belongs to a different field context")
    m = gauss_order(ctx)
    mult_step = m // (ctx.q - 1) if ctx.q > 2 else 0
    add_step = m // ctx.p
    vec = [0] * m
    # entry k of trace_by_log is Tr(g^k)
    for k, t in enumerate(ctx.trace_by_log):
        vec[((-chi.index * k) * mult_step + t * add_step) % m] += 1
    return CyclotomicInt.from_exponent_vector(m, vec)


def gauss_product_check(ctx: FieldContext, chi: MultChar) -> bool:
    """Exact identity tau(chi) tau(chi^(-1)) = chi(-1) q for nontrivial chi."""
    if chi.is_trivial:
        raise DomainError("the product identity concerns nontrivial characters")
    m = gauss_order(ctx)
    tau = gauss_sum(ctx, chi)
    # the twist zeta_(q-1) -> zeta_(q-1)^(-1), zeta_p fixed, carries
    # tau(chi) to tau(chi^(-1)); build the exponent by CRT
    t = _crt_unit(m, ctx.p, ctx.q - 1)
    tau_conj = tau.galois_twist(t)
    rhs = CyclotomicInt.from_int(m, chi.value_on_minus_one() * ctx.q)
    return tau * tau_conj == rhs


def _crt_unit(m: int, p: int, n: int) -> int:
    """The residue mod m = lcm(p, n) that is 1 mod p and -1 mod n."""
    for t in range(1, m + 1):
        if t % p == 1 % p and t % n == (n - 1) % n and gcd(t, m) == 1:
            return t
    raise AssertionError("no CRT unit found")
