"""Exact arithmetic in rings of cyclotomic integers Z[zeta_m].

Elements are integer coefficient vectors of length phi(m) on the power
basis 1, zeta, ..., zeta^(phi(m)-1), fully reduced modulo the m-th
cyclotomic polynomial, so equality is tuple equality.  A product is one
big-integer multiply by Kronecker substitution: each vector is packed
into an int with 64-bit slots, the two ints are multiplied, and the
slots are read back as the coefficients.  While phi(m) <= 24, or while a
coefficient of the product could reach 2^63, it is a double loop over
the coefficients instead.  Either way the exponents are folded modulo m
(zeta^m = 1); the reduction then folds the top half onto the bottom half
with a minus sign when m is even (zeta^(m/2) = -1) and long-divides by
the monic Phi_m, all in Python integers.
"""

from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from sys import byteorder
import cmath

from .errors import DomainError
from .fields import FieldContext


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
def _reducer(m: int):
    """phi(m) and the nonzero terms (i, c_i) of Phi_m below its leading term."""
    cyc = cyclotomic_polynomial(m)
    phi = len(cyc) - 1
    return phi, tuple((i, c) for i, c in enumerate(cyc[:phi]) if c)


def euler_phi(m: int) -> int:
    return _reducer(m)[0]


# up to this phi(m) the double loop is faster than packing
_LOOP_MAX_PHI = 24
_HALF_SLOT = 1 << 63


def _pack(coeffs) -> int:
    """sum c_k 2^(64k), as the packed positive part minus the packed negative part."""
    pos = array("Q", [c if c > 0 else 0 for c in coeffs]).tobytes()
    neg = array("Q", [-c if c < 0 else 0 for c in coeffs]).tobytes()
    return int.from_bytes(pos, byteorder) - int.from_bytes(neg, byteorder)


@lru_cache(maxsize=None)
def _slot_offset(n: int) -> int:
    """sum 2^63 2^(64k) over k < n."""
    return int.from_bytes(array("Q", [_HALF_SLOT]).tobytes() * n, byteorder)


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
        phi, terms = _reducer(m)
        if len(vec) != m:
            raise DomainError("exponent vector must have length m")
        if m % 2 == 0:
            half = m // 2
            acc = [a - b for a, b in zip(vec[:half], vec[half:])]
        else:
            acc = list(vec)
        # zeta^d = -sum c_i zeta^(d - phi + i), from the top degree down
        for d in range(len(acc) - 1, phi - 1, -1):
            c = acc[d]
            if c:
                base = d - phi
                for i, ci in terms:
                    acc[base + i] -= c * ci
        return CyclotomicInt(m, tuple(acc[:phi]))

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
            raise DomainError("cyclotomic orders differ")
        return other

    def __add__(self, other):
        other = self._match(other)
        return CyclotomicInt(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._match(other)
        return CyclotomicInt(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.order, tuple(other * a for a in self.coeffs))
        other = self._match(other)
        m = self.order
        xs, ys = self.coeffs, other.coeffs
        vec = [0] * m
        # a product coefficient is a sum of at most phi terms a_i b_j
        bound = len(xs) * max(map(abs, xs)) * max(map(abs, ys)) if len(xs) > _LOOP_MAX_PHI else 0
        if 0 < bound < _HALF_SLOT:
            # Kronecker substitution at x = 2^64: slot k of the packed
            # product plus the offset is coefficient k plus 2^63
            n = 2 * len(xs) - 1
            packed = (_pack(xs) * _pack(ys) + _slot_offset(n)).to_bytes(8 * n, byteorder)
            for k, c in enumerate(array("Q", packed)):
                vec[k % m] += c - _HALF_SLOT
        else:
            for i, a in enumerate(xs):
                if a:
                    for j, b in enumerate(ys):
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

    # -- inspection -------------------------------------------------------

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
