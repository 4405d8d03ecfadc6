"""Exact arithmetic in rings of cyclotomic integers Z[zeta_m].

Elements are integer coefficient vectors of length phi(m) on the power
basis 1, zeta, ..., zeta^(phi(m)-1), fully reduced modulo the m-th
cyclotomic polynomial, so equality is tuple equality.

Products and reductions run on packed integers (Kronecker substitution):
a vector c_0, c_1, ... is the int sum c_k 2^(bits k), where bits is the
narrowest of 16, 32 and 64 whose signed half holds every coefficient
the next product can have.  Each slot is stored offset by 2^(bits-1),
so packing and unpacking are one pass through an unsigned array.

A product is one big-integer multiply of the two packed vectors, or a
double loop over the coefficients while phi(m) <= 24 or a coefficient
could reach 2^63.  Its exponents, like those of an exponent vector,
are folded onto m/2 of them with a minus sign when m is even
(zeta^(m/2) = -1) and onto m of them otherwise (zeta^m = 1).  The
exponents from phi(m) up are then divided away by the monic Phi_m by
Barrett's method: the quotient is the top half of the packed product of
the top coefficients with mu = x^h div Phi_m, and the remainder is the
bottom coefficients minus the quotient times Phi_m below its leading
term, one more packed product.  Small shapes, and any whose slots could
reach 2^63, long-divide by Phi_m in a loop over its nonzero terms
instead.  All of it is in Python integers.
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


def _folded_length(m: int) -> int:
    """How many exponents are left after zeta^(m/2) = -1 (m even) or zeta^m = 1."""
    return m // 2 if m % 2 == 0 else m


def _fold(m: int, coeffs) -> list:
    """A vector on fewer than 2 _folded_length(m) exponents, folded onto the
    first _folded_length(m)."""
    size = _folded_length(m)
    head, tail = list(coeffs[:size]), coeffs[size:]
    if m % 2 == 0:
        acc = [a - b for a, b in zip(head, tail)]
    else:
        acc = [a + b for a, b in zip(head, tail)]
    return acc + head[len(acc):] + [0] * (size - len(head))


# up to this phi(m) the double loop is faster than packing
_LOOP_MAX_PHI = 24
# up to this many multiply-subtracts (quotient rows times nonzero terms of
# Phi_m) the long-division loop is faster than Barrett's two products
_LOOP_MAX_WORK = 600
# unsigned array codes of the slot widths, narrowest first
_SLOT_CODES = {16: "H", 32: "I", 64: "Q"}


def _slot_bits(bound: int) -> int:
    """The narrowest slot width whose signed half holds |c| <= bound, or 0 if none does."""
    for bits in _SLOT_CODES:
        if bound < 1 << (bits - 1):
            return bits
    return 0


def _pack(coeffs, bits: int) -> int:
    """sum c_k 2^(bits k), for |c_k| < 2^(bits-1)."""
    half = 1 << (bits - 1)
    raw = array(_SLOT_CODES[bits], [c + half for c in coeffs]).tobytes()
    return int.from_bytes(raw, byteorder) - _slot_offset(len(coeffs), bits)[0]


def _unpack(x: int, n: int, bits: int) -> list:
    """c_0, ..., c_(n-1) of x = sum c_k 2^(bits k), where every |c_k| < 2^(bits-1)."""
    half = 1 << (bits - 1)
    offset, mask = _slot_offset(n, bits)
    raw = ((x + offset) & mask).to_bytes(bits * n // 8, byteorder)
    return [c - half for c in array(_SLOT_CODES[bits], raw)]


@lru_cache(maxsize=None)
def _slot_offset(n: int, bits: int):
    """sum 2^(bits-1) 2^(bits k) over k < n, and the mask of those n slots."""
    slot = array(_SLOT_CODES[bits], [1 << (bits - 1)]).tobytes()
    return int.from_bytes(slot * n, byteorder), (1 << (bits * n)) - 1


def _long_divide(acc: list, phi: int, terms) -> list:
    """Divide acc in place by the monic Phi_m of degree phi with nonzero lower
    terms (i, c_i); acc[:phi] is left as the remainder.  Returns the quotient."""
    quot = [0] * (len(acc) - phi)
    # zeta^d = -sum c_i zeta^(d - phi + i), from the top degree down
    for d in range(len(acc) - 1, phi - 1, -1):
        c = acc[d]
        if c:
            base = d - phi
            quot[base] = c
            for i, ci in terms:
                acc[base + i] -= c * ci
    return quot


@lru_cache(maxsize=None)
def _barrett(m: int):
    """mu = x^h div Phi_m with h = _folded_length(m) - 1, and Phi_m below its
    leading term, each with its largest |coefficient|."""
    phi, terms = _reducer(m)
    top = [0] * _folded_length(m)
    top[-1] = 1
    mu = _long_divide(top, phi, terms)
    low = list(cyclotomic_polynomial(m)[:phi])
    return mu, max(map(abs, mu), default=0), low, max(map(abs, low))


@lru_cache(maxsize=None)
def _packed_barrett(m: int, bits: int):
    """mu and Phi_m below its leading term, packed in slots of bits."""
    mu, _, low, _ = _barrett(m)
    return _pack(mu, bits), _pack(low, bits)


def _reduce(m: int, acc: list) -> tuple:
    """A vector on the _folded_length(m) exponents, reduced modulo Phi_m."""
    phi, terms = _reducer(m)
    rows = len(acc) - phi
    if rows * len(terms) > _LOOP_MAX_WORK:
        mu, mu_max, low, low_max = _barrett(m)
        top, bottom = acc[phi:], acc[:phi]
        # a quotient coefficient is a sum of at most rows terms top_i mu_j
        bits = _slot_bits(rows * max(map(abs, top)) * mu_max)
        if bits:
            packed_mu = _packed_barrett(m, bits)[0]
            quot = _unpack(_pack(top, bits) * packed_mu, 2 * rows - 1, bits)[rows - 1:]
            bits = _slot_bits(min(rows, phi) * max(map(abs, quot)) * low_max + max(map(abs, bottom)))
            if bits:
                packed_low = _packed_barrett(m, bits)[1]
                return tuple(_unpack(_pack(bottom, bits) - _pack(quot, bits) * packed_low, phi, bits))
    _long_divide(acc, phi, terms)
    return tuple(acc[:phi])


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
        if len(vec) != m:
            raise DomainError("exponent vector must have length m")
        return CyclotomicInt(m, _reduce(m, _fold(m, vec)))

    @staticmethod
    def from_int(m: int, n: int) -> "CyclotomicInt":
        # degree 0 is already reduced, as phi(m) >= 1
        return CyclotomicInt(m, (n,) + (0,) * (euler_phi(m) - 1))

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
        # a product coefficient is a sum of at most phi terms a_i b_j, and
        # the slots must hold the factors themselves too
        phi = len(xs)
        bits = 0
        if phi > _LOOP_MAX_PHI:
            x_max, y_max = max(map(abs, xs)), max(map(abs, ys))
            bits = _slot_bits(max(phi * x_max * y_max, x_max, y_max))
        if bits:
            product = _unpack(_pack(xs, bits) * _pack(ys, bits), 2 * phi - 1, bits)
            return CyclotomicInt(m, _reduce(m, _fold(m, product)))
        vec = [0] * m
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
        value = 0j
        for c in reversed(self.coeffs):
            value = value * root + c
        return value


def complex_abs2(z: CyclotomicInt) -> float:
    """|z|^2 under the embedding zeta_m -> exp(2 pi i / m)."""
    return abs(z.complex_value()) ** 2


# ---------------------------------------------------------------------------
# multiplicative characters and Gauss sums


@dataclass(frozen=True)
class MultChar:
    """Character of F_q^*: g^k -> zeta_(q-1)^(c k) for the canonical generator g."""

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
    return _gauss_sum(ctx, chi.index)


# gauss_product_check asks again for the tau its caller has just made
@lru_cache(maxsize=1)
def _gauss_sum(ctx: FieldContext, index: int) -> CyclotomicInt:
    m = gauss_order(ctx)
    mult_step = m // (ctx.q - 1) if ctx.q > 2 else 0
    add_step = m // ctx.p
    vec = [0] * m
    # entry k of trace_by_log is Tr(g^k)
    for k, t in enumerate(ctx.trace_by_log):
        vec[((-index * k) * mult_step + t * add_step) % m] += 1
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


@lru_cache(maxsize=None)
def _crt_unit(m: int, p: int, n: int) -> int:
    """The residue mod m = lcm(p, n) that is 1 mod p and -1 mod n."""
    for t in range(1, m + 1):
        if t % p == 1 % p and t % n == (n - 1) % n and gcd(t, m) == 1:
            return t
    raise AssertionError("no CRT unit found")
