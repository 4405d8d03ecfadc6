"""Exact arithmetic in small finite fields F_q, q = p^r.

Field elements are coefficient tuples of length r over Z/p (entry i is
the coefficient of x^i), reduced modulo a fixed monic irreducible
modulus.  A FieldContext fixes the modulus and a multiplicative
generator g, and tabulates Tr(g^k) for k < q - 1, so character sums
downstream are exact table lookups.  Construction is deterministic:
the modulus is the first monic irreducible of degree r in the numeric
coefficient order (a_0 + a_1 p + ... smallest first) and the generator
is the first primitive element in the same order.

The polynomial helpers work over Z/n for any n: fields and covers call
them with n = p, and the p-adic oracle with n = p^M on the same field
modulus.  power_table streams the powers of g by a linear map:
multiplication by g is Z/n-linear, so each power is its r x r matrix
applied to the previous one.  The powers are streamed, not stored:
each consumer keeps only what it derives from them.

Intended for desk-scale fields (q <= 10**6), not for cryptography.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul

from .errors import CapacityError, DomainError, InvalidInputError
from .numutil import factorize, is_prime

MAX_Q = 10**6
MAX_R = 12

FqElem = tuple  # coefficient tuple of length r, entries in range(p)


@dataclass(frozen=True)
class PrimePower:
    p: int
    r: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidInputError(f"p = {self.p} is not prime")
        if self.r < 1:
            raise InvalidInputError(f"r = {self.r} must be >= 1")

    @property
    def q(self) -> int:
        return self.p**self.r


# ---------------------------------------------------------------------------
# polynomial helpers over Z/n (coefficient lists, ascending powers)


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_pad(c, r) -> tuple:
    """A reduced polynomial as its r-tuple of coefficients."""
    return tuple(c) + (0,) * (r - len(c))


def poly_mul(a, b, n):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % n
    return poly_trim(out)


def poly_mod(a, m, n):
    """a mod m with m monic."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1] % n
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % n
        a.pop()
    return poly_trim(a)


def poly_gcd(a, b, p):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        bm = [(inv * c) % p for c in b]
        a, b = b, poly_mod(a, bm, p)
    return a


def poly_powmod(a, e, m, n):
    """a^e mod (n, m) for e >= 0, by square-and-multiply."""
    if e < 0:
        raise DomainError("negative exponents are not supported")
    result = [1]
    base = poly_mod(a, m, n)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, n), m, n)
        base = poly_mod(poly_mul(base, base, n), m, n)
        e >>= 1
    return result


def power_table(g, modulus, n, count):
    """Yield g^0, ..., g^(count-1) mod (n, modulus) as coefficient tuples.

    Multiplication by g is Z/n-linear: row j of its matrix holds
    coefficient j of g x^i for each basis monomial x^i, so each power
    is that matrix applied to the previous one.  g must be reduced.
    """
    r = len(modulus) - 1
    cols = [poly_pad(poly_mod([0] * i + list(g), modulus, n), r) for i in range(r)]
    matrix = tuple(zip(*cols))
    t = poly_pad([1], r)
    yield t
    for _ in range(count - 1):
        t = tuple(sum(map(mul, row, t)) % n for row in matrix)
        yield t


def poly_is_irreducible(coeffs, p) -> bool:
    """Monic polynomial over F_p irreducible?

    Uses the factor sieve: f of degree r is irreducible iff it shares no
    factor with x^(p^i) - x for i <= r//2 and x^(p^r) = x mod f.
    """
    f = poly_trim([c % p for c in coeffs])
    r = len(f) - 1
    if r < 1 or f[-1] != 1:
        return False
    if r == 1:
        return True
    xq = [0, 1]
    for _ in range(1, r // 2 + 1):
        xq = poly_powmod(xq, p, f, p)  # xq = x^(p^i) mod f
        diff = list(xq) + [0] * (2 - len(xq))
        diff[1] = (diff[1] - 1) % p  # x^(p^i) - x
        g = poly_gcd(f, poly_trim(diff), p)
        if len(g) - 1 >= 1:
            return False
    for _ in range(r // 2 + 1, r + 1):
        xq = poly_powmod(xq, p, f, p)
    return poly_trim(xq) == [0, 1]


# ---------------------------------------------------------------------------


class FieldContext:
    """Arithmetic context for F_q with fixed modulus and generator (its powers are not stored)."""

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = self._find_modulus()
        self.one = poly_pad([1], r)
        self.generator = self._find_generator()

    # -- construction -------------------------------------------------

    def _find_modulus(self):
        p, r = self.p, self.r
        if r == 1:
            return (0, 1)  # the polynomial x; F_p[x]/(x) = F_p
        for enc in range(p**r):
            cand = list(self.element_from_int(enc)) + [1]
            if poly_is_irreducible(cand, p):
                return tuple(cand)
        raise AssertionError("no irreducible polynomial found")

    def _find_generator(self):
        # the first element in numeric order whose order is q - 1
        q = self.q
        factors = factorize(q - 1)
        for enc in range(1, q):
            g = self.element_from_int(enc)
            if all(self.pow(g, (q - 1) // f) != self.one for f in factors):
                return g
        raise AssertionError("no primitive element found")

    # -- element plumbing ----------------------------------------------

    def element_from_int(self, enc: int) -> FqElem:
        coeffs = []
        for _ in range(self.r):
            coeffs.append(enc % self.p)
            enc //= self.p
        return tuple(coeffs)

    def check(self, x: FqElem):
        if len(x) != self.r or any(not (0 <= c < self.p) for c in x):
            raise DomainError(f"{x} is not a reduced element of F_{self.q}")

    # -- arithmetic ------------------------------------------------------

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return poly_pad(poly_mod(poly_mul(a, b, self.p), self.modulus, self.p), self.r)

    def pow(self, a, e):
        return poly_pad(poly_powmod(a, e, self.modulus, self.p), self.r)

    # -- the two operations everything downstream leans on -------------

    def trace(self, x: FqElem) -> int:
        """Absolute trace to F_p: sum of x^(p^i), i < r.  Returns an int."""
        self.check(x)
        acc = x
        t = x
        for _ in range(self.r - 1):
            t = self.pow(t, self.p)
            acc = self.add(acc, t)
        if any(acc[1:]):
            raise AssertionError("trace left the prime field")
        return acc[0]

    @cached_property
    def trace_by_log(self) -> tuple:
        """Entry k is Tr(g^k) for the canonical generator g, k < q - 1.

        The trace is F_p-linear, so Tr(x) is the dot product of the
        coefficients of x with the traces of the basis monomials x^i.
        """
        p, r = self.p, self.r
        basis = [self.trace(poly_pad([0] * i + [1], r)) for i in range(r)]
        powers = power_table(self.generator, self.modulus, p, self.q - 1)
        return tuple(sum(a * t for a, t in zip(x, basis)) % p for x in powers)


@lru_cache(maxsize=None)
def make_field(p: int, r: int) -> FieldContext:
    """Deterministic context for F_(p^r); bounds: r <= 12, p^r <= 10**6."""
    if not isinstance(p, int) or not isinstance(r, int):
        raise InvalidInputError("p and r must be integers")
    if r < 1:
        raise InvalidInputError(f"r = {r} must be >= 1")
    # the size check comes first, so a huge p is refused before trial division
    if p > 1 and (r > MAX_R or p**r > MAX_Q):
        raise CapacityError(f"F_{p}^{r} exceeds supported size (r <= {MAX_R}, q <= {MAX_Q})")
    if not is_prime(p):
        raise InvalidInputError(f"p = {p} is not prime")
    return FieldContext(p, r)
