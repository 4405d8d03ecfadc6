"""Ramification data for abelian covers of curves over prime fields.

A cover is stored as combinatorial data only: the group, the prime, the
constant field degree, the base genus, and one PlaceDatum per ramified
place of the base curve.  Two families of covers are constructed from
explicit equations on the projective line (Kummer covers y^n = f and
Artin-Schreier covers y^p - y = f); arbitrary formal data can be
assembled with synthetic_cover.
"""

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import (
    CapacityError,
    ConstantExtensionError,
    CoverValidationError,
    DomainError,
    EpscharError,
    IncompleteDatumError,
    InvalidInputError,
    ReducibleCoverError,
    UnsupportedCoverError,
)
from .fields import (
    MAX_Q,
    MAX_R,
    PrimePower,
    poly_is_irreducible,
    poly_mod,
    poly_mul,
    poly_powmod,
    poly_trim,
)
from .groups import (
    AbelianGroup,
    Character,
    Subgroup,
    cyclic_character,
    intersection,
    joint,
    sylow_p_subgroup,
)
from .numutil import exact_ratio, factorize, is_prime, multiplicative_order, p_part
from .stickelberger import TameLocalDatum

INFINITY = "inf"


def _is_prime_in_range(p) -> bool:
    """is_prime(p), refusing p > MAX_Q first: trial division would not end."""
    if p > MAX_Q:
        raise CapacityError("p = %d exceeds the supported size (q <= %d)" % (p, MAX_Q))
    return is_prime(p)


def _check_degree(degree, where) -> None:
    """Refuse a residue degree past MAX_R before any p**degree is formed."""
    if degree > MAX_R:
        raise CapacityError("%s has residue degree %d > %d" % (where, degree, MAX_R))


# ---------------------------------------------------------------------------
# divisors on the projective line


def poly_string(coeffs) -> str:
    """Render ascending coefficients as a readable polynomial in x."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            xpow = "x" if i == 1 else "x^%d" % i
            terms.append(xpow if c == 1 else "%d%s" % (c, xpow))
    return "+".join(terms) if terms else "0"


class RationalFunctionDivisor:
    """Divisor on P^1 over F_p: monic irreducible places and 'inf'.

    Entries are (place, multiplicity) pairs where place is either the
    string 'inf' or a tuple of ascending coefficients of a monic
    irreducible polynomial.  Finite entries are sorted by (degree,
    coefficients); 'inf' sorts last.
    """

    def __init__(self, p, entries):
        if type(p) is not int or not _is_prime_in_range(p):
            raise InvalidInputError("p must be prime, got %r" % (p,))
        self.p = p
        seen = set()
        cleaned = []
        for place, mult in entries:
            if type(mult) is not int or mult == 0:  # a float or a bool is refused
                raise InvalidInputError("multiplicity must be a nonzero integer, got %r" % (mult,))
            if place == INFINITY:
                key = INFINITY
            else:
                poly = tuple(c % p for c in _ints(place, "a place polynomial"))
                if poly_trim(list(poly)) != list(poly):
                    raise InvalidInputError("polynomial has trailing zeros: %r" % (place,))
                if len(poly) < 2 or poly[-1] != 1:
                    raise InvalidInputError("place polynomial must be monic nonconstant")
                _check_degree(len(poly) - 1, "a place polynomial")
                if not poly_is_irreducible(poly, p):
                    raise InvalidInputError(
                        "reducible place polynomial %s over F_%d" % (poly_string(poly), p)
                    )
                key = poly
            if key in seen:
                raise InvalidInputError("duplicate place in divisor")
            seen.add(key)
            cleaned.append((key, mult))
        cleaned.sort(key=lambda e: (1, 0, ()) if e[0] == INFINITY else (0, len(e[0]), e[0]))
        self.entries = tuple(cleaned)

    @staticmethod
    def place_degree(place) -> int:
        return 1 if place == INFINITY else len(place) - 1

    @staticmethod
    def place_label(place) -> str:
        return INFINITY if place == INFINITY else poly_string(place)

    def degree_sum(self) -> int:
        return sum(self.place_degree(pl) * m for pl, m in self.entries)

    def has_infinity(self) -> bool:
        return any(pl == INFINITY for pl, _ in self.entries)

    def completed(self) -> "RationalFunctionDivisor":
        """Append the infinite place so the degree-weighted sum vanishes."""
        if self.has_infinity():
            if self.degree_sum() != 0:
                raise InvalidInputError("divisor is not principal: degree sum nonzero")
            return self
        rest = -self.degree_sum()
        entries = list(self.entries)
        if rest != 0:
            entries.append((INFINITY, rest))
        return RationalFunctionDivisor(self.p, entries)

    def is_divisible_by(self, ell: int) -> bool:
        return all(m % ell == 0 for _, m in self.entries)

    def function_label(self) -> str:
        """Label of the associated function, product of monic powers."""
        parts = []
        for pl, m in self.entries:
            if pl == INFINITY:
                continue
            base = self.place_label(pl)
            if len(pl) > 2 or any(c for c in pl[:-1]):
                base = "(%s)" % base
            parts.append(base if m == 1 else "%s^%d" % (base, m))
        return "*".join(parts) if parts else "1"

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunctionDivisor)
            and self.p == other.p
            and self.entries == other.entries
        )

    def __repr__(self):
        body = ", ".join("%s:%d" % (self.place_label(pl), m) for pl, m in self.entries)
        return "RationalFunctionDivisor(p=%d, %s)" % (self.p, body)


# ---------------------------------------------------------------------------
# place and cover data


@dataclass(eq=False)
class PlaceDatum:
    """Local data of one ramified place of the base curve.

    degree is the residue degree over F_p.  The tame character is the
    action on the cotangent line at a chosen point above the place:
    a character of the inertia subgroup whose kernel is exactly the
    wild subgroup.  conductor_overrides maps characters of the cover
    group to conductor exponents >= 2; it is only consulted at places
    that are wildly ramified for the character, and only for covers
    that are not declared weakly ramified.
    """

    label: str
    p: int
    degree: int
    inertia: Subgroup
    decomposition: Subgroup
    tame_char: Character
    conductor_overrides: dict = None

    @property
    def e(self) -> int:
        return self.inertia.order

    @cached_property
    def e_w(self) -> int:
        return p_part(self.inertia.order, self.p)

    @cached_property
    def e_t(self) -> int:
        return self.inertia.order // self.e_w

    @property
    def f(self) -> int:
        return self.decomposition.order // self.inertia.order

    @cached_property
    def wild_subgroup(self) -> Subgroup:
        return sylow_p_subgroup(self.inertia, self.p)

    @cached_property
    def tame_generator(self):
        """The element t of order e_t with tame_char(t) = 1/e_t, or None.

        It generates the tame part of the inertia group; validation makes
        sure that it exists.
        """
        n = self.inertia.root.exponent
        one = n // self.e_t % n  # the numerator of 1/e_t
        xi = self.tame_char
        return next((t for t in self.inertia.elements()
                     if xi.numerator(t) == one and self.inertia.element_order(t) == self.e_t), None)

    @property
    def is_wild(self) -> bool:
        return self.e_w > 1

    @cached_property
    def tame_powers(self) -> dict:
        """Each k < e_t under the key of tame_char^k on inertia (Subgroup._key).

        A key holds the integer numerators N chi(b), N the root exponent,
        on the basis elements b of inertia.  Where tame_char is not
        faithful on the tame part, powers share a key and the smallest k
        keeps it.
        """
        key, xi = self.inertia._key, self.tame_char.vector
        return {key(tuple([k * a for a in xi])): k for k in reversed(range(self.e_t))}

    @cached_property
    def tame_local_datum(self) -> TameLocalDatum:
        """The residue field F_(p^degree) with this place's e_t and e_w."""
        return TameLocalDatum(PrimePower(self.p, self.degree), self.e_t, self.e_w)

    def tame_index(self, chi: Character) -> int:
        """Index d in Z/e_t with tame_char^d = chi on the tame quotient."""
        if self.tame_generator is None:
            raise DomainError("the tame character is not faithful on the tame part of inertia")
        return chi.numerator(self.tame_generator) * self.e_t // self.inertia.root.exponent

    def ramification_kind(self, chi: Character) -> str:
        """How chi sees this place: 'unramified', 'tame' or 'wild'.

        Read from chi's memoised restriction keys: a key lists chi's values
        on generators of the subgroup, so it is all zero exactly when chi
        is trivial there.
        """
        if not any(self.inertia._key(chi.vector)):
            return "unramified"
        if not any(self.wild_subgroup._key(chi.vector)):
            return "tame"
        return "wild"

    def conductor(self, chi: Character, weakly_ramified: bool) -> int:
        kind = self.ramification_kind(chi)
        if kind == "unramified":
            return 0
        if kind == "tame":
            return 1
        if self.conductor_overrides is not None and chi in self.conductor_overrides:
            return self.conductor_overrides[chi]
        if weakly_ramified:
            return 2
        raise IncompleteDatumError(
            "place %s: conductor of a wildly ramified character is not determined "
            "by the datum; supply conductor_overrides" % self.label
        )

    def different_exponent(self) -> int:
        """Exponent of the different at points above this place (weak case)."""
        return (self.e - 1) + (self.e_w - 1)

    def twisted(self, j: int) -> "PlaceDatum":
        """Replace the chosen point above the place by its Frobenius^j image.

        The cotangent character at the new point is the p^j-th power of
        the old one; all other local data is unchanged.
        """
        k = pow(self.p, j % max(1, self.degree * self.f), self.e_t) if self.e_t > 1 else 1
        return replace(self, tame_char=self.tame_char**k)

    def __repr__(self):
        return "PlaceDatum(%s, deg=%d, e_t=%d, e_w=%d, f=%d)" % (
            self.label,
            self.degree,
            self.e_t,
            self.e_w,
            self.f,
        )


@dataclass(eq=False)
class CoverDatum:
    """An abelian cover of a curve over F_p, reduced to its ramification data.

    r is the degree over F_p of the field of constants of the base
    curve; g_base the genus of the base curve over that field.  kind
    records how the datum was built ('kummer', 'artin-schreier' or
    'synthetic').  divisor is the divisor of f in the equation of a
    constructed cover, y^n = f (n the group order) or y^p - y = f, and
    None for synthetic and subcover data.  g_cover is the genus of the
    covering curve when the datum determines it (r = 1): constructed
    covers take it from their equation, subcover data from the parent
    cover, and synthetic data from the different on request.
    """

    group: object
    p: int
    r: int
    g_base: int
    places: tuple
    weakly_ramified: bool
    kind: str
    divisor: RationalFunctionDivisor = None
    g_cover: int = None

    def characters(self):
        return self.group.characters()

    def wild_places(self):
        return tuple(q for q in self.places if q.is_wild)

    @property
    def function_label(self) -> str:
        """f as summary() names it: its factors in y^n = f, its poles in y^p - y = f."""
        if self.kind == "kummer":
            return self.divisor.function_label()
        return "poles at " + ", ".join(self.divisor.place_label(pl) for pl, m in self.divisor.entries if m < 0)

    def summary(self) -> str:
        inv = getattr(self.group, "invariant_factors", None)
        if inv is None:
            gname = "order-%d subgroup" % self.group.order
        else:
            gname = "Z/" + " x Z/".join(str(m) for m in inv) if inv else "1"
        tail = "" if self.divisor is None else ", f=%s" % self.function_label
        return "%s cover (%s, p=%d, r=%d, g_base=%d, %d ramified place(s)%s)" % (
            self.kind,
            gname,
            self.p,
            self.r,
            self.g_base,
            len(self.places),
            tail,
        )

    def __repr__(self):
        return "CoverDatum(%s)" % self.summary()


def _ramification_total(n, places):
    """The Riemann-Hurwitz sum of n deg(q) d_q / e_q over the places; e_q divides n."""
    return sum(n // q.e * q.degree * q.different_exponent() for q in places)


def _genus(n, g_base, ramification):
    """g from 2g - 2 = n (2 g_base - 2) + ramification, all integers."""
    total = 2 * n * (g_base - 1) + ramification
    if total % 2 != 0:
        raise CoverValidationError("genus-integral", "2g-2 = %s is not an even integer" % total)
    if total < -2:
        raise CoverValidationError("genus-integral", "computed genus %s" % (total // 2 + 1))
    return total // 2 + 1


def riemann_hurwitz_genus(n, g_base, places):
    """Genus of the cover from the base genus and the different.

    2 g_X - 2 = n (2 g_base - 2) + sum_q n deg(q) d_q / e_q where the
    different exponent d_q is (e-1) + (e_w-1) at weakly ramified places.
    """
    return _genus(n, g_base, _ramification_total(n, places))


def _check_type(value, kind, what) -> None:
    """Refuse a value whose type is not exactly kind: a float or a bool is no int."""
    if type(value) is not kind:
        raise CoverValidationError("type", "%s must be of type %s, got %r" % (what, kind.__name__, value))


def validate_cover(cover: CoverDatum) -> None:
    """Check the structural invariants of a cover datum.

    Raises CoverValidationError naming the violated invariant.  A stored
    g_cover must agree with the different of the places, so on a
    constructed cover the equation is checked against its places.
    """
    group = cover.group
    for name, kind in (("p", int), ("r", int), ("g_base", int), ("weakly_ramified", bool)):
        _check_type(getattr(cover, name), kind, name)
    if not _is_prime_in_range(cover.p):
        raise CoverValidationError("prime", "p = %r is not prime" % (cover.p,))
    if cover.r < 1:
        raise CoverValidationError("constants", "r must be >= 1")
    if cover.g_base < 0:
        raise CoverValidationError("genus", "g_base must be >= 0")
    labels = [q.label for q in cover.places]
    for label in labels:
        _check_type(label, str, "a place label")
    if len(set(labels)) != len(labels):
        raise CoverValidationError("labels-distinct", "duplicate place labels")
    for q in cover.places:
        where = "place %s" % q.label
        if q.p != cover.p:
            raise CoverValidationError("prime", "%s carries a different prime" % where)
        _check_type(q.degree, int, "the degree of " + where)
        if q.degree < 1:
            raise CoverValidationError("degree", "%s has nonpositive degree" % where)
        _check_degree(q.degree, where)
        for x in (x for sub in (q.inertia, q.decomposition) for g in sub.generators for x in g):
            _check_type(x, int, "a generator coordinate at " + where)
        if q.inertia.root != group.root or q.decomposition.root != group.root:
            raise CoverValidationError("subgroup-root", "%s subgroups live in another group" % where)
        if not q.inertia.is_subset_of(group) or not q.decomposition.is_subset_of(group):
            raise CoverValidationError("subgroup-containment", "%s subgroups exceed the cover group" % where)
        if not q.inertia.is_subset_of(q.decomposition):
            raise CoverValidationError(
                "inertia-in-decomposition", "%s inertia not inside decomposition" % where
            )
        if q.e <= 1:
            raise CoverValidationError("place-ramified", "%s is unramified and must not be stored" % where)
        if q.e_t > 1 and pow(cover.p, q.degree, q.e_t) != 1:
            raise CoverValidationError(
                "tame-roots-of-unity",
                "%s: e_t = %d does not divide p^deg - 1 = %d" % (where, q.e_t, cover.p**q.degree - 1),
            )
        xi = q.tame_char
        if xi.domain != q.inertia:
            raise CoverValidationError("tame-character", "%s tame character not on inertia" % where)
        if xi.order != q.e_t or not xi.trivial_on(q.wild_subgroup):
            raise CoverValidationError(
                "tame-character",
                "%s tame character must have order e_t with kernel the wild subgroup" % where,
            )
        if q.conductor_overrides is not None:
            for chi, cd in q.conductor_overrides.items():
                if chi.domain != group:
                    raise CoverValidationError(
                        "conductor-domain", "%s conductor override keyed off-group" % where
                    )
                _check_type(cd, int, "a conductor at " + where)
                if q.ramification_kind(chi) != "wild":
                    raise CoverValidationError(
                        "conductor-overrides",
                        "%s override given for a character that is not wildly ramified" % where,
                    )
                if cd < 2:
                    raise CoverValidationError(
                        "conductor-overrides", "%s wild conductor must be >= 2" % where
                    )
                if cover.weakly_ramified and cd != 2:
                    raise CoverValidationError(
                        "weak-conductor", "%s conductor %d > 2 on a weakly ramified cover" % (where, cd)
                    )
        if cover.weakly_ramified and q.e_t > 1 and q.e_w > 1:
            raise CoverValidationError(
                "dichotomy",
                "%s has e_t = %d and e_w = %d; weak ramification forces one of them to be 1"
                % (where, q.e_t, q.e_w),
            )
    if cover.g_cover is not None:
        if cover.r != 1:
            raise CoverValidationError("genus", "g_cover is only meaningful for r = 1")
        expected = riemann_hurwitz_genus(group.order, cover.g_base, cover.places)
        if expected != cover.g_cover:
            raise CoverValidationError(
                "genus-integral", "stored g_cover = %d but the different gives %d" % (cover.g_cover, expected)
            )


def _assemble(group, p, places, kind, r=1, g_base=0, weakly_ramified=True, divisor=None,
              g_cover=None) -> CoverDatum:
    """The validated datum: every constructor of a cover ends here."""
    cover = CoverDatum(group=group, p=p, r=r, g_base=g_base, places=tuple(places),
                       weakly_ramified=weakly_ramified, kind=kind, divisor=divisor, g_cover=g_cover)
    validate_cover(cover)
    return cover


def _divisor_over(p, divisor) -> RationalFunctionDivisor:
    """divisor as a RationalFunctionDivisor over F_p; one over another prime is refused."""
    if not isinstance(divisor, RationalFunctionDivisor):
        return RationalFunctionDivisor(p, divisor)
    if divisor.p != p:
        raise InvalidInputError("the divisor lives over F_%r, not over F_%r" % (divisor.p, p))
    return divisor


# ---------------------------------------------------------------------------
# Kummer covers y^n = f


def kummer_cover(p: int, n: int, divisor) -> CoverDatum:
    """Cover of P^1 over F_p given by y^n = f, f the function of the divisor.

    Requires n | p - 1 so that the cover is geometrically abelian
    without extending constants.  The divisor lists the finite zeros
    and poles of f as monic irreducible polynomials with multiplicities;
    the infinite place is completed automatically (f is the product of
    monic polynomial powers, so its leading unit at infinity is 1).
    """
    if n < 2:
        raise InvalidInputError("n must be >= 2")
    if not _is_prime_in_range(p):
        raise InvalidInputError("p must be prime")
    if (p - 1) % n != 0:
        raise ConstantExtensionError(
            "y^n = f with n = %d needs the n-th roots of unity in F_%d; n must divide p - 1" % (n, p)
        )
    divisor = _divisor_over(p, divisor).completed()
    for ell in factorize(n):
        if divisor.is_divisible_by(ell):
            raise ReducibleCoverError(
                "div(f) is divisible by %d, so y^%d = f is not irreducible" % (ell, n)
            )

    group = AbelianGroup((n,))
    places = []
    for place, m in divisor.entries:
        g = gcd(n, m % n)
        e = n // g
        if e == 1:
            continue  # unramified
        deg = divisor.place_degree(place)
        m_red = (m // g) % e  # prime to e
        # Frobenius moves the g-th root y^e / pi^(m/g) of the leading unit u
        # of f here by the power-residue symbol w = u^((q-1)/g), q = p^deg:
        # a g-th root of unity, so in F_p, whose order is the residue degree.
        # f is a product of monic factors, so u = 1 at infinity.
        residual = 1
        if place != INFINITY:
            modulus, q1 = list(place), p**deg - 1
            w = [1]
            for other, mo in divisor.entries:
                if other != place and other != INFINITY:
                    power = poly_powmod(list(other), mo * (q1 // g) % q1, modulus, p)
                    w = poly_mod(poly_mul(w, power, p), modulus, p)
            residual = multiplicative_order(w[0], p)
        inertia = group.subgroup([(g % n,)])
        decomposition = group.subgroup([(n // (e * residual),)])
        # uniformizer t = y^a pi^b with a m' + b e = 1 transforms by zeta_e^a
        a = pow(m_red, -1, e)
        xi = cyclic_character(inertia, (g % n,), a)
        places.append(
            PlaceDatum(
                label=divisor.place_label(place),
                p=p,
                degree=deg,
                inertia=inertia,
                decomposition=decomposition,
                tame_char=xi,
            )
        )
    # the equation's genus: 2g - 2 = -2n + sum over v of deg(v) (n - gcd(n, m_v))
    ramification = sum(divisor.place_degree(pl) * (n - gcd(n, m)) for pl, m in divisor.entries)
    return _assemble(group, p, places, "kummer", divisor=divisor, g_cover=_genus(n, 0, ramification))


# ---------------------------------------------------------------------------
# Artin-Schreier covers y^p - y = f


def artin_schreier_cover(p: int, divisor) -> CoverDatum:
    """Cover of P^1 over F_p given by y^p - y = f.

    Only the pole part of the divisor is used; every pole must be
    simple, which is exactly the weakly ramified case.  Entries with
    positive multiplicity (zeros of f) carry no ramification and are
    ignored.  A function with a simple pole is never of the form
    h^p - h + c, so the cover is automatically irreducible; at least
    one pole is required.
    """
    if not _is_prime_in_range(p):
        raise InvalidInputError("p must be prime")
    divisor = _divisor_over(p, divisor)
    poles = [(pl, m) for pl, m in divisor.entries if m < 0]
    if not poles:
        raise ReducibleCoverError("y^p - y = f needs at least one pole of f")
    for pl, m in poles:
        if m != -1:
            raise UnsupportedCoverError(
                "pole of order %d at %s: only simple poles are weakly ramified"
                % (-m, divisor.place_label(pl))
            )

    group = AbelianGroup((p,))
    full = group.full_subgroup()
    xi = full.trivial_character()  # tame quotient is trivial
    places = [
        PlaceDatum(
            label=divisor.place_label(pl),
            p=p,
            degree=divisor.place_degree(pl),
            inertia=full,
            decomposition=full,
            tame_char=xi,
        )
        for pl, _ in poles
    ]
    # the equation's genus: 2g - 2 = -2p + sum over the poles v of 2 deg(v) (p - 1)
    ramification = sum(2 * divisor.place_degree(pl) * (p - 1) for pl, _ in poles)
    return _assemble(group, p, places, "artin-schreier", divisor=divisor,
                     g_cover=_genus(p, 0, ramification))


# ---------------------------------------------------------------------------
# synthetic covers


def synthetic_cover(group, p, r, g_base, places, weakly_ramified=True, compute_genus=False):
    """Assemble a cover datum from explicitly given local data.

    places may mix PlaceDatum objects and keyword dictionaries; the
    datum is validated but nothing is derived from an equation.  The
    genus of the cover is computed from the different only on request
    (requires r = 1 and weak ramification).
    """
    built = []
    for i, q in enumerate(places):
        if isinstance(q, PlaceDatum):
            built.append(q)
            continue
        spec = dict(q)
        spec.setdefault("label", "q%d" % i)
        spec.setdefault("p", p)
        built.append(PlaceDatum(**spec))
    g_cover = None
    if compute_genus:
        if r != 1:
            raise UnsupportedCoverError("genus computation needs r = 1")
        g_cover = riemann_hurwitz_genus(group.order, g_base, built)
    return _assemble(group, p, built, "synthetic", r, g_base, weakly_ramified, g_cover=g_cover)


def random_weakly_ramified_cover(rng):
    """Random synthetic weakly ramified datum for sweep tests.

    Inertia is cyclic of prime-to-p order with a faithful cotangent
    character at tame places, and elementary abelian of p-power order
    with trivial cotangent character at wild places, so the dichotomy
    holds by construction.  Tame places are emitted either as pairs
    with inverse cotangent characters or singly with e = 2 and even
    degree: real covers satisfy a global reciprocity that makes the
    structure element integral, and these two patterns reproduce it.
    """
    shapes = [
        (2,),
        (3,),
        (4,),
        (5,),
        (6,),
        (8,),
        (9,),
        (10,),
        (12,),
        (2, 2),
        (2, 4),
        (2, 6),
        (3, 3),
        (2, 2, 2),
        (2, 12),
        (4, 4),
        (18,),
        (24,),
    ]
    group = AbelianGroup(rng.choice(shapes))
    p = rng.choice([2, 2, 3, 3, 5, 7])
    r = rng.choice([1, 1, 2, 3])
    g_base = rng.choice([0, 0, 1, 2])
    elements = group.elements()

    def random_decomposition(inertia):
        if rng.random() < 0.5:
            # quotient by inertia is generated by one class, hence cyclic
            return joint(inertia, group.subgroup([rng.choice(elements)]))
        return inertia

    places = []
    for _ in range(rng.randrange(4)):  # zero to three place draws
        wild_possible = group.order % p == 0
        make_wild = wild_possible and rng.random() < 0.4
        if make_wild:
            p_elements = [g for g in elements if group.element_order(g) == p]
            gens = rng.sample(p_elements, k=min(len(p_elements), rng.choice([1, 1, 2])))
            inertia = group.subgroup(gens)
            places.append((inertia, rng.choice([1, 1, 2]), inertia.trivial_character()))
            continue
        tame_elts = [
            g
            for g in elements
            if group.element_order(g) % p != 0 and group.element_order(g) > 1
        ]
        if not tame_elts:
            continue
        t = rng.choice(tame_elts)
        inertia = group.subgroup([t])
        e = inertia.order
        k = rng.choice([a for a in range(1, e) if gcd(a, e) == 1])
        xi = cyclic_character(inertia, t, k)
        degree = multiplicative_order(p % e, e) * rng.choice([1, 1, 2])
        if e == 2 and rng.random() < 0.5:
            degree = degree if degree % 2 == 0 else 2 * degree
            places.append((inertia, degree, xi))
        else:
            places.append((inertia, degree, xi))
            places.append((inertia, degree, xi.inverse()))
    data = [
        PlaceDatum(
            label="q%d" % i,
            p=p,
            degree=degree,
            inertia=inertia,
            decomposition=random_decomposition(inertia),
            tame_char=xi,
        )
        for i, (inertia, degree, xi) in enumerate(places)
        if inertia.order > 1
    ]
    return synthetic_cover(group, p, r, g_base, data, weakly_ramified=True)


# ---------------------------------------------------------------------------
# passing to subcovers


def subcover_data(cover: CoverDatum, sub) -> CoverDatum:
    """Data of the cover X -> X/H for a subgroup H of the cover group.

    Places of X/H above a place q of the base: [G : H D_q] of them, each
    with inertia H n I_q, decomposition H n D_q, residue degree
    deg(q) f_q |H n I_q| / |H n D_q|, and the restricted cotangent
    character.  The base genus of the new datum is the genus of X/H,
    solved from the different of X -> X/H; this needs the genus of X,
    so the cover must be constructed (or carry g_cover).
    """
    if cover.g_cover is None:
        raise UnsupportedCoverError(
            "subcover data needs the genus of the covering curve; "
            "synthetic data does not determine it"
        )
    if cover.r != 1:
        raise UnsupportedCoverError("subcover data is only implemented over constants F_p")
    h = sub.full_subgroup()
    if h.root != cover.group.root or not h.is_subset_of(cover.group):
        raise InvalidInputError("H is not a subgroup of the cover group")

    new_places = []
    for q in cover.places:
        inertia = intersection(h, q.inertia)
        decomposition = intersection(h, q.decomposition)
        # [G : H D_q], with |H D_q| = |H| |D_q| / |H n D_q|
        count = cover.group.order * decomposition.order // (h.order * q.decomposition.order)
        deg = q.degree * q.f * inertia.order // decomposition.order
        if q.degree * q.f * inertia.order % decomposition.order != 0:
            raise CoverValidationError("subcover-degree", "degree above %s not integral" % q.label)
        if inertia.order == 1:
            continue  # unramified in X -> X/H
        xi = q.tame_char.restrict(inertia)
        for i in range(count):
            label = q.label if count == 1 else "%s|%d" % (q.label, i)
            new_places.append(
                PlaceDatum(
                    label=label,
                    p=cover.p,
                    degree=deg,
                    inertia=inertia,
                    decomposition=decomposition,
                    tame_char=xi,
                )
            )
    # 2 g_X - 2 = |H| (2 g' - 2) + ramification of X -> X/H, so g' = num / (2 |H|)
    num = 2 * cover.g_cover - 2 - _ramification_total(h.order, new_places) + 2 * h.order
    if num % (2 * h.order) != 0 or num < 0:
        raise CoverValidationError("genus-integral", "quotient genus %s" % exact_ratio(num, 2 * h.order))
    return _assemble(h, cover.p, new_places, cover.kind, g_base=num // (2 * h.order),
                     weakly_ramified=cover.weakly_ramified, g_cover=cover.g_cover)


# ---------------------------------------------------------------------------
# serialization


def _divisor_to_obj(divisor: RationalFunctionDivisor):
    return [[pl if pl == INFINITY else list(pl), m] for pl, m in divisor.entries]


def _divisor_from_obj(p, obj):
    entries = []
    for item in obj:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise InvalidInputError("divisor entries must be [place, multiplicity] pairs")
        place, mult = item
        if place != INFINITY:
            place = tuple(place)
        entries.append((place, mult))
    return RationalFunctionDivisor(p, entries)


def _subgroup_to_obj(sub: Subgroup):
    return [list(g) for g in sub.generators]


def _character_to_obj(chi: Character):
    return [[list(g), list(chi.value(g).as_integer_ratio())] for g in chi.domain.generators]


def _ints(values, what) -> tuple:
    """values as a tuple of ints; a float or a bool is refused, as validate_cover does."""
    values = tuple(values)
    if any(type(x) is not int for x in values):
        raise InvalidInputError("%s must hold only integers, got %r" % (what, list(values)))
    return values


def _character_from_obj(sub: Subgroup, obj) -> Character:
    targets = [(_ints(g, "an element"), Fraction(*_ints(value, "a character value")))
               for g, value in obj]
    for chi in sub.characters():
        if all(chi.value(g) == v for g, v in targets):
            return chi
    raise InvalidInputError("no character of the subgroup matches the stored values")


def cover_to_json(cover: CoverDatum) -> str:
    """Serialize a cover datum to a canonical JSON string.

    Constructed covers are stored by their defining divisor; synthetic
    covers field by field.  Subcover data (group a proper subgroup) is
    not serializable.
    """
    if cover.divisor is not None:
        obj = {"kind": cover.kind, "p": cover.p, "divisor": _divisor_to_obj(cover.divisor)}
        if cover.kind == "kummer":
            obj["n"] = cover.group.order
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if not isinstance(cover.group, AbelianGroup):
        raise UnsupportedCoverError("only covers of the full group are serializable")
    places = []
    for q in cover.places:
        entry = {
            "label": q.label,
            "degree": q.degree,
            "inertia": _subgroup_to_obj(q.inertia),
            "decomposition": _subgroup_to_obj(q.decomposition),
            "tame_char": _character_to_obj(q.tame_char),
        }
        if q.conductor_overrides:
            entry["conductors"] = sorted(
                [list(chi.vector), cd] for chi, cd in q.conductor_overrides.items()
            )
        places.append(entry)
    obj = {
        "kind": "synthetic",
        "group": list(cover.group.invariant_factors),
        "p": cover.p,
        "r": cover.r,
        "g_base": cover.g_base,
        "weakly_ramified": cover.weakly_ramified,
        "places": places,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _distinct_keys(pairs) -> dict:
    """object_pairs_hook of read_json: the object, refusing a key given twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InvalidInputError("repeated key %r" % key)
        obj[key] = value
    return obj


def read_json(text: str, prefix: str):
    """json.loads(text) with distinct keys in every object; InvalidInputError
    otherwise, its message starting with prefix."""
    try:
        return json.loads(text, object_pairs_hook=_distinct_keys)
    except (ValueError, RecursionError) as exc:  # bad JSON, a repeated key, too many digits or too deep
        raise InvalidInputError("%s: %s" % (prefix, exc)) from None


# the keys each kind of cover JSON reads, and those of a synthetic place; any other is refused
_JSON_KEYS = {
    "kummer": ("kind", "p", "n", "divisor"),
    "artin-schreier": ("kind", "p", "divisor"),
    "synthetic": ("kind", "group", "p", "r", "g_base", "weakly_ramified", "places"),
}
_PLACE_KEYS = ("label", "degree", "inertia", "decomposition", "tame_char", "conductors")


def _refuse_unknown_keys(obj, keys, what) -> None:
    for key in obj:
        if key not in keys:
            raise InvalidInputError("%s takes no key %r" % (what, key))


def cover_from_json(text: str) -> CoverDatum:
    """Rebuild a cover datum from its JSON form; raises InvalidInputError."""
    obj = read_json(text, "invalid JSON")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidInputError("cover JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _JSON_KEYS:
        raise InvalidInputError("unknown cover kind %r" % (kind,))
    _refuse_unknown_keys(obj, _JSON_KEYS[kind], "%s cover JSON" % kind)
    try:
        if kind != "synthetic":
            divisor = _divisor_from_obj(obj["p"], obj["divisor"])
            if kind == "kummer":
                return kummer_cover(obj["p"], obj["n"], divisor)
            return artin_schreier_cover(obj["p"], divisor)
        group = AbelianGroup(tuple(obj["group"]))
        places = []
        for entry in obj["places"]:
            _refuse_unknown_keys(entry, _PLACE_KEYS, "a place entry")
            inertia = group.subgroup([tuple(g) for g in entry["inertia"]])
            decomposition = group.subgroup([tuple(g) for g in entry["decomposition"]])
            overrides = None
            if "conductors" in entry:
                overrides = {
                    group.character(_ints(exps, "a character's exponents")): cd
                    for exps, cd in entry["conductors"]
                }
            places.append(
                PlaceDatum(
                    label=entry["label"],
                    p=obj["p"],
                    degree=entry["degree"],
                    inertia=inertia,
                    decomposition=decomposition,
                    tame_char=_character_from_obj(inertia, entry["tame_char"]),
                    conductor_overrides=overrides,
                )
            )
        return synthetic_cover(
            group,
            obj["p"],
            obj.get("r", 1),
            obj.get("g_base", 0),
            places,
            weakly_ramified=obj.get("weakly_ramified", True),
        )
    except EpscharError:
        raise
    except KeyError as exc:
        raise InvalidInputError("cover JSON is missing field %s" % exc) from None
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError("malformed cover JSON: %s" % exc) from None
