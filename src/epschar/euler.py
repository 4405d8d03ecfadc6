"""Equivariant Euler characteristics of invariant divisors on a cover.

The central object is a structure element psi(cover, D) in the group
of projective modular representations.  It is assembled from an
explicit three-summand formula over the ramified places; despite a
1/n factor in the first summand the result is integral, and that is
asserted.  The multiplicity of a character in e(psi) is computed by
three independent routes (a closed formula, a point-by-point
enumeration, and the pairing through the cde maps), whose agreement
is one of the package's acceptance checks.  A multiplicity is exact:
an int when it is integral, and a Fraction only otherwise.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .covers import CoverDatum, PlaceDatum
from .errors import (
    DomainError,
    IntegralityError,
    InvalidInputError,
    NotWeaklyRamifiedError,
)
from .groups import (
    LEVEL_CHAR0,
    LEVEL_PROJECTIVES,
    Character,
    K0Element,
    cartan_map,
    decomposition_map,
    induce,
    modular_basis,
)
from .numutil import exact_ratio


@dataclass(frozen=True)
class LMParts:
    """The split n = (e_w - 1) + (l + m e_t) e_w with 0 <= l < e_t."""

    l: int
    m: int


class DivisorSpec:
    """Invariant divisor on the cover, one coefficient per ramified place.

    The coefficient n_q applies to every point above q; places not
    listed get 0.  Each n_q must be congruent to -1 mod e_w(q), which
    is automatic at tame places.
    """

    def __init__(self, cover: CoverDatum, coefficients=None):
        self.cover = cover
        known = {q.label: q for q in cover.places}
        coefficients = dict(coefficients or {})
        for label in coefficients:
            if label not in known:
                raise InvalidInputError("divisor names unknown place %r" % (label,))
        values = {}
        for label, q in known.items():
            n = coefficients.get(label, 0)
            if type(n) is not int:  # a float or a bool is no coefficient
                raise InvalidInputError("divisor coefficient at %s must be an integer" % label)
            if (n + 1) % q.e_w != 0:
                raise InvalidInputError(
                    "coefficient %d at %s violates n = -1 mod e_w = %d" % (n, label, q.e_w)
                )
            if n != 0:
                values[label] = n
        self.values = values

    @staticmethod
    def wild_canonical(cover: CoverDatum) -> "DivisorSpec":
        """The divisor with -1 at every point above a wild place, 0 elsewhere."""
        return DivisorSpec(cover, {q.label: -1 for q in cover.wild_places()})

    def value(self, place: PlaceDatum) -> int:
        return self.values.get(place.label, 0)

    def degree_bar(self) -> int:
        """Degree of the divisor upstairs: n deg(q)/e_q points above q, e_q | n."""
        n = self.cover.group.order
        return sum(self.value(q) * (n // q.e) * q.degree for q in self.cover.places)

    def __repr__(self):
        return "DivisorSpec(%r)" % (self.values,)


def lm_decompose(place: PlaceDatum, n: int) -> LMParts:
    """Unique (l, m) with n = (e_w - 1) + (l + m e_t) e_w, 0 <= l < e_t.

    Unramified places give (0, n), tame places solve l + m e = n, and
    wild places give (0, (n - e + 1)/e).
    """
    e_t, e_w = place.e_t, place.e_w
    if (n + 1) % e_w != 0:
        raise InvalidInputError("n = %d is not -1 mod e_w = %d" % (n, e_w))
    k = (n - (e_w - 1)) // e_w
    l = k % e_t
    return LMParts(l, (k - l) // e_t)


def _g_numerator(l: int, e: int, d: int, q_base: int, i: int) -> int:
    """e times g_term(l, e, d, q_base, i), unchecked."""
    num = d * pow(q_base, i, e) % e
    return num - e if num >= e - l else num


def g_term(l: int, e: int, d: int, q_base: int, i: int) -> Fraction:
    """The rational in [-l/e, 1-l/e) congruent to d q^i / e mod 1."""
    if not 0 <= l < e:
        raise InvalidInputError("l = %d must lie in [0, e = %d)" % (l, e))
    if not 0 <= d < e:
        raise InvalidInputError("d = %d must lie in [0, e = %d)" % (d, e))
    if i < 0 or q_base < 2:
        raise InvalidInputError("need i >= 0 and q_base >= 2")
    return Fraction(_g_numerator(l, e, d, q_base, i), e)


def _base_term(cover: CoverDatum, D: DivisorSpec) -> int:
    """r(1 - g_base) plus deg(q) m_q over the places: an integer."""
    return cover.r * (1 - cover.g_base) + sum(
        q.degree * lm_decompose(q, D.value(q)).m for q in cover.places
    )


def _weak_parts(cover: CoverDatum, D: DivisorSpec):
    """The base term, (q, l) at each tame place and L, the lcm of their e_t;
    D defaults to the canonical wild divisor.  On weak data tame places have e_w = 1."""
    if not cover.weakly_ramified:
        raise NotWeaklyRamifiedError("the structure formula needs a weakly ramified cover")
    if D is None:
        D = DivisorSpec.wild_canonical(cover)
    places = [(q, lm_decompose(q, D.value(q)).l) for q in cover.places if q.e_t > 1]
    return _base_term(cover, D), places, lcm(*(q.e_t for q, _ in places))


def psi_structure(cover: CoverDatum, D: DivisorSpec = None) -> K0Element:
    """The structure element psi(cover, D) at the projective level.

    Three summands, expanded over the fibers: above a place q there
    are n deg(q)/e_q points of the covering curve, falling into deg(q)
    Frobenius-twist classes of n/e_q points each with cotangent
    character xi^(p^j); and deg(q) points of the base change of the
    base curve.  Only tamely ramified places contribute to the first
    two summands.
    """
    base, places, L = _weak_parts(cover, D)
    group = cover.group
    p = cover.p
    basis = modular_basis(group, p)
    factors = group.root.invariant_factors
    # every coefficient is kept as an integer numerator over L, by basis index
    nums = [base * L] * len(basis)
    for q, l in places:
        e = q.e_t
        # e times the coefficient of xi^k, by k mod e: the cotangent
        # character xi has order e, and xi_j^d = xi^(p^j d)
        by_power = [0] * e
        for j in range(q.degree):
            twist = pow(p, j, e)
            for d in range(1, e):
                by_power[twist * d % e] -= d
            for d in range(1, l + 1):
                by_power[-twist * d % e] += e
        # Ind(xi^k) is the sum of the basis characters whose restriction
        # to the inertia group has the key of xi^k
        key, xi, scale = q.inertia._key, q.tame_char.vector, L // e
        by_key = {}
        for k, c in enumerate(by_power):
            if c:
                power = key(tuple(k * a % n for a, n in zip(xi, factors)))
                by_key[power] = by_key.get(power, 0) + c * scale
        for i, chi in enumerate(basis):
            nums[i] += by_key.get(key(chi.vector), 0)
    if any(c % L for c in nums):
        acc = K0Element(group, LEVEL_PROJECTIVES,
                        {chi: Fraction(c, L) for chi, c in zip(basis, nums) if c}, p=p)
        raise IntegralityError("structure element has non-integral coefficients: %r" % acc)
    return K0Element(group, LEVEL_PROJECTIVES,
                     {chi: c // L for chi, c in zip(basis, nums) if c}, p=p)


def _closed_numerator(p: int, q: PlaceDatum, l: int, chi: Character) -> int:
    """e_t times the closed form's local term: chi's g_terms at each residue embedding."""
    e, d = q.e_t, q.tame_index(chi)
    return sum(_g_numerator(l, e, d, p, i) for i in range(q.degree))


def _direct_numerator(p: int, q: PlaceDatum, l: int, chi: Character) -> int:
    """e_t times the local term of the point enumeration.

    The index of chi against the cotangent character is solved
    independently at every residue-field embedding (the f_q extensions
    of an embedding give the same composition, so the deg(q) f_q points
    collapse onto deg(q) classes weighted 1/e): chi's key on inertia is
    looked up among the keys of the cotangent character's powers, and
    each embedding divides out its Frobenius.
    """
    e = q.e_t
    # a root contains all its subgroups: test that before the O(|I|) check
    if chi.domain is not q.inertia.root and not q.inertia.is_subset_of(chi.domain):
        raise DomainError("the inertia group at %s is not in the domain of the character" % q.label)
    # chi = xi^k on all of inertia, read from chi's values on the inertia basis
    k = q.tame_powers.get(q.inertia._key(chi.vector))
    if k is None:
        raise InvalidInputError("character does not match the cotangent data at %s" % q.label)
    # at embedding j the cotangent character is xi^(p^j), so d_j = k p^(-j)
    untwist = pow(p, -1, e)
    num = 0
    for j in range(q.degree):
        d = k * pow(untwist, j, e) % e
        num += d - e if d >= e - l else d
    return num


def _multiplicity(cover: CoverDatum, D: DivisorSpec, chi: Character, numerator):
    """The multiplicity of one character along one route, summed as in
    _tabled_multiplicities: integer numerators over L, then one exact_ratio."""
    base, places, L = _weak_parts(cover, D)
    total = base * L
    p = cover.p
    for q, l in places:
        total -= numerator(p, q, l, chi) * (L // q.e_t)
    return exact_ratio(total, L)


def _tabled_multiplicities(cover: CoverDatum, D: DivisorSpec, numerator):
    """The multiplicity of each of cover.characters() along one route.

    numerator(p, q, l, chi) is e_t times the route's local term.  A local
    term depends on chi only through its restriction to the inertia
    group, so each place keeps its own table of terms under that key;
    the tables live for one call and one route.  Every term is kept as
    an integer numerator over L, the lcm of the e_t of the places, and
    each multiplicity is one exact_ratio.
    """
    base, places, L = _weak_parts(cover, D)
    chars = cover.characters()
    totals = [base * L] * len(chars)
    p = cover.p
    for q, l in places:
        table, scale = {}, L // q.e_t
        for i, (chi, k) in enumerate(zip(chars, q.inertia.restriction_keys(cover.group))):
            t = table.get(k)
            if t is None:
                t = table[k] = numerator(p, q, l, chi) * scale
            totals[i] -= t
    return [exact_ratio(total, L) for total in totals]


def multiplicity_closed(cover: CoverDatum, D: DivisorSpec, chi: Character) -> int | Fraction:
    """Closed form for the multiplicity of chi in e(psi(cover, D))."""
    return _multiplicity(cover, D, chi, _closed_numerator)


def multiplicity_direct(cover: CoverDatum, D: DivisorSpec, chi: Character) -> int | Fraction:
    """Point-enumeration form of the multiplicity of chi in e(psi(cover, D))."""
    return _multiplicity(cover, D, chi, _direct_numerator)


def multiplicities_closed(cover: CoverDatum, D: DivisorSpec = None):
    """multiplicity_closed for each of cover.characters(), from per-place tables."""
    return _tabled_multiplicities(cover, D, _closed_numerator)


def multiplicities_direct(cover: CoverDatum, D: DivisorSpec = None):
    """multiplicity_direct for each of cover.characters(), from per-place tables."""
    return _tabled_multiplicities(cover, D, _direct_numerator)


def euler_char_structure_sheaf(cover: CoverDatum) -> K0Element:
    """chi(G, X-bar, structure sheaf) in the group of modular characters.

    Computed as the Cartan image of psi at the canonical wild divisor
    plus, for each point of the base change of the base curve above a
    wild place, the modular class of the induction of the trivial
    character of the local group at that point.
    """
    psi = psi_structure(cover, DivisorSpec.wild_canonical(cover))
    return cartan_map(psi) + decomposition_map(wild_induction_term(cover))


def wild_induction_term(cover: CoverDatum) -> K0Element:
    """Sum over the wild places q of deg(q) Ind(trivial character of I_q), at char0."""
    total = K0Element.zero(cover.group, LEVEL_CHAR0, cover.p)
    for q in cover.wild_places():
        one = K0Element.of_character(q.inertia.trivial_character(), p=cover.p)
        total = total + induce(one, cover.group).scale(q.degree)
    return total
