"""Finite abelian groups, their characters, and the cde triangle.

Every group is a Subgroup: an element set with generators inside a root
AbelianGroup, the product of cyclic groups Z/n_1 x ... x Z/n_k given by
an invariant-factor chain, whose elements are exponent tuples.  The root
is the Subgroup of all its own elements.  Subcovers and inertia groups
are proper Subgroups of the root.

A Character is its domain plus an exponent vector a over the root's
invariant factors, chi(g) = sum a_i g_i / n_i mod 1.  Restriction keeps
the vector and shrinks the domain, so on a proper subgroup several
vectors give one character; characters compare by their values on a
basis that depends only on the domain's element set.

K0Element models virtual modules at one of three levels:

* "char0"       - K_0 of the group algebra in characteristic zero,
                  basis all characters;
* "modules"     - the modular Grothendieck group of finitely generated
                  modules, basis the characters of order prime to p;
* "projectives" - the modular Grothendieck group of projectives, basis
                  the projective covers Cov(theta), labeled by the same
                  prime-to-p characters.

decomposition_map (d), cartan_map (c) and e_map (e) form the usual
commuting triangle c = d o e; restrict and induce are exact-adjoint as
Frobenius reciprocity demands.  Every coefficient is exact: an int when
it is integral, and a Fraction only otherwise.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, lcm, prod
from operator import index, mod, mul

from .errors import (
    CapacityError,
    DomainError,
    GroupMismatchError,
    InvalidInputError,
    LevelError,
)
from .numutil import exact_ratio, p_part

LEVEL_CHAR0 = "char0"
LEVEL_MODULES = "modules"
LEVEL_PROJECTIVES = "projectives"
LEVELS = (LEVEL_CHAR0, LEVEL_MODULES, LEVEL_PROJECTIVES)

# Largest supported group order.  verify-all on a synthetic cover of this
# order with no places takes about 10 s for the slowest shape, (Z/2)^15;
# larger groups are refused before their elements are enumerated.
MAX_GROUP_ORDER = 2**15


def _extend(root, have, g):
    """Element set of the subgroup generated by the element set have and g."""
    out = set(have)
    step = g
    while step not in have:
        out.update(root.mul(h, step) for h in have)
        step = root.mul(step, g)
    return out


class Subgroup:
    """A subgroup of a root AbelianGroup, stored as its element set."""

    def __init__(self, root, elements, generators=None):
        self.root = root
        self.element_set = frozenset(elements)
        if self.identity not in self.element_set:
            raise DomainError("subgroup must contain the identity")
        self._elements = tuple(sorted(self.element_set))
        self._characters = None
        self._keys = {}
        self._key_lists = {}
        self._reductions = {}
        self.generators = self.basis if generators is None else tuple(generators)

    @staticmethod
    def generated(root, generators) -> "Subgroup":
        gens = [tuple(g) for g in generators]
        for g in gens:
            if not root.contains(g):
                raise DomainError(f"{g} is not an element of the root group")
        have = {root.identity}
        for g in gens:
            # a generator already in the set adds nothing, and copying the
            # set for it would make a list of all elements quadratic
            if g not in have:
                have = _extend(root, have, g)
        return Subgroup(root, have, generators=gens)

    @cached_property
    def basis(self):
        """Generators picked greedily from the sorted elements.

        They depend only on the element set, so equal subgroups share them
        and character keys computed on them are comparable.
        """
        gens = []
        have = {self.identity}
        for g in self._elements:
            if len(have) == self.order:
                break
            if g not in have:
                gens.append(g)
                have = _extend(self.root, have, g)
        return tuple(gens)

    # -- group protocol ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.element_set)

    @property
    def identity(self):
        return (0,) * len(self.root.invariant_factors)

    def elements(self):
        return self._elements

    def mul(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.root.invariant_factors))

    def element_order(self, a) -> int:
        return lcm(1, *(n // gcd(x, n) for x, n in zip(a, self.root.invariant_factors)))

    def contains(self, g) -> bool:
        return g in self.element_set

    def is_subset_of(self, other) -> bool:
        return self.element_set <= other.element_set

    def characters(self):
        """The |H| characters, in the order of their value tables."""
        if self._characters is None:
            # restrictions of the root characters, one per value table
            dual = {}
            for vector in self.root.elements():
                dual.setdefault(self._key(vector), vector)
            chars = [Character(self, vector) for vector in dual.values()]
            self._characters = tuple(sorted(chars, key=lambda chi: chi.sort_key))
        return self._characters

    def trivial_character(self) -> "Character":
        return Character(self, self.identity)

    def subgroup(self, generators) -> "Subgroup":
        sub = Subgroup.generated(self.root, generators)
        if not sub.is_subset_of(self):
            raise DomainError("generators leave the subgroup")
        return sub

    def full_subgroup(self) -> "Subgroup":
        """This group as a Subgroup object; the root gets a fresh one."""
        return Subgroup(self.root, self.element_set) if self is self.root else self

    @cached_property
    def _key_rows(self):
        """For each basis element g, the weights w_i g_i: N chi(g) is vector . row."""
        return tuple(tuple(map(mul, self.root._weights, g)) for g in self.basis)

    def _key(self, vector):
        """Values, times the root exponent, of a character vector on the basis.

        Memoised in this object under the vector reduced mod the invariant
        factors, so the memo never holds more than |root| entries.  It holds
        only the group-theoretic restriction map, which Character.__init__
        computes anyway, and no term of any multiplicity or epsilon route.
        The "regenerated subgroups" invariance variant builds new Subgroup
        objects, so it starts from empty memos.
        """
        key = self._keys.get(vector)
        if key is None:
            vector = tuple(map(mod, vector, self.root.invariant_factors))
            key = self._keys.get(vector)
            if key is None:
                n = self.root.exponent
                key = tuple(sum(map(mul, vector, row)) % n for row in self._key_rows)
                self._keys[vector] = key
        return key

    def restriction_keys(self, group) -> list:
        """_key(chi.vector) for each chi of group.characters(), as one list.

        Memoised in this object, like _keys, under the identity of the group:
        equal groups may list their characters in different orders.  An
        entry keeps its group alive, so no other group can take its id.
        The memo holds only the restriction map on a whole character tuple.
        """
        entry = self._key_lists.get(id(group))
        if entry is None:
            key = self._key
            keys = [key(chi.vector) for chi in group.characters()]
            entry = self._key_lists[id(group)] = (group, keys)
        return entry[1]

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self is other or (
            self.root.invariant_factors == other.root.invariant_factors
            and self.element_set == other.element_set
        )

    def __hash__(self):
        return hash((self.root.invariant_factors, self.element_set))

    def __repr__(self):
        if self is self.root:
            return f"AbelianGroup{self.invariant_factors}"
        return f"Subgroup(order={self.order} of {self.root})"


class AbelianGroup(Subgroup):
    """Product of Z/n_i with n_1 | n_2 | ... (trivial group: empty tuple)."""

    def __init__(self, invariant_factors):
        fs = tuple(invariant_factors)
        for n in fs:
            if type(n) is not int or n < 2:  # a float or a bool is no invariant factor
                raise InvalidInputError("invariant factors must be integers >= 2, got %r" % (n,))
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise InvalidInputError(f"invariant factors must form a divisibility chain, got {fs}")
        order = prod(fs)
        if order > MAX_GROUP_ORDER:
            raise CapacityError(
                f"group of order {order} exceeds the supported order {MAX_GROUP_ORDER}"
            )
        self.invariant_factors = fs
        self.exponent = fs[-1] if fs else 1
        self._weights = tuple(self.exponent // n for n in fs)
        super().__init__(self, product(*map(range, fs)))

    def characters(self):
        """All characters, in the order of their exponent vectors."""
        if self._characters is None:
            # exponent vectors range over the same tuples as the elements
            self._characters = tuple(Character(self, vector) for vector in self.elements())
        return self._characters

    def character(self, exponents) -> "Character":
        """Character with chi(std generator i) = exp(2 pi i a_i / n_i)."""
        return Character(self, exponents)


def intersection(a: Subgroup, b: Subgroup) -> Subgroup:
    if a.root != b.root:
        raise GroupMismatchError("subgroups of different roots")
    return Subgroup(a.root, a.element_set & b.element_set)


def joint(a: Subgroup, b: Subgroup) -> Subgroup:
    """Subgroup generated by a and b together."""
    if a.root != b.root:
        raise GroupMismatchError("subgroups of different roots")
    return Subgroup.generated(a.root, list(a.generators) + list(b.generators))


def sylow_p_subgroup(group, p: int) -> Subgroup:
    """Unique Sylow p-subgroup of an abelian group: the image of g -> g^m,
    m the prime-to-p part of the order."""
    m = group.order // p_part(group.order, p)
    factors = group.root.invariant_factors
    return Subgroup(group.root, {tuple(m * x % n for x, n in zip(g, factors))
                                 for g in group.elements()})


# ---------------------------------------------------------------------------


class Character:
    """Character of a finite abelian group as an exponent vector on its root."""

    __slots__ = ("domain", "vector", "_key", "_hash")

    def __init__(self, domain, vector):
        factors = domain.root.invariant_factors
        if len(vector) != len(factors):
            raise DomainError("exponent vector has wrong length")
        self.domain = domain
        self.vector = tuple(index(a) % n for a, n in zip(vector, factors))
        self._key = domain._key(self.vector)
        self._hash = hash((domain, self._key))

    def numerator(self, g) -> int:
        """N chi(g), an integer mod the root exponent N."""
        if not self.domain.contains(g):
            raise DomainError(f"{g} is not in the domain of the character")
        root = self.domain.root
        return sum(map(mul, map(mul, self.vector, root._weights), g)) % root.exponent

    def value(self, g) -> Fraction:
        return Fraction(self.numerator(g), self.domain.root.exponent)

    @property
    def sort_key(self):
        """Orders characters like their value tables on the sorted elements:
        each element outside the greedy basis lies in the span of the basis
        elements before it, so two tables first differ at a basis element."""
        return self._key

    @property
    def order(self) -> int:
        n = self.domain.root.exponent
        return n // gcd(n, *self._key)

    def __mul__(self, other):
        if self.domain != other.domain:
            raise GroupMismatchError("characters of different groups")
        return Character(self.domain, tuple(a + b for a, b in zip(self.vector, other.vector)))

    def __pow__(self, n: int):
        return Character(self.domain, tuple(n * a for a in self.vector))

    def inverse(self):
        return self**-1

    def restrict(self, sub) -> "Character":
        if not sub.is_subset_of(self.domain):
            raise DomainError("can only restrict to a subgroup of the domain")
        return Character(sub, self.vector)

    def trivial_on(self, group) -> bool:
        return not any(group._key(self.vector))

    def prime_to_p_part(self, p: int) -> "Character":
        n = self.order
        np = p_part(n, p)
        if np == 1:
            return self
        npp = n // np
        # exponent that is 1 mod the prime-to-p order and 0 mod the p-part
        return self**(np * pow(np, -1, npp))

    def has_prime_to_p_order(self, p: int) -> bool:
        return self.order % p != 0

    def __eq__(self, other):
        return isinstance(other, Character) and self._key == other._key \
            and self.domain == other.domain

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Character({char_label(self)})"


def cyclic_character(sub: Subgroup, generator, k: int) -> Character:
    """Character of a cyclic subgroup sending generator^j to exp(2 pi i jk/e)."""
    e = sub.order
    if not sub.contains(generator) or sub.element_order(generator) != e:
        raise DomainError("generator does not generate the subgroup")
    target = Fraction(k % e, e)
    return next(chi for chi in sub.characters() if chi.value(generator) == target)


def char_label(chi: Character) -> str:
    """Deterministic short label; exponent form over a root group."""
    dom = chi.domain
    if dom is dom.root:
        return "chi(" + ",".join(str(a) for a in chi.vector) + ")"
    parts = [f"{chi.value(g)}" for g in dom.generators]
    return "chi{" + ",".join(parts) + "}"


# ---------------------------------------------------------------------------


class K0Element:
    """Virtual module over a group at one of the three levels."""

    __slots__ = ("group", "level", "coeffs", "p")

    def __init__(self, group, level, coeffs=None, p=None):
        if level not in LEVELS:
            raise LevelError(f"unknown level {level!r}")
        if level != LEVEL_CHAR0 and p is None:
            raise LevelError(f"level {level!r} requires the prime p")
        self.group = group
        self.level = level
        self.p = p
        clean = {}
        for chi, coef in (coeffs or {}).items():
            if type(coef) is not int:
                coef = exact_ratio(coef.numerator, coef.denominator)
            if not coef:
                continue
            if chi.domain is not group and chi.domain != group:
                raise GroupMismatchError("basis character over the wrong group")
            if level != LEVEL_CHAR0 and not chi.has_prime_to_p_order(p):
                raise LevelError("basis labels at modular levels must have prime-to-p order")
            clean[chi] = coef
        self.coeffs = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(group, level=LEVEL_CHAR0, p=None):
        return K0Element(group, level, {}, p)

    @staticmethod
    def of_character(chi: Character, level=LEVEL_CHAR0, p=None):
        return K0Element(chi.domain, level, {chi: 1}, p)

    @staticmethod
    def regular(group, level, p):
        """[k[G]]: all characters at char0, all projective covers at projectives."""
        if level == LEVEL_CHAR0:
            basis = group.characters()
        else:
            basis = modular_basis(group, p)
        return K0Element(group, level, {chi: 1 for chi in basis}, p)

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other):
        if self.group != other.group or self.level != other.level:
            raise GroupMismatchError("elements live in different K-groups")
        if self.p is not None and other.p is not None and self.p != other.p:
            raise GroupMismatchError("elements carry different primes")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for chi, c in other.coeffs.items():
            out[chi] = out.get(chi, 0) + c
        return K0Element(self.group, self.level, out, self.p or other.p)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = exact_ratio(c.numerator, c.denominator)
        return K0Element(self.group, self.level,
                         {chi: c * v for chi, v in self.coeffs.items()}, self.p)

    def coefficient(self, chi) -> int | Fraction:
        return self.coeffs.get(chi, 0)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, K0Element):
            return NotImplemented
        if self.level != LEVEL_CHAR0 and self.p != other.p:
            return False
        return self.group == other.group and self.level == other.level \
            and self.coeffs == other.coeffs

    def __hash__(self):
        tag = None if self.level == LEVEL_CHAR0 else self.p
        return hash((self.group, self.level, tag,
                     frozenset(self.coeffs.items())))

    def __repr__(self):
        terms = ", ".join(f"{c}*{char_label(chi)}" for chi, c in self.sorted_items())
        return f"K0[{self.level}]({terms or '0'})"

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key)


# Equal groups label their characters by their own generators, and a root
# and its full subgroup label and order them differently, so this cache
# is keyed by the generators too and typed to keep the two apart.
@lru_cache(maxsize=None, typed=True)
def _modular_basis_cached(group, generators, p):
    return tuple(chi for chi in group.characters() if chi.has_prime_to_p_order(p))


def modular_basis(group, p):
    """Characters of prime-to-p order: simple and projective labels alike."""
    return _modular_basis_cached(group, group.generators, p)


# -- the cde triangle ---------------------------------------------------


def decomposition_map(x: K0Element) -> K0Element:
    """char0 -> modules: a character maps to its prime-to-p part at x.p."""
    if x.level != LEVEL_CHAR0:
        raise LevelError("decomposition_map starts at level char0")
    if x.p is None:
        raise LevelError("decomposition_map needs the prime p")
    group, p = x.group, x.p
    reductions = _prime_to_p_parts(group, p)
    out = {}
    for chi, c in x.coeffs.items():
        # an equal group may label its characters by other generators
        red = reductions[chi] if chi.domain is group else chi.prime_to_p_part(p)
        out[red] = out.get(red, 0) + c
    return K0Element(group, LEVEL_MODULES, out, p)


def cartan_map(x: K0Element) -> K0Element:
    """projectives -> modules: multiplication by |Sylow_p(G)|."""
    if x.level != LEVEL_PROJECTIVES:
        raise LevelError("cartan_map starts at level projectives")
    scale = p_part(x.group.order, x.p)
    return K0Element(x.group, LEVEL_MODULES,
                     {chi: scale * c for chi, c in x.coeffs.items()}, x.p)


def e_map(x: K0Element) -> K0Element:
    """projectives -> char0: Cov(theta) -> sum of characters over theta."""
    if x.level != LEVEL_PROJECTIVES:
        raise LevelError("e_map starts at level projectives")
    # chi has the coefficient of its prime-to-p part; K0Element drops the zeros
    reductions = _prime_to_p_parts(x.group, x.p)
    out = {chi: x.coefficient(theta) for chi, theta in reductions.items()}
    return K0Element(x.group, LEVEL_CHAR0, out, x.p)


def _prime_to_p_parts(group, p) -> dict:
    """chi -> chi.prime_to_p_part(p) for each chi of group.characters().

    Memoised in the group object under p, like Subgroup._keys, and not by
    group equality: over a proper subgroup the reductions are labelled by
    the generators of their own domain, which equal groups need not share.
    """
    table = group._reductions.get(p)
    if table is None:
        table = group._reductions[p] = {chi: chi.prime_to_p_part(p) for chi in group.characters()}
    return table


def pairing(x: K0Element, y: K0Element) -> int | Fraction:
    """Orthonormal character pairing (char0 x char0), or <Cov theta, M>."""
    if x.group != y.group:
        raise GroupMismatchError("pairing needs a common group")
    ok = (x.level == LEVEL_CHAR0 and y.level == LEVEL_CHAR0) or \
        (x.level == LEVEL_PROJECTIVES and y.level == LEVEL_MODULES)
    if not ok:
        raise LevelError(f"no pairing between {x.level} and {y.level}")
    total = 0
    for chi, c in x.coeffs.items():
        total += c * y.coefficient(chi)
    return exact_ratio(total.numerator, total.denominator)


def restrict(x: K0Element, sub) -> K0Element:
    """Restriction along H <= G at char0 or modules level."""
    if x.level == LEVEL_PROJECTIVES:
        raise LevelError("restrict is defined at char0 and modules levels")
    if sub.root != x.group.root or not sub.is_subset_of(x.group):
        raise GroupMismatchError("can only restrict to a subgroup")
    # chi restricts to the character of sub with the same key on sub
    by_key = {psi._key: psi for psi in sub.characters()}
    out = {}
    for chi, c in x.coeffs.items():
        res = by_key[sub._key(chi.vector)]
        out[res] = out.get(res, 0) + c
    return K0Element(sub, x.level, out, x.p)


def induce(x: K0Element, group) -> K0Element:
    """Induction from x.group up to group, at char0 or projectives level.

    Ind(theta) = sum of the [G:H] characters of G restricting to theta;
    at the projectives level the same rule runs over the modular bases.
    """
    if x.level == LEVEL_MODULES:
        raise LevelError("induce is defined at char0 and projectives levels")
    sub = x.group
    # element tuples of unrelated groups can collide, so compare roots too
    if sub.root != group.root or not sub.is_subset_of(group):
        raise GroupMismatchError("can only induce from a subgroup")
    if x.level == LEVEL_CHAR0:
        basis = group.characters()
    else:
        basis = modular_basis(group, x.p)
    # a character of G restricts to theta when their keys on H agree
    by_key = {theta._key: c for theta, c in x.coeffs.items()}
    out = {}
    for chi in basis:
        c = by_key.get(sub._key(chi.vector))
        if c:
            out[chi] = c
    return K0Element(group, x.level, out, x.p)
