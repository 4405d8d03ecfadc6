"""Pins for the integer miss paths of the invariance snapshot.

The reference functions below are Fraction-and-loop copies of the local
terms of the closed and direct multiplicity routes, the base term of the
multiplicities and the epsilon ledger total, as they read before those
paths moved to integer numerators.  Each is compared with the package on
the constructed corpus, the 40-cover sweep corpus, every invariance
variant of their covers, and a datum whose wild characters carry
overridden conductors.  A route's local term is its integer kernel,
_closed_numerator or _direct_numerator, over e_t; the tabled and the
per-character routes both sum those kernels, so both are pinned through
them.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from epschar import verify
from epschar.corpus import constructed_corpus, synthetic_corpus
from epschar.covers import subcover_data, synthetic_cover
from epschar.epsilon import ORACLE_STICKELBERGER, epsilon_ledgers
from epschar.errors import DomainError, EpscharError, IncompleteDatumError, InvalidInputError
from epschar.euler import (
    DivisorSpec,
    _base_term,
    _closed_numerator,
    _direct_numerator,
    lm_decompose,
    multiplicities_closed,
    multiplicities_direct,
    multiplicity_closed,
    multiplicity_direct,
)
from epschar.groups import AbelianGroup, Character, Subgroup, joint


def _overridden_cover():
    """Z/6 over F_3 with a tame place and a wild place whose wild
    characters share restrictions to inertia in pairs and carry
    conductor 3."""
    group = AbelianGroup((6,))
    full = group.full_subgroup()
    tame, wild = group.subgroup([(3,)]), group.subgroup([(2,)])
    conductors = {group.character((a,)): 3 for a in (1, 2, 4, 5)}
    places = [
        dict(label="t", degree=2, inertia=tame, decomposition=full,
             tame_char=group.character((3,)).restrict(tame)),
        dict(label="q", degree=2, inertia=wild, decomposition=full,
             tame_char=wild.trivial_character(), conductor_overrides=conductors),
    ]
    return synthetic_cover(group, 3, 1, 0, places, weakly_ramified=False)


@lru_cache(maxsize=None)
def _covers():
    """Both corpora, every invariance variant of their covers, and the overridden datum."""
    out = []
    for cover in constructed_corpus() + synthetic_corpus(40, seed=1):
        out.append(cover)
        out.extend(variant for _, variant in verify._invariance_variants(cover))
    out.append(_overridden_cover())
    return tuple(out)


def _divisors(cover):
    """The wild-canonical divisor and a seeded one with tame coefficients up to 2e."""
    rng = random.Random(cover.summary())
    return [
        DivisorSpec.wild_canonical(cover),
        DivisorSpec(
            cover,
            {q.label: -1 if q.is_wild else rng.randrange(-2, 2 * q.e + 1) for q in cover.places},
        ),
    ]


def _outcome(fn, *args):
    """The value of fn(*args), or the type and text of the error it raises."""
    try:
        return fn(*args)
    except EpscharError as exc:
        return type(exc), str(exc)


def _tame_pairs():
    """(cover, place, character) for every place with a tame part, one
    character per restriction to inertia."""
    out = []
    for cover in _covers():
        for q in cover.places:
            if q.e_t == 1:
                continue
            seen = {}
            for chi in cover.characters():
                seen.setdefault(q.inertia._key(chi.vector), chi)
            out.extend((cover, q, chi) for chi in seen.values())
    return out


# -- reference forms ----------------------------------------------------------


def _closed_term(p, q, l, chi):
    """The closed route's local term: its integer kernel over e_t."""
    return Fraction(_closed_numerator(p, q, l, chi), q.e_t)


def _direct_term(p, q, l, chi):
    """The direct route's local term: its integer kernel over e_t."""
    return Fraction(_direct_numerator(p, q, l, chi), q.e_t)


def _window(x, l, e):
    """The representative of x mod 1 in [-l/e, 1 - l/e)."""
    x %= 1
    return x - 1 if x >= 1 - Fraction(l, e) else x


def _closed_term_by_fractions(p, q, l, chi):
    e, d = q.e_t, q.tame_index(chi)
    total = Fraction(0)
    for i in range(q.degree):
        total += _window(Fraction(d * p**i, e), l, e)
    return total


def _direct_term_by_fractions(p, q, l, chi):
    e, elements, n = q.e_t, q.inertia.elements(), q.inertia.root.exponent
    # each k < e_t under the value table of xi^k on every element of inertia
    xi = [q.tame_char.numerator(t) for t in elements]
    powers = {tuple(k * x % n for x in xi): k for k in reversed(range(e))}
    k = powers.get(tuple(chi.numerator(t) for t in elements))
    if k is None:
        raise InvalidInputError("character does not match the cotangent data at %s" % q.label)
    untwist = pow(p, -1, e)
    total = Fraction(0)
    for j in range(q.degree):
        total += _window(Fraction(k * untwist**j, e), l, e)
    return total


def _base_term_by_fractions(cover, D):
    total = Fraction(cover.r * (1 - cover.g_base))
    for q in cover.places:
        total += q.degree * lm_decompose(q, D.value(q)).m
    return total


# reference terms by (route, place, restriction to inertia, l); the places
# are those of the cached _covers(), so their ids stay valid
_REFERENCE_TERMS = {}


def _reference_term(term, p, q, l, chi):
    key = (term, id(q), q.inertia._key(chi.vector), l)
    if key not in _REFERENCE_TERMS:
        _REFERENCE_TERMS[key] = _outcome(term, p, q, l, chi)
    return _REFERENCE_TERMS[key]


def _multiplicities_by_fractions(cover, D, term):
    """The multiplicity of each character, one reference term per restriction to inertia."""
    base = _base_term_by_fractions(cover, D)
    places = [(q, lm_decompose(q, D.value(q)).l) for q in cover.places if q.e_t > 1 and q.e_w == 1]
    out = []
    for chi in cover.characters():
        total = base
        for q, l in places:
            total -= _reference_term(term, cover.p, q, l, chi)
        out.append(total)
    return out


def _is_exact(v):
    """An int exactly when v is integral, else a Fraction."""
    return type(v) is (int if v.denominator == 1 else Fraction)


def _ledger_total_by_fractions(ledger):
    total = Fraction(ledger.base_term)
    for lv in ledger.locals:
        total += lv.valuation
    return total


# -- pins -------------------------------------------------------------------


def test_closed_and_direct_terms_match_the_fraction_forms():
    pairs = _tame_pairs()
    assert len(pairs) > 2000
    for cover, q, chi in pairs:
        e = q.e_t
        for l in sorted({0, e // 2, e - 1}):
            want = _reference_term(_closed_term_by_fractions, cover.p, q, l, chi)
            assert _outcome(_closed_term, cover.p, q, l, chi) == want, (q, chi, l)
            want = _reference_term(_direct_term_by_fractions, cover.p, q, l, chi)
            assert _outcome(_direct_term, cover.p, q, l, chi) == want, (q, chi, l)


def test_base_terms_match_the_fraction_sum():
    for cover in _covers():
        for D in _divisors(cover):
            want = _base_term_by_fractions(cover, D)
            assert _base_term(cover, D) == want, (cover.summary(), D)


def test_multiplicities_match_the_fraction_forms():
    checked = 0
    for cover in _covers():
        if not cover.weakly_ramified:
            continue
        for D in _divisors(cover):
            chars = cover.characters()
            closed = _multiplicities_by_fractions(cover, D, _closed_term_by_fractions)
            direct = _multiplicities_by_fractions(cover, D, _direct_term_by_fractions)
            assert list(multiplicities_closed(cover, D)) == closed, (cover.summary(), D)
            assert list(multiplicities_direct(cover, D)) == direct, (cover.summary(), D)
            # the per-character routes on a few characters of each cover
            for i in sorted({0, len(chars) // 2, len(chars) - 1}):
                assert multiplicity_closed(cover, D, chars[i]) == closed[i]
                assert multiplicity_direct(cover, D, chars[i]) == direct[i]
            checked += len(chars)
    assert checked > 5000


def test_ledger_totals_match_the_fraction_sum():
    ledgers = 0
    for cover in _covers():
        try:
            for ledger in epsilon_ledgers(cover, ORACLE_STICKELBERGER):
                got = ledger.total
                assert got == _ledger_total_by_fractions(ledger), cover.summary()
                assert _is_exact(got), cover.summary()
                negated = ledger.negated_total
                assert negated == -got and _is_exact(negated), cover.summary()
                ledgers += 1
        except IncompleteDatumError:
            pass
    assert ledgers > 1000
    # the overridden datum: r(g - 1) = -1, 1 at the tame place for odd a,
    # and deg cond / 2 = 3 at the wild place for a prime to 3
    totals = [ledger.total for ledger in epsilon_ledgers(_overridden_cover())]
    assert totals == [-1, 3, 2, 0, 2, 3]


def _kind_by_trivial_on(q, chi):
    """How chi sees place q, read by evaluating chi on generators."""
    if chi.trivial_on(q.inertia):
        return "unramified"
    if chi.trivial_on(q.wild_subgroup):
        return "tame"
    return "wild"


def test_ramification_kinds_match_the_trivial_on_rule():
    kinds = {}
    for cover in constructed_corpus() + synthetic_corpus(40, seed=1):
        data = [(cover, cover.characters())]
        if cover.g_cover is not None and cover.r == 1:
            # the subcovers and characters check_restriction reads
            for sub in verify._cyclic_subgroups(cover.group):
                data.append((subcover_data(cover, sub), sub.characters()))
        for datum, chars in data:
            for q in datum.places:
                for chi in chars:
                    kind = q.ramification_kind(chi)
                    assert kind == _kind_by_trivial_on(q, chi), (datum.summary(), q, chi)
                    kinds[kind, chi.domain is chi.domain.root] = True
    # every kind is reached, over the root and over a proper subgroup
    assert len(kinds) == 6


def _all_subgroups(root):
    """Every subgroup of root: the joins of its cyclic subgroups."""
    cyclic = {Subgroup.generated(root, [g]) for g in root.elements()}
    found, frontier = set(cyclic), list(cyclic)
    while frontier:
        frontier = [h for h in {joint(a, c) for a in frontier for c in cyclic} if h not in found]
        found.update(frontier)
    return sorted(found, key=lambda h: (h.order, h.elements()))


def _random_subgroups(root, count, seed):
    rng = random.Random(seed)
    return [root.subgroup([rng.choice(root.elements()) for _ in range(rng.randint(1, 3))])
            for _ in range(count)]


def test_key_order_is_the_value_table_order():
    """Characters sort by their keys as by their values on the sorted elements."""
    subgroups = []
    for factors in ((2,), (6,), (12,), (2, 6), (4, 4), (3, 9), (4, 8), (5, 25), (2, 2, 2),
                    (2, 2, 4), (3, 3, 3), (2, 4, 8), (2, 2, 2, 2)):
        subgroups += _all_subgroups(AbelianGroup(factors))
    for factors, seed in (((2, 6, 12), 1), ((3, 3, 9), 2), ((4, 20), 3)):
        subgroups += _random_subgroups(AbelianGroup(factors), 8, seed)
    assert len(subgroups) > 300
    for h in subgroups:
        # the subgroup's own characters, and every root vector restricted to it
        chars = list(h.characters()) + [Character(h, v) for v in h.root.elements()[::7]]
        by_table = sorted(chars, key=lambda chi: tuple(chi.numerator(g) for g in h.elements()))
        assert sorted(chars, key=lambda chi: chi.sort_key) == by_table, h
        assert list(h.characters()) == sorted(h.characters(), key=lambda chi: chi.sort_key)
        assert all(len(chi.sort_key) == len(h.basis) for chi in chars)
    # the direct route refuses a character whose domain misses inertia,
    # as reading chi element by element did
    cover = _overridden_cover()
    chi = cover.characters()[1].restrict(cover.places[1].inertia)
    with pytest.raises(DomainError):
        _direct_term(cover.p, cover.places[0], 0, chi)
