"""Pins for the local epsilon terms of the ledgers.

The reference below is a copy of local_epsilon as it read while every
term was a Fraction in a frozen dataclass: the kind from trivial_on, the
wild term deg cond / 2, and the tame term through c_from_d and either the
sum of the fractional-part tuple or the p-adic oracle.  Every (place,
kind, valuation, gauss index) that epsilon_ledgers yields, under both
oracles, is compared with it on the constructed corpus, the 40-cover
sweep corpus, every invariance variant of their covers and a datum whose
wild characters carry overridden conductors.  Two data pin the errors: a
character that is both wild and tame stops the ledgers with
UnsupportedCoverError at the same character, and the ledgers before the
first IncompleteDatumError are still yielded.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from epschar import verify
from epschar.corpus import constructed_corpus, synthetic_corpus
from epschar.covers import synthetic_cover
from epschar.epsilon import (
    ORACLE_STICKELBERGER,
    ORACLES,
    LocalEpsilonVal,
    epsilon_ledgers,
    global_epsilon_valuation,
    local_epsilon,
)
from epschar.errors import EpscharError, IncompleteDatumError, UnsupportedCoverError
from epschar.fields import make_field
from epschar.cyclotomic import MultChar
from epschar.groups import AbelianGroup, char_label
from epschar.padic import padic_gauss_valuation
from epschar.stickelberger import c_from_d, s_tuple


def _overridden_cover():
    """Z/6 over F_3 whose wild characters share restrictions to inertia in
    pairs but carry conductors 3 and 4."""
    group = AbelianGroup((6,))
    full = group.full_subgroup()
    tame, wild = group.subgroup([(3,)]), group.subgroup([(2,)])
    conductors = {group.character((a,)): cd for a, cd in ((1, 3), (2, 3), (4, 4), (5, 4))}
    places = [
        dict(label="t", degree=2, inertia=tame, decomposition=full,
             tame_char=group.character((3,)).restrict(tame)),
        dict(label="q", degree=2, inertia=wild, decomposition=full,
             tame_char=wild.trivial_character(), conductor_overrides=conductors),
    ]
    return synthetic_cover(group, 3, 1, 0, places, weakly_ramified=False)


def _mixed_cover():
    """Z/6 over F_3 with all of it as inertia: chi(1) is the first character
    that is nontrivial on both the wild Z/3 and the tame Z/2."""
    group = AbelianGroup((6,))
    full = group.full_subgroup()
    conductors = {group.character((a,)): 3 for a in (1, 2, 4, 5)}
    q = dict(label="q", degree=1, inertia=full, decomposition=full,
             tame_char=group.character((3,)).restrict(full), conductor_overrides=conductors)
    return synthetic_cover(group, 3, 1, 0, [q], weakly_ramified=False)


def _incomplete_cover():
    """Z/3 x Z/3 over F_3 with wild inertia <(1, 0)> and no conductors: the
    three characters trivial there come first, then chi(1,0) has none."""
    group = AbelianGroup((3, 3))
    full = group.full_subgroup()
    wild = group.subgroup([(1, 0)])
    q = dict(label="q", degree=1, inertia=wild, decomposition=full,
             tame_char=wild.trivial_character())
    return synthetic_cover(group, 3, 1, 0, [q], weakly_ramified=False)


@lru_cache(maxsize=None)
def _covers():
    """Both corpora, every invariance variant of their covers, and the overridden datum."""
    out = []
    for cover in constructed_corpus() + synthetic_corpus(40, seed=1):
        out.append(cover)
        out.extend(variant for _, variant in verify._invariance_variants(cover))
    out.append(_overridden_cover())
    return tuple(out)


# -- the reference ----------------------------------------------------------


def _local_term_by_fractions(cover, place, chi, oracle):
    """(place, kind, valuation, gauss index) of chi's local epsilon term."""
    if chi.trivial_on(place.inertia):
        return place.label, "unramified", Fraction(0), 0
    if chi.trivial_on(place.wild_subgroup):
        datum = place.tame_local_datum
        d = place.tame_index(chi)
        c = c_from_d(datum, d)
        if oracle == ORACLE_STICKELBERGER:
            val = sum(s_tuple(datum, d), Fraction(0))
        else:
            ctx = make_field(cover.p, place.degree)
            val = padic_gauss_valuation(ctx, MultChar(ctx, c))
        return place.label, "tame", val, c
    if place.e_t > 1 and not (chi**place.e_w).trivial_on(place.inertia):
        raise UnsupportedCoverError(
            "place %s: %s is nontrivial on both the wild and the tame part of "
            "inertia; its local epsilon valuation is not determined by the "
            "conductor" % (place.label, char_label(chi))
        )
    cd = place.conductor(chi, cover.weakly_ramified)
    return place.label, "wild", Fraction(place.degree * cd, 2), 0


def _ledgers_by_fractions(cover, oracle):
    """Per character, (label, base term, local terms), up to the first error."""
    out = []
    try:
        for chi in cover.characters():
            terms = [_local_term_by_fractions(cover, q, chi, oracle) for q in cover.places]
            out.append((char_label(chi), Fraction(cover.r * (cover.g_base - 1)), terms))
    except EpscharError as exc:
        out.append((type(exc), str(exc)))
    return out


def _ledgers(cover, oracle):
    """The same view of epsilon_ledgers."""
    out = []
    try:
        for ledger in epsilon_ledgers(cover, oracle):
            terms = [(lv.place, lv.kind, lv.valuation, lv.gauss_index) for lv in ledger.locals]
            out.append((char_label(ledger.character), ledger.base_term, terms))
    except EpscharError as exc:
        out.append((type(exc), str(exc)))
    return out


# -- pins -------------------------------------------------------------------


@pytest.mark.parametrize("oracle", ORACLES)
def test_ledger_terms_match_the_fraction_reference(oracle):
    terms = 0
    for cover in _covers():
        got = _ledgers(cover, oracle)
        assert got == _ledgers_by_fractions(cover, oracle), cover.summary()
        terms += sum(len(entry[2]) for entry in got if len(entry) == 3)
    assert terms > 10000


@pytest.mark.parametrize("oracle", ORACLES)
def test_every_term_kind_is_pinned(oracle):
    kinds = set()
    for cover in _covers():
        for entry in _ledgers(cover, oracle):
            if len(entry) == 3:
                kinds.update(term[1] for term in entry[2])
    assert kinds == {"unramified", "tame", "wild"}


@pytest.mark.parametrize("oracle", ORACLES)
def test_per_character_terms_match_the_fraction_reference(oracle):
    cover = _overridden_cover()
    for chi in cover.characters():
        for q in cover.places:
            lv = local_epsilon(cover, q, chi, oracle=oracle)
            want = _local_term_by_fractions(cover, q, chi, oracle)
            assert (lv.place, lv.kind, lv.valuation, lv.gauss_index) == want
        ledger = global_epsilon_valuation(cover, chi, oracle=oracle)
        assert ledger.total == ledger.base_term + sum(lv.valuation for lv in ledger.locals)


@pytest.mark.parametrize("oracle", ORACLES)
def test_a_wild_and_tame_character_stops_the_ledgers_at_the_same_place(oracle):
    cover = _mixed_cover()
    got = _ledgers(cover, oracle)
    assert got == _ledgers_by_fractions(cover, oracle)
    # chi(0) is yielded, then chi(1) is refused
    assert [entry[0] for entry in got[:-1]] == ["chi(0)"]
    error, message = got[-1]
    assert error is UnsupportedCoverError and "chi(1)" in message
    with pytest.raises(UnsupportedCoverError):
        local_epsilon(cover, cover.places[0], cover.group.character((1,)), oracle=oracle)


@pytest.mark.parametrize("oracle", ORACLES)
def test_ledgers_before_an_incomplete_character_are_yielded(oracle):
    cover = _incomplete_cover()
    got = _ledgers(cover, oracle)
    assert got == _ledgers_by_fractions(cover, oracle)
    assert [entry[0] for entry in got[:-1]] == ["chi(0,0)", "chi(0,1)", "chi(0,2)"]
    assert got[-1][0] is IncompleteDatumError
    # the generator hands out each ledger before it reads the next character
    ledgers = epsilon_ledgers(cover, oracle)
    assert [char_label(next(ledgers).character) for _ in range(3)] == ["chi(0,0)", "chi(0,1)", "chi(0,2)"]
    with pytest.raises(IncompleteDatumError):
        next(ledgers)


def test_the_oracles_agree_by_valuation_not_by_raw_fields():
    # a term keeps its numerator over its own denominator, so terms are
    # compared through valuation and ledgers through their totals
    raw_differs = 0
    for cover in _covers():
        views = []
        for oracle in ORACLES:
            try:
                views.append(list(epsilon_ledgers(cover, oracle)))
            except EpscharError as exc:
                views.append((type(exc), str(exc)))
        stick, padic = views
        if isinstance(stick, tuple):
            assert stick == padic, cover.summary()
            continue
        for a, b in zip(stick, padic, strict=True):
            assert a.character == b.character and a.total == b.total, cover.summary()
            for x, y in zip(a.locals, b.locals, strict=True):
                assert x.valuation == y.valuation, (cover.summary(), x, y)
                raw_differs += x != y
    assert raw_differs > 0
    half = LocalEpsilonVal("q", "tame", 2, 4)
    assert half != LocalEpsilonVal("q", "tame", 1, 2)
    assert half.valuation == Fraction(1, 2)
