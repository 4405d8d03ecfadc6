"""Pins for the per-cover character tables.

Every quantity that the checks read through a table must equal the
per-character function it stands for, on every cover of the constructed
corpus, the mixed example and the 40-cover synthetic sweep corpus.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from epschar import verify
from epschar.corpus import constructed_corpus, mixed_synthetic_example, synthetic_corpus
from epschar.covers import synthetic_cover
from epschar.epsilon import (
    ORACLE_STICKELBERGER,
    ORACLES,
    E_element,
    epsilon_ledgers,
    global_epsilon_valuation,
)
from epschar.errors import EpscharError, IntegralityError
from epschar.euler import (
    DivisorSpec,
    lm_decompose,
    multiplicities_closed,
    multiplicities_direct,
    multiplicity_closed,
    multiplicity_direct,
    psi_structure,
)
from epschar.groups import LEVEL_PROJECTIVES, AbelianGroup, K0Element, char_label, induce, modular_basis


@lru_cache(maxsize=None)
def _covers():
    return tuple(constructed_corpus() + [mixed_synthetic_example()] + synthetic_corpus(40, seed=1))


def _overridden_cover():
    """Z/6 over F_3 with a tame place and a wild place whose conductors
    come from overrides: chi(1) and chi(4) share the wild place's term."""
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


def _divisors(cover):
    """The wild-canonical divisor, the zero divisor where it is allowed, and
    a seeded divisor with positive tame coefficients (so l > 0 somewhere)."""
    out = [DivisorSpec.wild_canonical(cover)]
    if not cover.wild_places():
        out.append(DivisorSpec(cover))
    rng = random.Random(cover.summary())
    out.append(
        DivisorSpec(
            cover,
            {q.label: -1 if q.is_wild else rng.randrange(-2, 2 * q.e + 1) for q in cover.places},
        )
    )
    return out


def _outcome(fn, *args):
    """The value of fn(*args), or the type and text of the error it raises."""
    try:
        return fn(*args)
    except EpscharError as exc:
        return type(exc), str(exc)


def _psi_per_theta(cover, D):
    """psi_structure as one K0Element and one induce call per cotangent power."""
    group, p = cover.group, cover.p
    coeffs = {}

    def add(x, c):
        for chi, v in x.coeffs.items():
            coeffs[chi] = coeffs.get(chi, 0) + c * v

    for q in cover.places:
        parts = lm_decompose(q, D.value(q))
        if q.e_t == 1:
            continue
        e = q.e_t

        def ind_cov(theta):
            return induce(K0Element(q.inertia, LEVEL_PROJECTIVES, {theta: 1}, p=p), group)

        for j in range(q.degree):
            xi_j = q.tame_char ** pow(p, j, e)
            for d in range(1, e):
                add(ind_cov(xi_j**d), Fraction(-d, e))
            for d in range(1, parts.l + 1):
                add(ind_cov(xi_j**-d), 1)
    base = Fraction(cover.r * (1 - cover.g_base))
    base += sum(q.degree * lm_decompose(q, D.value(q)).m for q in cover.places)
    add(K0Element.regular(group, LEVEL_PROJECTIVES, p=p), base)
    acc = K0Element(group, LEVEL_PROJECTIVES, coeffs, p=p)
    if not acc.is_integral():
        raise IntegralityError("structure element has non-integral coefficients: %r" % acc)
    return acc


@pytest.mark.parametrize("oracle", ORACLES)
def test_tabled_ledgers_match_the_per_character_ledgers(oracle):
    for cover in _covers() + (_overridden_cover(),):
        tabled = list(epsilon_ledgers(cover, oracle))
        per_char = [global_epsilon_valuation(cover, chi, oracle=oracle) for chi in cover.characters()]
        assert tabled == per_char, cover.summary()


def test_tabled_multiplicities_match_the_per_character_routes():
    for cover in _covers():
        for D in _divisors(cover):
            closed = [multiplicity_closed(cover, D, chi) for chi in cover.characters()]
            direct = [multiplicity_direct(cover, D, chi) for chi in cover.characters()]
            assert list(multiplicities_closed(cover, D)) == closed, (cover.summary(), D)
            assert list(multiplicities_direct(cover, D)) == direct, (cover.summary(), D)


@pytest.mark.parametrize("oracle", ORACLES)
def test_E_element_matches_the_per_character_ledgers(oracle):
    for cover in _covers():
        e_elt = E_element(cover, oracle=oracle)
        for chi in cover.characters():
            ledger = global_epsilon_valuation(cover, chi, oracle=oracle)
            assert e_elt.coefficient(chi) == -ledger.total, (cover.summary(), chi)


def test_snapshot_matches_the_per_character_functions():
    for cover in _covers():
        snap = verify._snapshot(cover)
        expected = {}
        for chi in cover.characters():
            ledger = global_epsilon_valuation(cover, chi, oracle=ORACLE_STICKELBERGER)
            expected["eps %s" % char_label(chi)] = ledger.total
        d_wild = DivisorSpec.wild_canonical(cover)
        psi = _psi_per_theta(cover, d_wild)
        for theta in modular_basis(cover.group, cover.p):
            expected["psi %s" % char_label(theta)] = psi.coefficient(theta)
        for chi in cover.characters():
            expected["mult %s" % char_label(chi)] = multiplicity_closed(cover, d_wild, chi)
            expected["dir %s" % char_label(chi)] = multiplicity_direct(cover, d_wild, chi)
        assert snap == expected, cover.summary()


def test_psi_structure_matches_the_per_theta_inductions():
    for cover in _covers():
        for D in _divisors(cover):
            want = _outcome(_psi_per_theta, cover, D)
            assert _outcome(psi_structure, cover, D) == want, (cover.summary(), D)
