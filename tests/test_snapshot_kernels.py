"""Pins and guards for the integer kernels of the invariance snapshot.

The reference functions below are the plain Fraction-and-loop forms of
the restriction key, the direct route's local term, the ledger total and
the structure element.  Each is compared with the package on every
cover of the constructed corpus, of the 40-cover sweep corpus and of
each cover's invariance variants.  The guards pin what the kernels must
not do: the direct route never reads the tame index, the regenerated
variant shares no subgroup with its datum, and a restriction-key memo
stays within the size of its root group.  A subgroup's list of
restriction keys follows the character order of the group it was asked
for, even where an equal group orders its characters differently.  The
epsilon ledgers compute each of their own (place, restriction) terms
exactly once per call, for each oracle and for the datum and each
variant alike.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from epschar import epsilon, verify
from epschar.corpus import constructed_corpus, synthetic_corpus
from epschar.covers import PlaceDatum
from epschar.epsilon import ORACLE_STICKELBERGER, ORACLES, epsilon_ledgers
from epschar.errors import EpscharError, IncompleteDatumError, IntegralityError, InvalidInputError
from epschar.euler import (
    DivisorSpec,
    _direct_numerator,
    lm_decompose,
    multiplicities_closed,
    multiplicities_direct,
    psi_structure,
)
from epschar.groups import LEVEL_PROJECTIVES, AbelianGroup, K0Element, Subgroup, modular_basis


@lru_cache(maxsize=None)
def _covers():
    """The two corpora and every invariance variant of each of their covers."""
    out = []
    for cover in constructed_corpus() + synthetic_corpus(40, seed=1):
        out.append(cover)
        out.extend(variant for _, variant in verify._invariance_variants(cover))
    return tuple(out)


def _outcome(fn, *args):
    """The value of fn(*args), or the type and text of the error it raises."""
    try:
        return fn(*args)
    except EpscharError as exc:
        return type(exc), str(exc)


# -- reference forms ----------------------------------------------------------


def _key_by_numerators(sub, vector):
    """N chi(g) mod N on each basis element g, N the root exponent."""
    root = sub.root
    return tuple(
        sum(a * w * x for a, w, x in zip(vector, root._weights, g)) % root.exponent
        for g in sub.basis
    )


def _direct_term(p, q, l, chi):
    """The direct route's local term: its integer kernel over e_t."""
    return Fraction(_direct_numerator(p, q, l, chi), q.e_t)


def _direct_term_by_trial(p, q, l, chi):
    """The direct route's local term, solving each embedding by trial over d < e_t."""
    e = q.e_t
    n = q.inertia.root.exponent
    pairs = [(q.tame_char.numerator(t), chi.numerator(t)) for t in q.inertia.elements()]
    num = 0
    for j in range(q.degree):
        twist = pow(p, j, e)
        solved = next(
            (d for d in range(e) if all((d * twist * x - v) % n == 0 for x, v in pairs)), None
        )
        if solved is None:
            raise InvalidInputError("character does not match the cotangent data at %s" % q.label)
        num += solved - e if solved >= e - l else solved
    return Fraction(num, e)


def _ledger_total_by_fractions(ledger):
    total = ledger.base_term
    for lv in ledger.locals:
        total += lv.valuation
    return total


def _psi_by_fractions(cover, D):
    """psi_structure with one Fraction add per term and one tame_char**k per power."""
    group, p = cover.group, cover.p
    basis = modular_basis(group, p)
    coeffs = {}
    for q in cover.places:
        parts = lm_decompose(q, D.value(q))
        if q.e_t == 1:
            continue
        e = q.e_t
        by_power = {}
        for j in range(q.degree):
            twist = pow(p, j, e)
            for d in range(1, e):
                k = twist * d % e
                by_power[k] = by_power.get(k, 0) - d
            for d in range(1, parts.l + 1):
                k = -twist * d % e
                by_power[k] = by_power.get(k, 0) + e
        fibres = {}
        for chi in basis:
            fibres.setdefault(q.inertia._key(chi.vector), []).append(chi)
        for k, c in by_power.items():
            c = Fraction(c, e)
            for chi in fibres.get((q.tame_char**k)._key, ()):
                coeffs[chi] = coeffs.get(chi, 0) + c
    base = Fraction(cover.r * (1 - cover.g_base))
    base += sum(q.degree * lm_decompose(q, D.value(q)).m for q in cover.places)
    for chi in basis:
        coeffs[chi] = coeffs.get(chi, 0) + base
    acc = K0Element(group, LEVEL_PROJECTIVES, coeffs, p=p)
    if not acc.is_integral():
        raise IntegralityError("structure element has non-integral coefficients: %r" % acc)
    return acc


def _all_subgroups(group):
    """Every subgroup of group, each once, by closing under one more generator."""
    found = {frozenset([group.identity]): group.subgroup([group.identity])}
    frontier = list(found.values())
    while frontier:
        grown = []
        for sub in frontier:
            for g in group.elements():
                if sub.contains(g):
                    continue
                bigger = group.subgroup(list(sub.generators) + [g])
                if bigger.element_set not in found:
                    found[bigger.element_set] = bigger
                    grown.append(bigger)
        frontier = grown
    return list(found.values())


# -- pins -------------------------------------------------------------------


@pytest.mark.parametrize("factors", [(24,), (2, 12), (4, 4), (2, 2, 2, 2)])
def test_restriction_keys_match_the_numerator_formula(factors):
    group = AbelianGroup(factors)
    subs = _all_subgroups(group) + [group]
    # Z/24 has 8 subgroups, (Z/2)^4 has 67
    assert len(subs) - 1 == {(24,): 8, (2, 12): 16, (4, 4): 15, (2, 2, 2, 2): 67}[factors]
    for sub in subs:
        for vector in group.elements():
            want = _key_by_numerators(sub, vector)
            assert sub._key(vector) == want, (sub, vector)
            # a second lookup, and a vector off by the invariant factors
            assert sub._key(vector) == want, (sub, vector)
            shifted = tuple(a + 3 * n for a, n in zip(vector, factors))
            assert sub._key(shifted) == want, (sub, shifted)


@pytest.mark.parametrize("factors", [(24,), (2, 12), (4, 4), (2, 2, 2, 2)])
def test_restriction_key_lists_follow_each_group_s_own_characters(factors):
    group = AbelianGroup(factors)
    # equal to the root, but its characters are sorted by value table
    full = Subgroup(group, group.element_set)
    assert full == group
    if factors != (24,):
        assert [chi.vector for chi in full.characters()] != [chi.vector for chi in group.characters()]
    for sub in _all_subgroups(group):
        for domain in (group, full, sub):
            want = [sub._key(chi.vector) for chi in domain.characters()]
            assert sub.restriction_keys(domain) == want, (sub, domain)
            assert sub.restriction_keys(domain) is sub.restriction_keys(domain)
        assert len(sub._key_lists) == 3


def test_direct_terms_match_the_trial_solve():
    pairs = 0
    for cover in _covers():
        for q in cover.places:
            if q.e_t == 1 or q.e_w > 1:
                continue
            e = q.e_t
            for chi in cover.characters():
                for l in sorted({0, e // 2, e - 1}):
                    want = _outcome(_direct_term_by_trial, cover.p, q, l, chi)
                    assert _outcome(_direct_term, cover.p, q, l, chi) == want, (q, chi, l)
                pairs += 1
    assert pairs > 1000


def test_direct_term_refuses_a_character_off_the_cotangent_powers():
    # the cotangent character has order 2 on an inertia group of order 4,
    # so no power of it is the faithful chi(1)
    group = AbelianGroup((4,))
    full = group.full_subgroup()
    q = PlaceDatum("q", 5, 1, full, full, group.character((2,)).restrict(full))
    chi = group.character((1,))
    with pytest.raises(InvalidInputError):
        _direct_term_by_trial(5, q, 0, chi)
    with pytest.raises(InvalidInputError):
        _direct_term(5, q, 0, chi)
    # chi(2) is both xi and xi^3; like the trial solve, the lookup takes k = 1
    chi = group.character((2,))
    assert _direct_term(5, q, 0, chi) == _direct_term_by_trial(5, q, 0, chi) == Fraction(1, 4)


def test_ledger_totals_match_the_fraction_sum():
    ledgers = 0
    for cover in _covers():
        try:
            for ledger in epsilon_ledgers(cover, ORACLE_STICKELBERGER):
                assert ledger.total == _ledger_total_by_fractions(ledger), cover.summary()
                ledgers += 1
        except IncompleteDatumError:
            pass
    assert ledgers > 1000


def test_psi_structure_matches_the_fraction_sum():
    for cover in _covers():
        if not cover.weakly_ramified:
            continue
        rng = random.Random(cover.summary())
        divisors = [
            DivisorSpec.wild_canonical(cover),
            DivisorSpec(
                cover,
                {q.label: -1 if q.is_wild else rng.randrange(0, 2 * q.e + 1) for q in cover.places},
            ),
        ]
        for D in divisors:
            want = _outcome(_psi_by_fractions, cover, D)
            assert _outcome(psi_structure, cover, D) == want, (cover.summary(), D)


# -- guards -------------------------------------------------------------------


def test_direct_multiplicities_never_read_the_tame_index(monkeypatch):
    covers = constructed_corpus() + synthetic_corpus(40, seed=1)
    closed = [list(multiplicities_closed(cover)) for cover in covers]

    def refuse(self, chi):
        raise AssertionError("the direct route read the tame index")

    monkeypatch.setattr(PlaceDatum, "tame_index", refuse)
    for cover, want in zip(covers, closed):
        assert list(multiplicities_direct(cover)) == want, cover.summary()


def _place_subgroups(cover):
    """The Subgroup objects a datum's places hold, by identity."""
    subs = {}
    for q in cover.places:
        for sub in (q.inertia, q.decomposition, q.tame_char.domain):
            subs[id(sub)] = sub
    return subs


def test_regenerated_variant_shares_no_subgroup_with_its_datum():
    checked = 0
    for cover in constructed_corpus() + synthetic_corpus(40, seed=1):
        ((label, variant),) = [v for v in verify._invariance_variants(cover)
                               if v[0] == "regenerated subgroups"]
        before = _place_subgroups(cover)
        for sub in _place_subgroups(variant).values():
            # the covering group itself is the one object both data hold
            assert sub is not cover.group
            assert not any(sub is old for old in before.values()), (cover.summary(), sub)
            checked += 1
    assert checked > 100


def test_restriction_key_memos_stay_within_the_root_order(monkeypatch):
    cover = max(synthetic_corpus(40, seed=1), key=lambda c: (c.group.order, len(c.places)))
    seen = [cover]
    variants = verify._invariance_variants

    def recorded(datum):
        out = variants(datum)
        seen.extend(v for _, v in out)
        return out

    monkeypatch.setattr(verify, "_invariance_variants", recorded)
    assert verify.check_invariance(cover).passed
    root = cover.group
    subs = {id(root): root}
    for datum in seen:
        subs.update(_place_subgroups(datum))
    assert len(subs) > 2
    for sub in subs.values():
        assert isinstance(sub, Subgroup)
        # vectors off by the invariant factors share their reduced entry
        for vector in root.elements():
            sub._key(tuple(a + n for a, n in zip(vector, root.invariant_factors)))
        memo = sub._keys
        assert len(memo) <= root.order, sub
        assert all(v in root.element_set for v in memo), sub


def _term_key(place, chi):
    """What a ledger table keys chi's term at place by."""
    return chi if place.conductor_overrides is not None else place.inertia._key(chi.vector)


def _spy_on_the_ledger_kernel(monkeypatch):
    """Record (cover, oracle, place, term key) of each local term computed."""
    kernel = epsilon.local_epsilon
    calls = []

    def spy(cover, place, chi, oracle):
        calls.append((id(cover), oracle, id(place), _term_key(place, chi)))
        return kernel(cover, place, chi, oracle)

    monkeypatch.setattr(epsilon, "local_epsilon", spy)
    return calls


def _distinct_terms(cover):
    return {(id(q), _term_key(q, chi)) for chi in cover.characters() for q in cover.places}


def test_each_ledger_call_computes_each_of_its_terms_once(monkeypatch):
    calls = _spy_on_the_ledger_kernel(monkeypatch)
    checked = 0
    for cover in _covers():
        want = _distinct_terms(cover)
        for oracle in ORACLES:
            # a second call, and the other oracle, recompute every term
            for _ in range(2):
                calls.clear()
                assert len(list(epsilon_ledgers(cover, oracle))) == len(cover.characters())
                got = [(place, key) for _, o, place, key in calls]
                assert {o for _, o, _, _ in calls} <= {oracle}
                assert len(got) == len(set(got)), cover.summary()
                assert set(got) == want, cover.summary()
                checked += len(got)
    assert checked > 10000


def test_the_invariance_check_computes_the_terms_of_each_variant(monkeypatch):
    calls = _spy_on_the_ledger_kernel(monkeypatch)
    data = []
    variants = verify._invariance_variants

    def recorded(datum):
        out = variants(datum)
        for label, variant in out:
            if label == "regenerated subgroups":
                # the variant's inertia groups start with empty key-list memos
                for q in variant.places:
                    assert q.inertia._key_lists == {}, (label, q)
        data.extend(v for _, v in out)
        return out

    monkeypatch.setattr(verify, "_invariance_variants", recorded)
    for cover in constructed_corpus()[:8] + synthetic_corpus(40, seed=1)[:20]:
        data[:] = [cover]
        calls.clear()
        assert verify.check_invariance(cover).passed
        assert len(data) > 1
        for datum in data:
            got = [(place, key) for c, _, place, key in calls if c == id(datum)]
            assert len(got) == len(set(got)), datum.summary()
            assert set(got) == _distinct_terms(datum), datum.summary()
        assert len(calls) == sum(len(_distinct_terms(datum)) for datum in data)
        # the regenerated variant's inertia groups now hold their key lists
        regenerated = data[-1]
        assert all(len(q.inertia._key_lists) == 1 for q in regenerated.places)
