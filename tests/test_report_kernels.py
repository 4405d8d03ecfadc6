"""Pins for the report path of check_strong and check_weak.

K0Element keeps an int coefficient as it is, turns an integral Fraction
into its numerator and checks a label's group by identity before
equality; decomposition_map reads each character's prime-to-p part
from a table memoised on the group object; numutil.exact_str prints
ints and Fractions without wrapping them again.  Each is compared with an
in-test copy of the plain form it replaced: the constructor that
converted every coefficient, the per-character prime_to_p_part rule and
str(Fraction(x)).
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from epschar.corpus import constructed_corpus, synthetic_corpus
from epschar.epsilon import E_element
from epschar.errors import EpscharError, GroupMismatchError, LevelError
from epschar.groups import (
    LEVEL_CHAR0,
    LEVEL_MODULES,
    LEVEL_PROJECTIVES,
    LEVELS,
    AbelianGroup,
    K0Element,
    char_label,
    decomposition_map,
    restrict,
)
from epschar.numutil import exact_str
from epschar.verify import _cyclic_subgroups


@lru_cache(maxsize=None)
def _covers():
    return tuple(constructed_corpus() + synthetic_corpus(40, seed=1))


# -- reference forms ----------------------------------------------------------


def _clean_by_conversion(group, level, coeffs, p):
    """The coefficients K0Element kept when it converted every one to Fraction."""
    if level not in LEVELS:
        raise LevelError(f"unknown level {level!r}")
    if level != LEVEL_CHAR0 and p is None:
        raise LevelError(f"level {level!r} requires the prime p")
    clean = {}
    for chi, coef in coeffs.items():
        coef = Fraction(coef)
        if coef == 0:
            continue
        if chi.domain != group:
            raise GroupMismatchError("basis character over the wrong group")
        if level != LEVEL_CHAR0 and not chi.has_prime_to_p_order(p):
            raise LevelError("basis labels at modular levels must have prime-to-p order")
        clean[chi] = coef
    return clean


def _decomposition_by_character(x, p):
    out = {}
    for chi, c in x.coeffs.items():
        red = chi.prime_to_p_part(p)
        out[red] = out.get(red, Fraction(0)) + c
    return K0Element(x.group, LEVEL_MODULES, out, p)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EpscharError as exc:
        return type(exc), str(exc)


def _is_exact(v):
    """An int exactly when v is integral, else a Fraction."""
    return type(v) is (int if v.denominator == 1 else Fraction)


def _shown(x):
    """An element as its printed form: (label, coefficient) in dict order."""
    return [(char_label(chi), c) for chi, c in x.coeffs.items()]


# -- K0Element ------------------------------------------------------------------


def _constructor_cases():
    g6, g4 = AbelianGroup((6,)), AbelianGroup((4,))
    full = g6.full_subgroup()  # equal to g6, but another object
    sub = g6.subgroup([(2,)])
    chi = g6.characters()
    cases = []
    for level in LEVELS:
        for p in (2, 3, None):
            cases += [
                (g6, level, {chi[1]: 1, chi[2]: Fraction(-3, 2), chi[3]: 0}, p),
                (g6, level, {chi[0]: Fraction(0), chi[4]: True, chi[5]: 2}, p),
                (g6, level, {chi[2]: 5, g4.characters()[1]: 1}, p),  # wrong root
                (g6, level, {g4.characters()[1]: 0}, p),  # a zero is dropped unchecked
                (g6, level, {chi[0]: 1, sub.characters()[1]: 1}, p),  # proper subgroup
                (g6, level, {full.characters()[1]: 1, full.characters()[2]: 1}, p),
                (full, level, {chi[1]: 1, chi[4]: Fraction(7, 3)}, p),
                (g6, "bogus", {chi[1]: 1}, p),
            ]
    return cases


def test_constructor_keeps_the_outcome_of_converting_every_coefficient():
    outcomes = set()
    for group, level, coeffs, p in _constructor_cases():
        want = _outcome(_clean_by_conversion, group, level, coeffs, p)
        got = _outcome(lambda: K0Element(group, level, coeffs, p).coeffs)
        assert got == want, (level, p, coeffs)
        if isinstance(want, dict):
            assert all(_is_exact(c) for c in got.values())
            outcomes.add("kept")
        else:
            outcomes.add(want[0])
    assert outcomes == {"kept", GroupMismatchError, LevelError}


def test_constructor_errors_and_zeros():
    g6 = AbelianGroup((6,))
    chi = g6.characters()
    with pytest.raises(GroupMismatchError):
        K0Element(g6, LEVEL_CHAR0, {AbelianGroup((4,)).characters()[1]: 1})
    with pytest.raises(GroupMismatchError):
        K0Element(g6, LEVEL_CHAR0, {g6.subgroup([(3,)]).characters()[1]: Fraction(1, 2)})
    # chi(3) has order 2 and chi(2) order 3
    with pytest.raises(LevelError):
        K0Element(g6, LEVEL_MODULES, {chi[3]: 1}, p=2)
    with pytest.raises(LevelError):
        K0Element(g6, LEVEL_PROJECTIVES, {chi[2]: Fraction(2)}, p=3)
    x = K0Element(g6, LEVEL_MODULES, {chi[2]: 0, chi[3]: Fraction(0), chi[1]: 0}, p=2)
    assert x.coeffs == {}
    x = K0Element(g6, LEVEL_CHAR0, {chi[1]: 3, chi[2]: -1})
    assert x.coeffs == {chi[1]: 3, chi[2]: -1}
    assert all(_is_exact(c) for c in x.coeffs.values())
    # an equal group object passes the equality fallback
    full = g6.full_subgroup()
    assert K0Element(full, LEVEL_CHAR0, {chi[1]: 1}).coeffs == {chi[1]: 1}


# -- decomposition_map ---------------------------------------------------------


def test_decomposition_map_is_the_per_character_rule_on_both_corpora():
    checked = 0
    for cover in _covers():
        p = cover.p
        e_elt = E_element(cover)
        regular = K0Element(cover.group, LEVEL_CHAR0,
                            {chi: 1 for chi in cover.characters()}, p)
        elements = [e_elt, regular]
        for sub in _cyclic_subgroups(cover.group):
            elements += [restrict(e_elt, sub), restrict(regular, sub)]
        for x in elements:
            got, want = decomposition_map(x, p), _decomposition_by_character(x, p)
            assert got == want, cover.summary()
            assert _shown(got) == _shown(want), cover.summary()
            checked += 1
    assert checked > 500


def test_decomposition_map_labels_follow_each_group_object():
    # two presentations of the subgroup of order 6 of Z/12: equal groups whose
    # characters are labelled by different generators
    root = AbelianGroup((12,))
    by_two, by_ten = root.subgroup([(2,)]), root.subgroup([(10,)])
    assert by_two == by_ten and by_two.generators != by_ten.generators
    for group in (by_two, by_ten, by_two):
        x = K0Element(group, LEVEL_CHAR0, {chi: i + 1 for i, chi in enumerate(group.characters())})
        got = decomposition_map(x, 2)
        assert _shown(got) == _shown(_decomposition_by_character(x, 2))
        assert {char_label(chi) for chi in got.coeffs} == \
            {char_label(chi) for chi in group.characters() if chi.order % 2}
    # labels over an equal group object take the per-character rule
    x = K0Element(by_two, LEVEL_CHAR0, {chi: 1 for chi in by_ten.characters()})
    got = decomposition_map(x, 3)
    assert _shown(got) == _shown(_decomposition_by_character(x, 3))
    assert all(chi.domain is by_ten for chi in got.coeffs)


def test_decomposition_map_memo_lives_on_the_group_object():
    group = AbelianGroup((2, 6))
    x = K0Element(group, LEVEL_CHAR0, {chi: 1 for chi in group.characters()})
    decomposition_map(x, 2)
    decomposition_map(x, 3)
    assert sorted(group._reductions) == [2, 3]
    assert group.full_subgroup()._reductions == {}


# -- exact_str ----------------------------------------------------------------


def test_fmt_prints_as_str_of_fraction():
    values = [0, 1, -1, 7, -12, 10**30, -(10**30), True, False,
              Fraction(0), Fraction(3, 4), Fraction(-5, 2), Fraction(6, 3), Fraction(-10**20, 3),
              0.5, "3/4"]
    for x in values:
        assert exact_str(x) == str(Fraction(x)), x
    assert exact_str(True) == "1" and exact_str(False) == "0"
    assert exact_str(None) is None
