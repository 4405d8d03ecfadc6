"""One representation of an exact value in the report layer.

Ledger terms and totals, the multiplicities of both routes and the
coefficients of K0 elements are ints when they are integral and
Fractions only otherwise.  Both corpora are weakly ramified and give
integers throughout, so two data with fractional values run the
Fraction branch: the conductor-3 datum of y^3 - y = 1/x^2 (ledgers
-1, 1/2, 1/2) and a lone tame place of order 8 over F_9, whose
structure element is not integral.
"""

from fractions import Fraction
from functools import lru_cache

from epschar import groups
from epschar.corpus import constructed_corpus, synthetic_corpus
from epschar.covers import synthetic_cover
from epschar.epsilon import ORACLES, E_element, epsilon_ledgers, global_epsilon_valuation
from epschar.errors import IntegralityError
from epschar.euler import (
    DivisorSpec,
    euler_char_structure_sheaf,
    multiplicities_closed,
    multiplicities_direct,
    multiplicity_closed,
    multiplicity_direct,
    psi_structure,
    wild_induction_term,
)
from epschar.groups import AbelianGroup, K0Element, char_label, decomposition_map, e_map, pairing, restrict
from epschar.verify import _cyclic_subgroups, check_strong, check_weak, full_verification


def _is_exact(v):
    """An int exactly when v is integral, else a Fraction."""
    return type(v) is (int if v.denominator == 1 else Fraction)


class _Tally:
    """Asserts the contract on each value and counts the two branches."""

    def __init__(self):
        self.ints = self.fractions = 0

    def __call__(self, v, where):
        assert _is_exact(v), (where, type(v), v)
        if type(v) is int:
            self.ints += 1
        else:
            self.fractions += 1


@lru_cache(maxsize=None)
def _corpora():
    return tuple(constructed_corpus() + synthetic_corpus(40, seed=1))


def _conductor_three():
    """Z/3 over F_3, one degree-1 place with conductor 3 for both wild characters."""
    group = AbelianGroup((3,))
    full = group.full_subgroup()
    chi = group.character((1,))
    q = dict(label="q", degree=1, inertia=full, decomposition=full,
             tame_char=full.trivial_character(), conductor_overrides={chi: 3, chi**2: 3})
    return synthetic_cover(group, 3, 1, 0, [q], weakly_ramified=False)


def _lone_tame_place():
    """Z/8 over F_3 with one tame place of degree 2: multiplicities in (1/2)Z."""
    group = AbelianGroup((8,))
    full = group.full_subgroup()
    xi = groups.cyclic_character(full, (1,), 1)
    place = dict(label="q", degree=2, inertia=full, decomposition=full, tame_char=xi)
    return synthetic_cover(group, 3, 1, 0, [place])


def test_ledger_terms_and_totals_follow_the_contract():
    tally = _Tally()
    covers = _corpora() + (_conductor_three(), _lone_tame_place())
    for cover in covers:
        for oracle in ORACLES:
            for ledger in epsilon_ledgers(cover, oracle):
                where = (cover.summary(), oracle, char_label(ledger.character))
                tally(ledger.total, where)
                tally(ledger.negated_total, where)
                assert ledger.negated_total == -ledger.total, where
                for lv in ledger.locals:
                    tally(lv.valuation, where)
        chi = cover.characters()[-1]
        tally(global_epsilon_valuation(cover, chi).total, cover.summary())
    assert tally.ints > 4000 and tally.fractions >= 100


def test_multiplicities_of_both_routes_follow_the_contract():
    tally = _Tally()
    lone = _lone_tame_place()
    cases = [(cover, DivisorSpec.wild_canonical(cover))
             for cover in _corpora() if cover.weakly_ramified]
    cases += [(lone, DivisorSpec(lone, {"q": n})) for n in range(-1, 9)]
    for cover, D in cases:
        tabled = (multiplicities_closed(cover, D), multiplicities_direct(cover, D))
        for i, chi in enumerate(cover.characters()):
            where = (cover.summary(), D, chi)
            closed, direct = multiplicity_closed(cover, D, chi), multiplicity_direct(cover, D, chi)
            assert closed == direct == tabled[0][i] == tabled[1][i], where
            for v in (closed, direct, tabled[0][i], tabled[1][i]):
                tally(v, where)
    assert tally.ints > 2000 and tally.fractions >= 100


def _k0_elements(cover):
    """The K0 elements a report reads, with sums, scalings and restrictions of E."""
    e_elt = E_element(cover)
    out = [e_elt, decomposition_map(e_elt), e_elt + e_elt, e_elt - e_elt, e_elt.scale(2)]
    out += [restrict(e_elt, sub) for sub in _cyclic_subgroups(cover.group)]
    if cover.weakly_ramified:
        try:
            psi = psi_structure(cover)
        except IntegralityError:
            return out
        out += [psi, e_map(psi), euler_char_structure_sheaf(cover), wild_induction_term(cover)]
    return out


def test_k0_coefficients_and_pairings_follow_the_contract():
    tally = _Tally()
    for cover in _corpora() + (_conductor_three(), _lone_tame_place()):
        elements = _k0_elements(cover)
        for x in elements:
            for chi, c in x.coeffs.items():
                tally(c, (cover.summary(), x.level, chi))
        e_elt = elements[0]
        for chi in cover.characters():
            tally(pairing(e_elt, K0Element.of_character(chi, p=cover.p)), cover.summary())
        tally(pairing(e_elt, e_elt), cover.summary())
    assert tally.ints > 4000 and tally.fractions >= 10


def _report_values(report):
    for row in report.rows:
        yield row.lhs
        yield row.rhs
        for _, v in row.parts:
            yield v


def test_reports_hold_no_float():
    tally = _Tally()
    reports = [rep for cover in _corpora() for rep in full_verification(cover)]
    reports += [check_strong(_lone_tame_place()), check_weak(_conductor_three())]
    for rep in reports:
        for v in _report_values(rep):
            assert type(v) is not float, (rep.kind, rep.cover)
            if v is not None:
                tally(v, (rep.kind, rep.cover))
    assert tally.ints > 4000 and tally.fractions >= 4
