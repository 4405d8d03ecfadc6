import dataclasses
import json
import time
from fractions import Fraction

import pytest

from epschar import verify
from epschar.corpus import constructed_corpus, restriction_chain_covers
from epschar.covers import RationalFunctionDivisor, artin_schreier_cover, kummer_cover, synthetic_cover
from epschar.errors import IntegralityError, NotWeaklyRamifiedError
from epschar.groups import AbelianGroup, char_label, cyclic_character
from epschar.verify import (
    ReportRow,
    VerificationReport,
    check_invariance,
    check_restriction,
    check_strong,
    check_weak,
    full_verification,
)


def _row(report, label):
    for row in report.rows:
        if row.label == label:
            return row
    raise AssertionError("no row %r in %s" % (label, report.describe()))


def test_strong_kummer_quadratic():
    cov = kummer_cover(5, 2, [((0, 1), 1), ((4, 1), 1)])
    rep = check_strong(cov)
    assert rep.passed and rep.flags == {"strong_ok": True, "integral_ok": True}
    row = _row(rep, "chi(0)")
    assert (row.lhs, row.rhs) == (1, 1)
    assert dict(row.parts) == {"euler": 1, "wild_ind": 0}
    row = _row(rep, "chi(1)")
    assert (row.lhs, row.rhs) == (0, 0)


def test_strong_artin_schreier():
    cov = artin_schreier_cover(2, [((0, 1), -1)])
    rep = check_strong(cov)
    assert rep.passed
    row = _row(rep, "chi(0)")
    assert (row.lhs, row.rhs) == (1, 1)
    assert dict(row.parts) == {"euler": 0, "wild_ind": 1}
    row = _row(rep, "chi(1)")
    assert (row.lhs, row.rhs) == (0, 0)
    assert dict(row.parts) == {"euler": 0, "wild_ind": 0}


def test_strong_requires_weak():
    group = AbelianGroup((3,))
    full = group.full_subgroup()
    chi = group.character((1,))
    q = dict(label="q", degree=1, inertia=full, decomposition=full,
             tame_char=full.trivial_character(),
             conductor_overrides={chi: 3, chi**2: 3})
    cov = synthetic_cover(group, 3, 1, 0, [q], weakly_ramified=False)
    with pytest.raises(NotWeaklyRamifiedError):
        check_strong(cov)


def test_strong_identity_survives_nonintegral_datum():
    # a lone tame place with half-integral valuations: both sides still
    # agree pointwise, and the integrality flag is what fails
    group = AbelianGroup((8,))
    full = group.full_subgroup()
    xi = cyclic_character(full, (1,), 1)
    q = dict(label="q", degree=2, inertia=full, decomposition=full, tame_char=xi)
    cov = synthetic_cover(group, 3, 1, 0, [q])
    rep = check_strong(cov)
    assert rep.flags["strong_ok"] is True
    assert rep.flags["integral_ok"] is False
    assert not rep.passed
    assert _row(rep, "chi(1)").lhs == Fraction(1, 2)


def test_weak_artin_schreier():
    cov = artin_schreier_cover(2, [((0, 1), -1)])
    rep = check_weak(cov)
    assert rep.passed and rep.flags == {"weak_ok": True, "integral_ok": True}
    (row,) = rep.rows  # single modular character at p = 2
    assert row.label == "chi(0)" and (row.lhs, row.rhs) == (1, 1)


def test_weak_kummer_quadratic():
    cov = kummer_cover(5, 2, [((0, 1), 1), ((4, 1), 1)])
    rep = check_weak(cov)
    assert rep.passed
    assert [(r.lhs, r.rhs) for r in rep.rows] == [(1, 1), (0, 0)]


def test_weak_skips_structure_side_when_not_weak():
    group = AbelianGroup((3,))
    full = group.full_subgroup()
    chi = group.character((1,))
    q = dict(label="q", degree=2, inertia=full, decomposition=full,
             tame_char=full.trivial_character(),
             conductor_overrides={chi: 3, chi**2: 3})
    cov = synthetic_cover(group, 3, 1, 0, [q], weakly_ramified=False)
    rep = check_weak(cov)
    assert rep.flags["weak_ok"] is None
    assert rep.flags["integral_ok"] is True
    assert rep.passed  # skipped flags do not gate
    assert all(row.rhs is None and row.passed is None for row in rep.rows)
    assert any("structure side skipped" in note for note in rep.notes)


def test_restriction_frozen_quartic():
    cov = kummer_cover(5, 4, [((0, 1), 1)])
    sub = cov.group.subgroup([(2,)])
    rep = check_restriction(cov, sub)
    assert rep.passed
    assert rep.flags == {"restriction_ok": True, "structure_side_ok": True}
    triv = sub.trivial_character()
    row = _row(rep, "E " + char_label(triv))
    assert (row.lhs, row.rhs) == (1, 1)
    row = _row(rep, "rhs " + char_label(triv))
    assert row.lhs == row.rhs
    assert "subgroup of order 2" in rep.cover


def test_restriction_full_and_trivial_subgroup():
    cov = kummer_cover(5, 4, [((0, 1), 1)])
    full = check_restriction(cov, cov.group.full_subgroup())
    assert full.passed
    triv_sub = cov.group.subgroup([])
    rep = check_restriction(cov, triv_sub)
    assert rep.passed
    # restriction to the trivial group sums all coefficients of E
    row = _row(rep, "E " + char_label(triv_sub.trivial_character()))
    assert (row.lhs, row.rhs) == (1, 1)


def test_restriction_chains():
    for cov in restriction_chain_covers()[:2]:
        group = cov.group
        for g in group.elements():
            rep = check_restriction(cov, group.subgroup([g]))
            assert rep.passed, rep.describe()


def test_invariance_twists_fire():
    group = AbelianGroup((7,))
    full = group.full_subgroup()
    xi = cyclic_character(full, (1,), 1)
    q = dict(label="q", degree=3, inertia=full, decomposition=full, tame_char=xi)
    cov = synthetic_cover(group, 2, 1, 0, [q], compute_genus=True)
    assert cov.g_cover == 3
    rep = check_invariance(cov)
    labels = [row.label for row in rep.rows]
    assert labels == ["twist q p^1", "twist q p^2", "point re-choice",
                      "regenerated subgroups"]
    assert rep.passed and rep.flags == {"invariance_ok": True}
    assert all(row.lhs == 0 for row in rep.rows)


def test_invariance_on_constructed():
    cov = kummer_cover(5, 4, [((0, 1), 2), ((3, 1), 1)])
    rep = check_invariance(cov)
    assert rep.passed
    # p = 5 is 1 mod every e_t here, so no single-place twist rows; the
    # place x still has deg * f = 2, keeping the point re-choice variant
    assert [row.label for row in rep.rows] == ["point re-choice", "regenerated subgroups"]


def test_full_verification_kinds():
    cov = kummer_cover(5, 2, [((0, 1), 1), ((4, 1), 1)])
    reports = full_verification(cov)
    assert [rep.kind for rep in reports] == [
        "strong", "weak", "invariance", "restriction", "restriction",
    ]
    assert all(rep.passed for rep in reports)


def test_report_serialization_and_describe():
    cov = artin_schreier_cover(2, [((0, 1), -1)])
    rep = check_strong(cov)
    text = json.dumps(rep.to_json_obj(), sort_keys=True)
    obj = json.loads(text)
    assert obj["kind"] == "strong" and obj["passed"] is True
    assert obj["rows"][0]["lhs"] == "1"
    description = rep.describe()
    assert "strong check" in description and "[ok]" in description
    skipped = VerificationReport(
        kind="weak",
        cover="cover",
        rows=(ReportRow(label="chi", lhs=Fraction(1), rhs=None),),
        flags={"weak_ok": None},
    )
    assert "skip" in skipped.describe() and skipped.passed
    assert skipped.to_json_obj()["rows"][0]["rhs"] is None


# -- each gating flag can fail ----------------------------------------------


def test_strong_flag_fails_on_a_perturbed_euler_side(monkeypatch):
    cov = kummer_cover(5, 4, [((0, 1), 2), ((3, 1), 1)])
    assert check_strong(cov).flags["strong_ok"] is True
    closed = verify.multiplicity_closed

    def bumped(cover, divisor, chi):
        return closed(cover, divisor, chi) + (0 if chi == chi.domain.trivial_character() else 1)

    monkeypatch.setattr(verify, "multiplicity_closed", bumped)
    rep = check_strong(cov)
    assert rep.flags["strong_ok"] is False and not rep.passed


def test_weak_flag_fails_on_a_scaled_structure_side(monkeypatch):
    cov = kummer_cover(5, 4, [((0, 1), 2), ((3, 1), 1)])
    assert check_weak(cov).flags["weak_ok"] is True
    structure = verify.euler_char_structure_sheaf
    monkeypatch.setattr(verify, "euler_char_structure_sheaf", lambda c: structure(c).scale(2))
    rep = check_weak(cov)
    assert rep.flags["weak_ok"] is False and not rep.passed


def test_restriction_flag_fails_on_a_perturbed_subcover(monkeypatch):
    covers = constructed_corpus()
    subcover = verify.subcover_data

    def bumped(cover, sub):
        quotient = subcover(cover, sub)
        quotient.g_base += 1
        return quotient

    monkeypatch.setattr(verify, "subcover_data", bumped)
    for cov in covers:
        rep = check_restriction(cov, cov.group.full_subgroup())
        assert rep.flags["restriction_ok"] is False, cov.summary()


def test_invariance_flag_fails_on_a_perturbed_variant(monkeypatch):
    cov = kummer_cover(5, 4, [((0, 1), 2), ((3, 1), 1)])
    variants = verify._invariance_variants

    def with_perturbed(cover):
        bad = verify._with_places(cover, cover.places)
        bad.g_base += 1
        return variants(cover) + [("perturbed", bad)]

    monkeypatch.setattr(verify, "_invariance_variants", with_perturbed)
    rep = check_invariance(cov)
    assert rep.flags["invariance_ok"] is False and not rep.passed
    assert [row.passed for row in rep.rows] == [True, True, False]


def test_invariance_flag_fails_on_a_variant_with_a_non_frobenius_cotangent_power(monkeypatch):
    # the powers of 2 mod 7 are 1, 2, 4, so the cube of the cotangent
    # character is no Frobenius twist: the variant is a different datum
    # (still with an integral structure element), and it must not be
    # answered from the base datum's tables
    group = AbelianGroup((7,))
    full = group.full_subgroup()
    xi = cyclic_character(full, (1,), 1)
    q = dict(label="q", degree=3, inertia=full, decomposition=full, tame_char=xi)
    cov = synthetic_cover(group, 2, 1, 0, [q])
    variants = verify._invariance_variants

    def with_perturbed(cover):
        (place,) = cover.places
        cubed = dataclasses.replace(place, tame_char=place.tame_char**3)
        return variants(cover) + [("perturbed", verify._with_places(cover, [cubed]))]

    monkeypatch.setattr(verify, "_invariance_variants", with_perturbed)
    rep = check_invariance(cov)
    assert rep.flags["invariance_ok"] is False and not rep.passed
    assert [row.passed for row in rep.rows] == [True, True, True, True, False]
    # eps, psi, mult and dir of each of the six nontrivial characters move
    assert rep.rows[-1].lhs == 24


def test_invariance_counts_the_quantities_before_an_incomplete_character():
    # not weakly ramified and no conductors: chi(0) has an epsilon ledger,
    # chi(1) is wild at q and stops the ledgers there, so each variant
    # compares exactly one quantity
    group = AbelianGroup((6,))
    full = group.full_subgroup()
    tame, wild = group.subgroup([(3,)]), group.subgroup([(2,)])
    places = [
        dict(label="t", degree=2, inertia=tame, decomposition=full,
             tame_char=group.character((3,)).restrict(tame)),
        dict(label="q", degree=2, inertia=wild, decomposition=full,
             tame_char=wild.trivial_character()),
    ]
    cov = synthetic_cover(group, 3, 1, 0, places, weakly_ramified=False)
    rows = [
        {"label": label, "lhs": "0", "rhs": "0", "parts": {"quantities": "1"}, "passed": True}
        for label in ("point re-choice", "regenerated subgroups")
    ]
    assert check_invariance(cov).to_json_obj() == {
        "kind": "invariance",
        "cover": "synthetic cover (Z/6, p=3, r=1, g_base=0, 2 ramified place(s))",
        "passed": True,
        "flags": {"invariance_ok": True},
        "notes": ["1 quantities per variant"],
        "rows": rows,
    }


def _cyclic_subgroups_by_every_element(group):
    # the plain enumeration: one subgroup per element, duplicates dropped
    seen = {}
    for g in group.elements():
        sub = group.subgroup([g])
        seen.setdefault(frozenset(sub.element_set), sub)
    return sorted(seen.values(), key=lambda s: (s.order, sorted(s.element_set)))


def test_cyclic_subgroups_match_the_plain_enumeration():
    groups = [cover.group for cover in constructed_corpus()]
    groups += [AbelianGroup((2, 2, 4)), AbelianGroup((3, 9)), AbelianGroup((60,))]
    for group in groups:
        fast = verify._cyclic_subgroups(group)
        plain = _cyclic_subgroups_by_every_element(group)
        assert [s.element_set for s in fast] == [s.element_set for s in plain]
        assert [s.generators for s in fast] == [s.generators for s in plain]


def test_cyclic_subgroups_of_a_large_cyclic_group_are_fast():
    group = AbelianGroup((4620,))
    start = time.perf_counter()
    subs = verify._cyclic_subgroups(group)
    assert time.perf_counter() - start < 1.0
    # one subgroup per divisor of 4620 = 2^2 * 3 * 5 * 7 * 11
    assert len(subs) == 48
    assert sorted(s.order for s in subs) == [d for d in range(1, 4621) if 4620 % d == 0]


def test_invariance_variants_keep_every_field_they_do_not_change():
    # a tame place with Frobenius twists, and a wild place carrying
    # conductor overrides; the cover carries a divisor and g_cover
    group = AbelianGroup((14,))
    tame = group.subgroup([(2,)])
    wild = group.subgroup([(7,)])
    odd = {chi: 2 for chi in group.characters() if not chi.trivial_on(wild)}
    places = [
        dict(label="q", degree=3, inertia=tame, decomposition=tame,
             tame_char=cyclic_character(tame, (2,), 1)),
        dict(label="w", degree=1, inertia=wild, decomposition=wild,
             tame_char=wild.trivial_character(), conductor_overrides=odd),
    ]
    cov = synthetic_cover(group, 2, 1, 0, places)
    cov.divisor = RationalFunctionDivisor(2, [((0, 1), 1)])
    cov.g_cover = 5
    variants = verify._invariance_variants(cov)
    assert [label for label, _ in variants] == [
        "twist q p^1", "twist q p^2", "point re-choice", "regenerated subgroups"]
    kept = ("group", "p", "r", "g_base", "weakly_ramified", "kind", "divisor", "g_cover")
    for label, variant in variants:
        for name in kept:
            assert getattr(variant, name) == getattr(cov, name), (label, name)
        for before, after in zip(cov.places, variant.places, strict=True):
            assert (after.label, after.p, after.degree) == (before.label, before.p, before.degree)
            assert after.conductor_overrides is before.conductor_overrides, label
            assert after.inertia.element_set == before.inertia.element_set, label
            assert after.decomposition.element_set == before.decomposition.element_set, label
            if label != "regenerated subgroups":
                assert after.inertia is before.inertia, label
                assert after.decomposition is before.decomposition, label
    # the twists move only the cotangent character, by a Frobenius power
    q = cov.places[0]
    twisted = variants[0][1].places[0]
    assert twisted.tame_char == q.tame_char**2
    assert check_invariance(cov).passed
