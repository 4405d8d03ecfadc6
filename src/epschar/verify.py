"""End-to-end certification of the valuation formulas.

Every check produces a VerificationReport: a list of rows comparing two
exact rational quantities computed along independent code paths, plus
aggregate pass flags.  A quantity is an int when it is integral and a
Fraction only otherwise, so every gating comparison is an exact
equality; nothing here touches floating point.

The four checks:

  check_strong       -v_p(epsilon constant of chi) against the Euler
                     multiplicity at the canonical wild divisor plus the
                     wild invariants correction, per character.
  check_weak         image of E under the decomposition map against the
                     equivariant Euler characteristic of the structure
                     sheaf, per modular character.
  check_restriction  E of the cover restricted to a subgroup against E
                     of the intermediate cover, plus the matching
                     bookkeeping on the structure-element side.
  check_invariance   all reported quantities recomputed after the
                     presentation choices (residue embedding, point over
                     a place, subgroup generators) are changed.
"""

from dataclasses import dataclass, replace
from math import gcd

from .errors import CapacityError, IncompleteDatumError, NotWeaklyRamifiedError
from .groups import (
    K0Element,
    char_label,
    decomposition_map,
    e_map,
    modular_basis,
    restrict,
)
from .covers import CoverDatum, PlaceDatum, subcover_data
from .epsilon import ORACLE_PADIC, ORACLE_STICKELBERGER, E_element, epsilon_ledgers
from .numutil import exact_str
from .euler import (
    DivisorSpec,
    euler_char_structure_sheaf,
    multiplicities_closed,
    multiplicities_direct,
    multiplicity_closed,
    psi_structure,
    wild_induction_term,
)

# check_invariance reruns every route on the datum and on each variant, for
# each of the |G| characters at each place and once more place-free: that is
# (variants + 1) |G| (places + 2) units of 1.0-1.4 us on a 2 vCPU VM, so the
# largest admitted shapes take about 10 s (README, "Capacity probe").
MAX_INVARIANCE_WORK = 8 * 10**6


@dataclass(frozen=True)
class ReportRow:
    """One exact comparison: passed is None when a side was not evaluated."""

    label: str
    lhs: object
    rhs: object
    parts: tuple = ()
    passed: object = None


@dataclass
class VerificationReport:
    kind: str
    cover: str
    rows: tuple
    flags: dict
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        """True when no evaluated flag failed; None-valued flags do not gate."""
        return all(v is not False for v in self.flags.values())

    def describe(self) -> str:
        lines = ["%s check: %s" % (self.kind, self.cover)]
        flagbits = []
        for name, v in self.flags.items():
            flagbits.append("%s=%s" % (name, "skipped" if v is None else v))
        lines.append("  flags: " + ", ".join(flagbits))
        for note in self.notes:
            lines.append("  note: %s" % note)
        for row in self.rows:
            verdict = "skip" if row.passed is None else ("ok" if row.passed else "FAIL")
            detail = ""
            if row.parts:
                detail = " (" + ", ".join("%s=%s" % (k, v) for k, v in row.parts) + ")"
            lines.append(
                "  %-18s lhs=%s rhs=%s%s [%s]"
                % (row.label, exact_str(row.lhs), exact_str(row.rhs), detail, verdict)
            )
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "cover": self.cover,
            "passed": self.passed,
            "flags": {k: v for k, v in sorted(self.flags.items())},
            "notes": list(self.notes),
            "rows": [
                {
                    "label": r.label,
                    "lhs": exact_str(r.lhs),
                    "rhs": exact_str(r.rhs),
                    "parts": {k: exact_str(v) for k, v in r.parts},
                    "passed": r.passed,
                }
                for r in self.rows
            ],
        }


def _coefficient_rows(prefix, basis, lhs, rhs) -> list:
    """A row per character of basis comparing its coefficients in the K0
    elements lhs and rhs; with rhs None the rows are skipped."""
    rows = []
    for chi in basis:
        a = lhs.coefficient(chi)
        b = None if rhs is None else rhs.coefficient(chi)
        rows.append(ReportRow(prefix + char_label(chi), a, b, passed=None if rhs is None else a == b))
    return rows


# every epsilon valuation is normalised with geometric Frobenius (see epsilon)
_NORMALISATION_NOTE = "convention=standard"


# ---------------------------------------------------------------------------


def check_strong(cover: CoverDatum, oracle: str = ORACLE_PADIC) -> VerificationReport:
    """Per-character comparison of the two sides of the valuation formula.

    LHS is -v_p of the global epsilon constant, by default through the
    p-adic Gauss-sum oracle so the two sides share no code path; RHS is
    the Euler multiplicity at the canonical wild divisor plus, for each
    wild place, deg(q) when chi is trivial on the inertia group there.
    Integrality of every LHS is reported as its own flag.
    """
    if not cover.weakly_ramified:
        raise NotWeaklyRamifiedError(
            "the strong check needs a weakly ramified datum; got %s" % cover.summary()
        )
    d_wild = DivisorSpec.wild_canonical(cover)
    rows = []
    all_eq = True
    all_int = True
    for ledger in epsilon_ledgers(cover, oracle):
        chi = ledger.character
        lhs = ledger.negated_total
        euler_term = multiplicity_closed(cover, d_wild, chi)
        wild_term = sum(q.degree for q in cover.wild_places() if chi.trivial_on(q.inertia))
        rhs = euler_term + wild_term
        ok = lhs == rhs
        all_eq = all_eq and ok
        all_int = all_int and lhs.denominator == 1
        rows.append(
            ReportRow(
                label=char_label(chi),
                lhs=lhs,
                rhs=rhs,
                parts=(("euler", euler_term), ("wild_ind", wild_term)),
                passed=ok,
            )
        )
    return VerificationReport(
        kind="strong",
        cover=cover.summary(),
        rows=tuple(rows),
        flags={"strong_ok": all_eq, "integral_ok": all_int},
        notes=("oracle=%s" % oracle, _NORMALISATION_NOTE),
    )


def check_weak(cover: CoverDatum, oracle: str = ORACLE_STICKELBERGER) -> VerificationReport:
    """Image of E in the modular basis against the structure-sheaf element.

    On a datum that is not weakly ramified (possible when per-character
    conductors are supplied) the structure side has no meaning, so its
    rows are marked skipped and only integrality of E is still examined.
    """
    e_elt = E_element(cover, oracle=oracle)
    image = decomposition_map(e_elt)
    structure = euler_char_structure_sheaf(cover) if cover.weakly_ramified else None
    rows = _coefficient_rows("", modular_basis(cover.group, cover.p), image, structure)
    weak_ok = None if structure is None else all(row.passed for row in rows)
    notes = ["oracle=%s" % oracle, _NORMALISATION_NOTE]
    if structure is None:
        notes.append("structure side skipped: datum is not weakly ramified")
    return VerificationReport(
        kind="weak",
        cover=cover.summary(),
        rows=tuple(rows),
        flags={"weak_ok": weak_ok, "integral_ok": e_elt.is_integral()},
        notes=tuple(notes),
    )


def _formula_rhs_element(cover: CoverDatum) -> K0Element:
    """Whole-formula right side as one virtual character: e(psi) + inductions."""
    return e_map(psi_structure(cover)) + wild_induction_term(cover)


def _cover_side(cover: CoverDatum):
    """E of the cover and, on weakly ramified data, its right-side element."""
    e_elt = E_element(cover, oracle=ORACLE_STICKELBERGER)
    return e_elt, _formula_rhs_element(cover) if cover.weakly_ramified else None


def check_restriction(cover: CoverDatum, sub, cover_side=None) -> VerificationReport:
    """Restriction of E to a subgroup against E of the intermediate cover.

    Also checks the bookkeeping on the structure side: restricting the
    whole right-side element of the big cover must land exactly on the
    right-side element computed from the intermediate cover's own data.
    For an abelian group every inertia subgroup at a wild place is a
    p-group, so no place can be wild upstairs but tame for the subcover;
    the correction terms therefore match place by place.  Both E are
    read through the Stickelberger oracle.  cover_side is the cover's
    _cover_side, built here when not given.
    """
    subcov = subcover_data(cover, sub)
    e_cover, side_cover = cover_side or _cover_side(cover)
    e_sub = E_element(subcov, oracle=ORACLE_STICKELBERGER)
    rows = _coefficient_rows("E ", sub.characters(), restrict(e_cover, sub), e_sub)
    e_ok = all(row.passed for row in rows)
    side_ok = None
    if cover.weakly_ramified:
        side_rows = _coefficient_rows(
            "rhs ", sub.characters(), restrict(side_cover, sub), _formula_rhs_element(subcov)
        )
        side_ok = all(row.passed for row in side_rows)
        rows += side_rows
    return VerificationReport(
        kind="restriction",
        cover="%s | subgroup of order %d" % (cover.summary(), sub.order),
        rows=tuple(rows),
        flags={"restriction_ok": e_ok, "structure_side_ok": side_ok},
        notes=("oracle=%s" % ORACLE_STICKELBERGER, "subcover: %s" % subcov.summary()),
    )


# ---------------------------------------------------------------------------


def _snapshot(cover: CoverDatum) -> dict:
    """Every reported quantity of a datum, keyed by a stable label."""
    out = {}
    labels = [char_label(chi) for chi in cover.characters()]
    try:
        # lazy: the ledgers before the first incomplete character count
        for label, ledger in zip(labels, epsilon_ledgers(cover, ORACLE_STICKELBERGER)):
            out["eps " + label] = ledger.total
    except IncompleteDatumError:
        pass
    if cover.weakly_ramified:
        d_wild = DivisorSpec.wild_canonical(cover)
        psi = psi_structure(cover, d_wild)
        for theta in modular_basis(cover.group, cover.p):
            out["psi %s" % char_label(theta)] = psi.coefficient(theta)
        both = zip(
            labels,
            multiplicities_closed(cover, d_wild),
            multiplicities_direct(cover, d_wild),
        )
        for label, closed, direct in both:
            out["mult " + label] = closed
            out["dir " + label] = direct
    return out


def _regenerated_subgroup(group, sub):
    # same subgroup presented by its full element list instead of the
    # original generators
    return group.subgroup(sorted(sub.element_set))


def _regenerated_place(group, q: PlaceDatum) -> PlaceDatum:
    inertia = _regenerated_subgroup(group, q.inertia)
    return replace(
        q,
        inertia=inertia,
        decomposition=_regenerated_subgroup(group, q.decomposition),
        tame_char=q.tame_char.restrict(inertia),
    )


def _with_places(cover: CoverDatum, places) -> CoverDatum:
    return replace(cover, places=tuple(places))


def _invariance_plan(cover: CoverDatum):
    """The (place index, j) of each Frobenius twist check_invariance makes,
    and whether it re-chooses the points; CapacityError past
    MAX_INVARIANCE_WORK, before any variant is built.

    A twist by p^j with p^j = 1 mod e_t leaves the datum as it is.
    """
    twists = [(idx, j) for idx, q in enumerate(cover.places) if q.e_t > 1
              for j in range(1, q.degree * q.f) if pow(cover.p, j, q.e_t) != 1]
    # re-choice of the point over every place at once: for an abelian
    # group conjugation is trivial, so a different point only composes
    # the residue embedding with a Frobenius power
    rechoice = any(q.e_t > 1 and q.degree * q.f > 1 for q in cover.places)
    variants, order, places = len(twists) + rechoice + 1, cover.group.order, len(cover.places)
    if (variants + 1) * order * (places + 2) > MAX_INVARIANCE_WORK:
        raise CapacityError(
            "check_invariance would rerun every route on %d variants of a group of order %d with %d "
            "place(s); (variants + 1) |G| (places + 2) <= %d is supported"
            % (variants, order, places, MAX_INVARIANCE_WORK))
    return twists, rechoice


def _invariance_variants(cover: CoverDatum):
    """Named variants of the datum that must report identical quantities."""
    twists, rechoice = _invariance_plan(cover)
    variants = []
    for idx, j in twists:
        q = cover.places[idx]
        places = list(cover.places)
        places[idx] = q.twisted(j)
        variants.append(("twist %s p^%d" % (q.label, j), _with_places(cover, places)))
    if rechoice:
        places = [q.twisted(i + 1) for i, q in enumerate(cover.places)]
        variants.append(("point re-choice", _with_places(cover, places)))
    regen = [_regenerated_place(cover.group, q) for q in cover.places]
    variants.append(("regenerated subgroups", _with_places(cover, regen)))
    return variants


def check_invariance(cover: CoverDatum) -> VerificationReport:
    """Reported quantities must not depend on presentation choices.

    Variants rerun every formula path after (a) twisting one place's
    cotangent character by each power of Frobenius, (b) re-choosing the
    point over every place at once and (c) regenerating all subgroup
    objects from their element sets.  Rows count exact mismatches.
    """
    base = _snapshot(cover)
    rows = []
    all_ok = True
    for label, variant in _invariance_variants(cover):
        got = _snapshot(variant)
        mismatched = sum(1 for k, v in base.items() if got.get(k) != v)
        mismatched += sum(1 for k in got if k not in base)
        ok = mismatched == 0
        all_ok = all_ok and ok
        rows.append(
            ReportRow(
                label=label,
                lhs=mismatched,
                rhs=0,
                parts=(("quantities", len(base)),),
                passed=ok,
            )
        )
    return VerificationReport(
        kind="invariance",
        cover=cover.summary(),
        rows=tuple(rows),
        flags={"invariance_ok": all_ok},
        notes=("%d quantities per variant" % len(base),),
    )


# ---------------------------------------------------------------------------


def _cyclic_subgroups(group):
    """All subgroups generated by one element, smallest first."""
    subs = []
    covered = set()  # generators of the subgroups found so far
    for g in group.elements():
        if g in covered:
            continue
        sub = group.subgroup([g])
        subs.append(sub)
        # g^k generates the same subgroup exactly when gcd(k, |g|) = 1
        h = group.identity
        for k in range(1, sub.order + 1):
            h = group.mul(h, g)
            if gcd(k, sub.order) == 1:
                covered.add(h)
    return sorted(subs, key=lambda s: (s.order, s.elements()))


def full_verification(cover: CoverDatum, oracle: str = ORACLE_PADIC):
    """Run every applicable check on one datum, returning the reports."""
    _invariance_plan(cover)  # an oversized invariance check is refused before any check runs
    reports = []
    if cover.weakly_ramified:
        reports.append(check_strong(cover, oracle=oracle))
    reports.append(check_weak(cover))
    reports.append(check_invariance(cover))
    if cover.g_cover is not None and cover.r == 1:
        # the cover's side depends on no subgroup: build it once, for this call only
        cover_side = _cover_side(cover)
        for sub in _cyclic_subgroups(cover.group):
            reports.append(check_restriction(cover, sub, cover_side))
    return reports
