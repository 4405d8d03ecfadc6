"""Valuations of epsilon constants attached to characters of a cover.

Everything is modeled up to roots of unity, so an epsilon constant is
recorded only through its p-adic valuation, normalized by v_p(p) = 1.
Per character the global valuation splits as

    r (g_base - 1)  +  sum over places of a local term,

where the local term is 0 at places unramified for the character, the
valuation of a tame Gauss sum over the residue field at tamely
ramified places, and deg(q) (cond - 1) at wildly ramified places.
Two independent oracles compute the tame Gauss valuation: the
fractional-part (digit sum) formula and an explicit p-adic expansion
of the Gauss sum itself.
"""

from dataclasses import dataclass
from fractions import Fraction

from .covers import CoverDatum, PlaceDatum
from .errors import InvalidInputError
from .fields import PrimePower, make_field
from .groups import Character, K0Element, LEVEL_CHAR0, char_label
from .padic import padic_gauss_valuation
from .cyclotomic import MultChar
from .stickelberger import TameLocalDatum, c_from_d, stickelberger_valuation

ORACLE_STICKELBERGER = "stickelberger"
ORACLE_PADIC = "padic"
ORACLES = (ORACLE_STICKELBERGER, ORACLE_PADIC)

CONVENTION_STANDARD = "standard"
CONVENTION_INVERTED = "inverted"
CONVENTIONS = (CONVENTION_STANDARD, CONVENTION_INVERTED)


@dataclass(frozen=True)
class LocalEpsilonVal:
    place: str
    kind: str  # 'unramified' | 'tame' | 'wild'
    valuation: Fraction
    gauss_index: int = 0  # multiplicative index over the residue field when tame


@dataclass
class EpsilonLedger:
    """Per-character breakdown of the global epsilon valuation."""

    cover: str
    character: Character
    convention: str
    oracle: str
    base_term: Fraction
    locals: tuple

    @property
    def total(self) -> Fraction:
        return self.base_term + sum((lv.valuation for lv in self.locals), Fraction(0))

    @property
    def char_name(self) -> str:
        return char_label(self.character)

    def describe(self) -> str:
        parts = ["%s: r(g-1) = %s" % (self.char_name, self.base_term)]
        for lv in self.locals:
            parts.append("%s[%s] %s" % (lv.place, lv.kind, lv.valuation))
        return "; ".join(parts) + " => " + str(self.total)


def _check_oracle(oracle):
    if oracle not in ORACLES:
        raise InvalidInputError("unknown oracle %r; choose from %s" % (oracle, ORACLES))


def _check_convention(convention):
    if convention not in CONVENTIONS:
        raise InvalidInputError(
            "unknown convention %r; choose from %s" % (convention, CONVENTIONS)
        )


def local_epsilon(
    cover: CoverDatum,
    place: PlaceDatum,
    chi: Character,
    oracle: str = ORACLE_STICKELBERGER,
) -> LocalEpsilonVal:
    """Valuation of the local epsilon factor of chi at one place."""
    _check_oracle(oracle)
    kind = place.ramification_kind(chi)
    if kind == "unramified":
        return LocalEpsilonVal(place.label, kind, Fraction(0))
    if kind == "wild":
        cd = place.conductor(chi, cover.weakly_ramified)
        return LocalEpsilonVal(place.label, kind, Fraction(place.degree * (cd - 1)))
    datum = TameLocalDatum(PrimePower(cover.p, place.degree), place.e_t, place.e_w)
    d = place.tame_index(chi)
    c = c_from_d(datum, d)
    if oracle == ORACLE_STICKELBERGER:
        val = stickelberger_valuation(datum, d)
    else:
        ctx = make_field(cover.p, place.degree)
        val = padic_gauss_valuation(ctx, MultChar(ctx, c))
    return LocalEpsilonVal(place.label, kind, val, gauss_index=c)


def global_epsilon_valuation(
    cover: CoverDatum,
    chi: Character,
    oracle: str = ORACLE_STICKELBERGER,
    convention: str = CONVENTION_STANDARD,
) -> EpsilonLedger:
    """Ledger of the valuation of the global epsilon constant of chi.

    Under the inverted convention all local data is evaluated at the
    inverse character; the base term is unaffected.
    """
    _check_convention(convention)
    work = chi if convention == CONVENTION_STANDARD else chi.inverse()
    locals_ = tuple(local_epsilon(cover, q, work, oracle=oracle) for q in cover.places)
    return EpsilonLedger(
        cover=cover.summary(),
        character=chi,
        convention=convention,
        oracle=oracle,
        base_term=Fraction(cover.r * (cover.g_base - 1)),
        locals=locals_,
    )


def epsilon_ledgers(
    cover: CoverDatum,
    oracle: str = ORACLE_STICKELBERGER,
    convention: str = CONVENTION_STANDARD,
):
    """Yield global_epsilon_valuation's ledger for each of cover.characters().

    A local term depends on the character only through its restriction
    to the inertia group, or, where conductors are overridden, through the
    whole character; each place keeps one table of its terms under that
    key, built as the characters are reached.  The generator is lazy, so
    a caller sees every ledger before the first IncompleteDatumError.
    """
    _check_convention(convention)
    summary = cover.summary()
    base_term = Fraction(cover.r * (cover.g_base - 1))
    tables = [{} for _ in cover.places]
    for chi in cover.characters():
        work = chi if convention == CONVENTION_STANDARD else chi.inverse()
        locals_ = []
        for q, table in zip(cover.places, tables):
            key = work if q.conductor_overrides is not None else q.inertia._key(work.vector)
            lv = table.get(key)
            if lv is None:
                lv = table[key] = local_epsilon(cover, q, work, oracle=oracle)
            locals_.append(lv)
        yield EpsilonLedger(
            cover=summary,
            character=chi,
            convention=convention,
            oracle=oracle,
            base_term=base_term,
            locals=tuple(locals_),
        )


def E_element(
    cover: CoverDatum,
    oracle: str = ORACLE_STICKELBERGER,
    convention: str = CONVENTION_STANDARD,
) -> K0Element:
    """The virtual character with <E, chi> = -v_p of the epsilon constant of chi.

    Returned at the characteristic-zero level with the prime recorded;
    integrality of the coefficients is a theorem in the weakly
    ramified case and is left to the callers to check, not asserted.
    """
    coeffs = {
        ledger.character: -ledger.total for ledger in epsilon_ledgers(cover, oracle, convention)
    }
    return K0Element(cover.group, LEVEL_CHAR0, coeffs, p=cover.p)
