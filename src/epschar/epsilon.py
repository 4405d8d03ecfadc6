"""Valuations of epsilon constants attached to characters of a cover.

Everything is modeled up to roots of unity, so an epsilon constant is
recorded only through its p-adic valuation, normalized by v_p(p) = 1.
Per character the global valuation splits as

    r (g_base - 1)  +  sum over places of a local term,

where the local term is 0 at places unramified for the character, the
valuation of a tame Gauss sum over the residue field at tamely
ramified places, and deg(q) cond / 2 at wildly ramified places.
Two independent oracles compute the tame Gauss valuation: the
fractional-part (digit sum) formula and an explicit p-adic expansion
of the Gauss sum itself.

The normalisation is the standard one of the functional equations of
Artin L-functions, with geometric Frobenius (Deligne, "Les constantes
des equations fonctionnelles des fonctions L", 1973): every local term
is evaluated at chi itself.  With arithmetic Frobenius the constant of
chi is the one recorded here for chi^-1.  The top coefficient of
L(chi, t), computed from point counts on the constructed Kummer covers,
matched these ledgers on 35 of 35 nontrivial characters with geometric
Frobenius, and matched the ledgers of chi^-1 instead with arithmetic
Frobenius.
"""

from dataclasses import dataclass
from fractions import Fraction

from .covers import CoverDatum, PlaceDatum
from .errors import InvalidInputError, UnsupportedCoverError
from .fields import PrimePower, make_field
from .groups import Character, K0Element, LEVEL_CHAR0, char_label
from .padic import padic_gauss_valuation
from .cyclotomic import MultChar
from .stickelberger import TameLocalDatum, c_from_d, stickelberger_valuation

ORACLE_STICKELBERGER = "stickelberger"
ORACLE_PADIC = "padic"
ORACLES = (ORACLE_STICKELBERGER, ORACLE_PADIC)


@dataclass(frozen=True)
class LocalEpsilonVal:
    place: str
    kind: str  # 'unramified' | 'tame' | 'wild'
    valuation: Fraction
    gauss_index: int = 0  # multiplicative index over the residue field when tame


@dataclass
class EpsilonLedger:
    """Per-character breakdown of the global epsilon valuation."""

    character: Character
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


def local_epsilon(
    cover: CoverDatum,
    place: PlaceDatum,
    chi: Character,
    oracle: str = ORACLE_STICKELBERGER,
) -> LocalEpsilonVal:
    """Valuation of the local epsilon factor of chi at one place.

    At a wild place chi restricted to inertia must have p-power order.
    Its values then lie in Q(zeta_(p^k)), which has a single prime above
    p, and complex conjugation fixes that prime; with
    |epsilon_v|^2 = q_v^cond this gives v_p(epsilon_v) = deg cond / 2
    (Tate, "Number theoretic background", Corvallis 1979, section 3).
    A character that is nontrivial on both the wild and the tame part
    of inertia takes values in Q(zeta_(p^k m)) with m > 1 prime to p.
    There p can split, and complex conjugation need not fix a prime
    above it, so the absolute value no longer fixes the valuation: such
    a character raises UnsupportedCoverError.
    """
    _check_oracle(oracle)
    kind = place.ramification_kind(chi)
    if kind == "unramified":
        return LocalEpsilonVal(place.label, kind, Fraction(0))
    if kind == "wild":
        if place.e_t > 1 and not (chi**place.e_w).trivial_on(place.inertia):
            raise UnsupportedCoverError(
                "place %s: %s is nontrivial on both the wild and the tame part of "
                "inertia; its local epsilon valuation is not determined by the "
                "conductor" % (place.label, char_label(chi))
            )
        cd = place.conductor(chi, cover.weakly_ramified)
        return LocalEpsilonVal(place.label, kind, Fraction(place.degree * cd, 2))
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
) -> EpsilonLedger:
    """Ledger of the valuation of the global epsilon constant of chi."""
    _check_oracle(oracle)
    locals_ = tuple(local_epsilon(cover, q, chi, oracle=oracle) for q in cover.places)
    return EpsilonLedger(chi, Fraction(cover.r * (cover.g_base - 1)), locals_)


def epsilon_ledgers(cover: CoverDatum, oracle: str = ORACLE_STICKELBERGER):
    """Yield global_epsilon_valuation's ledger for each of cover.characters().

    A local term depends on the character only through its restriction
    to the inertia group, or, where conductors are overridden, through the
    whole character; each place keeps one table of its terms under that
    key, built as the characters are reached.  The generator is lazy, so
    a caller sees every ledger before the first IncompleteDatumError or
    UnsupportedCoverError.
    """
    _check_oracle(oracle)
    base_term = Fraction(cover.r * (cover.g_base - 1))
    tables = [{} for _ in cover.places]
    for chi in cover.characters():
        locals_ = []
        for q, table in zip(cover.places, tables):
            key = chi if q.conductor_overrides is not None else q.inertia._key(chi.vector)
            lv = table.get(key)
            if lv is None:
                lv = table[key] = local_epsilon(cover, q, chi, oracle=oracle)
            locals_.append(lv)
        yield EpsilonLedger(chi, base_term, tuple(locals_))


def E_element(cover: CoverDatum, oracle: str = ORACLE_STICKELBERGER) -> K0Element:
    """The virtual character with <E, chi> = -v_p of the epsilon constant of chi.

    Returned at the characteristic-zero level with the prime recorded;
    integrality of the coefficients is a theorem in the weakly
    ramified case and is left to the callers to check, not asserted.
    """
    coeffs = {ledger.character: -ledger.total for ledger in epsilon_ledgers(cover, oracle)}
    return K0Element(cover.group, LEVEL_CHAR0, coeffs, p=cover.p)
