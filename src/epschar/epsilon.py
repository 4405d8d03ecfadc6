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
of the Gauss sum itself.  Each local term is an integer numerator and
denominator from one kernel, which the per-character and the tabled
ledgers both call.  A term's valuation and a ledger's total are exact:
an int when the value is integral, as it is for every total in the
weakly ramified case, and a Fraction only otherwise.

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
from math import lcm
from typing import NamedTuple

from .covers import CoverDatum, PlaceDatum
from .errors import InvalidInputError, UnsupportedCoverError
from .fields import make_field
from .groups import Character, K0Element, LEVEL_CHAR0, char_label
from .numutil import exact_ratio
from .padic import padic_gauss_valuation
from .stickelberger import c_from_d, stickelberger_numerator

ORACLE_STICKELBERGER = "stickelberger"
ORACLE_PADIC = "padic"
ORACLES = (ORACLE_STICKELBERGER, ORACLE_PADIC)


class LocalEpsilonVal(NamedTuple):
    """One local term, numerator / denominator (not always in lowest terms).

    Equality is that of the raw fields, as for any tuple: two terms of
    equal value can compare unequal when one is not in lowest terms, and
    a plain tuple with the same fields compares equal.  Compare values
    through valuation, and ledgers through their terms' valuations or
    their totals.
    """

    place: str
    kind: str  # 'unramified' | 'tame' | 'wild'
    numerator: int
    denominator: int = 1
    gauss_index: int = 0  # multiplicative index over the residue field when tame

    @property
    def valuation(self) -> int | Fraction:
        return exact_ratio(self.numerator, self.denominator)


@dataclass
class EpsilonLedger:
    """Per-character breakdown of the global epsilon valuation."""

    character: Character
    base_term: int
    locals: tuple

    def _sum(self):
        """The base term plus the local terms as one integer numerator and
        denominator.

        The common denominator grows to the lcm of the denominators met so
        far, so a ledger whose terms are all integers never takes an lcm.
        """
        num, den = self.base_term, 1
        for _, _, n, d, _ in self.locals:
            if den % d:
                m = lcm(den, d)
                num, den = num * (m // den), m
            num += n * (den // d)
        return num, den

    @property
    def total(self) -> int | Fraction:
        return exact_ratio(*self._sum())

    @property
    def negated_total(self) -> int | Fraction:
        """-total: the -v_p of the epsilon constant."""
        num, den = self._sum()
        return exact_ratio(-num, den)

    def describe(self) -> str:
        parts = ["%s: r(g-1) = %s" % (char_label(self.character), self.base_term)]
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

    Every term is built from integers: the wild one as deg cond over 2,
    the tame one as the Stickelberger sum over e_t or the p-adic
    valuation's numerator and denominator.

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
        return LocalEpsilonVal(place.label, kind, 0)
    if kind == "wild":
        if place.e_t > 1 and not (chi**place.e_w).trivial_on(place.inertia):
            raise UnsupportedCoverError(
                "place %s: %s is nontrivial on both the wild and the tame part of "
                "inertia; its local epsilon valuation is not determined by the "
                "conductor" % (place.label, char_label(chi))
            )
        cd = place.conductor(chi, cover.weakly_ramified)
        return LocalEpsilonVal(place.label, kind, place.degree * cd, 2)
    datum = place.tame_local_datum
    d = place.tame_index(chi)
    c = c_from_d(datum, d)
    if oracle == ORACLE_STICKELBERGER:
        return LocalEpsilonVal(place.label, kind, stickelberger_numerator(datum, d), datum.e_t, c)
    val = padic_gauss_valuation(make_field(cover.p, place.degree), c)
    return LocalEpsilonVal(place.label, kind, val.numerator, val.denominator, c)


def global_epsilon_valuation(
    cover: CoverDatum,
    chi: Character,
    oracle: str = ORACLE_STICKELBERGER,
) -> EpsilonLedger:
    """Ledger of the valuation of the global epsilon constant of chi."""
    _check_oracle(oracle)
    locals_ = tuple(local_epsilon(cover, q, chi, oracle=oracle) for q in cover.places)
    return EpsilonLedger(chi, cover.r * (cover.g_base - 1), locals_)


def epsilon_ledgers(cover: CoverDatum, oracle: str = ORACLE_STICKELBERGER):
    """Yield global_epsilon_valuation's ledger for each of cover.characters().

    A local term depends on the character only through its restriction
    to the inertia group, its conductor included; each place keeps one
    table of its terms under that key, built as the characters are
    reached.  The generator is lazy, so a caller sees every ledger before
    the first IncompleteDatumError or UnsupportedCoverError.
    """
    _check_oracle(oracle)
    base_term = cover.r * (cover.g_base - 1)
    columns = [(q, {}, q.inertia.restriction_keys(cover.group)) for q in cover.places]
    for i, chi in enumerate(cover.characters()):
        locals_ = []
        for q, table, keys in columns:
            key = keys[i]
            lv = table.get(key)
            if lv is None:
                lv = table[key] = local_epsilon(cover, q, chi, oracle)
            locals_.append(lv)
        yield EpsilonLedger(chi, base_term, tuple(locals_))


def E_element(cover: CoverDatum, oracle: str = ORACLE_STICKELBERGER) -> K0Element:
    """The virtual character with <E, chi> = -v_p of the epsilon constant of chi.

    Returned at the characteristic-zero level with the prime recorded;
    integrality of the coefficients is a theorem in the weakly
    ramified case and is left to the callers to check, not asserted.
    """
    coeffs = {ledger.character: ledger.negated_total for ledger in epsilon_ledgers(cover, oracle)}
    return K0Element(cover.group, LEVEL_CHAR0, coeffs, p=cover.p)
