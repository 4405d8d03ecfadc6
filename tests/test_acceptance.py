"""Acceptance sweep: the ten gating criteria, one test per criterion.

Run `pytest -s tests/test_acceptance.py` for a checklist-style printout;
each test ends with a single "criterion N (...): PASS" line.  Expected
values come either from an independent route computed inside the test or
from hand derivations recorded next to the tables below.
"""

import itertools
import random
import time
from fractions import Fraction

from epschar.corpus import (
    artin_schreier_corpus,
    kummer_corpus,
    mixed_synthetic_example,
    restriction_chain_covers,
    synthetic_corpus,
)
from epschar.cyclotomic import MultChar, complex_abs2, gauss_product_check, gauss_sum
from epschar.euler import DivisorSpec, multiplicity_closed, multiplicity_direct, psi_structure
from epschar.fields import PrimePower, make_field
from epschar.groups import (
    LEVEL_PROJECTIVES,
    AbelianGroup,
    K0Element,
    cartan_map,
    decomposition_map,
    e_map,
    induce,
    modular_basis,
    pairing,
    restrict,
)
from epschar.numutil import factorize, p_part, prime_divisors
from epschar.padic import padic_gauss_valuation
from epschar.stickelberger import (
    TameLocalDatum,
    c_from_d,
    d_from_c,
    digit_sum_valuation,
    s_tuple,
    stickelberger_valuation,
)
from epschar.verify import check_invariance, check_restriction, check_strong, check_weak

# every prime power p^r with p in {2, 3, 5, 7} and r <= 3; all are <= 343
SWEEP_FIELDS = [(p, r) for p in (2, 3, 5, 7) for r in (1, 2, 3)]


def _announce(number, name):
    print("criterion %d (%s): PASS" % (number, name))


# ---------------------------------------------------------------------------
# 1. the three valuation computations agree on every character


def test_criterion_01_valuation_oracles_agree():
    # digit sum, fractional-part sum and the p-adic construction must give
    # the same valuation for every multiplicative character of every field
    # in the sweep; the index conversion must round trip along the way
    start = time.time()
    for p, r in SWEEP_FIELDS:
        pp = PrimePower(p, r)
        ctx = make_field(p, r)
        datum = TameLocalDatum(pp, pp.q - 1)
        for c in range(pp.q - 1):
            d = d_from_c(datum, c)
            assert c_from_d(datum, d) == c
            v_digit = digit_sum_valuation(pp, c)
            v_frac = stickelberger_valuation(datum, d)
            v_padic = padic_gauss_valuation(ctx, MultChar(ctx, c))
            assert v_digit == v_frac == v_padic, (p, r, c)
    elapsed = time.time() - start
    assert elapsed < 60.0, "sweep took %.1f s" % elapsed
    _announce(1, "valuation oracles agree")


# ---------------------------------------------------------------------------
# 2. the Gauss sum product identity, exactly in the cyclotomic ring


def test_criterion_02_gauss_product_identity():
    # tau(chi) tau(chi twisted to its inverse) = chi(-1) q for every
    # nontrivial chi, checked exactly; the float channel |tau|^2 = q is
    # reported as a sanity line but does not gate
    worst = 0.0
    for p, r in SWEEP_FIELDS:
        ctx = make_field(p, r)
        for c in range(1, ctx.q - 1):
            chi = MultChar(ctx, c)
            assert gauss_product_check(ctx, chi), (p, r, c)
            rel = abs(complex_abs2(gauss_sum(ctx, chi)) - ctx.q) / ctx.q
            worst = max(worst, rel)
    print("  float sanity: max relative |tau|^2 deviation %.3e" % worst)
    if worst >= 1e-9:
        print("  warning: float channel drifted past 1e-9 (not gating)")
    _announce(2, "gauss product identity")


# ---------------------------------------------------------------------------
# 3. fractional-part tuples match the Frobenius orbit of the composed index


def test_criterion_03_tuple_multiset_identity():
    # for 500 random local data, the tuple from the cotangent index d must
    # equal, as a multiset, the orbit {c p^i / (q-1)} of the composed
    # multiplicative index c; computed here without touching s_tuple
    rng = random.Random(20260817)
    for _ in range(500):
        p, r = rng.choice(SWEEP_FIELDS)
        pp = PrimePower(p, r)
        q = pp.q
        e_t = rng.choice([k for k in range(1, q) if (q - 1) % k == 0])
        e_w = p ** rng.randrange(0, 4)
        datum = TameLocalDatum(pp, e_t, e_w)
        d = rng.randrange(e_t)
        c = c_from_d(datum, d)
        expected = sorted(Fraction((c * p**i) % (q - 1), q - 1) for i in range(r))
        assert sorted(s_tuple(datum, d)) == expected, (p, r, e_t, e_w, d)
    _announce(3, "tuple multiset identity")


# ---------------------------------------------------------------------------
# 4. the cde triangle commutes; induction is adjoint to restriction


def _partitions(n, cap=None):
    if cap is None:
        cap = n
    if n == 0:
        yield []
        return
    for k in range(min(n, cap), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k] + rest


def _abelian_groups_up_to(bound):
    """Every abelian group of order 2..bound, in invariant factor form."""
    groups = []
    for order in range(2, bound + 1):
        per_prime = []
        for prime, exp in sorted(factorize(order).items()):
            per_prime.append([(prime, part) for part in _partitions(exp)])
        for combo in itertools.product(*per_prime):
            width = max(len(part) for _, part in combo)
            # parts are descending, so the merged factors are too; sorting
            # ascending then yields the divisibility chain
            factors = []
            for i in range(width):
                f = 1
                for prime, part in combo:
                    if i < len(part):
                        f *= prime ** part[i]
                factors.append(f)
            factors.sort()
            groups.append(AbelianGroup(tuple(factors)))
    return groups


def test_criterion_04_cde_triangle_and_reciprocity():
    groups = _abelian_groups_up_to(64)
    for g in groups:
        for prime in prime_divisors(g.order):
            for theta in modular_basis(g, prime):
                cov = K0Element.of_character(theta, LEVEL_PROJECTIVES, p=prime)
                lhs = decomposition_map(e_map(cov))
                assert lhs == cartan_map(cov), (g.invariant_factors, prime)
                assert lhs.coefficient(theta) == p_part(g.order, prime)
    rng = random.Random(42)
    pool = [g for g in groups if g.order <= 36]
    for _ in range(200):
        g = rng.choice(pool)
        els = list(g.elements())
        h = g.subgroup([rng.choice(els) for _ in range(rng.randrange(1, 3))])
        theta = rng.choice(list(h.characters()))
        chars = list(g.characters())
        x = K0Element.of_character(rng.choice(chars)).scale(rng.randrange(-3, 4))
        if rng.random() < 0.7:
            x = x + K0Element.of_character(rng.choice(chars)).scale(rng.randrange(-3, 4))
        lhs = pairing(induce(K0Element.of_character(theta), g), x)
        rhs = pairing(K0Element.of_character(theta), restrict(x, h))
        assert lhs == rhs
    _announce(4, "cde triangle and reciprocity")


# ---------------------------------------------------------------------------
# 5. the three multiplicity derivations agree everywhere


def test_criterion_05_derivation_chain():
    rng = random.Random(11)
    covers = (
        kummer_corpus()
        + artin_schreier_corpus()
        + [mixed_synthetic_example()]
        + synthetic_corpus(200, seed=11)
    )
    for cov in covers:
        divisors = [DivisorSpec.wild_canonical(cov)]
        if not cov.wild_places():
            entries = {}
            for q in cov.places:
                if rng.random() < 0.5:
                    entries[q.label] = rng.randrange(-2, 3)
            divisors.append(DivisorSpec(cov, entries))
        for divisor in divisors:
            psi = psi_structure(cov, divisor)
            projected = e_map(psi)
            for chi in cov.characters():
                closed = multiplicity_closed(cov, divisor, chi)
                direct = multiplicity_direct(cov, divisor, chi)
                via_pairing = pairing(projected, K0Element.of_character(chi))
                assert closed == direct == via_pairing, (cov.summary(), divisor.values)
    _announce(5, "derivation chain equivalence")


# ---------------------------------------------------------------------------
# 6. totals over all characters match hand-derived Euler characteristics
#
# On a tame cover at the zero divisor the total is chi(O_X) = 1 - g(X).
# On a wildly ramified cover at the canonical divisor choice (coefficient
# -1 at the single point over each pole, each of residue degree deg q)
# the total is deg(D) + 1 - g(X) with deg(D) = -(sum of pole degrees).
# Every genus below was recomputed by hand from the ramification data.

KUMMER_TOTALS = {
    (3, 2, "x"): 1,  # g = 0
    (5, 2, "x*(x+4)"): 1,  # g = 0
    (5, 2, "x*(x^2+2)"): 0,  # g = 1
    (5, 4, "x"): 1,  # g = 0
    (5, 4, "x^2*(x+4)"): 0,  # g = 1
    (5, 4, "x^2*(x+3)"): 0,  # g = 1
    (7, 2, "x*(x+4)*(x+5)*(x+6)"): 0,  # g = 1
    (7, 3, "x"): 1,  # g = 0
    (7, 3, "x^2*(x+6)"): 1,  # g = 0
    (7, 6, "x*(x+6)"): -1,  # g = 2
    (11, 5, "x*(x+9)^3*(x+10)^2"): -3,  # g = 4
    (11, 2, "x*(x^2+1)"): 0,  # g = 1
    (13, 6, "x^2*(x+12)^3"): 0,  # g = 1
    (13, 4, "x*(x^2+2)"): -2,  # g = 3
}

AS_TOTALS = {
    (2, "poles at x"): 0,  # deg D = -1, g = 0
    (2, "poles at x, x+1"): -2,  # deg D = -2, g = 1
    (2, "poles at x^2+x+1"): -2,  # deg D = -2, g = 1
    (2, "poles at x, x+1, x^2+x+1"): -6,  # deg D = -4, g = 3
    (3, "poles at x"): 0,  # deg D = -1, g = 0
    (3, "poles at x, x+2"): -3,  # deg D = -2, g = 2
    (3, "poles at x^2+1"): -3,  # deg D = -2, g = 2
    (3, "poles at x, x+1, x+2"): -6,  # deg D = -3, g = 4
    (3, "poles at x^3+2x+1"): -6,  # deg D = -3, g = 4
    (5, "poles at x"): 0,  # deg D = -1, g = 0
    (5, "poles at x, x+4"): -5,  # deg D = -2, g = 4
    (5, "poles at x^2+2"): -5,  # deg D = -2, g = 4
}


def test_criterion_06_riemann_roch_totals():
    kummer_seen = set()
    for cov in kummer_corpus():
        key = (cov.p, cov.group.order, cov.function_label)
        divisor = DivisorSpec.zero(cov)
        total = sum(multiplicity_closed(cov, divisor, chi) for chi in cov.characters())
        assert total == KUMMER_TOTALS[key], key
        kummer_seen.add(key)
    as_seen = set()
    for cov in artin_schreier_corpus():
        key = (cov.p, cov.function_label)
        divisor = DivisorSpec.wild_canonical(cov)
        total = sum(multiplicity_closed(cov, divisor, chi) for chi in cov.characters())
        assert total == AS_TOTALS[key], key
        as_seen.add(key)
    assert kummer_seen == set(KUMMER_TOTALS)
    assert as_seen == set(AS_TOTALS)
    _announce(6, "riemann-roch totals")


# ---------------------------------------------------------------------------
# 7. the per-character valuation formula, epsilon side through the p-adic
#    oracle, over the whole constructed corpus


def test_criterion_07_strong_formula_corpus():
    start = time.time()
    kummer = kummer_corpus()
    artin = artin_schreier_corpus()
    assert all(c.p <= 13 and c.group.order <= 6 for c in kummer)
    assert len({c.function_label for c in kummer}) >= 10
    assert all(c.p in (2, 3, 5) for c in artin)
    assert len({c.function_label for c in artin}) >= 10
    for cov in kummer + artin:
        report = check_strong(cov)
        assert report.flags["strong_ok"] is True, cov.summary()
        assert report.flags["integral_ok"] is True, cov.summary()
        assert report.passed
    elapsed = time.time() - start
    assert elapsed < 300.0, "corpus run took %.1f s" % elapsed
    _announce(7, "strong formula on corpus")


# ---------------------------------------------------------------------------
# 8. the coefficientwise modular identity on the same corpus


def test_criterion_08_weak_formula_corpus():
    for cov in kummer_corpus() + artin_schreier_corpus():
        report = check_weak(cov)
        assert report.flags["weak_ok"] is True, cov.summary()
        assert report.flags["integral_ok"] is True, cov.summary()
        assert report.passed
    _announce(8, "weak formula on corpus")


# ---------------------------------------------------------------------------
# 9. nothing reported may depend on presentation choices


def test_criterion_09_choice_invariance():
    covers = (
        kummer_corpus()
        + artin_schreier_corpus()
        + [mixed_synthetic_example()]
        + synthetic_corpus(20, seed=7)
    )
    for cov in covers:
        report = check_invariance(cov)
        assert report.passed, cov.summary()
        assert all(row.passed for row in report.rows), cov.summary()
    _announce(9, "choice invariance")


# ---------------------------------------------------------------------------
# 10. restriction to every subgroup of the cyclic chains


def test_criterion_10_restriction_compatibility():
    chain = restriction_chain_covers()
    sizes = sorted({cov.group.order for cov in chain})
    assert sizes == [4, 6]
    for cov in chain:
        (n,) = cov.group.invariant_factors
        for k in range(1, n + 1):
            if n % k != 0:
                continue
            sub = cov.group.subgroup([(k % n,)])
            report = check_restriction(cov, sub)
            assert report.passed, (cov.summary(), k)
    _announce(10, "restriction compatibility")
