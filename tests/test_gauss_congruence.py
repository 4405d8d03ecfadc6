"""Stickelberger's congruence on the Gauss sum the p-adic oracle builds.

The two oracles are compared only on valuations, so a defect that changes
the Gauss sum the p-adic oracle assembles but not its valuation would pass
every other check: Horner's rule run from t = 0 up builds chi(-1) tau(chi),
and a + for the - in the lambda^(p-1) rewrite leaves every valuation as it
is.  Stickelberger's congruence pins the leading coefficient itself.  With
c = sum c_i p^i in base p and s = sum c_i,

    tau(omega^(-c)) = -lambda^s / prod c_i!   mod lambda^(s+1)

(Washington, Introduction to Cyclotomic Fields, ch. 6; Lang, Cyclotomic
Fields I and II, ch. 1 section 2; Gross and Koblitz, Ann. of Math. 109,
1979).  Write s = j + k(p-1).  Since lambda^(p-1) = -p mod p lambda, the
lambda^j coefficient of the oracle's rows has coordinate 0 equal to
(-1)^k p^k times -1 / prod c_i! mod p^(k+1), and its other coordinates
vanish mod p^(k+1); every lambda^i coefficient with i < j vanishes mod
p^(k+1), and every one with i > j mod p^k.  The digit factorials are
computed here; nothing comes from the Stickelberger oracle.
"""

from math import factorial, prod

import pytest

from epschar import padic
from epschar.fields import make_field

# criterion 1's fields: every p^r with p in {2, 3, 5, 7} and r <= 3
CRITERION_1_FIELDS = [(p, r) for p in (2, 3, 5, 7) for r in (1, 2, 3)]


def _check_leading_coefficient(ctx, c):
    p = ctx.p
    digits = [c // p**i % p for i in range(ctx.r)]  # base p
    s = sum(digits)
    j, k = s % (p - 1), s // (p - 1)
    # the oracle's own p-adic precision, which resolves every valuation
    rows = padic._gauss_rows(ctx, c, (ctx.r * (p - 1) + 2) // (p - 1) + 2)
    assert len(rows) == p - 1
    lead, pk = rows[j][0], p**k
    assert lead % pk == 0, (p, ctx.r, c)
    factorials = prod(factorial(d) for d in digits)
    assert ((-1)**k * (lead // pk) * factorials + 1) % p == 0, (p, ctx.r, c)
    assert all(v % (pk * p) == 0 for v in rows[j][1:]), (p, ctx.r, c)
    for i, row in enumerate(rows):
        if i != j:
            assert all(v % (pk * p if i < j else pk) == 0 for v in row), (p, ctx.r, c, i)


@pytest.mark.parametrize("p, r", CRITERION_1_FIELDS)
def test_leading_coefficient_on_every_nontrivial_character(p, r):
    ctx = make_field(p, r)
    for c in range(1, ctx.q - 1):
        _check_leading_coefficient(ctx, c)


@pytest.mark.parametrize("p", [211, 499])
def test_leading_coefficient_at_large_primes(p):
    ctx = make_field(p, 1)
    for c in (1, 2, (p - 1) // 2, p - 2):
        _check_leading_coefficient(ctx, c)
