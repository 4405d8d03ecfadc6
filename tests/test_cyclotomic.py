import math
import random

import pytest

from epschar import cyclotomic
from epschar.errors import DomainError
from epschar.cyclotomic import (
    _LOOP_MAX_PHI,
    CyclotomicInt,
    MultChar,
    _crt_unit,
    complex_abs2,
    cyclotomic_polynomial,
    euler_phi,
    gauss_order,
    gauss_product_check,
    gauss_sum,
)
from epschar.fields import make_field


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_euler_phi():
    for m, phi in [(1, 1), (2, 1), (8, 4), (9, 6), (12, 4), (30, 8)]:
        assert euler_phi(m) == phi


def _zeta(m):
    """zeta_m, the one-hot exponent vector at 1."""
    return CyclotomicInt.from_exponent_vector(m, [0, 1] + [0] * (m - 2))


def test_zeta_has_exact_order():
    for m in (2, 3, 4, 6, 8, 12, 20):
        z = _zeta(m)
        acc = CyclotomicInt.from_int(m, 1)
        for k in range(1, m + 1):
            acc = acc * z
            if k < m:
                assert acc != CyclotomicInt.from_int(m, 1)
        assert acc == CyclotomicInt.from_int(m, 1)


def test_root_sum_vanishes():
    # sum of all m-th roots of unity is 0 for m > 1
    for m in (2, 3, 6, 10, 12):
        total = CyclotomicInt.from_exponent_vector(m, [1] * m)
        assert total == CyclotomicInt.from_int(m, 0)


def test_ring_ops_random():
    rng = random.Random(5)
    for m in (4, 6, 12):
        phi = euler_phi(m)
        for _ in range(50):
            a = CyclotomicInt(m, tuple(rng.randrange(-9, 10) for _ in range(phi)))
            b = CyclotomicInt(m, tuple(rng.randrange(-9, 10) for _ in range(phi)))
            c = CyclotomicInt(m, tuple(rng.randrange(-9, 10) for _ in range(phi)))
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a - a == CyclotomicInt.from_int(m, 0)
            assert a * 3 == a + a + a


def test_galois_twist_is_ring_map():
    rng = random.Random(6)
    m = 12
    phi = euler_phi(m)
    for t in (5, 7, 11):
        for _ in range(30):
            a = CyclotomicInt(m, tuple(rng.randrange(-5, 6) for _ in range(phi)))
            b = CyclotomicInt(m, tuple(rng.randrange(-5, 6) for _ in range(phi)))
            assert (a * b).galois_twist(t) == a.galois_twist(t) * b.galois_twist(t)
            assert (a + b).galois_twist(t) == a.galois_twist(t) + b.galois_twist(t)
    with pytest.raises(DomainError):
        _zeta(12).galois_twist(3)


def test_multchar_basics():
    ctx = make_field(7, 1)
    chi = MultChar(ctx, 9)
    assert chi.index == 3  # reduced mod q-1
    assert MultChar(ctx, -chi.index).index == 3  # the inverse, reduced too
    assert MultChar(ctx, 0).is_trivial
    # quadratic character: chi(-1) = -1 iff q = 3 mod 4
    assert MultChar(ctx, 3).value_on_minus_one() == -1
    assert MultChar(make_field(5, 1), 2).value_on_minus_one() == 1
    assert MultChar(make_field(2, 1), 0).value_on_minus_one() == 1
    # F_2 has only the trivial character, and its tau is -1 in Z[zeta_2]
    f2 = make_field(2, 1)
    assert gauss_order(f2) == 2
    assert all(MultChar(f2, k).index == 0 for k in (-3, -1, 0, 1, 2, 5))
    assert gauss_sum(f2, MultChar(f2, 1)) == CyclotomicInt.from_int(2, -1)


def test_gauss_sum_trivial_char():
    for p, r in [(2, 1), (3, 1), (5, 1), (3, 2)]:
        ctx = make_field(p, r)
        tau = gauss_sum(ctx, MultChar(ctx, 0))
        assert tau == CyclotomicInt.from_int(tau.order, -1)


def test_gauss_sum_quadratic_known_value():
    # over F_5 the quadratic Gauss sum squares to chi(-1) * 5 = 5
    ctx = make_field(5, 1)
    tau = gauss_sum(ctx, MultChar(ctx, 2))
    sq = tau * tau
    assert sq == CyclotomicInt.from_int(gauss_order(ctx), 5)


def _gauss_sum_per_element(ctx, chi):
    """tau(chi) summed element by element: x runs over g^k by repeated
    multiplication, and each term reads ctx.trace(x)."""
    m = gauss_order(ctx)
    mult_step = m // (ctx.q - 1) if ctx.q > 2 else 0
    add_step = m // ctx.p
    vec = [0] * m
    x = ctx.one
    for k in range(ctx.q - 1):
        vec[((-chi.index * k) * mult_step + ctx.trace(x) * add_step) % m] += 1
        x = ctx.mul(x, ctx.generator)
    return CyclotomicInt.from_exponent_vector(m, vec)


def test_gauss_sum_matches_the_per_element_sum():
    for p in (2, 3, 5, 7):
        for r in (1, 2, 3):
            ctx = make_field(p, r)
            n = ctx.q - 1
            for c in sorted({c % n for c in (0, 1, 2, n // 2, n - 1)}):
                chi = MultChar(ctx, c)
                assert gauss_sum(ctx, chi).coeffs == _gauss_sum_per_element(ctx, chi).coeffs, (p, r, c)


def test_gauss_product_identity_small_fields():
    for p, r in [(2, 2), (3, 1), (3, 2), (5, 1), (7, 1), (5, 2)]:
        ctx = make_field(p, r)
        for c in range(1, ctx.q - 1):
            chi = MultChar(ctx, c)
            assert gauss_product_check(ctx, chi)
            assert abs(complex_abs2(gauss_sum(ctx, chi)) - ctx.q) <= 1e-9 * ctx.q
    with pytest.raises(DomainError):
        gauss_product_check(make_field(3, 1), MultChar(make_field(3, 1), 0))


# -- pin: the reduction against a dense reference -----------------------------


def _dense_reduce(m, vecs):
    """Reduce each exponent vector through the dense row recurrence
    zeta^k = shift(zeta^(k-1)) - lead * Phi_m, one row per k < m."""
    cyc = cyclotomic_polynomial(m)
    phi = len(cyc) - 1
    accs = [[0] * phi for _ in vecs]
    row = None
    for k in range(m):
        if k < phi:
            row = [0] * phi
            row[k] = 1
        else:
            lead = row[-1]
            row = [0] + row[:-1]
            if lead:
                row = [a - lead * c for a, c in zip(row, cyc)]
        for acc, vec in zip(accs, vecs):
            v = vec[k]
            if v:
                acc[:] = [a + v * r for a, r in zip(acc, row)]
    return [tuple(acc) for acc in accs]


def _pin_vectors(m, rng):
    small = [rng.randrange(-3, 4) for _ in range(m)]
    sparse = [0] * m
    for _ in range(3):
        sparse[rng.randrange(m)] = rng.randrange(-50, 51)
    # entries of 2**62 and more overflow any int64 shortcut
    huge = [rng.choice((-1, 1)) * rng.randrange(2**62, 2**70) if rng.random() < 0.3 else 0
            for _ in range(m)]
    return [small, sparse, huge, [0] * m, [1] * m]


def _gauss_orders():
    orders = {gauss_order(make_field(p, r)) for p in (2, 3, 5, 7) for r in (1, 2, 3)}
    orders.add(gauss_order(make_field(31, 1)))
    return sorted(orders)


@pytest.mark.parametrize("m", list(range(1, 61)) + _gauss_orders())
def test_reduction_matches_dense_reference(m):
    vecs = _pin_vectors(m, random.Random(m))
    for vec, expected in zip(vecs, _dense_reduce(m, vecs)):
        assert CyclotomicInt.from_exponent_vector(m, vec).coeffs == expected


def test_reduction_refuses_a_wrong_length():
    with pytest.raises(DomainError):
        CyclotomicInt.from_exponent_vector(6, [1] * 5)


# -- pin: the packed product against the double loop ---------------------------


def _double_loop_mul(x, y):
    """x * y by the schoolbook double loop over the power basis, then reduced."""
    m = x.order
    vec = [0] * m
    for i, a in enumerate(x.coeffs):
        if a:
            for j, b in enumerate(y.coeffs):
                if b:
                    vec[(i + j) % m] += a * b
    return CyclotomicInt.from_exponent_vector(m, vec)


def _assert_products_match(x, y):
    assert (x * y).coeffs == _double_loop_mul(x, y).coeffs


@pytest.mark.parametrize("p, r", [(p, r) for p in (2, 3, 5, 7) for r in (1, 2, 3)])
def test_gauss_products_match_the_double_loop(p, r):
    ctx = make_field(p, r)
    m = gauss_order(ctx)
    # tau(chi) -> tau(chi^(-1)), the twist gauss_product_check applies
    t = _crt_unit(m, p, ctx.q - 1)
    indices = range(ctx.q - 1)
    if ctx.q == 343:
        # the reference loop takes about 30 ms a product at phi(2394) = 648
        indices = sorted({0, 1, 171, 340, *range(2, 342, 37)})
    for c in indices:
        tau = gauss_sum(ctx, MultChar(ctx, c))
        _assert_products_match(tau, tau.galois_twist(t))
        _assert_products_match(tau, tau)


def _random_element(m, rng, scale):
    return CyclotomicInt(m, tuple(rng.randrange(-scale, scale + 1) for _ in range(euler_phi(m))))


def test_random_products_match_the_double_loop_on_both_sides_of_the_threshold():
    rng = random.Random(18)
    orders = [m for m in range(1, 120) if abs(euler_phi(m) - _LOOP_MAX_PHI) <= 12]
    assert min(map(euler_phi, orders)) <= _LOOP_MAX_PHI < max(map(euler_phi, orders))
    for m in orders:
        zero = CyclotomicInt.from_int(m, 0)
        for scale in (1, 9, 2**20, 2**40):
            x, y = _random_element(m, rng, scale), _random_element(m, rng, scale)
            _assert_products_match(x, y)
        assert x * zero == zero * x == _double_loop_mul(x, zero) == zero


def test_products_at_the_edge_of_a_slot_match_the_double_loop():
    # the middle coefficient of the product is phi * a * b: just below 2^63,
    # where it still fits a 64-bit slot offset by 2^63, and just below 2^64
    m = 97
    phi = euler_phi(m)
    a = 2**40 + 3
    for top in (2**63, 2**64):
        b = (top - 1) // (phi * a)
        for sx, sy in ((1, 1), (1, -1), (-1, -1)):
            x = CyclotomicInt(m, (sx * a,) * phi)
            y = CyclotomicInt(m, (sy * b,) * phi)
            _assert_products_match(x, y)


def test_products_past_the_slot_width_take_the_double_loop(monkeypatch):
    packed = []
    real_pack = cyclotomic._pack

    def counting_pack(coeffs, bits):
        packed.append(coeffs)
        return real_pack(coeffs, bits)

    monkeypatch.setattr(cyclotomic, "_pack", counting_pack)
    rng = random.Random(63)
    m = 97
    small = _random_element(m, rng, 9)
    _assert_products_match(small, small)
    assert packed, "a product above the size threshold should be packed"
    packed.clear()
    for scale in (2**62, 2**70):
        x, y = _random_element(m, rng, scale), _random_element(m, rng, scale)
        _assert_products_match(x, y)
        _assert_products_match(x, small)
    x = _random_element(13, rng, 9)
    _assert_products_match(x, x)
    assert not packed


# -- pin: the packed reduction against the long-division loop ------------------


def _long_division_reduce(m, vec):
    """vec reduced by the loop alone: fold the top half onto the bottom half
    with a minus sign when m is even, then long-divide by the monic Phi_m,
    one row per degree from the top down."""
    cyc = cyclotomic.cyclotomic_polynomial(m)
    phi = len(cyc) - 1
    terms = [(i, c) for i, c in enumerate(cyc[:phi]) if c]
    if m % 2 == 0:
        half = m // 2
        acc = [a - b for a, b in zip(vec[:half], vec[half:])]
    else:
        acc = list(vec)
    for d in range(len(acc) - 1, phi - 1, -1):
        c = acc[d]
        if c:
            base = d - phi
            for i, ci in terms:
                acc[base + i] -= c * ci
    return tuple(acc[:phi])


def _mobius_cyclotomic(m):
    """Phi_m as the product of (x^d - 1)^mu(m/d) over the divisors d of m,
    one sparse multiply or divide by x^d - 1 per squarefree m/d."""
    poly = [1]
    divides = []
    for d in range(1, m + 1):
        if m % d:
            continue
        k, mu, f = m // d, 1, 2
        while k > 1 and mu:
            if k % f == 0:
                k //= f
                mu = 0 if k % f == 0 else -mu
            f += 1
        if mu == 1:
            # times x^d - 1
            poly = [-a for a in poly] + [0] * d
            for i in range(len(poly) - 1, d - 1, -1):
                poly[i] -= poly[i - d]
        elif mu == -1:
            divides.append(d)
    for d in divides:
        # exactly divided by x^d - 1: q_i = q_(i-d) - a_i from the bottom up
        out = [0] * (len(poly) - d)
        for i in range(len(out)):
            out[i] = (out[i - d] if i >= d else 0) - poly[i]
        poly = out
    return tuple(poly)


def test_mobius_cyclotomic_matches_the_package_phi():
    for m in list(range(1, 200)) + _gauss_orders():
        assert _mobius_cyclotomic(m) == cyclotomic_polynomial(m), m


@pytest.fixture
def mobius_phi(monkeypatch):
    """The package's caches built from the Moebius Phi_m for the length of one
    test: the recursive cyclotomic_polynomial takes about 10 s for all
    m < 1500, the Moebius product well under one."""
    caches = [cyclotomic._reducer, cyclotomic._barrett, cyclotomic._packed_barrett]
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", _mobius_cyclotomic)
    yield
    for cache in caches:
        cache.cache_clear()


def _reduction_vector(m, kind, rng):
    if kind == "small":
        return [rng.randrange(-3, 4) for _ in range(m)]
    if kind == "sparse":
        vec = [0] * m
        for _ in range(3):
            vec[rng.randrange(m)] = rng.randrange(-50, 51)
        return vec
    # mixed signs and magnitudes, so that the slots of one m reach 16, 32 and 64 bits
    scale = 2 ** rng.choice((4, 20, 40))
    return [rng.randrange(-scale, scale + 1) for _ in range(m)]


def test_packed_reduction_matches_the_long_division_loop(mobius_phi):
    # every m below 1000, one vector kind per m in turn (every kind below 300),
    # and every kind at the Gauss orders of the perfbench primes 31, 61 and
    # 101; the reference loop would take about 4 s more to reach every m
    # below 1500
    rng = random.Random(1500)
    kinds = ("small", "sparse", "mixed")
    cases = [(m, kind) for m in range(1, 1000) for kind in (kinds if m < 300 else (kinds[m % 3],))]
    cases += [(m, kind) for m in (930, 3660, 10100) for kind in kinds]
    for m, kind in cases:
        vec = _reduction_vector(m, kind, rng)
        got = CyclotomicInt.from_exponent_vector(m, vec).coeffs
        assert got == _long_division_reduce(m, vec), (m, kind)


@pytest.fixture
def pack_widths(monkeypatch):
    """The slot width of every _pack call, in order."""
    widths = []
    real_pack = cyclotomic._pack

    def spying_pack(coeffs, bits):
        widths.append(bits)
        return real_pack(coeffs, bits)

    monkeypatch.setattr(cyclotomic, "_pack", spying_pack)
    return widths


@pytest.mark.parametrize("e, below, width", [
    (15, True, 16), (15, False, 32), (31, True, 32), (31, False, 64), (63, True, 64), (63, False, None),
])
def test_reduction_slots_on_both_sides_of_each_width(pack_widths, e, below, width):
    # m = 620, the Gauss order of F_125, folds to 310 exponents over phi = 240:
    # the quotient has 70 rows and mu = x^309 div Phi_620 has coefficients
    # in {-1, 0, 1}, so the quotient's slot bound is 70 max|top coefficient|
    m, phi, rows = 620, 240, 70
    assert euler_phi(m) == phi and rows * len(cyclotomic._reducer(m)[1]) > cyclotomic._LOOP_MAX_WORK
    big = (2**e - 1) // rows if below else -(-(2**e) // rows)
    rng = random.Random(e)
    vec = [rng.randrange(-3, 4) for _ in range(m // 2)] + [0] * (m // 2)
    vec[phi + rng.randrange(rows)] = rng.choice((-big, big))
    expected = _long_division_reduce(m, vec)
    pack_widths.clear()
    assert CyclotomicInt.from_exponent_vector(m, vec).coeffs == expected
    if width is None:
        assert not pack_widths, "a slot bound of 2^63 or more must take the loop"
    else:
        assert pack_widths[0] == width


@pytest.mark.parametrize("top", [2**15, 2**16, 2**31, 2**32])
def test_products_at_the_16_and_32_bit_slot_edges_match_the_double_loop(pack_widths, top):
    # the middle coefficient of the product is phi * a * b, just below top
    m = 97
    phi = euler_phi(m)
    a = 3 if top < 2**31 else 2**10 + 1
    b = (top - 1) // (phi * a)
    for sx, sy in ((1, 1), (1, -1), (-1, -1)):
        x = CyclotomicInt(m, (sx * a,) * phi)
        y = CyclotomicInt(m, (sy * b,) * phi)
        pack_widths.clear()
        _assert_products_match(x, y)
        # a bound below 2^15 fits 16-bit slots; one below 2^16 needs 32
        assert pack_widths[0] == {2**15: 16, 2**16: 32, 2**31: 32, 2**32: 64}[top]


def test_gauss_product_check_reuses_the_tau_just_made():
    ctx = make_field(5, 2)
    for c in range(1, ctx.q - 1):
        chi = MultChar(ctx, c)
        gauss_sum(ctx, chi)
        before = cyclotomic._gauss_sum.cache_info()
        assert gauss_product_check(ctx, chi)
        after = cyclotomic._gauss_sum.cache_info()
        assert (after.hits, after.misses, after.currsize) == (before.hits + 1, before.misses, 1)


@pytest.mark.parametrize("p, r", [(p, r) for p in (2, 3, 5, 7) for r in (1, 2, 3)]
                         + [(31, 1), (61, 1), (101, 1)])
def test_crt_unit_is_one_mod_p_and_minus_one_mod_q_minus_one(p, r):
    ctx = make_field(p, r)
    m, n = gauss_order(ctx), ctx.q - 1
    t = _crt_unit(m, p, n)
    assert 1 <= t < m
    assert t % p == 1 and t % n == -1 % n
    assert math.gcd(t, m) == 1  # a unit, as galois_twist needs
