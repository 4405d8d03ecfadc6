import random
from fractions import Fraction

import pytest

from epschar.corpus import constructed_corpus, restriction_chain_covers
from epschar.covers import subcover_data
from epschar.errors import (
    CapacityError,
    DomainError,
    GroupMismatchError,
    InvalidInputError,
    LevelError,
)
from epschar.euler import psi_structure
from epschar.groups import (
    LEVEL_CHAR0,
    LEVEL_MODULES,
    LEVEL_PROJECTIVES,
    AbelianGroup,
    K0Element,
    cartan_map,
    char_label,
    cyclic_character,
    decomposition_map,
    e_map,
    induce,
    intersection,
    joint,
    modular_basis,
    pairing,
    restrict,
    sylow_p_subgroup,
)
from epschar.numutil import p_part


def test_group_basics():
    g = AbelianGroup((2, 4))
    assert g.order == 8
    assert g.identity == (0, 0)
    assert g.mul((1, 3), (1, 2)) == (0, 1)
    assert g.element_order((1, 2)) == 2
    assert g.element_order((0, 1)) == 4
    assert g.element_order(g.identity) == 1
    assert g.contains((1, 3)) and not g.contains((2, 0))
    assert len(list(g.elements())) == 8


def test_group_validation():
    with pytest.raises(InvalidInputError):
        AbelianGroup((3, 2))  # not a divisibility chain
    with pytest.raises(InvalidInputError):
        AbelianGroup((1, 2))
    with pytest.raises(CapacityError):
        AbelianGroup((2000, 2000))


def test_trivial_group():
    g = AbelianGroup(())
    assert g.order == 1
    assert tuple(g.elements()) == ((),)
    chars = g.characters()
    assert len(chars) == 1 and chars[0].is_trivial


def test_character_table_is_complete_and_distinct():
    for factors in [(2,), (6,), (2, 4), (3, 3)]:
        g = AbelianGroup(factors)
        chars = g.characters()
        assert len(chars) == g.order
        assert len(set(chars)) == g.order


def test_character_exponents_round_trip():
    g = AbelianGroup((2, 4))
    for a in range(2):
        for b in range(4):
            chi = g.character((a, b))
            assert chi.vector == (a, b)


def test_character_ops():
    g = AbelianGroup((6,))
    chi = g.character((1,))
    assert chi.order == 6
    assert chi.value((2,)) == Fraction(1, 3)
    assert (chi * chi).value((1,)) == Fraction(1, 3)
    assert (chi**3).order == 2
    assert (chi * chi.inverse()).is_trivial
    assert chi.inverse().value((1,)) == Fraction(5, 6)
    assert g.trivial_character().is_trivial
    with pytest.raises(GroupMismatchError):
        chi * AbelianGroup((2,)).character((1,))


def test_prime_to_p_part():
    g = AbelianGroup((12,))
    chi = g.character((1,))  # order 12
    red = chi.prime_to_p_part(2)
    assert red.order == 3
    # agrees with chi on elements of odd order
    assert red.value((4,)) == chi.value((4,))
    assert chi.prime_to_p_part(3).order == 4
    assert chi.prime_to_p_part(5) == chi
    assert chi.has_prime_to_p_order(5)
    assert not chi.has_prime_to_p_order(2)


def test_subgroup_closure():
    g = AbelianGroup((2, 4))
    h = g.subgroup([(0, 2), (1, 0)])
    assert h.order == 4
    assert h.element_set == {(0, 0), (0, 2), (1, 0), (1, 2)}
    # dedup of restricted characters: exactly |H| of them
    assert len(h.characters()) == 4
    assert len(set(h.characters())) == 4
    with pytest.raises(DomainError):
        g.subgroup([(0, 5)])


def test_intersection_and_joint_orders():
    rng = random.Random(2)
    g = AbelianGroup((4, 8))
    els = list(g.elements())
    for _ in range(30):
        h = g.subgroup([rng.choice(els) for _ in range(2)])
        k = g.subgroup([rng.choice(els) for _ in range(2)])
        meet = intersection(h, k)
        join = joint(h, k)
        assert meet.element_set <= h.element_set <= join.element_set
        assert meet.order * join.order == h.order * k.order


def test_sylow():
    g = AbelianGroup((12,))
    assert sylow_p_subgroup(g, 2).order == 4
    assert sylow_p_subgroup(g, 3).order == 3
    assert sylow_p_subgroup(g, 5).order == 1
    for x in sylow_p_subgroup(g, 2).elements():
        assert p_part(g.element_order(x), 2) == g.element_order(x)


def test_cyclic_character():
    g = AbelianGroup((6,))
    sub = g.subgroup([(1,)])
    chi = cyclic_character(sub, (1,), 1)
    assert chi.order == 6
    assert chi.value((1,)) == Fraction(1, 6)
    assert cyclic_character(sub, (5,), 1).value((5,)) == Fraction(1, 6)
    with pytest.raises(DomainError):
        cyclic_character(sub, (2,), 1)  # (2,) has order 3, not 6


def test_char_label_formats():
    g = AbelianGroup((2, 4))
    assert char_label(g.character((1, 3))) == "chi(1,3)"
    assert char_label(g.trivial_character()) == "chi(0,0)"
    sub = g.subgroup([(0, 1)])
    lab = char_label(g.character((0, 1)).restrict(sub))
    assert lab.startswith("chi{") and lab.endswith("}")


def test_k0_arithmetic():
    g = AbelianGroup((6,))
    chi = g.character((1,))
    x = K0Element.of_character(chi) + K0Element.of_character(g.trivial_character()).scale(-2)
    assert x.coefficient(chi) == 1
    assert x.coefficient(g.trivial_character()) == -2
    assert x.is_integral() and x != K0Element.zero(g)
    assert not x.scale(Fraction(1, 2)).is_integral()
    assert K0Element.zero(g) == x - x
    with pytest.raises(GroupMismatchError):
        x + K0Element.of_character(AbelianGroup((2,)).character((1,)))
    with pytest.raises(LevelError):
        K0Element(g, "bogus")
    with pytest.raises(LevelError):
        K0Element.zero(g, LEVEL_MODULES)  # modular levels need p
    with pytest.raises(LevelError):
        # labels at modular levels must have prime-to-p order
        K0Element.of_character(chi, LEVEL_MODULES, p=2)


def test_modular_basis_size():
    for factors, p in [((8,), 2), ((12,), 2), ((12,), 3), ((2, 4), 2), ((6, 6), 3)]:
        g = AbelianGroup(factors)
        n = g.order
        assert len(modular_basis(g, p)) == n // p_part(n, p)


def test_equal_subgroups_keep_their_own_modular_basis_and_e_map():
    # <2> and <10> are one subgroup of Z/12, whose characters each labels by
    # its own generator; a cached table of one must not serve the other
    root = AbelianGroup((12,))
    by_two, by_ten = root.subgroup([(2,)]), root.subgroup([(10,)])
    assert by_two == by_ten and by_two.generators != by_ten.generators
    labels = {}
    for group in (by_two, by_ten, by_two):
        own = [chi for chi in group.characters() if chi.has_prime_to_p_order(2)]
        basis = modular_basis(group, 2)
        assert all(chi.domain.generators == group.generators for chi in basis)
        assert [char_label(chi) for chi in basis] == [char_label(chi) for chi in own]
        image = e_map(K0Element.regular(group, LEVEL_PROJECTIVES, 2))
        assert all(chi.domain.generators == group.generators for chi in image.coeffs)
        assert sorted(map(char_label, image.coeffs)) == \
            sorted(char_label(chi) for chi in group.characters())
        labels[group.generators] = [char_label(chi) for chi in basis]
    assert labels[by_two.generators] != labels[by_ten.generators]


def test_regular_element():
    g = AbelianGroup((12,))
    reg = K0Element.regular(g, LEVEL_CHAR0, None)
    assert len(reg.coeffs) == 12
    cov = K0Element.regular(g, LEVEL_PROJECTIVES, 2)
    assert len(cov.coeffs) == 3


def test_cde_triangle():
    # d(e(Cov theta)) = c(Cov theta) = |Sylow_p| * theta, on the whole basis
    for factors, p in [((12,), 2), ((12,), 3), ((2, 4), 2), ((9,), 3)]:
        g = AbelianGroup(factors)
        for theta in modular_basis(g, p):
            cov = K0Element.of_character(theta, LEVEL_PROJECTIVES, p=p)
            lhs = decomposition_map(e_map(cov))
            assert lhs == cartan_map(cov)
            assert lhs.coefficient(theta) == p_part(g.order, p)


def test_pairing_orthonormal():
    g = AbelianGroup((2, 4))
    chars = g.characters()
    for a in chars:
        for b in chars:
            got = pairing(K0Element.of_character(a), K0Element.of_character(b))
            assert got == (1 if a == b else 0)


def test_pairing_cov_module():
    g = AbelianGroup((12,))
    theta = modular_basis(g, 2)[1]
    cov = K0Element.of_character(theta, LEVEL_PROJECTIVES, p=2)
    mod = K0Element.of_character(theta, LEVEL_MODULES, p=2).scale(5)
    assert pairing(cov, mod) == 5
    with pytest.raises(LevelError):
        pairing(K0Element.of_character(g.trivial_character()), mod)
    with pytest.raises(GroupMismatchError):
        pairing(cov, K0Element.of_character(AbelianGroup((2,)).trivial_character(),
                                            LEVEL_MODULES, p=2))


def test_restrict_and_induce_levels():
    g = AbelianGroup((6,))
    h = g.subgroup([(2,)])
    theta = modular_basis(g, 2)[0]
    cov = K0Element.of_character(theta, LEVEL_PROJECTIVES, p=2)
    with pytest.raises(LevelError):
        restrict(cov, h)
    with pytest.raises(LevelError):
        induce(K0Element.of_character(theta, LEVEL_MODULES, p=2), g)
    with pytest.raises(GroupMismatchError):
        induce(K0Element.of_character(AbelianGroup((4,)).trivial_character()), g)


def test_induction_degree():
    # Ind_H^G(triv) has total dimension [G:H]
    g = AbelianGroup((2, 4))
    h = g.subgroup([(0, 2)])
    ind = induce(K0Element.of_character(h.trivial_character()), g)
    assert sum(ind.coeffs.values()) == g.order // h.order
    assert all(c == 1 for c in ind.coeffs.values())
    # and consists exactly of the characters trivial on H
    for chi in ind.coeffs:
        assert chi.trivial_on(h)


def test_frobenius_reciprocity_seeded():
    rng = random.Random(17)
    shapes = [(4,), (6,), (12,), (2, 4), (3, 9), (2, 2)]
    for _ in range(40):
        g = AbelianGroup(rng.choice(shapes))
        els = list(g.elements())
        h = g.subgroup([rng.choice(els) for _ in range(rng.randrange(1, 3))])
        theta = rng.choice(list(h.characters()))
        chi = rng.choice(list(g.characters()))
        lhs = pairing(induce(K0Element.of_character(theta), g), K0Element.of_character(chi))
        rhs = pairing(K0Element.of_character(theta), K0Element.of_character(chi.restrict(h)))
        assert lhs == rhs


def test_restriction_is_transitive():
    g = AbelianGroup((2, 4))
    mid = g.subgroup([(1, 0), (0, 2)])
    low = mid.subgroup([(0, 2)])
    for chi in g.characters():
        assert chi.restrict(low) == chi.restrict(mid).restrict(low)


def test_root_and_full_subgroup_are_one_group():
    g = AbelianGroup((6,))
    full = g.full_subgroup()
    assert full.order == 6 and full == g and hash(full) == hash(g)
    assert full.full_subgroup() is full
    # a character restricted to the full subgroup is the same basis element
    chi = g.character((1,))
    x = K0Element(g, LEVEL_CHAR0, {chi.restrict(full): 1})
    assert x.coefficient(chi) == 1
    total = x + K0Element.of_character(chi)
    assert len(total.coeffs) == 1 and total.coefficient(chi) == 2


def _every_subgroup(group):
    """Every subgroup of group, each once, by closing under one more element."""
    found = {frozenset([group.identity]): group.subgroup([group.identity])}
    frontier = list(found.values())
    while frontier:
        grown = []
        for sub in frontier:
            for g in group.elements():
                if not sub.contains(g):
                    bigger = group.subgroup(list(sub.generators) + [g])
                    if bigger.element_set not in found:
                        found[bigger.element_set] = bigger
                        grown.append(bigger)
        frontier = grown
    return list(found.values())


@pytest.mark.parametrize("factors", [(24,), (2, 12), (4, 4), (2, 2, 2, 2)])
def test_generated_extends_only_by_new_generators(factors, monkeypatch):
    from epschar import groups

    group = AbelianGroup(factors)
    subs = _every_subgroup(group)
    extend = groups._extend
    calls = []

    def counted(root, have, g):
        calls.append(g)
        return extend(root, have, g)

    monkeypatch.setattr(groups, "_extend", counted)
    for sub in subs:
        # the full element list, as the regenerated invariance variant passes it
        gens = list(sub.elements()) + list(reversed(sub.elements()))
        old = {group.identity}
        for g in gens:  # the loop before the fix: one _extend per generator
            old = extend(group, old, g)
        calls.clear()
        again = group.subgroup(gens)
        assert again.element_set == sub.element_set == frozenset(old)
        assert again.generators == tuple(gens)
        # each call at least doubles the set, and none is for an element
        # the set already holds
        assert len(calls) <= sub.order.bit_length() - 1, (sub, calls)
        assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("factors", [(24,), (2, 12), (4, 4), (2, 2, 2, 2)])
def test_sylow_is_the_set_of_p_power_order_elements(factors):
    group = AbelianGroup(factors)
    for sub in _every_subgroup(group):
        for p in (2, 3, 5):
            want = {g for g in sub.elements() if p_part(sub.element_order(g), p) == sub.element_order(g)}
            assert sylow_p_subgroup(sub, p).element_set == want, (sub, p)


def _e_map_reference(x):
    """sum over theta of c_theta times every chi whose prime-to-p part is theta."""
    out = {}
    for theta, c in x.coeffs.items():
        for chi in x.group.characters():
            if chi.prime_to_p_part(x.p) == theta:
                out[chi] = out.get(chi, 0) + c
    return K0Element(x.group, LEVEL_CHAR0, out, x.p)


def _by_label(x):
    return {char_label(chi): c for chi, c in x.coeffs.items()}


def _assert_e_map_matches_the_reference(x):
    got, want = e_map(x), _e_map_reference(x)
    assert got == want and _by_label(got) == _by_label(want), x


def test_e_map_of_psi_matches_the_fiber_sum():
    covers = list(constructed_corpus())
    for cover in restriction_chain_covers():
        covers += [subcover_data(cover, cover.group.subgroup([g])) for g in cover.group.elements()]
    for cover in covers:
        _assert_e_map_matches_the_reference(psi_structure(cover))
    assert len(covers) > 40


def test_e_map_of_seeded_projective_elements_matches_the_fiber_sum():
    rng = random.Random(34)
    checked = 0
    for factors, p in [((12,), 2), ((12,), 3), ((2, 6), 2), ((2, 6), 3), ((3, 9), 3)]:
        root = AbelianGroup(factors)
        groups = [root, root.full_subgroup()]
        for g in root.elements():
            for h in root.elements()[::3]:
                sub = root.subgroup([g, h])
                # the same subgroup under other generators labels its characters otherwise
                groups += [sub, root.subgroup(sorted(sub.element_set, reverse=True))]
        for group in groups:
            basis = modular_basis(group, p)
            coeffs = {theta: Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
                      for theta in rng.sample(basis, rng.randint(0, len(basis)))}
            _assert_e_map_matches_the_reference(K0Element(group, LEVEL_PROJECTIVES, coeffs, p))
            checked += 1
    assert checked > 100
