"""The restriction reports of one full_verification share the cover's side.

full_verification builds the cover's E and right-side element once and
hands them to every check_restriction; groups.restrict maps a character
to the subgroup's character with the same key; subcover_data counts the
places above q by the product formula |H D_q| = |H| |D_q| / |H n D_q|.
Each test pins one of these against the route it replaced.
"""

import random

from epschar import verify
from epschar.corpus import constructed_corpus, mixed_synthetic_example, restriction_chain_covers
from epschar.covers import subcover_data
from epschar.groups import (
    LEVEL_CHAR0,
    LEVEL_MODULES,
    AbelianGroup,
    Character,
    K0Element,
    Subgroup,
    char_label,
    joint,
    modular_basis,
    restrict,
)
from epschar.verify import check_restriction, full_verification


def _covers():
    return constructed_corpus() + restriction_chain_covers() + [mixed_synthetic_example()]


def test_shared_reports_equal_the_standalone_check():
    for cover in _covers():
        shared = [rep for rep in full_verification(cover) if rep.kind == "restriction"]
        subs = verify._cyclic_subgroups(cover.group)
        assert len(shared) == len(subs) > 1, cover.summary()
        for rep, sub in zip(shared, subs):
            alone = check_restriction(cover, sub)
            assert rep.to_json_obj() == alone.to_json_obj(), (cover.summary(), sub)


def test_full_verification_builds_the_datums_E_twice(monkeypatch):
    """Once for check_weak and once for every restriction report together."""
    E_element = verify.E_element
    calls = {}

    def counted(cover, *args, **kwargs):
        calls[id(cover)] = calls.get(id(cover), 0) + 1
        return E_element(cover, *args, **kwargs)

    monkeypatch.setattr(verify, "E_element", counted)
    for cover in restriction_chain_covers() + [mixed_synthetic_example()]:
        calls.clear()
        reports = full_verification(cover)
        subgroups = sum(1 for rep in reports if rep.kind == "restriction")
        assert subgroups >= 3, cover.summary()
        assert calls[id(cover)] == 2, (cover.summary(), calls[id(cover)], subgroups)


def _restrict_by_construction(x, sub):
    """The restriction as a new Character(sub, chi.vector) per coefficient."""
    out = {}
    for chi, c in x.coeffs.items():
        res = Character(sub, chi.vector)
        out[res] = out.get(res, 0) + c
    return K0Element(sub, x.level, out, x.p)


def _all_subgroups(root):
    """Every subgroup of root: the joins of its cyclic subgroups."""
    cyclic = {Subgroup.generated(root, [g]) for g in root.elements()}
    found, frontier = set(cyclic), list(cyclic)
    while frontier:
        frontier = [h for h in {joint(a, c) for a in frontier for c in cyclic} if h not in found]
        found.update(frontier)
    return sorted(found, key=lambda h: (h.order, h.elements()))


def _random_elements(group, p, rng):
    """A char0 element on every character and a modules element on the
    modular basis of group, with random nonzero coefficients."""
    char0 = K0Element(group, LEVEL_CHAR0, {chi: rng.choice((-3, -1, 1, 2, 5))
                                          for chi in group.characters()}, p)
    modules = K0Element(group, LEVEL_MODULES, {theta: rng.randint(1, 4)
                                               for theta in modular_basis(group, p)}, p)
    return char0, modules


def test_restrict_by_key_equals_a_new_character_per_coefficient():
    rng = random.Random(5)
    pairs = []  # (group, subgroup of it)
    for factors in ((6,), (12,), (2, 6), (4, 4), (2, 2, 2), (3, 9)):
        root = AbelianGroup(factors)
        subs = _all_subgroups(root)
        pairs += [(root, h) for h in subs]
        # from a proper subgroup down to each of its subgroups
        mid = subs[len(subs) // 2]
        pairs += [(mid, h) for h in subs if h.is_subset_of(mid)]
    for factors in ((2, 6, 12), (4, 20), (3, 3, 9)):
        root = AbelianGroup(factors)
        for _ in range(8):
            h = root.subgroup([rng.choice(root.elements()) for _ in range(rng.randint(1, 3))])
            pairs.append((root, h))
    assert len(pairs) > 100
    for group, sub in pairs:
        p = rng.choice((2, 3, 5))
        for x in _random_elements(group, p, rng):
            got, want = restrict(x, sub), _restrict_by_construction(x, sub)
            assert got == want, (group, sub, x.level)
            labels = sorted((char_label(chi), c) for chi, c in got.coeffs.items())
            assert labels == sorted((char_label(chi), c) for chi, c in want.coeffs.items())


def test_place_count_is_the_product_formula():
    for cover in _covers():
        group = cover.group
        for sub in verify._cyclic_subgroups(group):
            h = sub.full_subgroup()
            subcover = subcover_data(cover, sub)
            for q in cover.places:
                count = group.order // joint(h, q.decomposition).order
                meet = h.element_set & q.decomposition.element_set
                assert count == group.order * len(meet) // (h.order * q.decomposition.order)
                if h.element_set & q.inertia.element_set != {group.identity}:
                    above = [v for v in subcover.places if v.label.split("|")[0] == q.label]
                    assert len(above) == count, (cover.summary(), sub, q.label)
