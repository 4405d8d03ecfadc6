"""Built-in cover corpus used by the verification sweeps and the CLI."""

import random

from .covers import (
    artin_schreier_cover,
    kummer_cover,
    random_weakly_ramified_cover,
    synthetic_cover,
)
from .errors import CapacityError, InvalidInputError
from .groups import AbelianGroup

X = (0, 1)

# Largest synthetic corpus built on request: drawing a cover takes about
# 0.5 ms, so 10**4 covers take 3-5 s, and `corpus --count` 6-8 s.
MAX_SYNTHETIC_COUNT = 10**4


def _lin(p, a):
    # the place x - a, stored as ascending coefficients mod p
    return ((-a) % p, 1)


def kummer_corpus():
    """Kummer covers y^n = f over primes p <= 13, n <= 6, n | p - 1.

    The list exercises: ramified and unramified infinity, inert
    quadratic places, partial inertia (e < n), a place with nontrivial
    residual splitting (f_q = 2), repeated-factor multiplicities and
    base genus growth.
    """
    covers = [
        kummer_cover(3, 2, [(X, 1)]),
        kummer_cover(5, 2, [(X, 1), (_lin(5, 1), 1)]),
        kummer_cover(5, 2, [(X, 1), ((2, 0, 1), 1)]),
        kummer_cover(5, 4, [(X, 1)]),
        kummer_cover(5, 4, [(X, 2), (_lin(5, 1), 1)]),
        kummer_cover(5, 4, [(X, 2), (_lin(5, 2), 1)]),
        kummer_cover(7, 2, [(X, 1), (_lin(7, 1), 1), (_lin(7, 2), 1), (_lin(7, 3), 1)]),
        kummer_cover(7, 3, [(X, 1)]),
        kummer_cover(7, 3, [(X, 2), (_lin(7, 1), 1)]),
        kummer_cover(7, 6, [(X, 1), (_lin(7, 1), 1)]),
        kummer_cover(11, 5, [(X, 1), (_lin(11, 1), 2), (_lin(11, 2), 3)]),
        kummer_cover(11, 2, [(X, 1), ((1, 0, 1), 1)]),
        kummer_cover(13, 6, [(X, 2), (_lin(13, 1), 3)]),
        kummer_cover(13, 4, [(X, 1), ((2, 0, 1), 1)]),
    ]
    return covers


def artin_schreier_corpus():
    """Artin-Schreier covers y^p - y = f with simple poles, p in {2, 3, 5}."""
    covers = [
        artin_schreier_cover(2, [(X, -1)]),
        artin_schreier_cover(2, [(X, -1), ((1, 1), -1)]),
        artin_schreier_cover(2, [((1, 1, 1), -1)]),
        artin_schreier_cover(2, [(X, -1), ((1, 1), -1), ((1, 1, 1), -1)]),
        artin_schreier_cover(3, [(X, -1)]),
        artin_schreier_cover(3, [(X, -1), (_lin(3, 1), -1)]),
        artin_schreier_cover(3, [((1, 0, 1), -1)]),
        artin_schreier_cover(3, [(X, -1), (_lin(3, 1), -1), (_lin(3, 2), -1)]),
        artin_schreier_cover(3, [((1, 2, 0, 1), -1)]),
        artin_schreier_cover(5, [(X, -1)]),
        artin_schreier_cover(5, [(X, -1), (_lin(5, 1), -1)]),
        artin_schreier_cover(5, [((2, 0, 1), -1)]),
    ]
    return covers


def constructed_corpus():
    return kummer_corpus() + artin_schreier_corpus()


def mixed_synthetic_example():
    """Z/6 cover of a genus-0 base over F_3 with one wild and one tame place."""
    group = AbelianGroup((6,))
    wild_inertia = group.subgroup([(2,)])  # order 3 = p
    tame_inertia = group.subgroup([(3,)])  # order 2
    places = [
        {
            "label": "w0",
            "degree": 1,
            "inertia": wild_inertia,
            "decomposition": wild_inertia,
            "tame_char": wild_inertia.trivial_character(),
        },
        {
            "label": "t0",
            "degree": 2,
            "inertia": tame_inertia,
            "decomposition": group.full_subgroup(),
            "tame_char": group.character((3,)).restrict(tame_inertia),
        },
    ]
    return synthetic_cover(group, 3, 1, 0, places, weakly_ramified=True, compute_genus=True)


def synthetic_corpus(count, seed=0):
    """Random weakly ramified synthetic data; deterministic in the seed."""
    if count < 0:
        raise InvalidInputError(f"synthetic corpus count must be >= 0, got {count}")
    if count > MAX_SYNTHETIC_COUNT:
        raise CapacityError(
            f"synthetic corpus of {count} covers exceeds the supported "
            f"{MAX_SYNTHETIC_COUNT} (index < {MAX_SYNTHETIC_COUNT})")
    rng = random.Random(seed)
    return [random_weakly_ramified_cover(rng) for _ in range(count)]


def restriction_chain_covers():
    """Covers whose cyclic groups (n = 4, 6) have full subgroup chains."""
    return [
        kummer_cover(5, 4, [(X, 1)]),
        kummer_cover(5, 4, [(X, 2), (_lin(5, 2), 1)]),
        kummer_cover(7, 6, [(X, 1), (_lin(7, 1), 1)]),
        kummer_cover(13, 6, [(X, 2), (_lin(13, 1), 3)]),
    ]
