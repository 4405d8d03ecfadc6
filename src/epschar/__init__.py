"""Exact epsilon-constant valuations and equivariant Euler characteristics
of abelian covers of curves over finite fields.

The package computes, in exact rational arithmetic, the p-adic
valuations of the epsilon constants attached to characters of an
abelian cover, the equivariant Euler characteristic of an invariant
divisor as an element of the Grothendieck groups of the group algebra,
and certifies the identities relating the two along independent code
paths.  See the README for the layer map.
"""

__version__ = "1.0.0"

from .errors import (
    CapacityError,
    ConstantExtensionError,
    CoverValidationError,
    DomainError,
    EpscharError,
    GroupMismatchError,
    IncompleteDatumError,
    IntegralityError,
    InvalidInputError,
    LevelError,
    NotWeaklyRamifiedError,
    PrecisionError,
    ReducibleCoverError,
    UnsupportedCoverError,
)
from .numutil import (
    digit_sum,
    factorize,
    is_prime,
    multiplicative_order,
    p_part,
    padic_valuation_int,
    prime_divisors,
    prime_to_p_part,
)
from .fields import FieldContext, PrimePower, make_field
from .cyclotomic import (
    CyclotomicInt,
    MultChar,
    complex_abs2,
    gauss_product_check,
    gauss_sum,
)
from .padic import padic_gauss_valuation, teichmuller
from .stickelberger import (
    TameLocalDatum,
    c_from_d,
    composition_exponent,
    d_from_c,
    digit_sum_valuation,
    minimal_power_clearing_wild,
    stickelberger_valuation,
)
from .groups import (
    AbelianGroup,
    Character,
    K0Element,
    LEVEL_CHAR0,
    LEVEL_MODULES,
    LEVEL_PROJECTIVES,
    Subgroup,
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
from .covers import (
    CoverDatum,
    PlaceDatum,
    RationalFunctionDivisor,
    artin_schreier_cover,
    cover_from_json,
    cover_to_json,
    kummer_cover,
    random_weakly_ramified_cover,
    riemann_hurwitz_genus,
    subcover_data,
    synthetic_cover,
    validate_cover,
)
from .corpus import (
    artin_schreier_corpus,
    constructed_corpus,
    kummer_corpus,
    mixed_synthetic_example,
    restriction_chain_covers,
    synthetic_corpus,
)
from .epsilon import (
    E_element,
    EpsilonLedger,
    LocalEpsilonVal,
    ORACLE_PADIC,
    ORACLE_STICKELBERGER,
    global_epsilon_valuation,
    local_epsilon,
)
from .euler import (
    DivisorSpec,
    LMParts,
    euler_char_structure_sheaf,
    g_term,
    lm_decompose,
    multiplicity_closed,
    multiplicity_direct,
    psi_structure,
)
from .verify import (
    ReportRow,
    VerificationReport,
    check_invariance,
    check_restriction,
    check_strong,
    check_weak,
    full_verification,
)
