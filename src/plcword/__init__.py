"""Exact-arithmetic tools for base-p expansions: morphic words, repetition
detection, approximation certificates, continued fractions, and the
Thue-Morse decomposition machinery."""

from .arithmetic import (
    ComplementDivisibility,
    GcdBound,
    complement_divisibility_check,
    dist_nearest_int,
    format_rational,
    gcd_bound,
    int_to_word,
    parse_rational,
    periodic_value,
    prefix_value,
    quality,
    word_value,
)
from .cf import (
    ContinuedFraction,
    OrbitMaxResult,
    SandwichResult,
    cf_expand,
    orbit_max_quotient,
    sandwich_check,
)
from .classify import (
    Classification,
    RecurrenceResult,
    classify_binary,
    empirical_recurrence,
    grows_unboundedly,
    growth_classes,
    restrict_to_subalphabet,
    word_distance,
)
from .repetitions import (
    ComplementOccurrence,
    OverlapOccurrence,
    RepetitionOccurrence,
    SubwordSpan,
    find_complement_squares,
    find_fractional_squares,
    find_overlaps,
    first_overlap,
    is_overlap_free,
    longest_overlap_free_subword,
)
from .tm import (
    MU,
    Decomposition,
    DecompositionChain,
    IdentityCheck,
    OverlapFreePair,
    decompose,
    extract_tm_prefix,
    mu_preserves_overlap_free,
    thue_morse_prefix,
    tm_constant,
    tm_digit_word,
    tm_identity_suite,
)
from .witness import (
    BruteForceResult,
    PlcCertificate,
    PrefixTooShortError,
    VerificationResult,
    brute_force_min,
    certificate_from_occurrence,
    complement_to_gcd_occurrence,
    scan_and_certify,
    verify_certificate,
)
from .words import (
    FixedPointStream,
    Morphism,
    MorphismError,
    MorphismProperties,
    PeriodicStream,
    WordStream,
    complement,
    fixed_point_prefix,
    is_prolongable,
    morphism_properties,
    mortal_letters,
    parse_morphism,
)

__version__ = "0.1.0"
