"""Fundamental limits of variable-rate lossless compression for memoryless
sources when the excess-rate probability is exponentially small, plus the
matching one-to-one code constructions (known-source and universal)."""

from .approximations import (
    ConverseConstants,
    RateLadder,
    UniversalOperatingPoint,
    achievability_constant,
    blahut_rate,
    compute_rate_ladder,
    compute_rate_ladders,
    converse_constants,
    delta_to_epsilon,
    epsilon_to_delta,
    pragmatic_rate,
    prefix_adjust,
    shannon_rate,
    strassen_rate,
    universal_rate_bound,
    universal_threshold_alpha_n,
)
from .coding import (
    KNOWN_SOURCE,
    UNIVERSAL,
    CodeOrdering,
    Codeword,
    build_ordering,
    decode,
    encode,
    string_index,
    universal_excess_probability,
    universal_length_distribution,
)
from .distributions import (
    SourcePmf,
    TiltedPoint,
    entropy,
    kl_divergence,
    tilt,
)
from .errors import (
    CodewordError,
    DistributionError,
    DomainError,
    InvariantViolation,
    PragrateError,
    ResourceLimitError,
)
from .exact_limits import (
    LengthDistribution,
    excess_rate_probability,
    length_distribution,
    optimal_rate,
)
from .exponents import (
    AlphaStarSolution,
    DeltaRange,
    MomentEnvelope,
    delta_range,
    error_exponent,
    moment_envelope,
    solve_alpha_star,
)
from .types_census import (
    CensusReport,
    count_types,
    entropy_slab_count,
    enumerate_types,
    low_entropy_count,
    rank_in_type_class,
    type_class_size,
    type_entropy_bits,
    unrank_in_type_class,
)

__version__ = "0.1.0"
