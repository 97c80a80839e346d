import types

import pragrate

# The paper's rates, exponents, constants, census and codecs, with their
# value types and errors.  A new export, or a lost one, is a reviewed diff here.
PUBLIC_NAMES = [
    "AlphaStarSolution", "CensusReport", "CodeOrdering", "Codeword", "CodewordError",
    "ConverseConstants", "DeltaRange", "DistributionError", "DomainError",
    "InvariantViolation", "KNOWN_SOURCE", "LengthDistribution", "MomentEnvelope",
    "PragrateError", "RateLadder", "ResourceLimitError", "SourcePmf", "TiltedPoint",
    "UNIVERSAL", "UniversalOperatingPoint", "achievability_constant", "blahut_rate",
    "brute_force_limits", "build_ordering", "compute_rate_ladder", "compute_rate_ladders",
    "converse_constants", "count_types", "decode", "delta_range", "delta_to_epsilon",
    "encode", "entropy", "entropy_slab_count", "enumerate_types", "epsilon_to_delta",
    "error_exponent", "excess_rate_probability", "kl_divergence", "length_distribution",
    "low_entropy_count", "moment_envelope", "optimal_rate", "pragmatic_rate",
    "prefix_adjust", "rank_in_type_class", "shannon_rate", "solve_alpha_star",
    "strassen_rate", "string_index", "tilt", "type_class_size", "type_entropy_bits",
    "universal_excess_probability", "universal_length_distribution",
    "universal_rate_bound", "universal_threshold_alpha_n", "unrank_in_type_class",
]


def test_public_names_are_pinned():
    got = sorted(
        name for name, value in vars(pragrate).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert got == sorted(PUBLIC_NAMES)
