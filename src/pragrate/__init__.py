"""Fundamental limits of variable-rate lossless compression for memoryless
sources when the excess-rate probability is exponentially small, plus the
matching one-to-one code constructions (known-source and universal).

Importing the package loads none of its modules: a public name is read from
its home module on first access (PEP 562) and bound here, and ``pragrate.<module>``
imports that module.  So a CLI call loads only its subcommand's modules.
"""

_EXPORTS = {  # home module -> its public names
    "approximations": ("ConverseConstants", "RateLadder", "UniversalOperatingPoint", "achievability_constant",
                       "blahut_rate", "compute_rate_ladder", "compute_rate_ladders", "converse_constants",
                       "delta_to_epsilon", "epsilon_to_delta", "pragmatic_rate", "prefix_adjust", "shannon_rate",
                       "strassen_rate", "universal_rate_bound", "universal_threshold_alpha_n"),
    "coding": ("KNOWN_SOURCE", "UNIVERSAL", "CodeOrdering", "Codeword", "build_ordering", "decode", "encode",
               "string_index", "universal_excess_probability", "universal_length_distribution"),
    "distributions": ("SourcePmf", "TiltedPoint", "entropy", "kl_divergence", "tilt"),
    "errors": ("CodewordError", "DistributionError", "DomainError", "InvariantViolation", "PragrateError",
               "ResourceLimitError"),
    "exact_limits": ("LengthDistribution", "excess_rate_probability", "length_distribution", "optimal_rate"),
    "exponents": ("AlphaStarSolution", "DeltaRange", "MomentEnvelope", "delta_range", "error_exponent",
                  "moment_envelope", "solve_alpha_star"),
    "types_census": ("CensusReport", "count_types", "entropy_slab_count", "enumerate_types", "low_entropy_count",
                     "rank_in_type_class", "type_class_size", "type_entropy_bits", "unrank_in_type_class"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset({*_EXPORTS, "cli", "inputs", "numerics"})

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    from importlib import import_module

    if name in _MODULES:  # a module not yet imported; importing binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
