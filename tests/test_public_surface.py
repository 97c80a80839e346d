import ast
import sys
import types
from pathlib import Path

import pragrate

# The paper's rates, exponents, constants, census and codecs, with their
# value types and errors.  A new export, or a lost one, is a reviewed diff here.
PUBLIC_NAMES = [
    "AlphaStarSolution", "CensusReport", "CodeOrdering", "Codeword", "CodewordError",
    "ConverseConstants", "DeltaRange", "DistributionError", "DomainError",
    "InvariantViolation", "KNOWN_SOURCE", "LengthDistribution", "MomentEnvelope",
    "PragrateError", "RateLadder", "ResourceLimitError", "SourcePmf", "TiltedPoint",
    "UNIVERSAL", "UniversalOperatingPoint", "achievability_constant", "blahut_rate",
    "build_ordering", "compute_rate_ladder", "compute_rate_ladders", "converse_constants",
    "count_types", "decode", "delta_range", "delta_to_epsilon", "encode", "entropy",
    "entropy_slab_count", "enumerate_types", "epsilon_to_delta", "error_exponent",
    "excess_rate_probability", "kl_divergence", "length_distribution", "low_entropy_count",
    "moment_envelope", "optimal_rate", "pragmatic_rate", "prefix_adjust",
    "rank_in_type_class", "shannon_rate", "solve_alpha_star", "strassen_rate",
    "string_index", "tilt", "type_class_size", "type_entropy_bits",
    "universal_excess_probability", "universal_length_distribution",
    "universal_rate_bound", "universal_threshold_alpha_n", "unrank_in_type_class",
]


def test_public_names_are_pinned():
    got = sorted(
        name for name, value in vars(pragrate).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert got == sorted(PUBLIC_NAMES)


def test_no_public_name_is_a_memo():
    # a memo hashes its arguments before any check: each sits behind a checked function
    memos = [name for name in PUBLIC_NAMES if hasattr(getattr(pragrate, name), "cache_clear")]
    assert memos == []


def third_party_imports(source):
    """The absolute imports in ``source``, at any depth, whose top-level name
    is neither a standard-library module nor ``pragrate``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted(name for name in names
                  if name.partition(".")[0] not in {*sys.stdlib_module_names, "pragrate"})


def test_runtime_imports_only_the_standard_library():
    # every import, function-level ones too, not only those a run happens to reach
    found = {path.name: third_party_imports(path.read_text())
             for path in sorted(Path(pragrate.__file__).parent.rglob("*.py"))}
    assert "cli.py" in found and not any(found.values()), found


def test_third_party_imports_are_flagged():
    source = ("from . import inputs\nimport pragrate.cli\nimport os.path\n"
              "def f():\n    import numpy.linalg\nfrom scipy import special\n")
    assert third_party_imports(source) == ["numpy.linalg", "scipy"]


def recursive_functions(source):
    """The functions in ``source``, at any depth, that call themselves by their bare name."""
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                          and call.func.id == node.name for call in ast.walk(node)))


def test_runtime_has_no_recursive_function():
    # a recursive walk ties what the package admits to the interpreter's recursion limit
    found = {path.name: recursive_functions(path.read_text())
             for path in sorted(Path(pragrate.__file__).parent.rglob("*.py"))}
    assert "types_census.py" in found and not any(found.values()), found


def test_recursive_functions_are_flagged():
    source = ("def walk(n):\n    def inner():\n        return walk(n - 1)\n    return inner() if n else 0\n"
              "class Store(Base):\n    def __init__(self):\n        super().__init__(1)\n")
    assert recursive_functions(source) == ["walk"]
