"""Semantic exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so library code should raise
these rather than bare ValueError/RuntimeError.  ``DEFAULT_TYPE_CAP`` is here
so that the CLI's parser reads it without loading the type census.
"""


class PragrateError(Exception):
    """Base class for all package errors."""


class DistributionError(PragrateError, ValueError):
    """A probability vector violates its contract (negative mass, bad sum,
    zero entries where full support is required)."""


class DomainError(PragrateError, ValueError):
    """An argument lies outside the admissible range of an operation."""


class ResourceLimitError(PragrateError):
    """A feasibility guard was exceeded (too many type classes or strings
    to enumerate)."""


DEFAULT_TYPE_CAP = 10_000_000  # type classes an exact computation may enumerate


class CodewordError(PragrateError, ValueError):
    """A codeword cannot be decoded in the given code ordering."""


class InvariantViolation(PragrateError):
    """An internal consistency check failed.  This is a bug, not bad input."""
