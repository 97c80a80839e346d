"""Enumeration of empirical types, exact type-class sizes, multiset
rank/unrank within a type class, and the low-empirical-entropy census.

An n-type over an alphabet of size m is a vector of m nonnegative counts
summing to n; its type class is the set of strings with those symbol counts,
of exactly multinomial size.  All counting here is exact big-integer
arithmetic (Python ints); the polynomially many types are enumerated, never
the exponentially many strings.

The canonical type order used across the whole package (census, optimal-code
evaluation, codecs) is ascending lexicographic on the count vectors; the
encoder and decoder must derive the identical order, so it is fixed here
once and documented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import DomainError
from .numerics import neumaier_sum

ENTROPY_CMP_TOL = 1e-12  # absorbs float rounding at threshold comparisons
DEFAULT_TYPE_CAP = 10_000_000  # type classes an exact computation may enumerate


@dataclass(frozen=True)
class NType:
    """A composition of n into m nonnegative counts: the type of a string."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) < 1:
            raise DomainError("a type needs at least one symbol slot")
        if any(c < 0 or c != int(c) for c in self.counts):
            raise DomainError(f"counts must be nonnegative integers: {self.counts}")
        if sum(self.counts) < 1:
            raise DomainError("a type must have n >= 1")

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def m(self) -> int:
        return len(self.counts)


def count_types(n: int, m: int) -> int:
    """Number of n-types on m symbols: C(n + m - 1, m - 1)."""
    return math.comb(n + m - 1, m - 1)


def _iter_count_vectors(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Yield all count vectors summing to n, ascending lexicographically."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _iter_count_vectors(n - first, m - 1):
            yield (first,) + rest


def enumerate_types(n: int, m: int) -> Iterator[NType]:
    """All n-types on m symbols in the canonical (ascending lex) order."""
    if n < 1 or m < 2:
        raise DomainError(f"need n >= 1 and m >= 2, got n={n}, m={m}")
    for counts in _iter_count_vectors(n, m):
        yield NType(counts)


def type_class_size(t: NType | Sequence[int]) -> int:
    """Exact multinomial coefficient n! / prod(counts!)."""
    counts = t.counts if isinstance(t, NType) else tuple(t)
    total = sum(counts)
    size = 1
    remaining = total
    for c in counts:
        size *= math.comb(remaining, c)
        remaining -= c
    return size


def _iter_types_with_sizes(n: int, m: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(counts, exact class size) in canonical order, with the multinomials
    maintained incrementally (one small multiply/divide per step) so that
    sweeps over tens of thousands of types stay cheap."""

    def rec(remaining: int, slots: int, prefix: tuple[int, ...], coeff: int):
        if slots == 1:
            yield prefix + (remaining,), coeff
            return
        c = 0
        binom = 1  # C(remaining, c)
        while True:
            yield from rec(remaining - c, slots - 1, prefix + (c,), coeff * binom)
            if c == remaining:
                return
            binom = binom * (remaining - c) // (c + 1)
            c += 1

    yield from rec(n, m, (), 1)


def type_entropy_bits(counts: Sequence[int]) -> float:
    """Entropy of the empirical pmf counts/n, in bits, with 0 log 0 = 0."""
    n = sum(counts)
    if n < 1:
        raise DomainError("empty type")
    # H = log2 n - (1/n) sum c*log2 c ; exact at the degenerate corners.
    s = neumaier_sum(c * math.log2(c) for c in counts if c > 0)
    h = math.log2(n) - s / n
    return max(h, 0.0)


def stirling_ratio(t: NType | Sequence[int]) -> float:
    """Type-class size divided by its Stirling-style estimate.

    For a full-support type with support size k the estimate is
    2**(n H) * n**(-(k-1)/2) * prod(1/sqrt(counts[a]/n)); the ratio is
    computed in the log domain and stays inside a two-sided constant band
    for fixed k, which is what the census sweeps assert.
    """
    counts = t.counts if isinstance(t, NType) else tuple(t)
    if any(c == 0 for c in counts):
        raise DomainError("stirling_ratio requires a full-support type")
    n = sum(counts)
    k = len(counts)
    h = type_entropy_bits(counts)
    log2_ratio = (
        math.log2(type_class_size(counts))
        - n * h
        + 0.5 * (k - 1) * math.log2(n)
        + 0.5 * neumaier_sum(math.log2(c / n) for c in counts)
    )
    return 2.0 ** log2_ratio


def entropy_slab_count(n: int, m: int, h: float) -> int:
    """Exact number of n-types with entropy in [h - 1/n, h] bits."""
    if not 0.0 < h <= math.log2(m) + ENTROPY_CMP_TOL:
        raise DomainError(f"threshold h={h!r} outside (0, log2 m]")
    lo = h - 1.0 / n
    hits = 0
    for counts in _iter_count_vectors(n, m):
        ht = type_entropy_bits(counts)
        if lo - ENTROPY_CMP_TOL <= ht <= h + ENTROPY_CMP_TOL:
            hits += 1
    return hits


@dataclass(frozen=True)
class CensusReport:
    """Exact count of strings with empirical entropy at most a threshold.

    ``theta_ratio`` normalizes the count by n**((m-3)/2) * 2**(n h), the
    growth rate the census is expected to track; it is computed in the log
    domain from the exact count.
    """

    n: int
    m: int
    threshold_bits: float
    count: int
    theta_ratio: float


def low_entropy_count(n: int, m: int, h: float) -> CensusReport:
    """Exact number of strings x^n with H(empirical type of x) <= h bits."""
    if not 0.0 < h <= math.log2(m) + ENTROPY_CMP_TOL:
        raise DomainError(f"threshold h={h!r} outside (0, log2 m]")
    count = 0
    for counts, size in _iter_types_with_sizes(n, m):
        if type_entropy_bits(counts) <= h + ENTROPY_CMP_TOL:
            count += size
    if count > 0:
        log2_ratio = math.log2(count) - 0.5 * (m - 3) * math.log2(n) - n * h
        theta = 2.0 ** log2_ratio
    else:
        theta = 0.0
    return CensusReport(n=n, m=m, threshold_bits=h, count=count, theta_ratio=theta)


def rank_in_type_class(x: Sequence[int], m: int) -> int:
    """Lexicographic rank of string ``x`` among all strings of its type.

    Symbols are integers 0..m-1.  Runs in O(n*m) big-integer operations via
    decrement-and-count multinomial recursion; the inverse is
    :func:`unrank_in_type_class`.
    """
    if any(not 0 <= s < m for s in x):
        raise DomainError("symbol out of alphabet range")
    counts = [0] * m
    for s in x:
        counts[s] += 1
    remaining = len(x)
    size = type_class_size(counts)
    rank = 0
    for s in x:
        for t in range(s):
            if counts[t] > 0:
                rank += size * counts[t] // remaining
        size = size * counts[s] // remaining
        counts[s] -= 1
        remaining -= 1
    return rank


def unrank_in_type_class(t: NType | Sequence[int], rank: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_in_type_class` for the given type."""
    counts = list(t.counts if isinstance(t, NType) else t)
    size = type_class_size(counts)
    if not 0 <= rank < size:
        raise DomainError(f"rank {rank} outside [0, {size})")
    remaining = sum(counts)
    out: list[int] = []
    while remaining > 0:
        for s, c in enumerate(counts):
            if c == 0:
                continue
            here = size * c // remaining
            if rank < here:
                out.append(s)
                size = here
                counts[s] -= 1
                remaining -= 1
                break
            rank -= here
        else:  # pragma: no cover - unreachable if rank was in range
            raise DomainError("unrank walked off the type class")
    return tuple(out)
