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
once and documented.  A type's position in it has a closed form both ways
(:func:`type_index`, :func:`type_at_index`), so the known-source codec in
:mod:`pragrate.coding` keeps no count vectors and no counts-to-class map.

Entropy and class size are symmetric under permuting the counts, so the
census works one permutation orbit at a time: it enumerates the partitions
of n into at most m parts (the nonincreasing count vectors) and weighs each
by its number of distinct rearrangements, m!/prod(multiplicity!), instead
of visiting all C(n+m-1, m-1) count vectors.  The universal code order in
:mod:`pragrate.coding` is kept as the same orbits: a count vector's place in
its orbit is its lex rank among the rearrangements of the partition (a
multiset rank, :func:`_rank_in_class`), and :func:`_distinct_permutations`
lists an orbit in lex order when one is expanded.
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


def enumerate_types(n: int, m: int) -> Iterator[NType]:
    """All n-types on m symbols in the canonical (ascending lex) order."""
    if n < 1 or m < 2:
        raise DomainError(f"need n >= 1 and m >= 2, got n={n}, m={m}")
    for counts, _ in _iter_types_with_sizes(n, m):
        yield NType(counts)


def type_index(t: NType | Sequence[int]) -> int:
    """0-based position of a type in the canonical order of
    :func:`enumerate_types`; the inverse is :func:`type_at_index`.

    The types that agree with ``t`` before slot i and put v < counts[i]
    there number C(r - v + k, k), with r what is left of n and k + 1 the
    slots after i.  Their sum over v is a difference of two binomials (the
    hockey-stick identity), so the index costs two binomials per slot."""
    counts = t.counts if isinstance(t, NType) else NType(tuple(t)).counts
    index, remaining, after = 0, sum(counts), len(counts) - 1  # after = k + 1
    for c in counts[:-1]:
        index += math.comb(remaining + after, after) - math.comb(remaining - c + after, after)
        remaining -= c
        after -= 1
    return index


def type_at_index(n: int, m: int, index: int) -> tuple[int, ...]:
    """The count vector at 0-based ``index`` in the canonical order of the
    n-types on m symbols: the inverse of :func:`type_index`."""
    if n < 1 or m < 2:
        raise DomainError(f"need n >= 1 and m >= 2, got n={n}, m={m}")
    if not 0 <= index < count_types(n, m):
        raise DomainError(f"type index {index} outside [0, {count_types(n, m)})")
    counts, remaining = [], n
    for k in range(m - 2, 0, -1):  # k + 1 slots after this one
        c, block = 0, math.comb(remaining + k, k)  # types with this slot at c
        while index >= block:
            index -= block
            block = block * (remaining - c) // (remaining - c + k)
            c += 1
        counts.append(c)
        remaining -= c
    # one slot after this one: each value holds exactly one type
    return (*counts, index, remaining - index)


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


def _iter_prefixes(
    remaining: int, slots: int, prefix: tuple[int, ...], coeff: int
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(prefix extended by ``slots`` counts, what is left of n, the prefix's
    product of binomials), the prefixes in ascending lex order."""
    if slots == 0:
        yield prefix, remaining, coeff
        return
    binom = 1  # C(remaining, c)
    for c in range(remaining + 1):
        yield from _iter_prefixes(remaining - c, slots - 1, prefix + (c,), coeff * binom)
        binom = binom * (remaining - c) // (c + 1)


def _iter_types_with_sizes(n: int, m: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(counts, exact class size) in canonical order, with the multinomials
    maintained incrementally (one small multiply/divide per step) so that
    sweeps over tens of thousands of types stay cheap.  Only the first m-2
    slots recurse; the last two run in one flat loop.  Needs m >= 2."""
    for prefix, remaining, coeff in _iter_prefixes(n, m - 2, (), 1):
        size = coeff  # coeff * C(remaining, c)
        for c in range(remaining + 1):
            yield prefix + (c, remaining - c), size
            size = size * (remaining - c) // (c + 1)


def _iter_partitions(n: int, m: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(parts, class size, arrangements) for every partition of n into at
    most m parts, as a nonincreasing count vector of length m (zero padded),
    in descending lex order.  Needs m >= 2.

    Each partition stands for the permutation orbit of the count vectors
    that rearrange it; entropy and class size are the same across an orbit,
    and ``arrangements`` = m!/prod(multiplicity!) is the orbit's size.  Both
    integers are kept incrementally, one multiply/divide per part.  Only the
    first m-2 parts recurse; the last two run in one flat loop, as in
    :func:`_iter_types_with_sizes`: the last part is what is left, so it
    adds no binomial, and its multiplicity only extends the run of the part
    before it when the two are equal."""

    def rec(remaining, slot, prev, run, prefix, size, arr):
        # slot: 1-based position of the next part; run: parts equal to prev
        # at the end of the prefix, so a part equal to prev extends that run
        top = min(prev, remaining)
        binom = math.comb(remaining, top)  # C(remaining, c), c counting down
        # the largest part left is at least the mean of what is left
        low = -(-remaining // (m - slot + 1))
        if slot < m - 1:
            for c in range(top, low - 1, -1):
                r = run + 1 if c == prev else 1
                yield from rec(remaining - c, slot + 1, c, r, prefix + (c,),
                               size * binom, arr * slot // r)
                binom = binom * c // (remaining - c + 1)
            return
        for c in range(top, low - 1, -1):  # parts m-1 and m: c, then the rest
            r = run + 1 if c == prev else 1
            last = remaining - c
            yield (prefix + (c, last), size * binom,
                   arr * slot // r * m // (r + 1 if last == c else 1))
            binom = binom * c // (last + 1)

    yield from rec(n, 1, n, 0, (), 1, 1)


def _distinct_permutations(values: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The distinct permutations of ``values`` in ascending lex order.

    Next-permutation steps from the sorted vector: O(m) work per tuple
    yielded, so an orbit costs its own size, never m!."""
    a = sorted(values)
    last = len(a) - 1
    while True:
        yield tuple(a)
        i = last - 1
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


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
    lo, hi = h - 1.0 / n - ENTROPY_CMP_TOL, h + ENTROPY_CMP_TOL
    log2, fsum, log2_n = math.log2, math.fsum, math.log2(n)
    hits = 0
    for parts, _, arrangements in _iter_partitions(n, m):
        # type_entropy_bits(parts), bit for bit, without its call overhead
        if lo <= max(log2_n - fsum([c * log2(c) for c in parts if c]) / n, 0.0) <= hi:
            hits += arrangements
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
    hi = h + ENTROPY_CMP_TOL
    log2, fsum, log2_n = math.log2, math.fsum, math.log2(n)
    count = 0
    for parts, size, arrangements in _iter_partitions(n, m):
        # type_entropy_bits(parts), bit for bit, without its call overhead
        if max(log2_n - fsum([c * log2(c) for c in parts if c]) / n, 0.0) <= hi:
            count += arrangements * size
    if count > 0:
        log2_ratio = math.log2(count) - 0.5 * (m - 3) * math.log2(n) - n * h
        theta = 2.0 ** log2_ratio
    else:
        theta = 0.0
    return CensusReport(n=n, m=m, threshold_bits=h, count=count, theta_ratio=theta)


def rank_in_type_class(x: Sequence[int], m: int) -> int:
    """Lexicographic rank of string ``x`` among all strings of its type.

    Symbols are integers 0..m-1.  Runs in O(n) big-integer operations via
    decrement-and-count multinomial recursion; the inverse is
    :func:`unrank_in_type_class`.
    """
    if any(not 0 <= s < m for s in x):
        raise DomainError("symbol out of alphabet range")
    counts = [0] * m
    for s in x:
        counts[s] += 1
    return _rank_in_class(x, counts)


def _rank_in_class(x: Sequence[int], counts: list[int]) -> int:
    """Rank of ``x`` in its class, given its symbol ``counts`` (which it
    may change).

    Every division is exact.  Of the ``size`` strings that agree with ``x``
    so far, those that put symbol s next number size * counts[s] / remaining,
    the size of the class with one s fewer, and those that put a smaller
    symbol next number size * below / remaining, a sum of such sizes.  Each
    position adds the latter to the rank and keeps the former as ``size``,
    with one-step rules that skip a multiply-divide:

    * the smallest symbol still present adds nothing;
    * the largest one adds size - new_size, since every other string that
      agrees so far puts a smaller symbol there;
    * once two symbols a < b are left, q = size * counts[a] / remaining
      strings put a next: an a keeps q as the size, a b adds q to the rank
      and keeps size - q.

    Only a symbol between the smallest and the largest costs a second
    multiply-divide, so at m = 2 a position costs one multiply and one
    exact division.  The reference per-symbol loop is in the tests."""
    remaining = len(x)
    size = type_class_size(counts)
    rank = 0
    live = [s for s, c in enumerate(counts) if c]  # the symbols still present
    symbols = iter(x)
    if len(live) > 2:
        lo, hi = live[0], live[-1]
        for s in symbols:
            c = counts[s]
            new = size * c // remaining
            if s == hi:
                rank += size - new
            elif s != lo:
                rank += size * sum(counts[:s]) // remaining
            size = new
            remaining -= 1
            counts[s] = c - 1
            if c == 1:
                live.remove(s)
                if len(live) == 2:
                    break
                lo, hi = live[0], live[-1]
    if len(live) == 2:
        a, count_a = live[0], counts[live[0]]
        for s in symbols:
            q = size * count_a // remaining
            if s == a:
                size = q
                count_a -= 1
            else:
                rank += q
                size -= q
            remaining -= 1
    return rank


def unrank_in_type_class(t: NType | Sequence[int], rank: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_in_type_class` for the given type.

    Each position takes the first symbol still present whose strings reach
    past what is left of the rank, passing the earlier candidates' strings.
    A candidate s has size * counts[s] / remaining of them, the size of the
    class with one s fewer, so every division is exact.  One-step rules
    skip work:

    * exhausted symbols are never candidates;
    * the last symbol still present takes what the earlier candidates left
      of ``size``, with no multiply-divide;
    * once two symbols are left, one multiply-divide per position picks
      between them, and when one of the two runs out the other fills the
      rest of the string in one step."""
    counts = list(t.counts if isinstance(t, NType) else t)
    size = type_class_size(counts)
    if not 0 <= rank < size:
        raise DomainError(f"rank {rank} outside [0, {size})")
    remaining = sum(counts)
    live = [s for s, c in enumerate(counts) if c]  # the symbols still present
    out: list[int] = []
    head = live[:-1]  # the candidates that need a multiply-divide
    while len(head) > 1:
        start = rank
        for s in head:
            here = size * counts[s] // remaining
            if rank < here:
                break
            rank -= here
        else:  # the last symbol still present: what the others left of size
            s = live[-1]
            here = size - (start - rank)
        out.append(s)
        size = here
        remaining -= 1
        counts[s] -= 1
        if not counts[s]:
            live.remove(s)
            head = live[:-1]
    if len(live) == 2:
        a, b = live
        count_a = counts[a]
        while 0 < count_a < remaining:
            q = size * count_a // remaining
            if rank < q:
                out.append(a)
                size = q
                count_a -= 1
            else:
                out.append(b)
                rank -= q
                size -= q
            remaining -= 1
        # one of the two has run out, and the other fills the tail
        return (*out, *[a] * count_a, *[b] * (remaining - count_a))
    return (*out, *live * remaining)
