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
once and documented, and walked here once, run by run (:func:`_class_runs`).  A type's position in it has a closed form both ways
(:func:`type_index`, :func:`type_at_index`), so the known-source codec in
:mod:`pragrate.coding` keeps no count vectors and no counts-to-class map.

Entropy and class size are symmetric under permuting the counts, so the
census works one permutation orbit at a time: it enumerates the partitions
of n into at most m parts (the nonincreasing count vectors) and weighs each
by its number of distinct rearrangements, m!/prod(multiplicity!), instead
of visiting all C(n+m-1, m-1) count vectors.  The universal code order in
:mod:`pragrate.coding` is kept as the same orbits: a count vector's place in
its orbit is its lex rank among the rearrangements of the partition (a
multiset rank, :func:`rank_in_type_class`), and :func:`_distinct_permutations`
lists an orbit in lex order when one is expanded.

The partitions come in runs (:func:`_iter_runs`): those that share their
first m-2 parts and split the rest R between their last two parts as
(c, R - c), c from min(previous part, R) down to ceil(R/2).  Along a run
the float entropy does not decrease as c falls, except possibly in a band
of steps at the centre of runs far longer than any the default type cap
admits (:func:`_band_width`).  So the census never tests every partition:
it bisects each run for the c where the entropy crosses its threshold
(:func:`_iter_spans`), with O(log R) entropies per run and the plain test
for each c of the band, and sums the arrangements and the binomials over
the interval between the cuts, with counts bit-identical to a test of
every partition.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat
from math import fsum, log2
from typing import Iterator, Sequence

from .errors import DomainError, ResourceLimitError
from .inputs import check_blocklength, check_integer, check_real, describe
from .numerics import neumaier_sum

ENTROPY_CMP_TOL = 1e-12  # absorbs float rounding at threshold comparisons
_TERM_ERROR = 2.0 ** -51  # bound on the relative error of a float c*log2(c)
DEFAULT_TYPE_CAP = 10_000_000  # type classes an exact computation may enumerate
_CALLER_FRAMES = 200  # frames left to a walk's callers under the recursion limit


def _type_counts(t: Sequence[int]) -> tuple[int, ...]:
    """The counts of a type, refused unless each is an integer >= 0 and
    their sum, the blocklength, an integer that a double holds."""
    try:
        counts = tuple(t)
    except TypeError:
        raise DomainError(f"a type must be a sequence of counts, got {describe(t)}") from None
    for c in counts:
        check_integer("a type's count", c, 0)
    check_real("a type's blocklength", sum(counts), need="be an integer that a double holds")
    return counts


def _check_n_m(n: int, m: int) -> None:
    check_blocklength(n)  # n enters the entropies as a real
    check_integer("m", m, 2)
    if m > DEFAULT_TYPE_CAP:
        raise ResourceLimitError(f"m={describe(m)} symbols: more than the cap of {DEFAULT_TYPE_CAP} types at any n")
    _check_walk_depth(m)


def count_types(n: int, m: int) -> int:
    """Number of n-types on m symbols: C(n + m - 1, m - 1), for any integers n >= 1, m >= 2."""
    check_integer("blocklength n", n, 1)
    check_integer("m", m, 2)
    return math.comb(n + m - 1, m - 1)


def count_partitions(n: int, m: int) -> int:
    """Number of partitions of n into at most m parts: the orbits that the
    census visits, about m! times fewer than :func:`count_types` for large n.

    By conjugation these are the partitions into parts of size at most m,
    counted by the O(n m) recurrence that adds one part size at a time."""
    _check_n_m(n, m)
    ways = [1] + [0] * n
    for k in range(1, min(m, n) + 1):
        for j in range(k, n + 1):
            ways[j] += ways[j - k]
    return ways[n]


def enumerate_types(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All n-types on m symbols in the canonical (ascending lex) order."""
    _check_n_m(n, m)
    for _, _, rows in _class_runs([range(n + 1)] * m, n):
        yield from rows


def type_index(t: Sequence[int]) -> int:
    """0-based position of a type in the canonical order of
    :func:`enumerate_types`; the inverse is :func:`type_at_index`.

    The types that agree with ``t`` before slot i and put v < counts[i]
    there number C(r - v + k, k), with r what is left of n and k + 1 the
    slots after i.  Their sum over v is a difference of two binomials (the
    hockey-stick identity), so the index costs two binomials per slot."""
    counts = _type_counts(t)
    index, remaining, after = 0, sum(counts), len(counts) - 1  # after = k + 1
    check_blocklength(remaining)
    for c in counts[:-1]:
        index += math.comb(remaining + after, after) - math.comb(remaining - c + after, after)
        remaining -= c
        after -= 1
    return index


def type_at_index(n: int, m: int, index: int) -> tuple[int, ...]:
    """The count vector at 0-based ``index`` in the canonical order of the
    n-types on m symbols: the inverse of :func:`type_index`."""
    total = count_types(n, m)  # checks n and m
    check_integer("type index", index, 0)
    if index >= total:
        raise DomainError(f"type index {describe(index)} outside [0, {describe(total)})")
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


def type_class_size(t: Sequence[int]) -> int:
    """Exact multinomial coefficient n! / prod(counts!)."""
    counts = _type_counts(t)
    size, remaining = 1, sum(counts)
    for c in counts:
        size *= math.comb(remaining, c)
        remaining -= c
    return size


def _check_walk_depth(m: int) -> None:
    """Refuse an alphabet too large for the walks of the runs
    (:func:`_class_runs`, :func:`_iter_runs`): they nest m - 2 generator
    frames, which with ``_CALLER_FRAMES`` for their callers' must stay
    within the interpreter's recursion limit."""
    limit = sys.getrecursionlimit()
    if m - 2 + _CALLER_FRAMES > limit:
        raise ResourceLimitError(f"m={describe(m)} symbols: its walks nest {m - 2} frames, past the "
                                 f"recursion limit of {limit} less {_CALLER_FRAMES} for their callers")


def _class_runs(tables: Sequence[Sequence], n: int) -> Iterator[tuple[int, int, Iterator[tuple]]]:
    """(coeff, r, rows) per run of the canonical order of the n-types on
    m = len(tables) symbols: the classes (prefix, c, r - c), c = 0..r, of
    coeff * C(r, c) strings each, that share their first m-2 counts.
    ``rows`` is one C-level ``zip`` of each class's entries tables[i][count i]
    (a reader reduces them: a key by ``fsum``, a weight by ``prod``; over
    ``range(n + 1)`` a row is the count vector); it holds two table slices."""
    return _class_runs_after(tables, n, 0, (), 1)


def _class_runs_after(
    tables: Sequence[Sequence], remaining: int, slot: int, heads: tuple, coeff: int
) -> Iterator[tuple[int, int, Iterator[tuple]]]:
    """The runs of :func:`_class_runs` after the prefix entries ``heads``."""
    if slot == len(tables) - 2:
        yield coeff, remaining, zip(*map(repeat, heads), tables[-2][:remaining + 1], tables[-1][remaining::-1])
        return
    table, binom = tables[slot], 1  # C(remaining, c)
    for c in range(remaining + 1):
        yield from _class_runs_after(tables, remaining - c, slot + 1, heads + (table[c],), coeff * binom)
        binom = binom * (remaining - c) // (c + 1)


def _iter_runs(
    n: int, m: int
) -> Iterator[tuple[tuple[int, ...], int, int, int, int, int]]:
    """(prefix, rest, prev, run, size, arr) for every run of partitions of
    n into at most m parts, in descending lex order.  Needs m >= 2.

    A run is the partitions that share their first m-2 parts, ``prefix``
    (nonincreasing); its last two parts are (c, rest - c) for c from
    min(prev, rest) down to ceil(rest/2), with ``prev`` the last part of
    the prefix (n when there is none).  ``size`` is the prefix's product of
    binomials and ``arr`` its share of the arrangements, with ``run`` the
    number of parts equal to ``prev`` at the end of the prefix, so a part
    equal to ``prev`` extends that run."""
    if m == 2:  # one run, with no prefix
        return iter((((), n, n, 0, 1, 1),))
    return _iter_runs_after(m, n, 1, n, 0, (), 1, 1)


def _iter_runs_after(
    m: int, remaining: int, slot: int, prev: int, run: int,
    prefix: tuple[int, ...], size: int, arr: int,
) -> Iterator[tuple[tuple[int, ...], int, int, int, int, int]]:
    """The runs of :func:`_iter_runs` that start with ``prefix``, with
    ``remaining`` of n left for parts ``slot`` (1-based, at most m - 2)
    onwards.  A module-level generator, not a closure, so that a census
    call builds no function object."""
    top = min(prev, remaining)
    binom = math.comb(remaining, top)  # C(remaining, c), c counting down
    # the largest part left is at least the mean of what is left
    low = -(-remaining // (m - slot + 1))
    if slot < m - 2:
        for c in range(top, low - 1, -1):
            r = run + 1 if c == prev else 1
            yield from _iter_runs_after(m, remaining - c, slot + 1, c, r, prefix + (c,),
                                        size * binom, arr * slot // r)
            binom = binom * c // (remaining - c + 1)
        return
    for c in range(top, low - 1, -1):
        r = run + 1 if c == prev else 1
        yield prefix + (c,), remaining - c, c, r, size * binom, arr * slot // r
        binom = binom * c // (remaining - c + 1)


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
    counts = _type_counts(counts)
    n = sum(counts)
    check_blocklength(n)  # an empty type has n = 0
    # H = log2 n - (1/n) sum c*log2 c ; exact at the degenerate corners.
    s = neumaier_sum(c * math.log2(c) for c in counts if c > 0)
    h = math.log2(n) - s / n
    return max(h, 0.0)


def _check_census(n: int, m: int, h: float) -> float:
    _check_n_m(n, m)
    alone = _band_width(n) // 2  # the c of a run's centre band, each tested alone
    if alone > DEFAULT_TYPE_CAP:
        raise ResourceLimitError(f"n={describe(n)}: a run's centre band holds {alone} partitions "
                                 f"to test one at a time, past the cap of {DEFAULT_TYPE_CAP}")
    hi = math.log2(m) + ENTROPY_CMP_TOL
    return check_real("threshold h", h, 0, hi, hi_open=False, need="lie in (0, log2 m]")


def _band_width(rest: int) -> int:
    """The largest k = 2c - rest - 1 at which the step c -> c-1 of a run
    over ``rest`` (or over any smaller rest) may break the monotonicity of
    the float entropy; 0 when no step can, since every step has k >= 1.

    A run's terms c*log2(c) and d*log2(d), d = rest - c, each carry a
    relative error below eps = ``_TERM_ERROR`` = 4u, u = 2**-53: a log2
    within 1 ulp and the rounded product make 3u, and the last u leaves
    room for the rounding of this bound.  With F(x) = x log2 x, the exact
    step F(c) + F(d) - F(c-1) - F(d+1) is at least
    log2(c/(d+1)) >= log2(e) k/c, while rounding moves it by at most
    2 eps rest log2(rest), as F(c) + F(d) <= F(rest) by convexity.  As
    c = (rest+1+k)/2, the step is safe once
    k > eps rest (rest+1) ln(rest) / (1 - eps rest ln(rest)), a bound that
    grows with rest.  It is below 1 for rest up to about 1.2e7, so for
    every run the default type cap admits; at 1e9 it is about 9200, a band
    of 4600 steps above the centre."""
    t = _TERM_ERROR * rest * math.log(rest) if rest > 1 else 0.0
    return rest if t >= 1.0 else int(t * (rest + 1) / (1.0 - t))


def _iter_spans(
    n: int, m: int, lo: float, hi: float
) -> Iterator[tuple[int, int, int, int, int, int, int]]:
    """(rest, a, b, size, inner, end_a, end_b) for the intervals [a, b] of c
    over which the partitions (prefix, c, rest - c) of one run
    of :func:`_iter_runs` have lo <= entropy <= hi, the entropy computed
    bit for bit as :func:`type_entropy_bits` does.  ``size`` is the
    prefix's product of binomials, so a partition's class size is
    size * C(rest, c); its arrangements are ``end_a`` at c = a, ``end_b``
    at c = b and ``inner`` in between.

    Along a run the float entropy max(log2 n - fsum(c_i log2 c_i)/n, 0)
    does not decrease as c falls: the exact sum F(c) + F(rest - c),
    F(x) = x log2 x, falls towards the centre, and fsum, the division, the
    subtraction and max are each correctly rounded, hence monotone.  Only
    the rounding of the two terms can break this, and only in a band of
    steps at the centre of a very long run (:func:`_band_width`).  So each
    run splits into a monotone piece, from the band up to its top, and
    the c of the band one at a time, each its own interval.  In a piece [low, high] the entropy
    cuts at both bounds are found by bisection, after probing the two ends
    (a run is often wholly in or out), with at most as many entropies as
    the piece has partitions and O(log rest) on a long one."""
    log2_n = math.log2(n)
    below_lo = math.nextafter(lo, -math.inf)  # entropy < lo iff entropy <= below_lo
    band = _band_width(n)
    terms = [0.0] * m  # c*log2(c) per part, 0.0 for a zero part
    for prefix, rest, prev, run, size, arr in _iter_runs(n, m):
        for i, c in enumerate(prefix):
            terms[i] = c * log2(c) if c else 0.0
        floor = (rest + 1) // 2
        high = min(prev, rest)
        low = max(floor, min((rest + 1 + band) // 2, high))
        arr *= m - 1
        while high >= floor:  # the monotone piece, then the band one c at a time
            # the smallest c in [low, high] with entropy <= hi lies in (la, ua],
            # the smallest with entropy <= below_lo in (lb, ub]; high + 1: none
            la = lb = low - 1
            ua = ub = high + 1
            c = high
            while True:
                d = rest - c
                terms[-2] = c * log2(c) if c else 0.0
                terms[-1] = d * log2(d) if d else 0.0
                # fsum is correctly rounded: 0.0 terms and their order change nothing
                e = max(log2_n - fsum(terms) / n, 0.0)
                if e > hi:
                    la = c
                elif c < ua:
                    ua = c
                if e <= below_lo:
                    ub = c
                elif c > lb:
                    lb = c
                if ua - la > 1:
                    c = low if la < low else (la + ua) // 2
                elif ub - lb > 1:
                    c = (lb + ub) // 2
                else:
                    break
            if ua < ub:
                r = run + 1 if ub - 1 == prev else 1  # a part equal to prev extends its run
                yield (rest, ua, ub - 1, size, arr * m,
                       arr * m // (2 if 2 * ua == rest else 1),
                       arr // r * m // (r + 1 if 2 * ub - 2 == rest else 1))
            high = low = low - 1


def entropy_slab_count(n: int, m: int, h: float) -> int:
    """Exact number of n-types with entropy in [h - 1/n, h] bits.

    Requires an integer n >= 1, an integer m >= 2 and 0 < h <= log2 m.
    The partitions of n into at most m parts come in runs that share all
    but their last two parts (c, R - c).  Along a run the float entropy
    does not decrease as c falls (rounding can break this only in a band
    at the centre of a run over R of more than about 1.2e7, where each
    partition is tested alone), so the types in the slab form one
    interval of c, found by bisecting for both of its ends
    (:func:`_iter_spans`).  A run costs O(log R) entropies and no big
    integer, and the count is the one a test of every type would give."""
    h = _check_census(n, m, h)
    hits = 0
    for _, a, b, _, inner, end_a, end_b in _iter_spans(
        n, m, h - 1.0 / n - ENTROPY_CMP_TOL, h + ENTROPY_CMP_TOL
    ):
        hits += end_b if a == b else end_a + end_b + inner * (b - a - 1)
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

    def __repr__(self) -> str:
        """The dataclass repr, with a count past int's digit limit named by its bits."""
        return (f"{type(self).__qualname__}(n={self.n!r}, m={self.m!r}, "
                f"threshold_bits={self.threshold_bits!r}, count={describe(self.count)}, "
                f"theta_ratio={self.theta_ratio!r})")


def low_entropy_count(n: int, m: int, h: float) -> CensusReport:
    """Exact number of strings x^n with H(empirical type of x) <= h bits.

    Requires an integer n >= 1, an integer m >= 2 and 0 < h <= log2 m.
    The partitions of n into at most m parts come in runs that share all
    but their last two parts (c, R - c).  Along a run the float entropy
    does not decrease as c falls (rounding can break this only in a band
    at the centre of a run over R of more than about 1.2e7, where each
    partition is tested alone), so the selected partitions form one
    interval [c*, top], and c* is found by bisection (:func:`_iter_spans`)
    with O(log R) entropies.  Over the interval the class sizes
    size * C(R, c) follow the binomial recurrence, one big-integer
    multiply, divide and add per partition, and the arrangements change
    only at its ends.  The count is the one a test of every type would
    give, bit for bit."""
    h = _check_census(n, m, h)
    count = 0
    for rest, a, b, size, inner, end_a, end_b in _iter_spans(
        n, m, 0.0, h + ENTROPY_CMP_TOL
    ):
        # One big integer changes per statement, in place, so that no more
        # than three of the count's length are alive at once (the tracemalloc
        # peak grows with the count's length by that many, not more).
        binom = size * math.comb(rest, b)  # size * C(rest, c), c falling
        count += end_b * binom
        if a < b:
            between = 0
            for c in range(b, a + 1, -1):
                binom *= c
                binom //= rest - c + 1  # size * C(rest, c - 1)
                between += binom
            binom *= a + 1
            binom //= rest - a  # size * C(rest, a)
            binom *= end_a
            between *= inner
            between += binom
            count += between
    if count > 0:
        log2_ratio = math.log2(count) - 0.5 * (m - 3) * math.log2(n) - n * h
        theta = 2.0 ** log2_ratio
    else:
        theta = 0.0
    return CensusReport(n=n, m=m, threshold_bits=h, count=count, theta_ratio=theta)


def rank_in_type_class(x: Sequence[int], m: int) -> int:
    """Lexicographic rank of string ``x`` among all strings of its type.

    Symbols are integers 0..m-1, counted with ``x.count`` up to the largest
    one ``x`` holds, so the cost does not grow with m; the inverse is
    :func:`unrank_in_type_class`.

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
    check_integer("m", m, 1)
    try:
        held = set(x)
    except TypeError:  # not iterable, or a symbol that is not hashable
        raise DomainError(f"a string must be a sequence of symbols, got {describe(x)}") from None
    for s in held:
        if not (isinstance(s, int) and 0 <= s < m):
            raise DomainError(f"symbol {describe(s)} outside alphabet of size {describe(m)}")
    counts = list(map(x.count, range(max(held, default=-1) + 1)))  # none past the largest held
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


def unrank_in_type_class(t: Sequence[int], rank: int) -> tuple[int, ...]:
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
    counts = list(_type_counts(t))
    size = type_class_size(counts)
    check_integer("rank", rank, 0)
    if rank >= size:
        raise DomainError(f"rank {describe(rank)} outside [0, {describe(size)})")
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
