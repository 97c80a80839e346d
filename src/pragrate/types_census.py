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
once and documented, and streamed here once as one row of table entries
per class (:func:`_class_rows`, a C-level stream per slab of the classes
that share their first m-3 counts).
A type's position in it has a closed form both ways (:func:`type_index`,
:func:`type_at_index`), so the known-source codec in :mod:`pragrate.coding`
keeps no count vectors and no counts-to-class map.

Entropy and class size are symmetric under permuting the counts, so the
census works one permutation orbit at a time: it enumerates the partitions
of n into at most m parts (the nonincreasing count vectors) and weighs each
by its number of distinct rearrangements, m!/prod(multiplicity!), instead
of visiting all C(n+m-1, m-1) count vectors.  The universal code order in
:mod:`pragrate.coding` is kept as the same orbits: a count vector's place in
its orbit is its lex rank among the rearrangements of the partition (a
multiset rank, :func:`rank_in_type_class`), and :func:`_distinct_permutations`
lists an orbit in lex order, for the universal code's tails only.

The partitions come in runs too (:func:`_iter_runs`, the one walker of
both orders, with no stack that grows with m): those that share their
first m-2 parts and split the rest R between their last two parts as
(c, R - c), c from min(previous part, R) down to ceil(R/2).  Along a run
the float entropy does not decrease as c falls, except possibly in a band
of steps at the centre of runs over R past about 1.2e7 (:func:`_band_width`).
So the census never tests every partition: it bisects each slot, then
each run.  A slot keeps only the values whose completions can reach the
entropy window, by two bounds that rise as the value falls (the greedy
and the even completion), so a subtree that holds no partition in the
window is never walked (:func:`_iter_runs`).  Each run kept is bisected
for the c where the entropy crosses its thresholds (:func:`_iter_spans`),
with O(log R) entropies per run and the plain test for each c of the
band, and the arrangements and the binomials are summed over the
interval between the cuts, with counts bit-identical to a test of every
partition.  As a walk costs the partitions on its side of the threshold,
the census of the strings at or below it walks the smaller side: above
the mean entropy of a pmf drawn uniformly from the simplex it counts the
strings above the threshold and takes them from m**n
(:func:`low_entropy_count`).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from math import fsum, log2
from operator import getitem, mul

from .errors import DEFAULT_TYPE_CAP, DomainError, ResourceLimitError
from .inputs import check_blocklength, check_integer, check_real, check_string, describe
from .numerics import neumaier_sum

ENTROPY_CMP_TOL = 1e-12  # absorbs float rounding at threshold comparisons
_WINDOW_MARGIN = 1e-9  # bits by which the walk's entropy window is widened: far above its float error
_TERM_ERROR = 2.0 ** -51  # bound on the relative error of a float c*log2(c)
ALPHABET_CAP = 802  # symbols: the engine reads m counts per class, the census walker's state is O(m)


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


def _check_m(m: int) -> None:
    check_integer("m", m, 2)
    if m > ALPHABET_CAP:
        raise ResourceLimitError(f"m={describe(m)} symbols: past the alphabet cap of {ALPHABET_CAP}")


def _check_n_m(n: int, m: int) -> None:
    check_blocklength(n)  # n enters the entropies as a real
    _check_m(m)


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
    return _partitions_past(n, m, math.inf)[0]


def _partitions_past(n: int, m: int, stop: float) -> tuple[int, bool]:
    """The partitions of n into at most m parts, and True; or, once the
    count passes ``stop``, a lower bound past it, and False.

    An orbit holds at most perm(m, min(m, n)) classes, so the classes over
    that bound the count from below (at m = 2 it is the count, n // 2 + 1).
    After part size k the recurrence counts the partitions into parts of
    size at most k, which grows with k, so it stops once that passes."""
    least = -(-count_types(n, m) // math.perm(m, min(m, n)))
    if m == 2 or least > stop:
        return least, m == 2
    last = min(m, n)
    ways = [1] + [0] * n
    for k in range(1, last + 1):
        for j in range(k, n + 1):
            ways[j] += ways[j - k]
        if ways[n] > stop:
            return ways[n], k == last
    return ways[n], True


def _check_walk_cap(n: int, m: int, cap: int, *, per_class: int = 1, per_orbit: int = 0) -> None:
    """Refuse a walk over more than ``cap`` units: the type classes it
    lists, ``per_class`` units each (the universal tails list each class as
    m counts), or with ``per_orbit`` >= 1 the partitions of n into at most
    m parts, ``per_orbit`` units each (the census reads one partition at a
    time; the universal store keeps all m parts of each).  A partition
    walk is admitted at once when the classes times ``per_orbit`` fit the
    cap, and its partitions are counted only as far as the cap.  Then n and
    m are checked; a cap that is not an integer >= 1 is bad input."""
    types = count_types(n, m)
    check_integer("cap_types", cap, 1)
    if not per_orbit:
        if types * per_class > cap:
            times = "" if per_class == 1 else f" x {per_class} symbols"
            raise ResourceLimitError(f"{describe(types)} type classes{times} at n={describe(n)}, "
                                     f"m={describe(m)} exceeds the cap of {cap}")
    elif types * per_orbit > cap:
        _check_m(m)  # before perm(m, ...) bounds the partitions
        count, exact = _partitions_past(n, m, cap // per_orbit)
        if count * per_orbit > cap:
            least = "" if exact else "at least "
            times = "" if per_orbit == 1 else f" x {per_orbit} parts"
            raise ResourceLimitError(f"{least}{describe(count)} partitions{times} at n={describe(n)}, "
                                     f"m={describe(m)} exceeds the cap of {cap}")
    _check_n_m(n, m)


def enumerate_types(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All n-types on m symbols in the canonical (ascending lex) order, as
    an iterator; n and m are checked at the call."""
    _check_n_m(n, m)
    return _class_rows([range(n + 1)] * m, n)


def type_index(t: Sequence[int]) -> int:
    """0-based position of a type in the canonical order of
    :func:`enumerate_types`; the inverse is :func:`type_at_index`.

    The types that agree with ``t`` before slot i and put v < counts[i]
    there number C(r - v + k, k), with r what is left of n and k + 1 the
    slots after i.  Their sum over v is a difference of two binomials (the
    hockey-stick identity), so the index costs two binomials per slot."""
    counts = _type_counts(t)
    check_blocklength(sum(counts))
    return _type_index(counts)


def _type_index(counts: tuple[int, ...]) -> int:
    """:func:`type_index` of counts already checked (integers >= 0, n >= 1)."""
    index, remaining, after = 0, sum(counts), len(counts) - 1  # after = k + 1
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
    return _type_at_index(n, m, index)


def _type_at_index(n: int, m: int, index: int) -> tuple[int, ...]:
    """:func:`type_at_index` of a checked n, m and an index below
    ``count_types(n, m)``."""
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


def _class_rows(tables: Sequence[Sequence], n: int) -> Iterator[tuple]:
    """One row per n-type on m = len(tables) symbols, in canonical order:
    the zip of its entries tables[i][count i] (a reader reduces them: a key
    by ``fsum``, a weight by ``prod``; over ``range(n + 1)`` a row is the
    count vector).

    The rows come one slab at a time: the classes that share their first
    m-3 counts, one run of :func:`_iter_runs` over m-1 slots, with R left
    for the last three counts (a, c, R - a - c).  A slab is a C-level
    ``chain`` of one ``zip`` per a, over c = 0..R-a, whose two table
    slices are cut lazily by ``map(slice, ...)``, so a Python step is paid
    per slab, not per run; at m = 2 the rows are one ``zip``."""
    if len(tables) == 2:
        return zip(tables[0][:n + 1], tables[1][n::-1])
    *heads, table_a, table_c, table_d = tables
    slabs = (
        # a repeat never runs out, so every zip of a slab shares the prefix's
        map(partial(zip, *map(repeat, map(getitem, heads, prefix))), map(repeat, table_a[:rest + 1]),
            map(getitem, repeat(table_c), map(slice, range(rest + 1, 0, -1))),  # [:R-a+1]
            map(getitem, repeat(table_d), map(slice, range(rest, -1, -1), repeat(None), repeat(-1))))  # [R-a::-1]
        for prefix, rest, _, _, _, _ in _iter_runs(n, len(tables) - 1, False)
    )
    return chain.from_iterable(map(chain.from_iterable, slabs))


def _iter_runs(
    n: int, m: int, partitions: bool, window: tuple[float, float] | None = None
) -> Iterator[tuple[tuple[int, ...], int, int, int, int, int]]:
    """(prefix, rest, prev, run, size, arr) for every run of the count
    vectors of n over m >= 2 slots: those that share their first m-2
    counts, ``prefix`` (its last count ``prev``, n when there is none), with
    ``rest`` left for the last two; ``size`` is the prefix's product of
    binomials.  Compositions come in ascending lex order, each slot's c
    rising over 0..remaining.  With ``partitions``, c falls from
    min(prev, remaining) to the mean of what is left, so the partitions of
    n into at most m parts come in descending lex order, a run's last two
    parts are (c, rest - c) for c from min(prev, rest) down to ceil(rest/2),
    ``arr`` is the prefix's share of the arrangements and ``run`` the number
    of parts equal to ``prev`` at its end, which a part equal to ``prev``
    extends (for compositions the two mean nothing).

    An odometer turns slots 0 .. m-4, and slot m-3 is a flat loop.  Once a
    prefix leaves nothing, its zero counts make one run without turning
    their slots: a partition costs its nonzero parts, and no stack grows
    with m.

    A ``window`` (lo, hi), for partitions only, drops the runs that hold
    no partition whose entropy, computed as :func:`type_entropy_bits`
    does, lies in [lo, hi]; the runs kept are an in-order subsequence of
    the walk without it, with equal tuples.  With a prefix fixed, a slot
    at c leaves k parts of at most c for the rest R - c, and the entropy
    log2 n - S/n falls as S = sum x log2 x over the parts rises, which it
    does as the parts grow more unequal (S is Schur-convex).  So over the
    subtree of c, S is largest at the greedy completion (parts equal to c
    while they fit, then the remainder), whose entropy is h_min(c), and
    smallest at the rest split as evenly as the k slots allow, h_max(c).
    As c falls, the greedy completion at c - 1 is one of the subtree of c,
    and the even one moves a unit from c to the smallest part; both bounds
    rise, so the c whose subtree can reach the window (h_min(c) <= hi,
    h_max(c) >= lo) are one interval.  Each slot, the odometer's and the flat loop's, cuts
    its values to it, bisecting for both ends after probing them (the
    test on lo is skipped when lo <= 0, where it always holds).

    A value is dropped only below a probe where the float S of the
    greedy completion fell under n (log2 n - hi - margin), or above one
    where that of the even one rose over n (log2 n - lo + margin), with
    margin ``_WINDOW_MARGIN``.  The exact bounds are monotone in c, so
    every partition of a dropped subtree has exact entropy past hi +
    margin - d or below lo - margin + d, d the error of the float bound.
    Each float term c log2 c is within ``_TERM_ERROR`` of it, relatively;
    the bound adds at most m of them one by one, the census's entropy is
    their correctly rounded sum (``fsum``), and each product, division and
    subtraction rounds once.  So in bits both lie within
    (m + 20) 53 2**-53 < 5e-12 of their exact values (n < 2**53, m <= 802),
    far below the margin: no partition of a dropped subtree has a float
    entropy in [lo, hi]."""
    if m == 2:  # one run, with no prefix
        yield (), n, n, 0, 1, 1
        return
    last = m - 3  # the flat loop's slot
    counts, values = [0] * last, [iter(())] * (last + 1)  # each slot's count and the values it has left
    rems, sizes, runs, arrs = [n] * (last + 1), [1] * (last + 1), [0] * (last + 1), [1] * (last + 1)
    if window:
        # a partition's entropy is log2 n - S/n: past hi when S < least, below lo when S > most
        lo, hi = window
        least = n * (log2(n) - hi - _WINDOW_MARGIN)
        most = n * (log2(n) - lo + _WINDOW_MARGIN)
        sums = [0.0] * (last + 1)  # S of the prefix before each slot
    i, rem, prev = 0, n, n  # rems, sizes, runs and arrs hold the state before each slot
    while i >= 0:  # slot i takes its values, then the odometer turns
        # the largest part left is at least the mean of what is left
        cs = range(min(prev, rem), -(-rem // (m - i)) - 1, -1) if partitions else range(rem + 1)
        if window:  # cut cs to the c whose subtree can reach the window
            base, k, top, bottom = sums[i], m - i - 1, cs[0], cs[-1]
            # the smallest c whose greedy completion has S >= least lies in (fail, hold]
            fail, hold, c = bottom - 1, top + 1, top
            while True:
                q, r = divmod(rem - c, c)
                if base + (q + 1) * c * log2(c) + (r * log2(r) if r else 0.0) < least:
                    fail = c
                else:
                    hold = c
                if hold - fail < 2:
                    break
                c = bottom if fail < bottom else (fail + hold) // 2
            bottom = hold
            if lo > 0 and bottom <= top:
                # the largest c whose even completion has S <= most lies in [hold, fail)
                hold, fail, c = bottom - 1, top + 1, bottom
                while True:
                    q, r = divmod(rem - c, k)
                    if base + c * log2(c) + r * (q + 1) * log2(q + 1) + ((k - r) * q * log2(q) if q else 0.0) > most:
                        fail = c
                    else:
                        hold = c
                    if fail - hold < 2:
                        break
                    c = top if fail > top else (hold + fail) // 2
                top = hold
            cs = range(top, bottom - 1, -1)
        if i < last:
            values[i] = iter(cs)
        elif not partitions:  # the flat loop, C(rem, c) by its recurrence
            head, size, binom = tuple(counts), sizes[i], 1
            for c in cs:
                yield head + (c,), rem - c, c, 0, size * binom, 1
                binom = binom * (rem - c) // (c + 1)
        elif cs:
            head, size, run, arr, binom = tuple(counts), sizes[i], runs[i], arrs[i] * (m - 2), math.comb(rem, cs[0])
            for c in cs:
                r = run + 1 if c == prev else 1
                yield head + (c,), rem - c, c, r, size * binom, arr // r
                binom = binom * c // (rem - c + 1)
        while i >= 0:  # the deepest slot with a value left takes it
            c = next(values[i], None)
            if c is None:
                i -= 1
                continue
            rem, prev = rems[i], counts[i - 1] if i else n
            counts[i] = c
            rems[i + 1], sizes[i + 1] = rem - c, sizes[i] * math.comb(rem, c)
            runs[i + 1] = r = runs[i] + 1 if c == prev else 1
            arrs[i + 1] = arrs[i] * (i + 1) // r
            if c < rem:
                if window:
                    sums[i + 1] = sums[i] + c * log2(c)
                i, rem, prev = i + 1, rem - c, c
                break
            k = last - i  # nothing remains: slots i+1 .. m-3 hold zeros
            yield (*counts[:i + 1], *repeat(0, k)), 0, 0, k, sizes[i + 1], arrs[i + 1] * math.comb(m - 2, k)


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
    check_blocklength(sum(counts))  # an empty type has n = 0
    return _type_entropy_bits(counts)


def _type_entropy_bits(counts: tuple[int, ...]) -> float:
    """:func:`type_entropy_bits` of counts already checked (integers >= 0, n >= 1)."""
    n = sum(counts)
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
    grows with rest.  It is below 1 for rest up to about 1.2e7; at 1e9 it
    is about 9200, a band of 4600 steps above the centre."""
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
    the piece has partitions and O(log rest) on a long one.

    The walk is :func:`_iter_runs` with the window [lo, hi], so a run that
    holds no partition in it is never yielded.  A run's prefix terms are
    those of its nonzero parts: a run whose prefix ends in zeros (one
    partition, at m > n most of them) sums no term for them, so the
    entropies of a run cost its nonzero parts, not m."""
    log2_n = math.log2(n)
    below_lo = math.nextafter(lo, -math.inf)  # entropy < lo iff entropy <= below_lo
    band = _band_width(n)
    terms = [0.0] * m  # c*log2(c) per part, the last two set per probe
    for prefix, rest, prev, run, size, arr in _iter_runs(n, m, True, (lo, hi)):
        if prev:  # every part of the prefix is nonzero
            for i, c in enumerate(prefix):
                terms[i] = c * log2(c)
            row = terms
        else:  # one partition: its prefix ends in ``run`` zeros, which fsum would not feel
            prefix = prefix[:m - 2 - run]
            row = [*map(mul, prefix, map(log2, prefix)), 0.0, 0.0]
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
                row[-2] = c * log2(c) if c else 0.0
                row[-1] = d * log2(d) if d else 0.0
                # fsum is correctly rounded: 0.0 terms and their order change nothing
                e = max(log2_n - fsum(row) / n, 0.0)
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
    domain from the exact count, and underflows to a subnormal or 0.0 where
    the log2 ratio is below about -1022 (:attr:`log2_theta_ratio` keeps it).
    """

    n: int
    m: int
    threshold_bits: float
    count: int
    theta_ratio: float

    @property
    def log2_theta_ratio(self) -> float:
        """log2 of ``theta_ratio``, computed from the exact count, so it
        does not underflow: ``2.0 ** log2_theta_ratio == theta_ratio`` bit
        for bit, and -inf at a zero count."""
        return _log2_theta_ratio(self.count, self.n, self.m, self.threshold_bits)

    def __repr__(self) -> str:
        """The dataclass repr, with a count past int's digit limit named by its bits."""
        return (f"{type(self).__qualname__}(n={self.n!r}, m={self.m!r}, "
                f"threshold_bits={self.threshold_bits!r}, count={describe(self.count)}, "
                f"theta_ratio={self.theta_ratio!r})")


def _log2_theta_ratio(count: int, n: int, m: int, h: float) -> float:
    """log2(count / (n**((m-3)/2) * 2**(n h))), -inf at a zero count."""
    if not count:
        return -math.inf
    return math.log2(count) - 0.5 * (m - 3) * math.log2(n) - n * h


def _span_sum(spans: Iterator[tuple[int, int, int, int, int, int, int]]) -> int:
    """The number of strings whose partitions lie in the intervals of
    :func:`_iter_spans`.  Over an interval the class sizes size * C(R, c)
    follow the binomial recurrence, one big-integer multiply, divide and
    add per partition, and the arrangements change only at its ends."""
    count = 0
    for rest, a, b, size, inner, end_a, end_b in spans:
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
    return count


def low_entropy_count(n: int, m: int, h: float) -> CensusReport:
    """Exact number of strings x^n with H(empirical type of x) <= h bits.

    Requires an integer n >= 1, an integer m >= 2 and 0 < h <= log2 m.
    The partitions of n into at most m parts come in runs that share all
    but their last two parts (c, R - c).  Along a run the float entropy
    does not decrease as c falls (rounding can break this only in a band
    at the centre of a run over R of more than about 1.2e7, where each
    partition is tested alone), so the partitions on one side of a
    threshold form one interval of c, whose end is found by bisection
    (:func:`_iter_spans`) with O(log R) entropies, and their strings are
    summed over it (:func:`_span_sum`).

    The walk costs the partitions of the side it walks, so the census
    walks the smaller side of cut = h + ``ENTROPY_CMP_TOL``: the direct
    side, entropy in [0, cut], or the complement, entropy in (cut, inf),
    whose count it takes from m**n.  As n grows, the empirical pmfs of the
    partitions fill the simplex of k = min(m, n) nonzero parts evenly, so
    the share of them with entropy at most h follows the entropy of a pmf
    drawn uniformly from the simplex, Dirichlet(1, ..., 1), whose mean is
    (H_k - 1)/ln 2 bits, H_k the k-th harmonic number.  Above that mean
    the census walks the complement.  The rule errs towards the direct
    side: at m = 3, n = 30..90 the complement is already the faster walk
    from about 0.1 bit below the mean, at m = 16, n = 40 from about 0.4.
    At m = 2 it keeps the direct side: the census is one run, its cost is
    the interval sum and not the walk, and the complement's interval
    holds the larger binomials, the ones at the centre.

    Both sides split the partitions by the same float entropy, computed
    as :func:`type_entropy_bits` does: it exceeds cut exactly when it is
    at least nextafter(cut, inf), the complement's lower end, which
    :func:`_iter_spans` tests through nextafter(lo, -inf) = cut.  So the
    count is the one a test of every type would give, bit for bit, on
    either side."""
    h = _check_census(n, m, h)
    cut = h + ENTROPY_CMP_TOL
    if m > 2 and h > (fsum(1.0 / j for j in range(1, min(m, n) + 1)) - 1.0) / math.log(2):
        above = _span_sum(_iter_spans(n, m, math.nextafter(cut, math.inf), math.inf))
        count = m ** n - above
    else:
        count = _span_sum(_iter_spans(n, m, 0.0, cut))
    theta = 2.0 ** _log2_theta_ratio(count, n, m, h)
    return CensusReport(n=n, m=m, threshold_bits=h, count=count, theta_ratio=theta)


def _string_counts(x: Sequence[int], m: int) -> list[int]:
    """The counts of symbols 0 .. the largest one the string ``x`` holds,
    after the one check of its symbols: each must be an integer (not a
    bool) in 0 .. m-1.  ``bytes`` and ``bytearray`` hold such integers by
    type, so they take only the range check; any other sequence takes one
    C-level pass over its symbols' types first.  A symbol outside the
    range is found by ``max``, or else by the counts falling short of the
    length, so the cost does not grow with m."""
    if not isinstance(x, (bytes, bytearray)) and set(map(type, x)) - {int}:
        try:
            held = set(x)
        except TypeError:  # a symbol that is not hashable
            raise DomainError(f"a string must be a sequence of symbols, got {describe(x)}") from None
        # the set names a bad symbol, but hides True and 1.0 behind an equal int
        for s in chain(held, x):
            if isinstance(s, bool) or not isinstance(s, int):
                raise DomainError(f"symbol {describe(s)} outside alphabet of size {describe(m)}")
    top = max(x, default=-1)
    if top < m:
        counts = list(map(x.count, range(top + 1)))  # none past the largest held
        if sum(counts) == len(x):
            return counts
    bad = top if top >= m else min(x)  # else a negative symbol went uncounted
    raise DomainError(f"symbol {describe(bad)} outside alphabet of size {describe(m)}")


def rank_in_type_class(x: Sequence[int], m: int) -> int:
    """Lexicographic rank of string ``x`` among all strings of its type.

    Symbols are integers 0..m-1, counted with ``x.count`` up to the largest
    one ``x`` holds, so the cost does not grow with m; the inverse is
    :func:`unrank_in_type_class`.  The rank itself is :func:`_rank`, which
    the codec calls with the counts and the class size it already has."""
    check_integer("m", m, 1)
    check_string(x)
    counts = _string_counts(x, m)
    return _rank(x, counts, type_class_size(counts))


def _rank(x: Sequence[int], counts: list[int], size: int) -> int:
    """The rank of :func:`rank_in_type_class` from the checked string ``x``,
    its symbol ``counts`` (used up) and its class ``size``.

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
    """Inverse of :func:`rank_in_type_class` for the given type: the checks
    of the type and the rank, then :func:`_unrank`."""
    counts = list(_type_counts(t))
    size = type_class_size(counts)
    check_integer("rank", rank, 0)
    if rank >= size:
        raise DomainError(f"rank {describe(rank)} outside [0, {describe(size)})")
    return _unrank(counts, size, rank)


def _unrank(counts: list[int], size: int, rank: int) -> tuple[int, ...]:
    """The string of :func:`unrank_in_type_class` from a type's ``counts``
    (used up), its class ``size`` and a ``rank`` in 0 .. size-1.

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
