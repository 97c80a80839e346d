import dataclasses
import hashlib
import itertools
import math
import operator
import random
import sys
import time
from array import array
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pragrate import (
    KNOWN_SOURCE,
    UNIVERSAL,
    CensusReport,
    DomainError,
    ResourceLimitError,
    SourcePmf,
    build_ordering,
    count_types,
    entropy,
    entropy_slab_count,
    enumerate_types,
    length_distribution,
    low_entropy_count,
    rank_in_type_class,
    type_class_size,
    type_entropy_bits,
    unrank_in_type_class,
)
from pragrate import coding, types_census
from pragrate.types_census import (
    DEFAULT_TYPE_CAP,
    ENTROPY_CMP_TOL,
    _band_width,
    _class_rows,
    _class_sizes,
    _distinct_permutations,
    _iter_runs,
    _iter_spans,
    _key_runs,
    _key_window,
    _orbit_sizes,
    _partition_rows,
    _span_sum,
    count_partitions,
    type_at_index,
    type_index,
)

from conftest import (
    _iter_partitions,
    compositions,
    peak_mib,
    random_pmf,
    reference_class_runs,
    reference_iter_runs,
    reference_low_entropy_count,
    reference_rank,
    reference_slab_count,
    reference_unrank,
    stirling_ratio,
)


class TestEnumerateTypes:
    def test_tiny_binary_case(self):
        got = list(enumerate_types(2, 2))
        assert got == [(0, 2), (1, 1), (2, 0)]

    def test_counts(self):
        assert len(list(enumerate_types(4, 3))) == 15  # C(6, 2)
        assert len(list(enumerate_types(50, 2))) == 51
        assert count_types(4, 3) == 15

    def test_canonical_order_is_ascending_lex(self):
        seq = list(enumerate_types(5, 3))
        assert seq == sorted(seq)
        assert len(set(seq)) == len(seq)

    def test_every_type_sums_to_n(self):
        for t in enumerate_types(6, 4):
            assert sum(t) == 6

    def test_domain(self):
        # refused at the call, not at the first item
        with pytest.raises(DomainError):
            enumerate_types(0, 2)
        with pytest.raises(DomainError):
            enumerate_types(3, 1)

    @pytest.mark.parametrize("call", [
        lambda: list(enumerate_types(2.5, 2)),
        lambda: type_at_index(3, 2.0, 1),
        lambda: list(enumerate_types(True, 2)),
        lambda: count_types(-1, 2),
        lambda: count_types(3, 0),
    ], ids=["enumerate_n_float", "index_m_float", "enumerate_n_bool", "count_n_negative", "count_m0"])
    def test_integer_checks(self, call):
        with pytest.raises(DomainError, match="must be an integer"):
            call()

    def test_count_partitions(self):
        for n in range(1, 16):
            for m in range(2, 7):
                assert count_partitions(n, m) == len({tuple(sorted(c)) for c in compositions(n, m)})
        assert count_partitions(5000, 3) == 2_085_834 < DEFAULT_TYPE_CAP < count_types(5000, 3)
        assert count_partitions(3, 10) == 3

    def test_count_partitions_of_two_parts_builds_no_table(self):
        # the recurrence's (n+1)-entry table took 1.8 s and 398 MB at n = 10**7 + 1
        start = time.perf_counter()
        assert count_partitions(2 * 10**7, 2) == 10**7 + 1
        assert time.perf_counter() - start < 1.0


class TestTypeIndex:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_every_type_against_enumeration(self, m):
        for n in range(1, 13):
            for i, t in enumerate(enumerate_types(n, m)):
                assert type_index(t) == type_index(list(t)) == i, (n, m, t)
                assert type_at_index(n, m, i) == t, (n, m, i)
            assert i == count_types(n, m) - 1

    def test_large_blocklength_round_trip(self):
        rng = random.Random(11)
        for m, n in [(2, 800), (3, 150), (4, 200), (7, 40)]:
            for _ in range(20):
                i = rng.randrange(count_types(n, m))
                counts = type_at_index(n, m, i)
                assert sum(counts) == n and len(counts) == m
                assert type_index(counts) == i
            assert type_at_index(n, m, 0) == (0,) * (m - 1) + (n,)
            assert type_at_index(n, m, count_types(n, m) - 1) == (n,) + (0,) * (m - 1)

    @pytest.mark.parametrize("n,m,index", [(3, 2, -1), (3, 2, 4), (4, 3, 15), (0, 2, 0), (3, 1, 0)])
    def test_out_of_range_refused(self, n, m, index):
        with pytest.raises(DomainError):
            type_at_index(n, m, index)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
    def test_huge_index_is_named_by_its_bits(self):
        with pytest.raises(DomainError, match=r"^type index <int of 16610 bits> outside \[0, 3\)$"):
            type_at_index(2, 2, 10 ** 5000)

    def test_bad_counts_refused(self):
        with pytest.raises(DomainError):
            type_index((2, -1, 3))
        with pytest.raises(DomainError):
            type_index((0, 0))


class TestTypeClassSize:
    def test_balanced_four(self):
        assert type_class_size((2, 2)) == 6

    def test_constant_string(self):
        assert type_class_size((7, 0, 0)) == 1

    def test_all_distinct(self):
        assert type_class_size((1, 1, 1, 1)) == factorial(4)

    def test_partition_of_string_space(self):
        # sum over all n-types of |T(type)| = m^n, exactly, in big integers
        for m in (2, 3, 4):
            for n in range(1, 61):
                assert sum(_class_sizes(n, m)) == m ** n

    def test_incremental_sizes_match_direct(self):
        for n, m in [(9, 2), (7, 3), (5, 4)]:
            assert _class_sizes(n, m) == [type_class_size(t) for t in enumerate_types(n, m)]

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_flat_enumerator_is_every_composition_in_lex_order(self, m):
        for n in (1, 2, 5, 9):
            got = list(enumerate_types(n, m))
            assert got == sorted(compositions(n, m))
            assert _class_sizes(n, m) == [type_class_size(c) for c in got]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_enumerate_types_is_every_composition_in_lex_order(m):
    # m = 2 is one run; each larger m adds a prefix slot to the walk
    for n in range(1, 13):
        assert list(enumerate_types(n, m)) == sorted(compositions(n, m))


class TestWalkRefusals:
    """Refusals made before any walk starts, as ``ResourceLimitError``."""

    @pytest.mark.parametrize("fn", [low_entropy_count, entropy_slab_count])
    def test_centre_band_past_the_cap(self, fn):
        # at n = 10**14 the band is the whole run: every partition tested alone
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="centre band"):
            fn(10 ** 14, 2, 0.5)
        with pytest.raises(ResourceLimitError, match="centre band"):
            fn(10 ** 11, 2, 0.5)  # a band of about 1.1e8 steps
        assert time.perf_counter() - start < 1.0

    def test_centre_band_within_the_cap_still_counts(self):
        assert _band_width(10 ** 10) // 2 <= DEFAULT_TYPE_CAP
        assert entropy_slab_count(10 ** 10, 2, 0.5) == 0

    @pytest.mark.parametrize("call", [
        lambda: low_entropy_count(3, 2000, 1.0),
        lambda: entropy_slab_count(3, 2000, 1.0),
        lambda: next(enumerate_types(3, 2000)),
        lambda: length_distribution(SourcePmf((1 / 2000,) * 2000), 2),
        lambda: build_ordering(UNIVERSAL, 2, 1500),
        lambda: build_ordering(KNOWN_SOURCE, 2, 1500, SourcePmf((1 / 1500,) * 1500)),
    ], ids=["census", "slab", "enumerate", "length_distribution", "universal", "known_source"])
    def test_alphabet_past_the_recursion_limit(self, call):
        # the cap sits where the recursive walks stopped at the default recursion limit
        with pytest.raises(ResourceLimitError, match=r"^m=\d+ symbols: past the alphabet cap of 802$"):
            call()

    def test_alphabet_within_the_recursion_limit_still_walks(self):
        assert low_entropy_count(3, 500, 1.0).count == 500 + 500 * 499 * 3  # one symbol thrice, or two
        assert len(build_ordering(UNIVERSAL, 2, 500).sizes) == 2

    def test_admission_does_not_read_the_recursion_limit(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(300)
        try:
            assert low_entropy_count(3, 500, 1.0).count == 500 + 500 * 499 * 3
            assert len(build_ordering(UNIVERSAL, 2, 500).sizes) == 2
        finally:
            sys.setrecursionlimit(limit)


class TestRunWalker:
    """The one iterative walker of the runs equals the recursive walks it
    replaced, kept in the tests as references."""

    GRID = (*range(2, 9), 12, 30)
    NS = (1, 2, 3, 4, 5, 7, 10, 14, 20, 28, 40)

    @pytest.mark.parametrize("m", (*GRID, 256))
    def test_compositions(self, m):
        # the rows of the slab walk, and the (rest, size) of each run that
        # the sizes walk reads (at m = 256, n = 3 has 2.8e6 classes)
        for n in (n for n in {256: (1, 2)}.get(m, self.NS) if count_types(n, m) <= 2e5):
            tables = [range(n + 1)] * m
            runs = []
            want = self._reference_rows(tables, n, runs)
            assert all(itertools.starmap(operator.eq, itertools.zip_longest(_class_rows(tables, n), want))), (n, m)
            assert [(rest, size) for _, rest, _, _, size, _ in _iter_runs(n, m, False)] == runs, (n, m)

    @staticmethod
    def _reference_rows(tables, n, runs):
        """The rows of ``reference_class_runs``, flattened; each run's
        (r, coeff) goes to ``runs`` as its rows are read."""
        for coeff, r, rows in reference_class_runs(tables, n):
            runs.append((r, coeff))
            yield from rows

    @pytest.mark.parametrize("m", (*GRID, 256, 600))
    def test_partitions(self, m):
        for n in {256: range(1, 13), 600: (1, 2)}.get(m, self.NS):
            assert list(_iter_runs(n, m, True)) == list(reference_iter_runs(n, m)), (n, m)


class TestCanonicalColumns:
    """The columns that the codec stores sort into code order, streamed in
    canonical order: per partition its parts, its float entropy and its
    orbit's strings (the class sizes are checked in TestTypeClassSize)."""

    SHA256 = "5cde8d8ad295661eee6055cc34093ee6a039a39576455e56662e80fadc75e761"

    @pytest.mark.parametrize("m,ns", [
        (2, (1, 2, 7, 20, 33)), (3, (1, 2, 6, 11, 17)), (4, (1, 3, 8, 13)), (5, (2, 6, 10)), (6, (1, 5, 9)),
        (64, (1, 2, 5, 8)), (256, (1, 3, 6, 8)),
    ])
    def test_partition_columns_match_the_reference(self, m, ns):
        for n in ns:
            want = list(_iter_partitions(n, m))
            parts, entropies = _partition_rows(n, m)
            sizes = _orbit_sizes(n, m)
            assert len(parts) == m * len(want) and len(entropies) == len(sizes) == len(want), (n, m)
            for i, (partition, size, arrangements) in enumerate(want):
                assert tuple(parts[i * m:i * m + m]) == partition[::-1], (n, m, i)  # ascending
                assert entropies[i].hex() == type_entropy_bits(partition).hex(), (n, m, partition)
                assert sizes[i] == size * arrangements, (n, m, partition)
            assert sum(sizes) == m ** n

    def test_columns_are_pinned(self):
        # the walks behind the columns may be rewritten, but must move no
        # size and no entropy; m = 256, n = 16 has about 1e25 classes, so
        # its class sizes are left out
        digest = hashlib.sha256()
        for m, n in ((2, 800), (3, 150), (4, 50), (256, 16)):
            parts, entropies = _partition_rows(n, m)
            columns = [parts.tolist(), list(map(float.hex, entropies)), _orbit_sizes(n, m)]
            if m < 256:
                columns.append(_class_sizes(n, m))
            digest.update(repr((m, n, columns)).encode())
        assert digest.hexdigest() == self.SHA256


class TestWindowedWalk:
    """With an entropy window the walk drops only runs that hold no
    partition in it, and yields the rest as the walk without it does."""

    @pytest.mark.parametrize("m,ns", [
        (3, (1, 2, 7, 20, 41, 60)), (4, (1, 5, 13, 24, 30)), (5, (3, 9, 17, 22)), (6, (4, 11, 16)),
        (64, (2, 7, 12)), (256, (1, 6, 11)), (802, (3, 8, 12)),
    ])
    def test_drops_only_runs_outside_the_window(self, m, ns):
        rng, dropped = random.Random(m), 0
        for n in ns:
            runs = list(_iter_runs(n, m, True))
            entropies = [[type_entropy_bits(prefix + (c, rest - c))
                          for c in range(min(prev, rest), (rest - 1) // 2, -1)]
                         for prefix, rest, prev, *_ in runs]
            picks = sorted({e for es in entropies for e in es})
            # thresholds at exact partition entropies and one ulp either side
            hs = sorted({x for h in rng.sample(picks, min(8, len(picks)))
                         for x in (math.nextafter(h, 0.0), h, math.nextafter(h, 9.0))})
            windows = [w for h in hs for w in (
                (0.0, h), (h, h), (0.0, h + ENTROPY_CMP_TOL),  # the count's window
                (h - 1.0 / n - ENTROPY_CMP_TOL, h + ENTROPY_CMP_TOL),  # the slab's
            )] + list(zip(hs, hs[3:]))
            for lo, hi in windows:
                kept = _iter_runs(n, m, True, (lo, hi))
                want = next(kept, None)
                for run, es in zip(runs, entropies):
                    if run == want:
                        want = next(kept, None)
                    else:
                        dropped += 1
                        assert not any(lo <= e <= hi for e in es), (n, m, lo, hi, run)
                assert want is None, (n, m, lo, hi)  # every kept run is the walk's, in its order
        assert dropped

    def test_byte_alphabet_walks_the_runs_of_m_equal_n(self):
        # at m = 802 each of the 204,226 partitions of 50 is its own run
        window = (0.0, 1.585 + ENTROPY_CMP_TOL)  # the count's window at h = 1.585
        walked = [sum(1 for _ in _iter_runs(50, m, True, window)) for m in (50, 802)]
        assert walked[0] == walked[1] < count_partitions(50, 50) // 100


class TestKeyWindow:
    """The known-source window walk keeps exactly the classes whose engine
    key lies in (lo, hi], in canonical order, and writes their keys, bit for
    bit, and sizes: checked against a linear scan of the engine's columns
    (``coding._known_source_classes``)."""

    NS = {2: 16, 3: 13, 4: 6, 5: 4}  # thirds at n = 13 tie unevenly along a run

    @staticmethod
    def _sources(m):
        rng = random.Random(97 * m)
        sources = [random_pmf(rng, m) for _ in range(3)]
        sources.append(SourcePmf((1 / m,) * m))  # every run has slope 0
        # within a few hundred ulps of uniform: the keys along a run move by
        # less than their rounding, so they need not be monotone in c
        near = [1 / m + rng.randint(-300, 300) * 2.0 ** -53 for _ in range(m)]
        sources.append(SourcePmf(tuple(x / math.fsum(near) for x in near)))
        raw = [rng.uniform(0.1, 1.0) for _ in range(m - 1)]
        tiny = [1e-300, *(x / math.fsum(raw) for x in raw)]  # a rate near 1000 bits, in every slot
        sources += [SourcePmf(tuple(tiny[-k:] + tiny[:-k])) for k in range(m)]
        if m == 3:
            sources.append(SourcePmf.from_values([Fraction(1, 3)] * 3))
        if m == 4:
            sources.append(SourcePmf.load("0.1,0.2,0.4,0.3"))  # 0.1 * 0.4 == 0.2 * 0.2
        return sources

    @staticmethod
    def _windows(keys):
        """Windows whose ends are class keys, the empty and infinite ends,
        and each tie alone."""
        rng = random.Random(len(keys))
        distinct = sorted(set(keys))
        cuts = [-math.inf, *sorted(rng.sample(distinct, min(9, len(distinct)))), math.inf]
        ties = [(math.nextafter(k, -math.inf), k) for k in rng.sample(distinct, min(3, len(distinct)))]
        return [*zip(cuts, cuts[1:]), *zip(cuts, cuts[2:]), *ties, (distinct[0], distinct[0]),
                (-math.inf, distinct[0]), (distinct[-1], math.inf)]

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_windows_match_a_linear_scan(self, m):
        n = self.NS[m]
        for p in self._sources(m):
            tables = coding._key_tables(p, n)
            keys, sizes, _ = coding._known_source_classes(tables, n)
            for lo, hi in self._windows(keys):
                got_keys, got_sizes = array("d", [math.nan]) * len(keys), [None] * len(keys)
                kept, _ = _key_window(tables, n, lo, hi, got_keys, got_sizes)
                assert kept == [i for i, key in enumerate(keys) if lo < key <= hi], (p, lo, hi)
                assert [got_keys[i].hex() for i in kept] == [keys[i].hex() for i in kept], (p, lo, hi)
                assert [got_sizes[i] for i in kept] == [sizes[i] for i in kept], (p, lo, hi)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_the_whole_line_gives_the_engines_columns(self, m):
        n = self.NS[m]
        for p in self._sources(m):
            tables = coding._key_tables(p, n)
            keys, sizes, _ = coding._known_source_classes(tables, n)
            got_keys, got_sizes = array("d", [math.nan]) * len(keys), [None] * len(keys)
            kept, _ = _key_window(tables, n, -math.inf, math.inf, got_keys, got_sizes)
            assert kept == list(range(len(keys)))
            assert got_keys.tobytes() == keys.tobytes() and got_sizes == sizes, p

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_runs_over_the_whole_line(self, m):
        # over the whole line the walk keeps every composition run, in
        # order: each names the canonical index of its class c = 0 and the
        # linear key of its prefix
        for n in (1, 2, 5, 9):
            rates = [1.0 + k / m for k in range(m)]
            runs = list(_key_runs(rates, n, -math.inf, math.inf))
            assert [(prefix, rest, size) for prefix, rest, _, size, _ in runs] == [
                (prefix, rest, size) for prefix, rest, _, _, size, _ in _iter_runs(n, m, False)], (n, m)
            assert [start for _, _, start, _, _ in runs] == [
                type_index((*prefix, 0, rest)) for prefix, rest, *_ in runs], (n, m)
            sums = [[*itertools.accumulate(map(operator.mul, prefix, rates), initial=0.0)][-1] for prefix, *_ in runs]
            assert [key for *_, key in runs] == sums, (n, m)  # summed slot by slot, as the walk adds them

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_pruned_walk_keeps_the_runs_in_order(self, m):
        # with a key window the walk yields an in-order subsequence of its
        # runs over the whole line, equal tuples, and drops some
        n, dropped = 2 * self.NS[m], 0
        for p in self._sources(m)[:3]:
            rates = [table[1] for table in coding._key_tables(p, n)]
            runs = list(_key_runs(rates, n, -math.inf, math.inf))
            scale = n * max(rates)
            for lo, hi in ((0.0, 0.4 * scale), (0.45 * scale, 0.5 * scale), (0.7 * scale, math.inf)):
                kept = list(_key_runs(rates, n, lo, hi))
                it = iter(runs)
                assert all(run in it for run in kept), (p, lo, hi)
                dropped += len(runs) - len(kept)
        assert dropped

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_a_walk_past_its_budget_writes_nothing(self, m):
        # the work is counted before any key is made: within the budget the
        # window is walked, past it nothing is written
        n = 2 * self.NS[m]
        p = self._sources(m)[0]
        tables = coding._key_tables(p, n)
        keys, sizes, _ = coding._known_source_classes(tables, n)
        distinct = sorted(set(keys))
        lo, hi = distinct[len(distinct) // 4], distinct[len(distinct) // 2]
        want = [i for i, key in enumerate(keys) if lo < key <= hi]
        kept, work = _key_window(tables, n, lo, hi, array("d", keys), list(sizes))
        assert kept == want and work >= len(want) + types_census._RUN_WORK
        assert _key_window(tables, n, lo, hi, array("d", keys), list(sizes), work) == (kept, work)
        column, size_column = array("d", [math.nan]) * len(keys), [None] * len(keys)
        assert _key_window(tables, n, lo, hi, column, size_column, work - 1) is None
        assert all(map(math.isnan, column)) and size_column == [None] * len(keys)


class TestOrbits:
    @pytest.mark.parametrize("values", [
        (3,), (2, 2), (0, 5), (1, 1, 1), (0, 0, 4), (0, 1, 2), (3, 3, 1, 1),
        (0, 0, 0, 2, 2), (5, 4, 3, 2, 1, 0), (2, 2, 2, 1, 1, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0),
    ])
    def test_distinct_permutations_ascending_and_complete(self, values):
        got = list(_distinct_permutations(values))
        mult = [values.count(v) for v in set(values)]
        assert len(got) == factorial(len(values)) // math.prod(factorial(k) for k in mult)
        assert all(a < b for a, b in zip(got, got[1:]))  # strictly ascending
        assert set(got) == set(itertools.permutations(values))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
    def test_partitions_cover_each_orbit_once(self, m):
        for n in (1, 2, 6, 11):
            got = list(_iter_partitions(n, m))
            want = sorted({tuple(sorted(c, reverse=True)) for c in compositions(n, m)})
            assert sorted(parts for parts, _, _ in got) == want
            for parts, size, arrangements in got:
                assert size == type_class_size(parts)
                assert arrangements == len(list(_distinct_permutations(parts)))


def _slab_oracle(n, m, h):
    lo = h - 1.0 / n
    return sum(1 for c in compositions(n, m)
               if lo - ENTROPY_CMP_TOL <= type_entropy_bits(c) <= h + ENTROPY_CMP_TOL)


def _count_oracle(n, m, h):
    return sum(type_class_size(c) for c in compositions(n, m)
               if type_entropy_bits(c) <= h + ENTROPY_CMP_TOL)


class TestCensusMatchesCompositionSum:
    """Orbit sums equal a sum over every composition, exactly."""

    @pytest.mark.parametrize("m,ns", [
        (2, (1, 2, 7, 64, 301)), (3, (1, 3, 10, 31)), (4, (2, 9, 16)), (5, (4, 11)),
    ])
    def test_counts(self, m, ns):
        for n in ns:
            for h in (0.05, 0.5, 0.9, 1.0, 1.3, entropy([0.6, 0.3, 0.1]), math.log2(m)):
                if h > math.log2(m):
                    continue
                assert low_entropy_count(n, m, h).count == _count_oracle(n, m, h), (n, m, h)
                assert entropy_slab_count(n, m, h) == _slab_oracle(n, m, h), (n, m, h)


def _grid_thresholds(n, m):
    """Thresholds that stress the census cut: the exact entropies of a
    spread of types, each moved by 0, +-ENTROPY_CMP_TOL, +-1/n and +-1 ulp,
    values near 0, and log2 m; only those in (0, log2 m + tol] are kept."""
    parts = [p for p, _, _ in _iter_partitions(n, m)]
    picks = {type_entropy_bits(p) for p in parts[:: max(1, len(parts) // 7)] + parts[-2:]}
    hs = {math.log2(m), math.log2(m) + ENTROPY_CMP_TOL, 5e-324, 1e-300, 1e-12, 2e-12, 1e-9}
    for h0 in picks:
        for d in (0.0, ENTROPY_CMP_TOL, -ENTROPY_CMP_TOL, 1.0 / n, -1.0 / n):
            hs.add(h0 + d)
        hs.update((math.nextafter(h0, 0.0), math.nextafter(h0, 9.0)))
    return sorted(h for h in hs if 0.0 < h <= math.log2(m) + ENTROPY_CMP_TOL)


class TestCensusMatchesReference:
    """The per-run bisection equals a test of every partition, exactly."""

    @pytest.mark.parametrize("m,ns", [
        (2, (1, 2, 3, 8, 65, 300, 1001)), (3, (1, 2, 5, 17, 60)), (4, (1, 3, 9, 26)),
        (5, (2, 7, 16)), (6, (3, 11)), (64, (2, 9)), (256, (1, 5, 12)),
    ])
    def test_grid(self, m, ns):
        for n in ns:
            for h in _grid_thresholds(n, m):
                rep = low_entropy_count(n, m, h)
                want = reference_low_entropy_count(n, m, h)
                assert rep.count == want, (n, m, h)
                assert entropy_slab_count(n, m, h) == reference_slab_count(n, m, h), (n, m, h)

    def test_random_cases(self):
        rng = random.Random(15)
        for _ in range(300):
            m = rng.randint(2, 6)
            n = rng.randint(1, {2: 400, 3: 90, 4: 36, 5: 22, 6: 16}[m])
            h = rng.uniform(1e-9, math.log2(m))
            assert low_entropy_count(n, m, h).count == reference_low_entropy_count(n, m, h)
            assert entropy_slab_count(n, m, h) == reference_slab_count(n, m, h)


class TestCensusSides:
    """``low_entropy_count`` walks one side of cut = h + ENTROPY_CMP_TOL: the
    direct side [0, cut], or (cut, inf), whose count it takes from m**n.
    Both sides are checked here, whichever one the census picks."""

    @staticmethod
    def sides(n, m, h):
        cut = h + ENTROPY_CMP_TOL
        below = _span_sum(_iter_spans(n, m, 0.0, cut))
        above = _span_sum(_iter_spans(n, m, math.nextafter(cut, math.inf), math.inf))
        return below, above

    @pytest.mark.parametrize("m,ns", [
        (3, (1, 2, 5, 17, 60)), (4, (1, 3, 9, 26)), (5, (2, 7, 16)), (6, (3, 11)),
        (64, (2, 9)), (256, (1, 5, 12)),
    ])
    def test_the_two_sides_partition_the_strings(self, m, ns):
        for n in ns:
            for h in _grid_thresholds(n, m):
                below, above = self.sides(n, m, h)
                assert below + above == m ** n, (n, m, h)
                assert low_entropy_count(n, m, h).count == below, (n, m, h)

    def test_the_two_sides_partition_the_strings_at_n400(self):
        for h in (0.3, 1.0, 1.2, 1.25, 1.5, math.log2(3)):
            below, above = self.sides(400, 3, h)
            assert below + above == 3 ** 400, h
            assert low_entropy_count(400, 3, h).count == below, h

    # h-bar(k) = (H_k - 1)/ln 2 bits: 1.2022 at k = 3, 1.5631 at k = 4, 2.4784 at k = 8
    @pytest.mark.parametrize("n,m,h,complement", [
        (40, 3, 1.19, False), (40, 3, 1.21, True),
        (20, 4, 1.55, False), (20, 4, 1.57, True),
        (12, 8, 2.47, False), (12, 8, 2.49, True),
        (3, 8, 1.19, False), (3, 8, 1.21, True),  # m > n: k = n
        (300, 2, 0.999, False),  # m = 2 keeps the direct sum
    ])
    def test_the_rule_picks_the_side(self, monkeypatch, n, m, h, complement):
        calls = []

        def recording(*args):
            calls.append(args)
            return _iter_spans(*args)

        monkeypatch.setattr(types_census, "_iter_spans", recording)
        count = low_entropy_count(n, m, h).count
        cut = h + ENTROPY_CMP_TOL
        window = (math.nextafter(cut, math.inf), math.inf) if complement else (0.0, cut)
        assert calls == [(n, m, *window)]
        assert count == reference_low_entropy_count(n, m, h)


class TestCensusBadInput:
    @pytest.mark.parametrize("fn", [low_entropy_count, entropy_slab_count],
                             ids=["count", "slab"])
    @pytest.mark.parametrize("n,m,h,match", [
        (0, 2, 0.5, "n must be an integer >= 1"),
        (-3, 2, 0.5, "n must be an integer >= 1"),
        (4.0, 2, 0.5, "n must be an integer >= 1"),
        (True, 2, 0.5, "n must be an integer >= 1"),
        (4, 2.0, 0.5, "m must be an integer >= 2"),
        (4, True, 0.5, "m must be an integer >= 2"),
        (4, 1, 0.5, "m must be an integer >= 2"),
        (4, 2, float("nan"), "threshold"),
    ], ids=["n0", "n_negative", "n_float", "n_bool", "m_float", "m_bool", "m1", "h_nan"])
    def test_refused(self, fn, n, m, h, match):
        with pytest.raises(DomainError, match=match):
            fn(n, m, h)


def _window_scan(R, lo, hi, width):
    """The c in the first ``width`` steps of the run (c, R - c) from
    ceil(R/2) up whose entropy lies in [lo, hi], by a plain test of each."""
    floor = (R + 1) // 2
    return {c for c in range(floor, floor + width) if lo <= type_entropy_bits((c, R - c)) <= hi}


class TestCentreBand:
    """At m = 2 and n = R the census is one run over R, so long runs can be
    checked near their centre, where rounding may break monotonicity."""

    WIDTH = 64

    @pytest.mark.parametrize("R", [2 ** 20, 2 ** 23, 10 ** 8, 10 ** 9])
    def test_spans_match_a_linear_scan(self, R):
        floor = (R + 1) // 2
        window = range(floor, floor + self.WIDTH)
        entropies = [type_entropy_bits((c, R - c)) for c in window]
        if R == 10 ** 9:  # the band is needed here: the entropy rises somewhere in the window
            assert any(b > a for a, b in zip(entropies, entropies[1:]))
        xs = sorted({x for e in entropies[::4] + entropies[1:12]
                     for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 2.0))})
        bounds = [(0.0, x) for x in xs] + [(a, b) for a, b in zip(xs, xs[5:])]
        for lo, hi in bounds:
            got = set()
            for rest, a, b, *_ in _iter_spans(R, 2, lo, hi):
                assert rest == R and floor <= a <= b <= R
                for c in (a, b):  # every span starts and ends inside the bounds
                    assert lo <= type_entropy_bits((c, R - c)) <= hi
                got.update(range(a, min(b, window[-1]) + 1))
            assert got == _window_scan(R, lo, hi, self.WIDTH), (R, lo, hi)

    def test_band_only_past_the_type_cap(self):
        assert _band_width(2 ** 20) == _band_width(2 ** 23) == 0
        assert _band_width(DEFAULT_TYPE_CAP) == 0  # every run at m = 2 under the default cap
        assert 0 < _band_width(10 ** 8) < _band_width(10 ** 9) < 10 ** 5


@pytest.mark.parametrize("fn,args", [
    (low_entropy_count, (1700, 2, 0.9)),
    (low_entropy_count, (90, 3, 1.3)),
    (entropy_slab_count, (90, 3, 1.3)),
    (low_entropy_count, (32, 4, 1.5)),
])
def test_census_peak_memory_is_a_few_kib(fn, args):
    """A run allocates O(m) small objects: no per-type list or O(n) table
    (a list of n floats would add over 13 KiB at n = 1700)."""
    fn(*args)  # imports and caches settle outside the measured call
    assert peak_mib(fn, *args) < 4 / 1024


def test_census_peak_follows_the_count_by_few_integers():
    """From h = 0.3 to 0.99 at n = 1700, m = 2 the peak grows only with the
    big integers of the count's length that the interval sum holds at once
    (three, with one-digit slack), so a sweep's peak barely depends on its
    threshold; summing with whole-expression temporaries grew it by five."""
    low_entropy_count(1700, 2, 0.3)
    growth = peak_mib(low_entropy_count, 1700, 2, 0.99) - peak_mib(low_entropy_count, 1700, 2, 0.3)
    per_int = sys.getsizeof(2 ** 1683) - sys.getsizeof(2 ** 510)  # count bits at 0.99 and 0.3
    assert growth * 2 ** 20 < 4 * per_int


class TestTypeEntropy:
    def test_matches_entropy_of_frequencies(self):
        for counts in [(1, 3), (2, 2), (5, 0), (2, 3, 5)]:
            n = sum(counts)
            assert type_entropy_bits(counts) == pytest.approx(
                entropy([c / n for c in counts]), abs=1e-12
            )

    def test_degenerate_is_zero(self):
        assert type_entropy_bits((8, 0)) == 0.0


class TestStirlingRatio:
    def test_balanced_four_hand_value(self):
        # |T| = 6 against 2^4 * 4^(-1/2) * (1/sqrt(1/2))^2 = 16: ratio 0.375
        assert stirling_ratio((2, 2)) == pytest.approx(0.375, abs=1e-12)

    def test_two_singletons_hand_value(self):
        # |T| = 2 against 2^2 * 2^(-1/2) * 2 = 4*sqrt(2): ratio = 1/(2*sqrt(2))
        assert stirling_ratio((1, 1)) == pytest.approx(
            1 / (2 * math.sqrt(2)), abs=1e-12
        )

    def test_balanced_binary_band(self):
        ratios = [stirling_ratio((k, k)) for k in range(1, 201)]
        assert 0.35 <= min(ratios) and max(ratios) <= 0.41

    def test_band_over_all_binary_types(self):
        # Theta contract: two-sided band with max/min < 4 for fixed support size
        ratios = []
        for n in range(2, 401, 7):
            for a in range(1, n):
                ratios.append(stirling_ratio((a, n - a)))
        assert max(ratios) / min(ratios) < 4.0

    def test_rejects_zero_counts(self):
        with pytest.raises(DomainError):
            stirling_ratio((3, 0))


class TestEntropySlab:
    def test_no_binary_types_in_slab_at_h_bern02(self):
        assert entropy_slab_count(4, 2, entropy([0.2, 0.8])) == 0

    def test_two_types_at_h_quarter(self):
        assert entropy_slab_count(4, 2, entropy([0.25, 0.75])) == 2

    def test_growth_lower_bound_m3(self):
        h = entropy([0.6, 0.3, 0.1])
        vals = [entropy_slab_count(n, 3, h) / n for n in range(50, 401, 50)]
        assert min(vals) > 0.4  # slab population grows like n^(m-2) = n; pinned band

    def test_domain(self):
        with pytest.raises(DomainError):
            entropy_slab_count(4, 2, 0.0)
        with pytest.raises(DomainError):
            entropy_slab_count(4, 2, 1.5)


class TestLowEntropyCount:
    def test_only_constant_strings_below_bern02_entropy(self):
        rep = low_entropy_count(4, 2, entropy([0.2, 0.8]))
        assert rep.count == 2

    def test_threshold_at_max_entropy_counts_everything(self):
        assert low_entropy_count(2, 2, 1.0).count == 4
        for n, m in [(5, 2), (4, 3)]:
            assert low_entropy_count(n, m, math.log2(m)).count == m ** n

    def test_nondecreasing_in_threshold(self):
        hs = [0.1 + 0.09 * k for k in range(10)]
        counts = [low_entropy_count(12, 2, h).count for h in hs]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_matches_string_enumeration_small(self):
        h = entropy([0.6, 0.3, 0.1])
        for n in range(1, 7):
            direct = 0
            for s in itertools.product(range(3), repeat=n):
                counts = [s.count(a) for a in range(3)]
                if type_entropy_bits(counts) <= h + 1e-12:
                    direct += 1
            assert low_entropy_count(n, 3, h).count == direct

    def test_matches_string_enumeration_m4(self):
        h = entropy([0.4, 0.3, 0.2, 0.1])
        for n in range(1, 7):
            direct = 0
            for s in itertools.product(range(4), repeat=n):
                counts = [s.count(a) for a in range(4)]
                if type_entropy_bits(counts) <= h + 1e-12:
                    direct += 1
            assert low_entropy_count(n, 4, h).count == direct

    def test_theta_ratio_log_domain(self):
        rep = low_entropy_count(100, 2, entropy([0.2, 0.8]))
        expect = math.log2(rep.count) + 0.5 * math.log2(100) - 100 * rep.threshold_bits
        assert rep.theta_ratio == pytest.approx(2.0 ** expect, rel=1e-12)
        assert rep.log2_theta_ratio == pytest.approx(expect, rel=1e-15)
        assert 2.0 ** rep.log2_theta_ratio == rep.theta_ratio

    def test_log2_theta_ratio_outlives_the_underflow(self):
        rep = low_entropy_count(30, 802, 1.5)
        assert rep.theta_ratio == 0.0
        assert rep.log2_theta_ratio == pytest.approx(-1906.89, abs=0.005)
        assert rep.log2_theta_ratio == math.log2(rep.count) - 0.5 * 799 * math.log2(30) - 30 * 1.5
        # a property, not a field: equality, repr and the fields are the dataclass's
        assert [f.name for f in dataclasses.fields(rep)] == ["n", "m", "threshold_bits", "count", "theta_ratio"]
        assert "log2" not in repr(rep)
        with pytest.raises(AttributeError):
            rep.log2_theta_ratio = 0.0
        assert CensusReport(n=5, m=3, threshold_bits=1.0, count=0, theta_ratio=0.0).log2_theta_ratio == -math.inf

    def test_threshold_perturbation_bounded(self):
        # moving the threshold by 1/n changes the ratio by a bounded factor
        h = entropy([0.2, 0.8])
        for n in (50, 200, 800):
            r0 = low_entropy_count(n, 2, h).theta_ratio
            r1 = low_entropy_count(n, 2, h + 1.0 / n).theta_ratio * 2.0 ** (
                n * (h + 1.0 / n) - n * h
            )
            # compare raw counts normalized at the same h
            assert 1.0 <= r1 / r0 < 8.0

    def test_repr_under_the_digit_limit_is_the_dataclass_repr(self):
        rep = low_entropy_count(100, 3, 1.2)
        assert eval(repr(rep), {"CensusReport": CensusReport}) == rep
        assert repr(rep).startswith("CensusReport(n=100, m=3, threshold_bits=1.2, count=1781793")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
    def test_repr_names_a_count_past_the_digit_limit_by_its_bit_length(self):
        rep = low_entropy_count(20000, 2, 0.99)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the default limit
        try:
            with pytest.raises(ValueError):
                str(rep.count)
            text = repr(rep)
        finally:
            sys.set_int_max_str_digits(limit)
        assert rep.count.bit_length() == 19796
        assert text == ("CensusReport(n=20000, m=2, threshold_bits=0.99, count=<int of 19796 bits>, "
                        f"theta_ratio={rep.theta_ratio!r})")


class TestRankUnrank:
    def test_two_element_class(self):
        assert rank_in_type_class((0, 1), 2) == 0  # "ab"
        assert rank_in_type_class((1, 0), 2) == 1  # "ba"

    def test_exhaustive_round_trip_m3_n4(self):
        for x in itertools.product(range(3), repeat=4):
            counts = tuple(x.count(a) for a in range(3))
            r = rank_in_type_class(x, 3)
            assert unrank_in_type_class(counts, r) == x

    def test_rank_is_lex_position_within_class(self):
        counts = (2, 2, 1)
        strings = sorted(
            s
            for s in itertools.product(range(3), repeat=5)
            if tuple(s.count(a) for a in range(3)) == counts
        )
        for i, s in enumerate(strings):
            assert rank_in_type_class(s, 3) == i
        assert len(strings) == type_class_size(counts)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 30), st.sampled_from([2, 3, 4]), st.integers(5, 40))
    def test_rank_monotone_in_lex_order(self, seed, m, n):
        rng = random.Random(seed)
        counts = [0] * m
        for _ in range(n):
            counts[rng.randrange(m)] += 1
        size = type_class_size(counts)
        if size < 2:
            return
        r1, r2 = rng.randrange(size), rng.randrange(size)  # size may exceed 2**63
        if r1 == r2:
            return
        r1, r2 = min(r1, r2), max(r1, r2)
        x1 = unrank_in_type_class(tuple(counts), r1)
        x2 = unrank_in_type_class(tuple(counts), r2)
        assert x1 < x2  # lexicographic order matches rank order

    def test_rank_out_of_range(self):
        with pytest.raises(DomainError):
            unrank_in_type_class((1, 1), 2)
        with pytest.raises(DomainError):
            unrank_in_type_class((1, 1), -1)

    def test_symbol_out_of_alphabet(self):
        with pytest.raises(DomainError):
            rank_in_type_class((0, 5), 2)

    def test_rank_cost_does_not_grow_with_m(self):
        # a count per symbol of 0 .. m-1 never returned at m = 10**5000
        x = (1, 0, 1, 1, 0, 0, 1)
        assert rank_in_type_class(x, 10 ** 5000) == rank_in_type_class(x, 2)
        assert rank_in_type_class((0, 7, 3), 10 ** 5000) == rank_in_type_class((0, 2, 1), 3)
        with pytest.raises(DomainError, match=r"^symbol -1 outside alphabet of size <int of 16610 bits>$"):
            rank_in_type_class((0, -1), 10 ** 5000)

    # each of these used to return a value or raise a bare ValueError
    @pytest.mark.parametrize("call", [
        lambda: type_at_index(3, 2, 1.5),
        lambda: type_at_index(3, 2, True),
        lambda: unrank_in_type_class((2, 2), 2.5),
        lambda: type_entropy_bits((2, -1)),
        lambda: type_class_size((2, -1)),
        lambda: unrank_in_type_class((2, -1, 3), 0),
        lambda: type_index((2.0, True)),
    ], ids=["type_index_float", "type_index_bool", "rank_float", "entropy_negative_count",
            "size_negative_count", "unrank_negative_count", "ntype_float_and_bool"])
    def test_non_integer_or_negative_input_is_refused(self, call):
        with pytest.raises(DomainError, match="must be an integer >= "):
            call()

    # per alphabet size, classes that must be among those checked: absent
    # middle symbols, absent end symbols and single-symbol classes
    @pytest.mark.parametrize("m, must_cover", [
        (2, [(6, 0), (0, 6), (3, 3)]),
        (3, [(2, 0, 3), (0, 4, 0), (0, 3, 2), (3, 2, 0)]),
        (4, [(0, 3, 0, 2), (2, 0, 0, 2), (0, 0, 0, 6), (1, 1, 1, 1)]),
        (5, [(1, 0, 2, 0, 3), (0, 2, 0, 2, 0), (0, 0, 5, 0, 0), (1, 1, 1, 1, 2)]),
    ], ids=["m2", "m3", "m4", "m5"])
    def test_every_string_matches_the_reference(self, m, must_cover):
        seen = set()
        for n in range(7):
            for x in itertools.product(range(m), repeat=n):
                counts = tuple(map(x.count, range(m)))
                rank = rank_in_type_class(x, m)
                assert rank == reference_rank(x, counts), x
                assert unrank_in_type_class(counts, rank) == reference_unrank(counts, rank) == x
                seen.add(counts)
        assert set(must_cover) <= seen

    @pytest.mark.parametrize("m, n", [(2, 2000), (3, 600), (5, 120)])
    def test_long_strings_match_the_reference(self, m, n):
        rng = random.Random(1000 * m + n)
        for trial in range(6):
            weights = [rng.random() for _ in range(m)]
            if trial % 3 == 0:  # a class without symbol 1
                weights[1] = 0.0
            x = tuple(rng.choices(range(m), weights=weights, k=n))
            counts = tuple(map(x.count, range(m)))
            rank = rank_in_type_class(x, m)
            assert rank == reference_rank(x, counts)
            assert unrank_in_type_class(counts, rank) == x
            other = rng.randrange(type_class_size(counts))
            assert unrank_in_type_class(counts, other) == reference_unrank(counts, other)

    def test_big_blocklength_round_trip(self, rng):
        counts = [0] * 2
        for _ in range(200):
            counts[rng.randrange(2)] += 1
        size = type_class_size(counts)
        for _ in range(200):
            r = rng.randrange(size)
            x = unrank_in_type_class(tuple(counts), r)
            assert rank_in_type_class(x, 2) == r
