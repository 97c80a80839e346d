import itertools
import math
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pragrate import (
    DomainError,
    NType,
    count_types,
    entropy,
    entropy_slab_count,
    enumerate_types,
    low_entropy_count,
    rank_in_type_class,
    stirling_ratio,
    type_class_size,
    type_entropy_bits,
    unrank_in_type_class,
)
from pragrate.types_census import (
    ENTROPY_CMP_TOL,
    _distinct_permutations,
    _iter_partitions,
    _iter_types_with_sizes,
    type_at_index,
    type_index,
)

from conftest import compositions


class TestEnumerateTypes:
    def test_tiny_binary_case(self):
        got = [t.counts for t in enumerate_types(2, 2)]
        assert got == [(0, 2), (1, 1), (2, 0)]

    def test_counts(self):
        assert len(list(enumerate_types(4, 3))) == 15  # C(6, 2)
        assert len(list(enumerate_types(50, 2))) == 51
        assert count_types(4, 3) == 15

    def test_canonical_order_is_ascending_lex(self):
        seq = [t.counts for t in enumerate_types(5, 3)]
        assert seq == sorted(seq)
        assert len(set(seq)) == len(seq)

    def test_every_type_sums_to_n(self):
        for t in enumerate_types(6, 4):
            assert sum(t.counts) == 6

    def test_domain(self):
        with pytest.raises(DomainError):
            list(enumerate_types(0, 2))
        with pytest.raises(DomainError):
            list(enumerate_types(3, 1))


class TestTypeIndex:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_every_type_against_enumeration(self, m):
        for n in range(1, 13):
            for i, t in enumerate(enumerate_types(n, m)):
                assert type_index(t) == type_index(t.counts) == i, (n, m, t)
                assert type_at_index(n, m, i) == t.counts, (n, m, i)
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

    def test_bad_counts_refused(self):
        with pytest.raises(DomainError):
            type_index((2, -1, 3))
        with pytest.raises(DomainError):
            type_index((0, 0))


class TestTypeClassSize:
    def test_balanced_four(self):
        assert type_class_size(NType((2, 2))) == 6

    def test_constant_string(self):
        assert type_class_size(NType((7, 0, 0))) == 1

    def test_all_distinct(self):
        assert type_class_size(NType((1, 1, 1, 1))) == factorial(4)

    def test_partition_of_string_space(self):
        # sum over all n-types of |T(type)| = m^n, exactly, in big integers
        for m in (2, 3, 4):
            for n in range(1, 61):
                total = sum(size for _, size in _iter_types_with_sizes(n, m))
                assert total == m ** n

    def test_incremental_sizes_match_direct(self):
        for n, m in [(9, 2), (7, 3), (5, 4)]:
            for counts, size in _iter_types_with_sizes(n, m):
                assert size == type_class_size(counts)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_flat_enumerator_is_every_composition_in_lex_order(self, m):
        for n in (1, 2, 5, 9):
            got = list(_iter_types_with_sizes(n, m))
            assert [c for c, _ in got] == sorted(compositions(n, m))
            assert all(size == type_class_size(c) for c, size in got)


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
        assert stirling_ratio(NType((2, 2))) == pytest.approx(0.375, abs=1e-12)

    def test_two_singletons_hand_value(self):
        # |T| = 2 against 2^2 * 2^(-1/2) * 2 = 4*sqrt(2): ratio = 1/(2*sqrt(2))
        assert stirling_ratio(NType((1, 1))) == pytest.approx(
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
            stirling_ratio(NType((3, 0)))


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

    def test_big_blocklength_round_trip(self, rng):
        counts = [0] * 2
        for _ in range(200):
            counts[rng.randrange(2)] += 1
        size = type_class_size(counts)
        for _ in range(200):
            r = rng.randrange(size)
            x = unrank_in_type_class(tuple(counts), r)
            assert rank_in_type_class(x, 2) == r
