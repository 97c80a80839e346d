import itertools
import math
import random
import sys
import time
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
from pragrate.coding import _known_source_classes
from pragrate.types_census import (
    DEFAULT_TYPE_CAP,
    ENTROPY_CMP_TOL,
    _band_width,
    _distinct_permutations,
    _iter_spans,
    count_partitions,
    type_at_index,
    type_index,
)

from conftest import (
    _iter_partitions,
    compositions,
    peak_mib,
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
        with pytest.raises(DomainError):
            list(enumerate_types(0, 2))
        with pytest.raises(DomainError):
            list(enumerate_types(3, 1))

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


def canonical_sizes(n, m):
    """The class sizes the ranked-class engine builds, in canonical order."""
    return _known_source_classes(n, m, SourcePmf((1 / m,) * m))[1]  # sizes ignore the pmf


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
                assert sum(canonical_sizes(n, m)) == m ** n

    def test_incremental_sizes_match_direct(self):
        for n, m in [(9, 2), (7, 3), (5, 4)]:
            assert canonical_sizes(n, m) == [type_class_size(t) for t in enumerate_types(n, m)]

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_flat_enumerator_is_every_composition_in_lex_order(self, m):
        for n in (1, 2, 5, 9):
            got = list(enumerate_types(n, m))
            assert got == sorted(compositions(n, m))
            assert canonical_sizes(n, m) == [type_class_size(c) for c in got]


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
        # the walks nest m - 2 generator frames: RecursionError before the refusal
        with pytest.raises(ResourceLimitError, match=r"^m=\d+ symbols: its walks nest \d+ frames"):
            call()

    def test_alphabet_within_the_recursion_limit_still_walks(self):
        assert low_entropy_count(3, 500, 1.0).count == 500 + 500 * 499 * 3  # one symbol thrice, or two
        assert len(build_ordering(UNIVERSAL, 2, 500).sizes) == 2


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
        (5, (2, 7, 16)), (6, (3, 11)),
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
