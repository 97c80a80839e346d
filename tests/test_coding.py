import bisect
import collections
import hashlib
import itertools
import math
import operator
import pickle
import random
import sys
import time
import tracemalloc
from array import array
from fractions import Fraction

import pytest

from pragrate import (
    KNOWN_SOURCE,
    UNIVERSAL,
    CodeOrdering,
    CodewordError,
    Codeword,
    DomainError,
    InvariantViolation,
    ResourceLimitError,
    SourcePmf,
    build_ordering,
    coding,
    count_types,
    decode,
    encode,
    kl_divergence,
    length_distribution,
    rank_in_type_class,
    string_index,
    type_entropy_bits,
    universal_excess_probability,
    universal_length_distribution,
    universal_threshold_alpha_n,
)
from pragrate.numerics import NEG_INF, logaddexp2
from pragrate import types_census
from pragrate.types_census import count_partitions

from conftest import (
    _class_size, _lex_first, _reference_ordering, bern, compositions, equal_entropy_groups, peak_mib,
    random_pmf, reference_entropy_columns, suffix_tails, universal_key,
)

P02 = bern("0.2")
DELTA_HALF = kl_divergence([1 / 3, 2 / 3], P02)
# both stores keep one layout: per unit its key and size in canonical order,
# the ranking (canonical indices in code order) and a checkpoint every
# _OFFSET_STRIDE units
STORE_SLOTS = ("mode", "n", "m", "total", "keys", "sizes", "ranking", "checkpoints")

# the source paper's abstract, as ASCII bytes: cut into blocks of 16 or 24
# bytes, many fall in orbits that share their float entropy with another
ABSTRACT = (
    rb"The problem of variable-rate lossless data compression is considered, for codes with "
    rb"and without prefix constraints. Sharp bounds are derived for the best achievable "
    rb"compression rate of memoryless sources, when the excess-rate probability is required "
    rb"to be exponentially small in the blocklength. Accurate nonasymptotic expansions with "
    rb"explicit constants are obtained for the optimal rate, using tools from large "
    rb"deviations and Gaussian approximation. When the source distribution is unknown, a "
    rb"universal achievability result is obtained with an explicit ``price for "
    rb"universality'' term. This is based on a fine combinatorial estimate on the number of "
    rb"sequences with small empirical entropy, which might be of independent interest. "
    rb"Examples are shown indicating that, in the small excess-rate-probability regime, the "
    rb"approximation to the fundamental limit of the compression rate suggested by these "
    rb"bounds is significantly more accurate than the approximations provided by either "
    rb"normal approximation or error exponents. The new bounds reinforce the crucial "
    rb"operational conclusion that, in applications where the blocklength is relatively "
    rb"short and where stringent guarantees are required on the rate, the best achievable "
    rb"rate is no longer close to the entropy. Rather, it is an appropriate, more {\em "
    rb"pragmatic} rate, determined via the inverse error exponent function and the "
    rb"blocklength."
)


def _columns(o):
    """A universal store's columns in code order, read through its ranking:
    entropies, packed parts, orbit sizes, and the checkpoints."""
    entropies = array("d", [o.keys[i] for i in o.ranking])
    parts = [c for asc in _partitions(o) for c in asc]
    return entropies, parts, [o.sizes[i] for i in o.ranking], o.checkpoints


def _partitions(o):
    """The partitions of a universal ordering in code order, as ascending
    count vectors: each one's m packed parts, read through the ranking."""
    return [tuple(o.parts[i * o.m:(i + 1) * o.m]) for i in o.ranking]


def _ties(o):
    """The store's groups of two or more partitions of bit-equal entropy,
    each in code order."""
    groups = {}
    for h, asc in zip(_columns(o)[0], _partitions(o)):
        groups.setdefault(h, []).append(asc)
    return [group for group in groups.values() if len(group) > 1]


class TestCodeword:
    def test_first_index_is_empty(self):
        assert Codeword.from_index(1).bits == ""
        assert Codeword.from_index(1).length == 0

    def test_binary_expansion_without_leading_one(self):
        assert Codeword.from_index(4).bits == "00"
        assert Codeword.from_index(5).bits == "01"
        assert Codeword.from_index(6).bits == "10"

    def test_length_is_floor_log2(self):
        for k in list(range(1, 70)) + [2 ** 40 - 1, 2 ** 40, 2 ** 40 + 3]:
            assert Codeword.from_index(k).length == k.bit_length() - 1

    def test_index_round_trip(self):
        for k in range(1, 200):
            assert Codeword.from_index(k).to_index() == k

    def test_validation(self):
        with pytest.raises(CodewordError):
            Codeword("0a1")
        with pytest.raises(CodewordError):
            Codeword.from_index(0)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
    def test_huge_index_is_named_by_its_bits(self):
        # the index of 15,000 ones, 2**15001 - 1, and the 2**15000 strings
        # both pass the 4,300-digit limit of an int's str
        with pytest.raises(CodewordError, match=r"^codeword index must be >= 1, got -<int of 16610 bits>$"):
            Codeword.from_index(-10 ** 5000)
        with pytest.raises(CodewordError, match=r"^index <int of 15001 bits> exceeds the <int of 15001 bits> strings"):
            decode(build_ordering(UNIVERSAL, 15000, 2), Codeword("1" * 15000))

    @pytest.mark.parametrize("bits", ["a01", "01a", "0 1", "10\n", "2"])
    def test_validation_anywhere_in_the_word(self, bits):
        with pytest.raises(CodewordError):
            Codeword(bits)


class TestOrderings:
    def test_universal_binary_n2_hand_example(self):
        o = build_ordering(UNIVERSAL, 2, 2)
        # classes (0,2), (2,0), (1,1) in that order
        assert [o.class_offset(c) for c in ((0, 2), (2, 0), (1, 1))] == [0, 1, 2]
        # symbols {a=0, b=1}: bb, aa, ab, ba get indices 1..4
        assert string_index(o, (1, 1)) == 1
        assert encode(o, (1, 1)).bits == ""
        assert string_index(o, (0, 0)) == 2
        assert encode(o, (0, 0)).bits == "0"
        assert string_index(o, (0, 1)) == 3
        assert encode(o, (0, 1)).bits == "1"
        assert string_index(o, (1, 0)) == 4
        assert encode(o, (1, 0)).bits == "00"

    def test_known_source_binary_n2_hand_example(self):
        o = build_ordering(KNOWN_SOURCE, 2, 2, P02)
        assert string_index(o, (1, 1)) == 1  # "bb", prob 0.64
        lengths = {
            "ab": encode(o, (0, 1)).length,
            "ba": encode(o, (1, 0)).length,
            "aa": encode(o, (0, 0)).length,
        }
        assert lengths["ab"] == 1 and lengths["ba"] == 1
        assert encode(o, (0, 0)).bits == "00"

    def test_universal_ignores_source(self):
        a = build_ordering(UNIVERSAL, 6, 2)
        b = build_ordering(UNIVERSAL, 6, 2, source=P02)
        c = build_ordering(UNIVERSAL, 6, 2, source=bern("0.7"))
        assert [_columns(o) for o in (b, c)] == [_columns(a)] * 2

    def test_both_orderings_are_code_orderings(self):
        p = SourcePmf.parse("0.2,0.3,0.5")
        for mode in (UNIVERSAL, KNOWN_SOURCE):
            o = build_ordering(mode, 5, 3, p)
            assert isinstance(o, CodeOrdering)
            assert (o.mode, o.n, o.m, o.total) == (mode, 5, 3, 3 ** 5)
        a, b = build_ordering(UNIVERSAL, 5, 3), build_ordering(UNIVERSAL, 5, 3, p)
        assert _columns(a) == _columns(b) != _columns(build_ordering(UNIVERSAL, 6, 3))

    def test_universal_class_of_no_level_is_an_invariant_violation(self):
        # (1, 2) is a type of n=3: its entropy, h(1/3), is no level's at n=4.
        # class_offset refuses it as bad input; the store's own lookup, which
        # the codec calls on counts it has checked, still finds no orbit
        o = build_ordering(UNIVERSAL, 4, 2)
        with pytest.raises(DomainError, match="not a type of blocklength 4 on 2 symbols"):
            o.class_offset((1, 2))
        with pytest.raises(InvariantViolation):
            o._span((1, 2))

    # counts of another blocklength or alphabet, or not counts at all; at
    # n=4, m=2 these returned 10 for (3, 3), 0 for (4,), raised IndexError
    # for (5, 0) (known source) or InvariantViolation for (1, 1, 2)
    BAD_COUNTS = [(3, 3), (4,), (5, 0), (1, 1, 2), (2, 1), (-1, 5), (True, 3), (2.0, 2), ("2", 2), None, 4]

    @pytest.mark.parametrize("mode", [UNIVERSAL, KNOWN_SOURCE])
    @pytest.mark.parametrize("counts", BAD_COUNTS, ids=repr)
    def test_class_offset_refuses_bad_counts(self, mode, counts):
        o = build_ordering(mode, 4, 2, P02)
        with pytest.raises(DomainError):
            o.class_offset(counts)

    # at n=4, m=2, 0 and 17 raised StopIteration (universal) or IndexError
    # (known source)
    @pytest.mark.parametrize("mode", [UNIVERSAL, KNOWN_SOURCE])
    @pytest.mark.parametrize("k", [0, 17, -1, 10 ** 30, True, 3.0, "3", None], ids=repr)
    def test_locate_refuses_an_index_outside_the_ordering(self, mode, k):
        o = build_ordering(mode, 4, 2, P02)
        with pytest.raises(DomainError):
            o.locate(k)

    @pytest.mark.parametrize("mode", [UNIVERSAL, KNOWN_SOURCE])
    def test_checked_views_admit_every_class_and_index(self, mode):
        # any sequence of m counts summing to n, and every index 1 .. total
        o = build_ordering(mode, 4, 2, P02)
        for k in range(1, o.total + 1):
            counts, rank = o.locate(k)
            assert o.class_offset(counts) == o.class_offset(list(counts)) == k - 1 - rank

    def test_known_source_needs_source(self):
        with pytest.raises(DomainError):
            build_ordering(KNOWN_SOURCE, 4, 2)

    def test_universal_order_is_entropy_then_canonical(self):
        o = build_ordering(UNIVERSAL, 7, 3)
        order = sorted(compositions(7, 3), key=o.class_offset)
        keys = list(map(universal_key(7, 3), order))
        assert keys == sorted(keys)


class TestOrbitBuildMatchesReferenceSort:
    """The known-source build equals a sort of every composition on (minus
    log2 probability, counts).  The universal orbits are checked against
    their sort class by class in TestUniversalLevelPath."""

    @staticmethod
    def _known_key(p):
        lp = p.log2_probs()
        return lambda c: (-math.fsum(ci * li for ci, li in zip(c, lp) if ci), c)

    @pytest.mark.parametrize("m,n", [(2, 40), (3, 17), (4, 9), (5, 6)])
    def test_known_source_random_sources(self, m, n):
        rng = random.Random(1000 * m + n)
        for _ in range(4):
            TestKnownSourceRankedPath._check_against_reference(n, m, random_pmf(rng, m))

    def test_known_source_tie_order_is_kept(self):
        # 0.1*0.4 == 0.2*0.2 exactly, so many classes tie in log-probability;
        # where the float keys tie too, ascending lex order decides
        p = SourcePmf.load("0.1,0.2,0.4,0.3")
        TestKnownSourceRankedPath._check_against_reference(6, 4, p)
        order, _ = _reference_ordering(6, 4, self._known_key(p))  # the store's order
        pos = order.index((0, 2, 3, 1))
        assert order[pos + 1] == (1, 0, 4, 1)
        pos = order.index((1, 4, 1, 0))
        assert order[pos - 1:pos + 2] == ((0, 6, 0, 0), (1, 4, 1, 0), (2, 2, 2, 0))
        # exactly equiprobable, but float rounding (not the canonical rule)
        # puts (1,0,5,0) first; an exact tie key would swap them
        assert order[8:10] == ((1, 0, 5, 0), (0, 2, 4, 0))


class TestUniversalLevelPath:
    """Encode and decode work one orbit at a time; every class still lands
    where a sort of all compositions on (entropy, canonical partition index,
    counts) puts it."""

    @staticmethod
    def _check_against_reference(n, m, stride=1):
        """Check every class's offset and lookup, and the first and last
        string of every ``stride``-th class and of every class whose
        partition shares its float entropy with another; return the number
        of such groups of partitions."""
        o = build_ordering(UNIVERSAL, n, m)
        groups = equal_entropy_groups(n, m)
        shared = {asc for group in groups for asc in group}
        order, offsets = _reference_ordering(n, m, universal_key(n, m))
        assert o.total == offsets[-1]
        for i, (counts, lo, hi) in enumerate(zip(order, offsets, offsets[1:])):
            assert o.class_offset(counts) == lo, (n, m, counts)
            assert o.locate(lo + 1) == (counts, 0)
            assert o.locate(hi) == (counts, hi - lo - 1)
            if i % stride and tuple(sorted(counts)) not in shared:
                continue
            first, last = _lex_first(counts), _lex_first(counts)[::-1]
            assert string_index(o, first) == lo + 1, (n, m, counts)
            assert string_index(o, last) == hi, (n, m, counts)
            assert decode(o, Codeword.from_index(lo + 1)) == first
            assert decode(o, Codeword.from_index(hi)) == last
        return len(groups)

    @pytest.mark.parametrize("m,ns", [
        (2, range(1, 31)), (3, range(1, 31)), (4, range(1, 31, 3)),
        (5, range(1, 17, 3)), (6, range(1, 11, 3)), (8, range(1, 6)),
        (2, (124, 126, 128, 254, 256)), (3, (40,)),  # orbits past a checkpoint
    ])
    def test_every_class_matches_reference_sort(self, m, ns):
        for n in ns:
            self._check_against_reference(n, m)

    def test_reference_cases_cross_checkpoints(self):
        # the largest cases above hold K-1, K, K+1, 2K, 2K+1 and 154 orbits:
        # a whole number of strides, and partial last strides
        K = coding._OFFSET_STRIDE
        cases = ((2, 124), (2, 126), (2, 128), (2, 254), (2, 256), (3, 40))
        counts = [len(build_ordering(UNIVERSAL, n, m).sizes) for m, n in cases]
        assert counts == [K - 1, K, K + 1, 2 * K, 2 * K + 1, 154]
        assert any(c % K == 0 for c in counts) and any(c > K and c % K for c in counts)

    @pytest.mark.parametrize("m,n,stride", [(4, 50, 25), (5, 12, 1)])
    def test_multi_orbit_levels(self, m, n, stride):
        assert self._check_against_reference(n, m, stride) >= 2

    def test_round_trip_never_expands(self):
        rng = random.Random(50)
        o = build_ordering(UNIVERSAL, 50, 4)
        for _ in range(30):
            x = tuple(rng.randrange(4) for _ in range(50))
            assert decode(o, encode(o, x)) == x
        for asc in ((3, 3, 12, 32), (2, 14, 16, 18)):  # share their entropy with other partitions
            x = _lex_first(asc[::-1])
            assert decode(o, encode(o, x)) == x
        # the ordering is its store, and the store holds one entropy, one
        # row of parts and one size per partition of n (not per class)
        assert isinstance(o, CodeOrdering) and CodeOrdering.__slots__ == STORE_SLOTS
        assert type(o).__slots__ == ("parts",)
        assert len(_partitions(o)) == count_partitions(50, 4) < count_types(50, 4) // 20
        assert len(o.keys) == len(o.sizes) == len(o.ranking) == len(_partitions(o))
        entropies = list(_columns(o)[0])  # in code order
        assert entropies == sorted(o.keys) != sorted(set(o.keys))  # some tie

    def test_store_keeps_no_tuple_or_size_per_class(self):
        # columns only: flat arrays of small numbers, and one big integer per orbit
        o = build_ordering(UNIVERSAL, 50, 4)
        partitions = count_partitions(50, 4)
        assert type(o).__slots__ == ("parts",)
        assert not hasattr(o, "__dict__")
        assert isinstance(o.keys, array) and o.keys.typecode == "d"
        assert isinstance(o.parts, array) and o.parts.typecode in "BHIQ"
        assert len(o.parts) == 4 * partitions  # m parts each, none of them a tuple
        assert isinstance(o.ranking, array) and o.ranking.typecode == coding._unsigned_typecode(partitions)
        assert sorted(o.ranking) == list(range(partitions))
        assert type(o.sizes) is list and all(type(v) is int and v > 0 for v in o.sizes)
        assert len(o.sizes) == len(o.keys) == partitions
        assert sum(o.sizes) == 4 ** 50
        # one checkpoint every _OFFSET_STRIDE orbits in code order, the first at 0
        offsets = list(itertools.accumulate(_columns(o)[2], initial=0))
        assert o.checkpoints == offsets[:len(o.sizes):coding._OFFSET_STRIDE]

    def test_build_holds_little_memory(self):
        # the orbit tuples and a size per partition held 0.64 MiB here; the
        # columns hold 0.14 MiB (CPython 3.11)
        tracemalloc.start()
        try:
            o = build_ordering(UNIVERSAL, 150, 3)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert o.total == 3 ** 150
        assert held < 0.2 * 2 ** 20, held

    def test_build_peak_stays_small(self):
        # 0.094 MiB here (CPython 3.11); a fresh cumulative offset per level,
        # built while every partition's own integer was still held, peaked at 0.137 MiB
        assert peak_mib(build_ordering, UNIVERSAL, 800, 2) < 0.11

    @pytest.mark.parametrize("n,m,bound", [(150, 3, 0.2), (50, 4, 0.12)])
    def test_build_peak_has_no_size_during_the_sort(self, n, m, bound):
        # sorting while every orbit's strings were held peaked at 0.272 and
        # 0.145 MiB here; with no class size until the sort returns, 0.155
        # and 0.089 MiB (CPython 3.11)
        assert peak_mib(build_ordering, UNIVERSAL, n, m) < bound

    def test_orbit_walk_streams_the_partitions(self):
        # after a first walk, a list of every partition as a tuple, made
        # before the walk, peaked at 0.16 MiB here; one stream of them peaks
        # at 0.03 MiB (CPython 3.11)
        o = build_ordering(UNIVERSAL, 150, 3)

        def walk():
            return sum(1 for _ in o._orbits())

        assert walk() == len(o.keys)
        assert peak_mib(walk) < 0.08

    def test_round_trip_through_every_multi_orbit_level(self):
        # every class of every group of partitions of equal float entropy at
        # m=4, n=50, at its first and last string, against the reference
        # sort of all classes
        o = build_ordering(UNIVERSAL, 50, 4)
        shared = _ties(o)
        order, offsets = _reference_ordering(50, 4, universal_key(50, 4))
        # the store's groups are the reference's, each in canonical order
        assert sorted(shared) == sorted(equal_entropy_groups(50, 4))
        assert len(shared) >= 2
        where = {counts: (lo, hi) for counts, lo, hi in zip(order, offsets, offsets[1:])}
        classes = [c for group in shared for asc in group for c in set(itertools.permutations(asc))]
        assert len(classes) > 2 * len(shared)
        for counts in classes:
            lo, hi = where[counts]
            assert o.class_offset(counts) == lo, counts
            first = _lex_first(counts)
            for k, x in ((lo + 1, first), (hi, first[::-1])):
                assert o.locate(k) == (counts, k - lo - 1)
                assert string_index(o, x) == k
                assert decode(o, encode(o, x)) == x

    @pytest.mark.parametrize("n,shared,bound", [(16, 36, 0.8), (24, 54, 5.5)])
    def test_byte_blocks_round_trip_with_no_orbit_listed(self, monkeypatch, n, shared, bound):
        # every block of the abstract round-trips at m = 256, and the codec
        # never lists an orbit's classes: listing the classes of every orbit
        # of one entropy ran out of memory here.  Peaks 0.55 and 3.6 MiB
        # (CPython 3.11), the first walk's rows of m parts per partition
        def refuse(values):
            raise AssertionError(f"the orbit of {values} was listed")

        monkeypatch.setattr(types_census, "_distinct_permutations", refuse)
        monkeypatch.setattr(coding, "_distinct_permutations", refuse)
        blocks = [ABSTRACT[i:i + n] for i in range(0, len(ABSTRACT) - n + 1, n)]
        built = []

        def run():
            o = build_ordering(UNIVERSAL, n, 256)
            assert [decode(o, encode(o, x)) for x in blocks] == list(map(tuple, blocks))
            built.append(o)

        assert peak_mib(run) < bound
        entropies = _columns(built[0])[0]  # in code order, so nondecreasing
        tied = [bisect.bisect_right(entropies, h) - bisect.bisect_left(entropies, h) > 1
                for h in (type_entropy_bits(list(map(x.count, range(256)))) for x in blocks)]
        assert sum(tied) == shared

    def test_build_and_round_trip_stay_small(self):
        # the class list at m=4 n=50 (23,426 classes) alone takes over 5 MiB
        rng = random.Random(10)
        strings = [tuple(rng.randrange(4) for _ in range(50)) for _ in range(10)]
        tracemalloc.start()
        try:
            o = build_ordering(UNIVERSAL, 50, 4)
            for x in strings:
                assert decode(o, encode(o, x)) == x
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak


class TestUniversalBuildMatchesReference:
    """The two walks of the runs around the sort give the store that one
    pass keeping every orbit's strings through the sort gives, column for
    column and bit for bit."""

    @staticmethod
    def _check(n, m):
        """Compare every column with the reference; return the number of
        groups of partitions of equal float entropy."""
        o = build_ordering(UNIVERSAL, n, m)
        entropies, parts, sizes, checkpoints = reference_entropy_columns(n, m)
        columns = _columns(o)  # the store's, in code order through its ranking
        assert columns[0].tobytes() == array("d", entropies).tobytes(), (n, m)
        assert columns[1] == parts, (n, m)
        assert columns[2] == sizes, (n, m)
        assert columns[3] == checkpoints, (n, m)
        return sum(count > 1 for count in collections.Counter(entropies).values())

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_blocklengths_up_to_40(self, m):
        for n in range(1, 41):
            self._check(n, m)

    def test_byte_alphabet(self):
        for n in range(1, 13):
            self._check(n, 256)

    @pytest.mark.parametrize("m,n,shared", [(2, 800, 0), (3, 150, 0), (4, 50, 2)])
    def test_codec_sizes(self, m, n, shared):
        assert self._check(n, m) == shared


class TestKnownSourceRankedPath:
    """Encode and decode work on the engine's columns and an offset every
    ``_OFFSET_STRIDE`` ranked classes; every class still lands where a sort
    of all compositions puts it."""

    K = coding._OFFSET_STRIDE

    @staticmethod
    def _check_against_reference(n, m, p):
        """Check every class's offset and lookup and the first and last
        string of every class; return the number of classes."""
        store = o = build_ordering(KNOWN_SOURCE, n, m, p)
        order, offsets = _reference_ordering(n, m, TestOrbitBuildMatchesReferenceSort._known_key(p))
        assert o.total == offsets[-1]
        for counts, lo, hi in zip(order, offsets, offsets[1:]):
            assert store.class_offset(counts) == lo, (n, m, counts)
            assert store.locate(lo + 1) == (counts, 0)
            assert store.locate(hi) == (counts, hi - lo - 1)
            first, last = _lex_first(counts), _lex_first(counts)[::-1]
            assert string_index(o, first) == lo + 1, (n, m, counts)
            assert string_index(o, last) == hi, (n, m, counts)
            assert decode(o, Codeword.from_index(lo + 1)) == first
            assert decode(o, Codeword.from_index(hi)) == last
        return len(order)

    # at m=2 there are n+1 classes: fewer than one stride, K-1, K, K+1,
    # exactly two strides and a partial third
    @pytest.mark.parametrize("m,ns", [
        (2, (1, 5, 62, 63, 64, 70, 127, 130)), (3, (1, 4, 9, 12, 15)),
        (4, (1, 3, 6, 7, 9)), (5, (2, 4, 5, 6)),
    ])
    def test_every_class_matches_reference_sort(self, m, ns):
        rng = random.Random(31 * m)
        counts = [self._check_against_reference(n, m, random_pmf(rng, m)) for n in ns]
        # a partial last stride, so positions 0, K-1, K and the last are all hit
        assert any(c > self.K and c % self.K for c in counts)

    def test_tie_source(self):
        # 0.1*0.4 == 0.2*0.2: many classes tie; 84 classes at n=6, m=4
        assert self._check_against_reference(6, 4, SourcePmf.load("0.1,0.2,0.4,0.3")) == 84

    def test_round_trip_never_expands(self):
        rng = random.Random(51)
        p = SourcePmf.parse("0.1,0.2,0.3,0.4")
        o = build_ordering(KNOWN_SOURCE, 50, 4, p)
        for _ in range(30):
            x = tuple(rng.randrange(4) for _ in range(50))
            assert decode(o, encode(o, x)) == x
        assert decode(o, Codeword("")) == (3,) * 50
        assert decode(o, Codeword.from_index(o.total)) == (0,) * 50
        # the ordering is its store, and the store holds the engine's
        # columns and one offset per stride: no count vector, no class list
        assert isinstance(o, CodeOrdering) and CodeOrdering.__slots__ == STORE_SLOTS
        store = o
        assert type(store).__slots__ == ("tables",)
        assert len(store.sizes) == len(store.ranking) == len(store.keys) == count_types(50, 4)
        tables = coding._key_tables(p, 50)
        keys, sizes, ranking = coding._known_source_classes(tables, 50)
        assert store.keys.tobytes() == keys.tobytes() and store.ranking == ranking
        assert store.tables == tables
        assert store.sizes == sizes  # the engine's, in canonical order
        assert len(store.checkpoints) == -(-len(store.ranking) // self.K)

    def test_build_makes_its_key_tables_once(self, monkeypatch):
        # the engine's keys and the store's lookups read the same tables
        made = []
        key_tables = coding._key_tables
        monkeypatch.setattr(coding, "_key_tables", lambda *a: made.append(key_tables(*a)) or made[-1])
        o = build_ordering(KNOWN_SOURCE, 9, 3, SourcePmf.parse("0.2,0.3,0.5"))
        assert len(made) == 1 and o.tables is made[0]

    @pytest.mark.parametrize("n,p", [
        (6, SourcePmf.load("0.25,0.25,0.25,0.25")),  # every class ties
        (6, SourcePmf.load("0.1,0.2,0.4,0.3")),  # exact ties, one split by float noise
        (7, SourcePmf.from_values([Fraction(1, 3)] * 3)),
    ], ids=["uniform", "noisy_tie", "thirds"])
    def test_lookup_by_key_inside_ties(self, n, p):
        # a class is found by bisecting the ranking on its key, then on its
        # canonical index inside a tie: every class lands at its reference
        # offset, and encoding builds nothing (no attribute changes)
        o = build_ordering(KNOWN_SOURCE, n, p.m, p)
        assert len(set(o.keys)) < len(o.keys)  # some classes tie

        def state():
            values = [getattr(o, name) for name in (*STORE_SLOTS, *type(o).__slots__)]
            return values, [pickle.dumps(v) for v in values]

        before = state()
        order, offsets = _reference_ordering(n, p.m, TestOrbitBuildMatchesReferenceSort._known_key(p))
        assert [o.class_offset(counts) for counts in order] == list(offsets[:-1])
        for counts, lo, hi in zip(order, offsets, offsets[1:]):
            first = _lex_first(counts)
            assert string_index(o, first) == lo + 1 and string_index(o, first[::-1]) == hi, counts
        after = state()
        assert all(map(operator.is_, after[0], before[0])) and after[1] == before[1]

    def test_build_and_round_trip_stay_small(self):
        # the class list and position map at m=4 n=50 took 5.3 MiB
        rng = random.Random(10)
        strings = [tuple(rng.randrange(4) for _ in range(50)) for _ in range(10)]
        p = SourcePmf.parse("0.1,0.2,0.3,0.4")
        tracemalloc.start()
        try:
            o = build_ordering(KNOWN_SOURCE, 50, 4, p)
            for x in strings:
                assert decode(o, encode(o, x)) == x
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20, peak


class TestRoundTrips:
    @pytest.mark.parametrize("m,n", [(2, 8), (3, 5), (4, 4)])
    @pytest.mark.parametrize("mode", [UNIVERSAL, KNOWN_SOURCE])
    def test_exhaustive_bijection(self, m, n, mode):
        source = SourcePmf(tuple((k + 1) / (m * (m + 1) / 2) for k in range(m)))
        o = build_ordering(mode, n, m, source)
        seen = set()
        for x in itertools.product(range(m), repeat=n):
            k = string_index(o, x)
            seen.add(k)
            assert decode(o, encode(o, x)) == x
        assert seen == set(range(1, m ** n + 1))

    def test_randomized_long_blocks(self):
        rng = random.Random(77)
        o = build_ordering(UNIVERSAL, 200, 2)
        for _ in range(300):
            x = tuple(rng.randrange(2) for _ in range(200))
            assert decode(o, encode(o, x)) == x
        # both codecs at n=2000: the two-symbol rank/unrank loops on 2000-bit class sizes
        rng, p = random.Random(6), SourcePmf.parse("0.2,0.8")
        strings = [tuple(rng.choices(range(2), weights=(2, 8), k=2000)) for _ in range(50)]
        for mode in (UNIVERSAL, KNOWN_SOURCE):
            o = build_ordering(mode, 2000, 2, p)
            assert [decode(o, encode(o, x)) for x in strings] == strings

    def test_decode_of_empty_is_first_string(self):
        o = build_ordering(UNIVERSAL, 5, 2)
        assert decode(o, Codeword("")) == (1, 1, 1, 1, 1)  # all-b: lowest entropy tie

    def test_decode_rejects_out_of_range(self):
        o = build_ordering(UNIVERSAL, 3, 2)
        with pytest.raises(CodewordError):
            decode(o, Codeword("0000"))  # index 16 > 8

    def test_encode_rejects_bad_symbols(self):
        # string_index leaves the symbol check to rank_in_type_class: one message
        for mode, m in itertools.product((UNIVERSAL, KNOWN_SOURCE), (2, 3)):
            o = build_ordering(mode, 3, m, SourcePmf((1 / m,) * m))
            for bad, refuse in itertools.product(
                (-1, m, m + 1), (lambda x: string_index(o, x), lambda x: rank_in_type_class(x, m))
            ):
                with pytest.raises(DomainError, match=f"^symbol {bad} outside alphabet of size {m}$"):
                    refuse((0, bad, bad))
            with pytest.raises(DomainError, match="^string length 2 != blocklength 3$"):
                encode(o, (0, 1))

    @pytest.mark.parametrize("x, name", [([1, True], "True"), ([1, 1.0], "1.0"), ([True, 1], "True"),
                                         ([0, "a"], "'a'"), ([True, False], "False")])
    def test_bool_or_non_int_at_any_position_refused(self, x, name):
        # True == 1 == 1.0, so a set of the symbols once hid the first two as [1, 1]
        o = build_ordering(UNIVERSAL, 2, 2)
        for refuse in (lambda x: rank_in_type_class(x, 2), lambda x: string_index(o, x), lambda x: encode(o, x)):
            with pytest.raises(DomainError, match=f"^symbol {name} outside alphabet of size 2$"):
                refuse(x)

    @pytest.mark.parametrize("kind", [bytes, bytearray])
    def test_bytes_take_the_range_check_only(self, kind):
        for mode in (UNIVERSAL, KNOWN_SOURCE):
            o = build_ordering(mode, 4, 3, SourcePmf.parse("0.2,0.3,0.5"))
            for x in itertools.product(range(3), repeat=4):
                assert string_index(o, kind(x)) == string_index(o, x)
                assert rank_in_type_class(kind(x), 3) == rank_in_type_class(x, 3)
            for refuse in (lambda x: rank_in_type_class(x, 3), lambda x: string_index(o, x), lambda x: encode(o, x)):
                with pytest.raises(DomainError, match="^symbol 3 outside alphabet of size 3$"):
                    refuse(kind([0, 3, 1, 2]))

    @pytest.mark.parametrize("mode", [UNIVERSAL, KNOWN_SOURCE])
    def test_no_multinomial_per_string(self, monkeypatch, mode):
        """Once built, an ordering answers each class's size with its
        offset: encode and decode compute no type_class_size, wherever
        it is bound."""
        p = SourcePmf.parse("0.2,0.3,0.5")
        rng = random.Random(31)
        strings = [tuple(rng.choices(range(3), weights=p.probs, k=60)) for _ in range(8)]
        strings += [(0,) * 60, (2,) * 60, (0, 1) * 30, (0, 1, 2) * 20]
        o = build_ordering(mode, 60, 3, p)
        calls = []

        def counting(t):
            calls.append(t)
            return size(t)

        size = types_census.type_class_size
        bound = [module for name, module in list(sys.modules.items())
                 if name.partition(".")[0] == "pragrate" and getattr(module, "type_class_size", None) is size]
        assert types_census in bound
        for module in bound:
            monkeypatch.setattr(module, "type_class_size", counting)
        for x in strings:
            assert decode(o, encode(o, x)) == x
            assert decode(o, encode(o, bytes(x))) == x
        assert calls == []

    @pytest.mark.parametrize("mode", [UNIVERSAL, KNOWN_SOURCE])
    def test_no_count_check_per_string(self, monkeypatch, mode):
        """A string is checked and counted once, by string_index: the stores
        find its class through the unchecked bodies of type_index,
        type_at_index and type_entropy_bits, never through their checks."""
        p = SourcePmf.parse("0.2,0.3,0.5")
        rng = random.Random(37)
        strings = [tuple(rng.choices(range(3), weights=p.probs, k=60)) for _ in range(8)]
        strings += [(0,) * 60, (2,) * 60, (0, 1) * 30, (0, 1, 2) * 20]
        o = build_ordering(mode, 60, 3, p)

        def refuse(t):
            raise AssertionError(f"counts {t} checked again")

        monkeypatch.setattr(types_census, "_type_counts", refuse)
        for x in strings:
            assert decode(o, encode(o, x)) == x
            assert decode(o, encode(o, bytes(x))) == x

    # (source, n) per alphabet size 2..5, and the tie source 0.1*0.4 = 0.2*0.2
    SWEEP_SOURCES = [("0.2,0.8", 800), ("0.2,0.3,0.5", 150), ("0.05,0.15,0.3,0.5", 50),
                     ("0.1,0.2,0.4,0.3", 50), ("0.1,0.15,0.2,0.25,0.3", 24)]
    # the sha256 of the sweep's codewords, one per line, as first computed
    SWEEP_SHA256 = "6b3313dfd8173b1897b7059d1775e9f8136c26f441a31dedd1128298b57a46e0"

    def test_seeded_encode_sweep_is_pinned(self):
        """Every codeword of a seeded sweep over both modes, byte for byte:
        a change to the rank arithmetic or the class order shows here."""
        rng = random.Random(13)
        digest = hashlib.sha256()
        for mode in (KNOWN_SOURCE, UNIVERSAL):
            for spec, n in self.SWEEP_SOURCES:
                p = SourcePmf.parse(spec)
                o = build_ordering(mode, n, p.m, p)
                strings = [tuple(rng.choices(range(p.m), weights=w, k=n))
                           for w in (p.probs, [1.0] * p.m) for _ in range(12)]
                strings += [(0,) * n, (p.m - 1,) * n, tuple(sorted(strings[0]))]
                for x in strings:
                    word = encode(o, x)
                    assert decode(o, word) == x
                    digest.update(word.bits.encode() + b"\n")
        assert digest.hexdigest() == self.SWEEP_SHA256


class TestOrderingSemantics:
    def test_known_source_lengths_nonincreasing_in_probability(self):
        n = 6
        o = build_ordering(KNOWN_SOURCE, n, 2, P02)
        rows = []
        for x in itertools.product(range(2), repeat=n):
            w = sum(x)
            prob = 0.2 ** (n - w) * 0.8 ** w
            rows.append((prob, encode(o, x).length))
        rows.sort(key=lambda t: -t[0])
        lengths = [L for _, L in rows]
        assert all(b >= a or abs(pa - pb) < 1e-15
                   for (pa, a), (pb, b) in zip(rows, rows[1:]))

    def test_universal_entropy_order_respected(self):
        n, m = 6, 2
        o = build_ordering(UNIVERSAL, n, m)
        pos = o.class_offset
        for x, y in [((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)),
                     ((1, 1, 1, 1, 1, 0), (1, 1, 0, 0, 1, 0))]:
            cx = tuple(x.count(a) for a in range(m))
            cy = tuple(y.count(a) for a in range(m))
            if type_entropy_bits(cx) < type_entropy_bits(cy):
                assert pos(cx) < pos(cy)
                assert string_index(o, x) < string_index(o, y)

    @pytest.mark.parametrize(
        "src,ns",
        [
            (SourcePmf.parse("0.2,0.8"), (4, 6, 8)),
            (SourcePmf.parse("0.5,0.3,0.2"), (3, 5, 6)),
        ],
    )
    def test_known_source_tails_match_exact_limits(self, src, ns):
        # two independent code paths: per-string encoding vs type aggregation
        for n in ns:
            o = build_ordering(KNOWN_SOURCE, n, src.m, src)
            mass_by_length: dict[int, Fraction] = {}
            for x in itertools.product(range(src.m), repeat=n):
                prob = Fraction(1)
                for s in x:
                    prob *= src.exact[s]
                L = encode(o, x).length
                mass_by_length[L] = mass_by_length.get(L, Fraction(0)) + prob
            dist = length_distribution(src, n, exact=True)
            for L in range(dist.max_length + 2):
                tail = sum(
                    (v for k, v in mass_by_length.items() if k >= L), Fraction(0)
                )
                assert tail == dist.exact_tails[L]


class TestUniversalExcessProbability:
    def test_trivial_lengths(self):
        assert universal_excess_probability(P02, 10, 0) == 1.0
        assert universal_excess_probability(P02, 10, 11) == 0.0

    def test_matches_string_enumeration(self):
        n = 8
        o = build_ordering(UNIVERSAL, n, 2)
        for L in (1, 3, 5, 7, 8):
            direct = 0.0
            for x in itertools.product(range(2), repeat=n):
                if string_index(o, x) >= 2 ** L:
                    w = sum(x)
                    direct += 0.2 ** (n - w) * 0.8 ** w
            got = universal_excess_probability(P02, n, L)
            assert got == pytest.approx(direct, rel=1e-12, abs=1e-15)

    # m=4, n=50 holds two groups of partitions of equal float entropy
    @pytest.mark.parametrize("m,n", [(2, 30), (3, 12), (4, 7), (5, 5), (4, 50)])
    def test_equals_all_class_reference(self, m, n):
        # every class, in a plain sort of every composition on (entropy,
        # canonical partition index, counts), through a logaddexp2 suffix
        # chain with the straddling class split by hand: the value must
        # match exactly
        rng = random.Random(31 * m + n)
        order = sorted(compositions(n, m), key=universal_key(n, m))
        sizes = [_class_size(counts) for counts in order]
        for _ in range(3):
            p = random_pmf(rng, m)
            lp = p.log2_probs()
            log_probs = [math.fsum(c * li for c, li in zip(counts, lp) if c) for counts in order]
            want = suffix_tails(
                sizes, log_probs, lambda k, lq: math.log2(k) + lq, logaddexp2, NEG_INF, 0.0, m ** n,
            )
            assert universal_length_distribution(p, n).log2_tails == want, p
            for length in range(1, (m ** n).bit_length()):
                got = universal_excess_probability(p, n, length)
                assert got == 2.0 ** want[length], (length, p)

    @pytest.mark.parametrize("source,n", [("0.2,0.8", 20), ("0.5,0.3,0.2", 9), ("0.1,0.2,0.4,0.3", 6)])
    def test_distribution_reads_equal_excess_calls(self, source, n):
        p = SourcePmf.parse(source)
        dist = universal_length_distribution(p, n)
        assert (dist.n, dist.m, dist.exact_tails) == (n, p.m, None)
        for length in range(-1, dist.max_length + 3):
            assert dist.tail(length) == universal_excess_probability(p, n, length), length

    @pytest.fixture
    def level_builds(self, monkeypatch):
        calls = []
        store = coding._EntropyColumns

        def counting(n, m):
            calls.append((n, m))
            return store(n, m)

        monkeypatch.setattr(coding, "_EntropyColumns", counting)
        return calls

    def test_one_class_build_per_distribution(self, level_builds):
        coding._universal_length_distribution.__wrapped__(SourcePmf.parse("0.5,0.3,0.2"), 10)
        assert level_builds == [(10, 3)]

    def test_excess_reads_share_one_build(self, level_builds):
        coding._universal_length_distribution.cache_clear()
        p = SourcePmf.parse("0.6,0.3,0.1")
        tails = [universal_excess_probability(p, 11, length) for length in range(20)]
        assert level_builds == [(11, 3)]
        fresh = coding._universal_length_distribution.__wrapped__(p, 11)
        assert tails == [fresh.tail(length) for length in range(20)]

    def test_type_cap_refused_before_ranking(self, monkeypatch):
        monkeypatch.setattr(coding, "_EntropyColumns", None)  # any call would fail
        p = SourcePmf.parse("0.5,0.3,0.2")  # 66 type classes at n=10
        with pytest.raises(ResourceLimitError, match="66 type classes"):
            universal_length_distribution(p, 10, cap_types=65)
        with pytest.raises(ResourceLimitError):
            universal_excess_probability(p, 10, 0, cap_types=65)

    def test_tails_cap_counts_classes_times_m(self, monkeypatch):
        # the tails list each class as m counts: at n=2 their max RSS grew as
        # about m^3 (78 MB at m=200, 227 MB at m=300), so the default cap
        # counts classes x m, not classes alone
        class Built(Exception):
            pass

        built = []

        def store(n, m):
            built.append((n, m))
            raise Built

        monkeypatch.setattr(coding, "_EntropyColumns", store)
        with pytest.raises(Built):  # 36,856 classes x 271 = 9,987,976 pass
            universal_length_distribution(SourcePmf((1 / 271,) * 271), 2)
        assert built == [(2, 271)]
        with pytest.raises(ResourceLimitError,
                           match=r"^37128 type classes x 272 symbols at n=2, m=272 exceeds the cap of 10000000$"):
            universal_length_distribution(SourcePmf((1 / 272,) * 272), 2)
        assert built == [(2, 271)]

    def test_universal_cap_counts_partitions_at_its_boundary(self, monkeypatch):
        # 21,084,251 classes at m=4, n=500 lie in 894,348 partitions, and the
        # store keeps 4 parts of each: 3,577,392 units, fewer than the cap
        # times 4!, so the partitions are counted, and decide
        built = []
        monkeypatch.setattr(coding, "_EntropyColumns", lambda n, m: built.append((n, m)))
        with pytest.raises(ResourceLimitError,
                           match=r"^894348 partitions x 4 parts at n=500, m=4 exceeds the cap of 3577391$"):
            build_ordering(UNIVERSAL, 500, 4, cap_types=3_577_391)
        assert built == []
        build_ordering(UNIVERSAL, 500, 4, cap_types=3_577_392)
        assert built == [(500, 4)]

    def test_universal_cap_counts_the_parts_the_store_keeps(self, monkeypatch):
        # p(70) = 4,087,968 partitions fit the default cap, but their
        # 256 parts each, about 1e9 entries, do not
        built = []
        monkeypatch.setattr(coding, "_EntropyColumns", lambda n, m: built.append((n, m)))
        with pytest.raises(ResourceLimitError,
                           match=r"^at least \d+ partitions x 256 parts at n=70, m=256 exceeds the cap of 10000000$"):
            build_ordering(UNIVERSAL, 70, 256)
        assert built == []

    def test_universal_refusal_stops_counting_at_the_cap(self, monkeypatch):
        # C(10801, 801) classes are far fewer than 802!, so no bound refuses
        # n=10**4, m=802 uncounted; the count stops once it passes the cap
        monkeypatch.setattr(coding, "_EntropyColumns", None)  # any call would fail
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=r"^at least \d+ partitions x 802 parts at n=10000"):
            build_ordering(UNIVERSAL, 10**4, 802)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("call,counted", [
        # 10**5000 + 1 classes lie in 10**5000 // 2 + 1 partitions, counted in
        # closed form at m=2, with 2 parts each
        (lambda: build_ordering(UNIVERSAL, 10 ** 5000, 2), "<int of 16609 bits> partitions x 2 parts"),
        (lambda: length_distribution(P02, 10 ** 5000), "<int of 16610 bits> type classes"),
        (lambda: universal_length_distribution(P02, 10 ** 5000), "<int of 16610 bits> type classes x 2 symbols"),
    ], ids=["build_ordering", "length_distribution", "universal_length_distribution"])
    def test_type_cap_names_a_huge_count_by_its_bits(self, call, counted):
        # str() of a count past 4,300 digits raised ValueError before the refusal existed
        with pytest.raises(ResourceLimitError, match=rf"^{counted} at n=<int of 16610 bits>, m=2 exceeds"):
            call()

    @pytest.mark.parametrize("cap", [0, -1, 2.5, True, None], ids=["zero", "negative", "float", "bool", "none"])
    def test_bad_type_cap_is_bad_input(self, cap):
        # a cap below 1 is no resource limit: the CLI maps DomainError to exit 2
        calls = [
            lambda: universal_length_distribution(P02, 5, cap_types=cap),
            lambda: length_distribution(P02, 5, cap_types=cap),
            lambda: build_ordering(UNIVERSAL, 5, 2, cap_types=cap),
            lambda: build_ordering(KNOWN_SOURCE, 5, 2, P02, cap_types=cap),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="cap_types must be an integer >= 1"):
                call()

    def test_bad_arguments_refused_after_an_equal_good_call(self):
        # the memo must not answer True or 1.0 from n=1's entry, nor 1e7
        # from the default cap's: True == 1 == 1.0 and they hash alike
        universal_length_distribution(P02, 1)
        universal_length_distribution(P02, 3, cap_types=10 ** 7)
        for n in (True, 1.0):
            with pytest.raises(DomainError, match="blocklength n must be an integer >= 1"):
                universal_length_distribution(P02, n)
            with pytest.raises(DomainError, match="blocklength n must be an integer >= 1"):
                universal_excess_probability(P02, n, 1)
        with pytest.raises(DomainError, match="cap_types must be an integer >= 1"):
            universal_length_distribution(P02, 3, cap_types=1e7)

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("length", [0, 1])
    def test_blocklength_below_one_refused(self, n, length):
        with pytest.raises(DomainError):
            universal_excess_probability(P02, n, length)
        with pytest.raises(DomainError):
            universal_length_distribution(P02, n)

    def test_distribution_peak_memory(self):
        # all count vectors, offsets and suffix floats took 1.30 MiB here
        p = SourcePmf.parse("0.1,0.2,0.4,0.3")
        assert peak_mib(coding._universal_length_distribution.__wrapped__, p, 32) < 0.5

    @pytest.mark.parametrize("length", [2.5, math.nan, 1.0, True, "1", None],
                             ids=["float", "nan", "integral-float", "bool", "str", "none"])
    def test_non_integer_length_refused(self, length):
        # 2.5 and nan raised a bare TypeError from the tuple index; True read as L = 1
        p = SourcePmf.parse("0.2,0.8")
        dists = [universal_length_distribution(p, 10), length_distribution(p, 10)]
        with pytest.raises(DomainError, match="^codeword length must be an integer, got "):
            universal_excess_probability(p, 10, length)
        for dist in dists:
            for read in (dist.tail, dist.log2_tail):
                with pytest.raises(DomainError, match="^codeword length must be an integer, got "):
                    read(length)

    def test_negative_length_has_tail_one(self):
        for dist in (universal_length_distribution(P02, 10), length_distribution(P02, 10)):
            assert [dist.tail(L) for L in (-1, -10 ** 30)] == [1.0, 1.0]
            assert dist.log2_tail(-3) == 0.0

    def test_decreasing_in_length(self):
        vals = [universal_excess_probability(P02, 20, L) for L in range(0, 22)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestUniversalThreshold:
    def test_alpha_n_tends_to_alpha_star(self):
        up = universal_threshold_alpha_n(P02, DELTA_HALF, 10 ** 5, include_census=False)
        assert abs(up.alpha_n - up.alpha_star) < 0.01
        assert up.ok

    def test_small_n_is_flagged(self):
        up = universal_threshold_alpha_n(P02, DELTA_HALF, 2)
        assert not up.ok
        assert up.alpha_n < up.alpha_star

    def test_alpha_n_above_alpha_star_beyond_threshold(self):
        ks = [universal_threshold_alpha_n(P02, DELTA_HALF, n) for n in range(10, 60)]
        assert all(u.ok for u in ks)
        assert all(u.alpha_n >= u.alpha_star for u in ks)

    def test_census_fields(self):
        up = universal_threshold_alpha_n(P02, DELTA_HALF, 50)
        assert up.string_count is not None and up.string_count >= 2
        assert up.rate == pytest.approx((math.log2(up.string_count) + 1) / 50, abs=1e-12)
        assert up.h_threshold_bits is not None

    def test_delta_domain(self):
        with pytest.raises(DomainError):
            universal_threshold_alpha_n(P02, 0.9, 50)
