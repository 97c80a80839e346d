"""Working one-to-one encoders/decoders over fixed-blocklength strings.

Two orderings of A^n are supported, both total orders of the form
"type order, then lexicographic within the type class":

* known-source: type classes sorted by decreasing per-string probability
  under a given source pmf (the ordering of the optimal compressor);
* universal: type classes sorted by increasing empirical entropy, with no
  reference to any source.

The known-source classes whose float sort keys are equal keep the canonical
(ascending lex) type order.  The engine gets this from a stable sort, on the
float key alone, of the classes listed in canonical order; the key is the
``fsum`` of per-symbol table entries c * -log2 p_i, computed by one C-level
``map`` over the rows of :func:`~pragrate.types_census._class_rows`.  The
codec's store sorts each window of keys it ranks the same way.

The universal code is ordered one permutation orbit at a time, and its tie
rule is part of the format: the partitions of n (each stands for the orbit
of the count vectors that rearrange it) come by nondecreasing float
entropy, partitions of bit-equal entropy keep the canonical descending-lex
order of :func:`~pragrate.types_census._partition_rows`, and each orbit's
classes follow in lex order.  The paper's price-for-universality bound
holds for any fixed rule among types of equal entropy; this one ranks every
class in closed form within its own orbit.

Both orderings keep the engine's layout (below): per unit (a ranked class,
or a partition's orbit) its float key and exact size in canonical order,
and the ranking, the canonical indices in code order, through which every
read in code order goes.  :mod:`pragrate.types_census` streams the columns
in canonical order; this module keeps the keys of the known source, the
two stable sorts and the lookups.  Since ``fsum`` is correctly rounded
whatever the order of its terms, every vector of an orbit has its
partition's entropy bit for bit, so a class's orbit is found by bisecting
the ranking on the entropies with
:func:`~pragrate.types_census.type_entropy_bits` of its counts (and, in the
rare case of several partitions of that entropy, by comparing their
parts).  An orbit's classes all have one size, the orbit's strings over
its arrangements, so a class's offset is its orbit's plus that size times
the lex rank of its count vector among the rearrangements of the
partition: the codec ranks (and unranks) twice, once over the multiset of
counts and once over the string, and never lists the classes.  One method,
``_vectors``, reads the partitions in code order, for the codec and for
the universal code's length distribution, which streams the orbits
(``_orbits``) and alone lists their classes.

The known-source store holds the engine's columns only as far as its
lookups reach.  It starts with no class ranked; a lookup past its reach
ranks the next window of keys (reach, hi], whose classes
:func:`~pragrate.types_census._key_window` finds by a walk pruned to the
runs that can reach it, and appends their stable sort to the ranking.
Every earlier window holds only smaller keys, so the ranking is always a
prefix of the engine's, and no codeword depends on how far the store has
reached; the growth rule is :class:`_RankedClasses`'s.  A string drawn
from the source has its key within a few standard deviations of n H(P),
near the head of the order, so a codec run over such strings ranks a
fraction of the classes.  A walk is counted before it is made, and one
that would cost more than a quarter of the engine's build, with the walks
before it, is not made: the store then ranks every class by the engine's
build, whose ranking has the store's as its prefix.

Both stores share one offset structure for enumerative coding (Cover,
1973): a cumulative offset every ``_OFFSET_STRIDE`` units in code order,
so a unit's offset is a checkpoint plus fewer than ``_OFFSET_STRIDE``
sizes, and the unit holding an index is found by bisecting the checkpoints
and walking one stride.  A known-source class is found as an orbit is: its
key, the ``fsum`` of its counts' table entries, is the engine's bit for
bit, so the same bisection of the ranking finds the first class of that
key, and inside a tie, whose classes keep the canonical order, the class
is found by bisecting for its canonical index
(:func:`~pragrate.types_census.type_index`, in closed form); decoding maps
a ranked class back to its counts
(:func:`~pragrate.types_census.type_at_index`).  Neither ordering builds
an inverse of its ranking or lists its classes.

The k-th string (1-based) receives the binary expansion of k with its
leading 1 removed, a codeword of length floor(log2 k); k = 1 maps to the
empty codeword.  Encoding is big-integer index arithmetic: the offset of the
string's type class plus its lexicographic rank inside the class, so n in
the hundreds is routine.  Decoding inverts exactly.  A string is checked
and counted once (``x.count`` per symbol, at C speed on ``bytes``, which
is how the CLI hands each line over), and the ordering answers a class's
offset together with its size (``_span``, and ``_class_at`` to decode):
the size is read from the ordering's ``sizes``, or is an orbit's strings
over its arrangements, so no multinomial is computed per string.  The rank
and its inverse (:func:`~pragrate.types_census._rank`,
:func:`~pragrate.types_census._unrank`) take those counts and that size,
and cost one multiply and one exact division per symbol once two symbols
are left in the rest of the string, which at m = 2 is every symbol.

The length distribution of either code under a memoryless source is
evaluated exactly by type aggregation, including the split of the class
straddling a 2**L boundary.  This module holds the package's one
ranked-class engine: the known-source class ranking and the one float tail
routine (``_log2_tails``, which fills a :class:`LengthDistribution`) serve
the codecs, the universal code's length distribution and the optimal-code
tails of :mod:`pragrate.exact_limits` alike.  The checks that stay
independent of it are the tests that enumerate every string, the
brute-force oracle ``brute_force_limits`` of ``tests/conftest.py`` among
them.

The engine is columnar (``_known_source_classes``): per class it keeps a sort
key in an ``array('d')`` and an exact size, both in canonical order, and
the ranking, the class indices in code order as an index array.  The tails
take one pass over the ranking, from the last class.  It keeps the ranks
not yet passed, the logaddexp2 suffix chain over log2(size) - key and the
next boundary 2**L, and splits each class that holds a boundary as it
passes it: the tail is the chain past the class plus the class's strings
at ranks >= 2**L.  So a length distribution holds O(n) tails beyond its
columns, not an offset and a suffix per class.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .distributions import SourcePmf
from .errors import CodewordError, DomainError, InvariantViolation
from .inputs import check_integer, check_real, check_source, check_string, describe
from .numerics import LOG2E, NEG_INF, logaddexp2
from .types_census import (
    DEFAULT_TYPE_CAP,
    _check_walk_cap,
    _class_rows,
    _class_sizes,
    _distinct_permutations,
    _key_window,
    _orbit_sizes,
    _partition_rows,
    _rank,
    _string_counts,
    _type_at_index,
    _type_counts,
    _type_entropy_bits,
    _type_index,
    _unrank,
    _unsigned_typecode,
)

KNOWN_SOURCE = "known-source"
UNIVERSAL = "universal"
_OFFSET_STRIDE = 64  # units (ranked classes or orbits) per checkpoint of an ordering


@dataclass(frozen=True)
class Codeword:
    """A binary codeword: the index's binary expansion minus its leading 1."""

    bits: str

    def __post_init__(self) -> None:
        bits = self.bits
        if not isinstance(bits, str) or bits.count("0") + bits.count("1") != len(bits):
            raise CodewordError(f"codeword must be a str over '0'/'1', got {describe(bits)}")

    @property
    def length(self) -> int:
        return len(self.bits)

    @classmethod
    def from_index(cls, k: int) -> "Codeword":
        if k < 1:
            raise CodewordError(f"codeword index must be >= 1, got {describe(k)}")
        return cls(bin(k)[3:])

    def to_index(self) -> int:
        return int("1" + self.bits, 2) if self.bits else 1


def _checkpoints(sizes: list[int], units: Sequence[int], pos: int, offset: int) -> tuple[list[int], int]:
    """(the checkpoints of ``units``, placed in code order from position
    ``pos`` on after ``offset`` strings, and the strings through them)."""
    offsets = itertools.accumulate(map(sizes.__getitem__, units), initial=offset)
    # islice consumes its source up to its stop, so the last offset is left
    count = len(units)
    return list(itertools.islice(offsets, min(-pos % _OFFSET_STRIDE, count), count, _OFFSET_STRIDE)), next(offsets)


class CodeOrdering:
    """A total order on A^n shared by encoder and decoder, as a sequence of
    units: ranked classes for the known source, orbits (partitions of n)
    for the universal code.  The base holds the one layout of both:
    ``keys`` and ``sizes``, each unit's float key and strings in canonical
    order, ``ranking``, the canonical indices in code order, and
    ``checkpoints[j]``, the strings before code position j * _OFFSET_STRIDE.
    The columns in canonical order are read off the walks of
    :mod:`pragrate.types_census`, the one module that walks the canonical
    orders; a store sorts its keys into its ranking.  ``_offset`` and
    ``_unit`` read less than one stride's sizes through the ranking, and
    ``_first`` bisects it for the first unit of a key.  Each store answers
    the two questions of enumerative coding without listing its classes:
    ``class_offset`` (the strings in all classes before a given one) and
    ``locate`` (the class holding a given index, and the index's rank
    inside it).  Both are checked views of the store's ``_span`` and
    ``_class_at``, which also answer the class's size, so the codec never
    computes a multinomial per string; the codec checks its own input and
    calls those two directly.
    """

    __slots__ = ("mode", "n", "m", "total", "keys", "sizes", "ranking", "checkpoints")

    def __init__(self, mode: str, n: int, m: int, keys: array, sizes: list[int], ranking: array) -> None:
        self.mode, self.n, self.m, self.total = mode, n, m, m ** n
        self.keys, self.sizes, self.ranking = keys, sizes, ranking
        self.checkpoints = _checkpoints(sizes, ranking, 0, 0)[0]

    def _offset(self, pos: int) -> int:
        """The strings in the units before code position ``pos``."""
        start = pos - pos % _OFFSET_STRIDE
        return self.checkpoints[pos // _OFFSET_STRIDE] + sum(map(self.sizes.__getitem__, self.ranking[start:pos]))

    def _unit(self, k: int) -> tuple[int, int]:
        """(code position of the unit holding the 1-based index k, the
        strings before that unit)."""
        j = bisect.bisect_left(self.checkpoints, k) - 1
        block = map(self.sizes.__getitem__, self.ranking[j * _OFFSET_STRIDE:(j + 1) * _OFFSET_STRIDE])
        offsets = list(itertools.accumulate(block, initial=self.checkpoints[j]))
        pos = bisect.bisect_left(offsets, k) - 1  # unit pos holds offsets[pos]+1 .. offsets[pos+1]
        return j * _OFFSET_STRIDE + pos, offsets[pos]

    def _first(self, key: float) -> int:
        """The code position of the first unit whose key is not below ``key``."""
        return bisect.bisect_left(self.ranking, key, key=self.keys.__getitem__)

    def class_offset(self, counts: Sequence[int]) -> int:
        """The strings in all classes before the class of ``counts``, which
        must be m integers >= 0 that sum to n."""
        counts = _type_counts(counts)
        if len(counts) != self.m or sum(counts) != self.n:
            raise DomainError(f"counts {describe(counts)} are not a type of blocklength {self.n} on {self.m} symbols")
        return self._span(counts)[0]

    def locate(self, k: int) -> tuple[tuple[int, ...], int]:
        """(counts, 0-based rank in its class) of the 1-based index k, an
        integer from 1 to ``total``."""
        check_integer("index k", k, 1)
        if k > self.total:
            raise DomainError(f"index k={describe(k)} exceeds the {describe(self.total)} strings of this ordering")
        return self._class_at(k)[:2]


class _EntropyColumns(CodeOrdering):
    """The universal order in the base's layout (see the module docstring):
    the units are the partitions of n, ``keys`` their float entropies and
    ``sizes`` their orbits' strings, and ``parts`` packs each partition's m
    parts, ascending, all in canonical order (descending lex), as
    :func:`~pragrate.types_census._partition_rows` and
    :func:`~pragrate.types_census._orbit_sizes` stream them; the sizes come
    after the sort.  A class's size is its orbit's strings over the orbit's
    arrangements; no per-partition tuple or per-class size is kept.
    ``_vectors`` is the one reader of ``parts`` in code order; the codec
    lists no classes, and only the tails' ``_orbits`` does."""

    __slots__ = ("parts",)

    def __init__(self, n: int, m: int) -> None:
        self.parts, keys = _partition_rows(n, m)
        # a stable sort on the entropy alone keeps partitions of equal
        # entropy in descending lex order; no orbit size exists yet
        count = len(keys)
        ranking = array(_unsigned_typecode(count), sorted(range(count), key=keys.__getitem__))
        super().__init__(UNIVERSAL, n, m, keys, _orbit_sizes(n, m), ranking)

    def _vectors(self, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
        """The ascending count vectors of the partitions at code positions
        lo .. hi-1: each one's row of ``parts``, read through the ranking."""
        m, parts = self.m, self.parts
        return (tuple(parts[i * m:i * m + m]) for i in self.ranking[lo:hi])

    def _orbit(self, pos: int) -> tuple[list[int], list[int], int, int]:
        """(distinct values, their multiplicities, arrangements, class size)
        of the orbit at code position ``pos``: its m! / prod(multiplicity!)
        vectors share the orbit's strings."""
        vector = next(self._vectors(pos, pos + 1))
        values = sorted(set(vector))
        multiplicities = list(map(vector.count, values))
        factorial = math.factorial
        arrangements = factorial(self.m) // math.prod(map(factorial, multiplicities))
        return values, multiplicities, arrangements, self.sizes[self.ranking[pos]] // arrangements

    def _orbits(self) -> Iterator[tuple[list[tuple[int, ...]], int]]:
        """Per partition in code order, from one stream: its orbit's count
        vectors in lex order and their class size.

        An orbit's shape maps each slot of its ascending vector to the first
        slot holding the same value.  That index rises with the value, so the
        shape's distinct permutations, as itemgetters on the ascending vector,
        list the orbit in lex order; orbits of one shape share the getters."""
        getters: dict[tuple[int, ...], list[itemgetter]] = {}
        strings = map(self.sizes.__getitem__, self.ranking)
        for asc, size in zip(self._vectors(0, len(self.sizes)), strings):
            shape = tuple(map(asc.index, asc))
            if shape not in getters:
                getters[shape] = [itemgetter(*idx) for idx in _distinct_permutations(shape)]
            order = [g(asc) for g in getters[shape]]
            yield order, size // len(order)

    def _span(self, counts: tuple[int, ...]) -> tuple[int, int]:
        """(strings before the class of ``counts``, the class's size)."""
        h = _type_entropy_bits(counts)
        pos = self._first(h)
        tied = bisect.bisect_right(self.ranking, h, pos, key=self.keys.__getitem__) - pos
        if not tied:
            raise InvariantViolation(f"no orbit of the universal ordering holds {counts}")
        if tied > 1:  # rare: several partitions of this entropy; find the one counts rearranges
            pos += list(self._vectors(pos, pos + tied)).index(tuple(sorted(counts)))
        # the orbit's vectors are the strings over its values: rank counts among them
        values, multiplicities, arrangements, size = self._orbit(pos)
        return self._offset(pos) + size * _rank(list(map(values.index, counts)), multiplicities, arrangements), size

    def _class_at(self, k: int) -> tuple[tuple[int, ...], int, int]:
        """(counts, 0-based rank in its class, class size) of the 1-based index k."""
        pos, offset = self._unit(k)
        values, multiplicities, arrangements, size = self._orbit(pos)
        rank, within = divmod(k - 1 - offset, size)
        vector = _unrank(multiplicities, arrangements, rank)
        return tuple(map(values.__getitem__, vector)), within, size


class _RankedClasses(CodeOrdering):
    """The known-source order in the base's layout, its units the type
    classes, built in key windows as far as its lookups reach: ``ranking``
    holds the classes of key at most ``reach`` in code order, with their
    ``checkpoints``, and ``reached`` counts their strings.  ``keys`` and
    ``sizes`` are the engine's columns (:func:`_known_source_classes`)
    wherever a window has written them, both made at the first window.
    ``tables`` are the key tables.

    A lookup past the reach ranks the next window (reach, hi] of keys
    (:func:`~pragrate.types_census._key_window`), stable-sorted on the key,
    after the ranking: every earlier window holds only smaller keys, so the
    ranking is always a prefix of the engine's.  The windows follow the
    strings that a memoryless source draws, whose keys have mean n H and
    standard deviation s = sqrt(n Var(-log2 p(X))):

    * hi is the lookup's target plus ``step``, and at least ``floor`` plus
      ``step``, where ``floor`` is n H + 1.5 s and ``step`` starts at 1.5 s
      (1 bit at least), so the first window reaches 3 s past the mean;
    * a key lookup's target is its key;
    * an index k's target is log2 k, a lower bound on the key of the class
      holding k (the k strings up to it each have probability at least
      2**-key), and the reach once that bound is below it; a bound more
      than a step past both the reach and ``floor`` marks an atypical
      index, and so does a window that leaves k unreached: then every
      class left is ranked;
    * the second window steps as far past its target, and a third ranks
      every class left.

    Every class left is ranked by the engine's own build, whose ranking
    has the store's as its prefix: the store's columns are dropped first,
    so its peak is the engine's.  The walks share a ``budget`` of a
    quarter of the classes, in the work units of
    :func:`~pragrate.types_census._key_window` (about the engine's time
    per class); a window whose walk would pass it is not walked, and the
    engine's build ranks every class instead.  Whatever the order of the
    symbols and of the lookups, a store so spends about 5/4 of the
    engine's build at most.

    A lookup may thus change the store, which commits a window at once,
    after its walk, sort and sizes: an ordering is not to be shared
    between threads.  No count vector and no inverse of the ranking is
    stored: a class is found by bisecting the ranking on its own key, and
    a count vector is recovered from its canonical index in closed form."""

    __slots__ = ("tables", "floor", "reach", "step", "reached", "budget")

    def __init__(self, n: int, m: int, tables: list[list[float]]) -> None:
        count = math.comb(n + m - 1, m - 1)
        super().__init__(KNOWN_SOURCE, n, m, array("d"), [], array(_unsigned_typecode(count)))
        # the mean and standard deviation of the key of a string drawn from
        # the source: n times those of -log2 p_i, with p_i = 2**-rate_i
        rates = [table[1] for table in tables]
        probs = [2.0 ** -rate for rate in rates]
        mean = math.fsum(map(operator.mul, probs, rates))
        spread = math.sqrt(n * math.fsum(p * (rate - mean) ** 2 for p, rate in zip(probs, rates)))
        self.tables, self.floor, self.step = tables, n * mean + 1.5 * spread, max(1.5 * spread, 1.0)
        self.reach, self.reached, self.budget = -math.inf, 0, count / 4

    def _extend(self, target: float) -> None:
        """Rank the classes of key in (reach, max(target, reach, floor) + step]."""
        hi = max(target, self.reach, self.floor) + self.step
        count = math.comb(self.n + self.m - 1, self.m - 1)
        keys, sizes = self.keys or array("d", bytes(8 * count)), self.sizes or [0] * count
        window = _key_window(self.tables, self.n, self.reach, hi, keys, sizes, self.budget) if hi < math.inf else None
        if window is None:
            del keys, sizes  # new columns go before the build
            self._rank_all()
            return
        order, work = window
        order.sort(key=keys.__getitem__)  # stable: a tie keeps the canonical order
        checkpoints, reached = _checkpoints(sizes, order, len(self.ranking), self.reached)
        ranking = self.ranking + array(self.ranking.typecode, order)
        step = math.inf if self.reach > -math.inf else self.step  # a third window takes every class left
        self.keys, self.sizes, self.ranking, self.checkpoints = keys, sizes, ranking, self.checkpoints + checkpoints
        self.reach, self.reached, self.step, self.budget = hi, reached, step, self.budget - work

    def _rank_all(self) -> None:
        """Rank every class by the engine's build."""
        typecode = self.ranking.typecode
        # the empty store, which holds nothing through the build
        self.keys, self.sizes, self.ranking, self.checkpoints = array("d"), [], array(typecode), []
        self.reach, self.reached = -math.inf, 0
        keys, sizes, ranking = _known_source_classes(self.tables, self.n)
        checkpoints, reached = _checkpoints(sizes, ranking, 0, 0)
        self.keys, self.sizes, self.ranking, self.checkpoints = keys, sizes, ranking, checkpoints
        self.reach, self.reached = math.inf, reached

    def _span(self, counts: tuple[int, ...]) -> tuple[int, int]:
        """(strings in all classes ranked before the class of ``counts``, its size).

        The class's key is the engine's bit for bit (the ``fsum`` of the same
        entries), so once the reach passes it one bisection finds the first
        class of that key.  Classes of equal key keep the canonical order, so
        inside a tie the class is found by bisecting the tie's canonical
        indices for its own, once a bisection on the key has found where the
        tie ends."""
        key = math.fsum(map(list.__getitem__, self.tables, counts))
        if key > self.reach:
            self._extend(key)
        ranking, by_key = self.ranking, self.keys.__getitem__
        pos, i = self._first(key), _type_index(counts)
        if ranking[pos] != i:  # another class of the same key
            pos = bisect.bisect_left(ranking, i, pos, bisect.bisect_right(ranking, key, pos, key=by_key))
        return self._offset(pos), self.sizes[i]

    def _class_at(self, k: int) -> tuple[tuple[int, ...], int, int]:
        """(counts, 0-based rank in its class, class size) of the 1-based index k."""
        if k > self.reached:
            bound = math.log2(k)  # no larger than the key of the class holding k
            if bound <= max(self.reach, self.floor) + self.step:
                self._extend(bound)
            if k > self.reached:  # an atypical index: rank every class left
                self._extend(math.inf)
        pos, offset = self._unit(k)
        i = self.ranking[pos]
        return _type_at_index(self.n, self.m, i), k - 1 - offset, self.sizes[i]


def _key_tables(p: SourcePmf, n: int) -> list[list[float]]:
    """Per symbol, the table entry c * -log2 p_i at c = 0..n (0.0 at c = 0).
    The fsum of one entry per symbol is a class's sort key: minus its log2
    per-string probability.  ``fsum`` is correctly rounded, so the key does
    not depend on the order in which the entries are added; negation is
    exact and rounding symmetric, so it is bit for bit minus the fsum of
    the entries c*log2 p_i."""
    return [[0.0] + [c * -lp for c in range(1, n + 1)] for lp in p.log2_probs()]


def _known_source_classes(tables: list[list[float]], n: int) -> tuple[array, list[int], array]:
    """The engine's columns from the key ``tables`` of :func:`_key_tables`
    (one per symbol): ``keys[i]`` (minus the log2 per-string probability)
    and ``sizes[i]`` of class i in canonical order, and the ranking, the
    class indices by decreasing per-string probability with ties in
    canonical order: a stable sort on the float key alone.

    The sort's peak and the sizes' never overlap.  One walk of
    :func:`~pragrate.types_census._class_rows` fills the keys (a key is the
    ``fsum`` of a row) as an exact-length list of floats, so the sort's key
    function boxes none; the sort's list is narrowed at once to an index
    array and the keys packed back into an array, which frees their int and
    float objects; only then are the sizes streamed
    (:func:`~pragrate.types_census._class_sizes`)."""
    # through an array: list() of a map over-allocates as it grows
    keys, m = array("d", map(math.fsum, _class_rows(tables, n))), len(tables)
    del tables  # where the caller keeps no reference, they go before the keys unbox and sort
    keys = keys.tolist()
    ranking = array(_unsigned_typecode(len(keys)), sorted(range(len(keys)), key=keys.__getitem__))
    keys = array("d", keys)  # frees the floats before the sizes walk
    return keys, _class_sizes(n, m), ranking


def _check_log2_epsilon(x: float) -> float:
    """``x`` as a float below 0, or -inf (epsilon = 0)."""
    return check_real("log2_epsilon", x, -math.inf, 0, lo_open=False, need="be negative (epsilon < 1)")


@dataclass(frozen=True)
class LengthDistribution:
    """Tail probabilities P(codeword length >= L) of the optimal or the
    universal one-to-one code.

    ``log2_tails[L]`` is log2 of the tail at L, for L = 0..max_length+1
    (the last entry is -inf).  ``exact_tails`` mirrors them as exact
    rationals when the source allowed exact arithmetic.
    """

    n: int
    m: int
    log2_tails: tuple[float, ...]
    exact_tails: tuple[Fraction, ...] | None = None

    @property
    def max_length(self) -> int:
        return len(self.log2_tails) - 2

    def log2_tail(self, length: int) -> float:
        """log2 P(codeword length >= ``length``): 0.0 at or below 0, -inf past
        the longest codeword.  A non-integer length (a bool too) is refused."""
        check_integer("codeword length", length)
        if length <= 0:
            return 0.0
        if length >= len(self.log2_tails):
            return NEG_INF
        return self.log2_tails[length]

    def tail(self, length: int) -> float:
        lt = self.log2_tail(length)
        return 0.0 if lt < -1074.0 else 2.0 ** lt

    def optimal_rate(self, log2_epsilon: float) -> float:
        """(L* - 1)/n with L* = min{L : log2 P(length >= L) <= log2_epsilon}."""
        log2_epsilon = _check_log2_epsilon(log2_epsilon)  # so the last tail, -inf, meets it
        length = next(L for L, log2_tail in enumerate(self.log2_tails) if log2_tail <= log2_epsilon)
        return (length - 1) / self.n


def _log2_tails(
    keys: Sequence[float], sizes: Sequence[int], ranking: Sequence[int], total: int
) -> tuple[float, ...]:
    """log2 tails at every length from the columns of
    :func:`_known_source_classes`: per class its sort key and size, the
    class indices in code order, and ``total``, the strings in all classes.

    One pass walks the ranking from the last class.  It keeps the ranks not
    yet passed, the logaddexp2 suffix chain over log2(size) - key (with
    :func:`~pragrate.numerics.logaddexp2` inlined) and the next boundary
    2**L, from the largest at most ``total`` down to 2.  A boundary that
    falls inside class c leaves ``remaining - 2**L + 1`` of its strings in
    the tail, next to the chain past c."""
    log2, log1p = math.log2, math.log1p
    tails, boundary = [], 1 << (total.bit_length() - 1)
    remaining, s = total, NEG_INF  # ranks 1 .. remaining lie in classes not yet passed
    for c in reversed(ranking):
        key, start = keys[c], remaining - sizes[c]
        while start < boundary > 1:  # class c holds rank boundary = 2**L
            # the surviving count can have O(n) bits, so only its log is taken
            tails.append(logaddexp2(log2(remaining - boundary + 1) - key, s))
            boundary >>= 1
        a = log2(sizes[c]) - key
        # s = logaddexp2(a, s); a is finite, and s = -inf gives d = -inf
        if a >= s:
            hi, d = a, s - a
        else:
            hi, d = s, a - s
        s = hi if d < -1075.0 else hi + log1p(2.0 ** d) * LOG2E
        remaining = start
    return (0.0, *reversed(tails), NEG_INF)


def build_ordering(
    mode: str,
    n: int,
    m: int,
    source: SourcePmf | None = None,
    *,
    cap_types: int = DEFAULT_TYPE_CAP,
) -> CodeOrdering:
    """Construct the shared code ordering, a store in the one layout of
    :class:`CodeOrdering`.

    In known-source mode the store is built empty, with the key tables
    that its key windows and its lookups read: each lookup past the
    store's reach ranks one more window of keys, the classes that
    :func:`~pragrate.types_census._key_window` finds by a walk pruned to
    the runs that can reach it.  The first window reaches three standard
    deviations of a source string's key past its mean, unless the lookup
    asks for more; the second window steps as far past its target, and a
    third takes every class left, by the engine's build, as does a window
    whose walk would pass the store's budget (see :class:`_RankedClasses`).
    A lookup may so change the store: an ordering is not to be shared
    between threads.  The cap counts every class all the same.  In
    universal mode any ``source`` argument is ignored, so every codeword is
    byte-identical whatever is passed, and ``cap_types`` counts the m parts
    that the store keeps of each partition of n, not the type classes.
    """
    if mode == KNOWN_SOURCE and source is not None:
        check_source(source)
    _check_walk_cap(n, m, cap_types, per_orbit=m if mode == UNIVERSAL else 0)
    if mode == UNIVERSAL:
        return _EntropyColumns(n, m)
    if mode != KNOWN_SOURCE:
        raise DomainError(f"unknown ordering mode {mode!r}")
    if source is None:
        raise DomainError("known-source ordering requires a source pmf")
    if source.m != m:
        raise DomainError("source alphabet size disagrees with m")
    return _RankedClasses(n, m, _key_tables(source, n))


def _check_ordering(ordering: object) -> None:
    """Refuse ``ordering`` unless it is a CodeOrdering, as :func:`build_ordering` returns."""
    if not isinstance(ordering, CodeOrdering):
        raise DomainError(f"an ordering must be a CodeOrdering, got {describe(ordering)}")


def string_index(ordering: CodeOrdering, x: Sequence[int]) -> int:
    """1-based index of string ``x`` in the ordering: its class's offset,
    which the ordering answers with the class's size, plus its rank in the
    class.  ``x`` is counted once; ``bytes`` is the fastest sequence."""
    _check_ordering(ordering)
    check_string(x)
    if len(x) != ordering.n:
        raise DomainError(f"string length {len(x)} != blocklength {ordering.n}")
    counts = _string_counts(x, ordering.m)  # refuses a symbol outside 0 .. m-1
    counts += [0] * (ordering.m - len(counts))
    offset, size = ordering._span(tuple(counts))
    return offset + _rank(x, counts, size) + 1


def encode(ordering: CodeOrdering, x: Sequence[int]) -> Codeword:
    """Map a string to its codeword: binary expansion of its index, sans leading 1."""
    return Codeword.from_index(string_index(ordering, x))


def decode(ordering: CodeOrdering, codeword: Codeword) -> tuple[int, ...]:
    """Exact inverse of :func:`encode`."""
    _check_ordering(ordering)
    if not isinstance(codeword, Codeword):
        raise CodewordError(f"a codeword must be a Codeword, got {describe(codeword)}")
    k = codeword.to_index()
    if k > ordering.total:
        raise CodewordError(
            f"index {describe(k)} exceeds the {describe(ordering.total)} strings of this ordering"
        )
    counts, rank, size = ordering._class_at(k)
    return _unrank(list(counts), size, rank)


def universal_length_distribution(
    p: SourcePmf, n: int, *, cap_types: int = DEFAULT_TYPE_CAP
) -> LengthDistribution:
    """Length distribution of the universal code under the source p.

    The classes come in the universal order, which ignores p; p only sets
    each class's per-string probability.  ``cap_types`` counts classes
    times m, the counts that the tails list.  Memoized on (p, n) once the
    arguments are checked, so an unhashable one is refused like any bad
    value: an entry holds n+2 floats, and each further tail read is free.
    """
    check_source(p)
    _check_walk_cap(n, p.m, cap_types, per_class=p.m)  # the tails list every class as m counts
    return _universal_length_distribution(p, n)


@functools.lru_cache(maxsize=64)
def _universal_length_distribution(p: SourcePmf, n: int) -> LengthDistribution:
    """The memoized body of :func:`universal_length_distribution`, keyed on
    its checked arguments (the cap only admits or refuses them)."""
    tables, keys, sizes = _key_tables(p, n), array("d"), []
    for order, size in _EntropyColumns(n, p.m)._orbits():  # one orbit at a time
        keys.extend(math.fsum(map(list.__getitem__, tables, counts)) for counts in order)
        sizes += itertools.repeat(size, len(order))
    tails = _log2_tails(keys, sizes, range(len(sizes)), p.m ** n)  # already in code order
    return LengthDistribution(n=n, m=p.m, log2_tails=tails)


def universal_excess_probability(
    p: SourcePmf, n: int, length: int, *, cap_types: int = DEFAULT_TYPE_CAP
) -> float:
    """Exact P(codeword length >= ``length``) for the universal code under p:
    one read of :func:`universal_length_distribution`."""
    check_source(p)
    check_integer("codeword length", length)  # before the distribution is built
    return universal_length_distribution(p, n, cap_types=cap_types).tail(length)
