"""Working one-to-one encoders/decoders over fixed-blocklength strings.

Two orderings of A^n are supported, both total orders of the form
"type order, then lexicographic within the type class":

* known-source: type classes sorted by decreasing per-string probability
  under a given source pmf (the ordering of the optimal compressor);
* universal: type classes sorted by increasing empirical entropy, with no
  reference to any source.

Classes whose float sort keys are equal keep the canonical (ascending lex)
type order in both modes.  The known-source build gets this from a stable
sort, on the float key alone, of the classes listed in canonical order; the
key is the ``fsum`` of per-symbol table entries c * -log2 p_i, computed by
one C-level ``map`` per run of classes that differ only in their last two
counts.  The universal ordering is stored as columns, one entry per
partition of n (each stands for the permutation orbit of the count vectors
that rearrange it): one pass over the partitions computes each one's float
entropy and the strings of its orbit, and a stable sort on the entropy
alone groups them into levels of equal entropy.  The store keeps the level
entropies in an ``array('d')``, the partitions packed in code order (m-1
small parts each), each level's first partition and one cumulative
big-integer offset per level; no tuple and no exact size per partition
outlive the build.  Inside a level the count vectors come in lex order.
Since ``fsum`` is correctly rounded whatever the order of its terms, every
vector of an orbit has its partition's entropy bit for bit, so this equals
a sort of all C(n+m-1, m-1) classes on (entropy, counts), and a class's
level is found by bisecting the level entropies with
:func:`~pragrate.types_census.type_entropy_bits` of its counts: no map from
partitions to levels is kept.  A single-orbit level's classes all have one
size, the level's strings over the orbit's arrangements, so a class's
offset is the level's plus that size times the lex rank of its count vector
among the rearrangements of the partition: the codec ranks (and unranks)
twice, once over the multiset of counts and once over the string, and never
lists the classes.  The rare level of several orbits (distinct partitions
with equal float entropy) is expanded when a string falls in it.  One
method, ``_vectors``, decodes the packed partitions, for the codec and for
the universal code's length distribution, which streams the same levels.

The known-source ordering is stored as the engine's columns (below): the
class sizes in canonical order and the ranking, plus one cumulative
big-integer offset every ``_OFFSET_STRIDE`` ranked classes.  Enumerative
coding (Cover, 1973) needs nothing more.  A class's offset is the offset
stored before its rank position plus fewer than ``_OFFSET_STRIDE`` sizes;
the position is the inverse ranking, built on the first encode, at the
count vector's canonical index (:func:`~pragrate.types_census.type_index`,
in closed form).  Decoding bisects the stored offsets, walks at most one
stride of sizes and unranks the canonical index back to a count vector
(:func:`~pragrate.types_census.type_at_index`).  Neither ordering lists
its classes.

The k-th string (1-based) receives the binary expansion of k with its
leading 1 removed, a codeword of length floor(log2 k); k = 1 maps to the
empty codeword.  Encoding is big-integer index arithmetic: the offset of the
string's type class plus its lexicographic rank inside the class
(:func:`~pragrate.types_census.rank_in_type_class`), so n in the hundreds
is routine.  Decoding inverts exactly.  The rank and its inverse
(:mod:`pragrate.types_census`) cost one multiply and one exact
division per symbol once two symbols are left in the rest of the string,
which at m = 2 is every symbol.

The length distribution of either code under a memoryless source is
evaluated exactly by type aggregation, including the split of the class
straddling a 2**L boundary.  This module holds the package's one
ranked-class engine: the known-source class ranking, the type cap check,
the lookup of the class holding a given rank and the one float tail routine
(``_log2_tails``, which fills a :class:`LengthDistribution`) serve the
codecs, the universal code's length distribution and the optimal-code tails
of :mod:`pragrate.exact_limits` alike.  The checks that stay independent of
it are the brute-force string oracle ``exact_limits.brute_force_limits``
and the tests that enumerate every string.

The engine is columnar (``_known_source_classes``): per class it keeps a sort
key in an ``array('d')`` and an exact size, both in canonical order, and
the ranking is an index array.  Count vectors are built only for exact
mode, by enumerating the classes again.  The tails take two passes over
the ranking.  The forward pass (``_straddles``) keeps one running
big-integer offset and records, at each 2**L, the straddling class and how
many of its strings survive.  The backward pass runs the logaddexp2 suffix
chain over log2(size) - key and keeps it only at the recorded classes.  So
a length distribution holds O(n) records beyond its columns, not an offset
and a suffix per class.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .distributions import SourcePmf
from .errors import CodewordError, DomainError, InvariantViolation, ResourceLimitError
from .numerics import LOG2E, NEG_INF, logaddexp2
from .types_census import (
    DEFAULT_TYPE_CAP,
    _distinct_permutations,
    _iter_partitions,
    _iter_prefixes,
    check_integer,
    count_types,
    rank_in_type_class,
    type_at_index,
    type_class_size,
    type_entropy_bits,
    type_index,
    unrank_in_type_class,
)

KNOWN_SOURCE = "known-source"
UNIVERSAL = "universal"
_OFFSET_STRIDE = 64  # ranked classes per stored offset of the known-source codec


@dataclass(frozen=True)
class Codeword:
    """A binary codeword: the index's binary expansion minus its leading 1."""

    bits: str

    def __post_init__(self) -> None:
        if self.bits.strip("01"):
            raise CodewordError(f"codeword must be over '0'/'1': {self.bits!r}")

    @property
    def length(self) -> int:
        return len(self.bits)

    @classmethod
    def from_index(cls, k: int) -> "Codeword":
        if k < 1:
            raise CodewordError(f"codeword index must be >= 1, got {k}")
        return cls(bin(k)[3:])

    def to_index(self) -> int:
        return int("1" + self.bits, 2) if self.bits else 1


def _unsigned_typecode(bound: int) -> str:
    """The narrowest unsigned array typecode that holds 0 .. ``bound``."""
    return next(code for code in "BHIQ" if bound < 1 << 8 * array(code).itemsize)


def _level_classes(
    vectors: Iterable[tuple[int, ...]], strings: int,
    getters: dict[tuple[int, ...], list[itemgetter]],
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Count vectors and class sizes, in lex order, of the entropy level of
    the partitions ``vectors`` (ascending count vectors), whose classes hold
    ``strings`` strings in all.

    An orbit's shape maps each slot of its ascending vector to the first
    slot holding the same value.  That index rises with the value, so the
    shape's distinct permutations, as itemgetters on the ascending vector,
    list the orbit in lex order; orbits of one shape share the getters,
    cached in ``getters``."""
    orbits = []
    for asc in vectors:
        shape = tuple(map(asc.index, asc))
        if shape not in getters:
            getters[shape] = [itemgetter(*idx) for idx in _distinct_permutations(shape)]
        orbits.append((asc, [g(asc) for g in getters[shape]]))
    if len(orbits) == 1:
        order = orbits[0][1]  # its length is the orbit's arrangements
        return order, [strings // len(order)] * len(order)
    # orbits are disjoint, so the sort never compares sizes
    level = sorted((counts, type_class_size(asc)) for asc, order in orbits for counts in order)
    return [counts for counts, _ in level], [size for _, size in level]


class CodeOrdering:
    """A total order on A^n shared by encoder and decoder.

    Each ordering is its own store, and neither lists its classes: the
    known-source one keeps the engine's columns and an offset every
    ``_OFFSET_STRIDE`` ranked classes, the universal one its entropy levels
    as columns.
    Both answer the two questions of enumerative coding: ``class_offset``
    (the strings in all classes before a given one) and ``locate`` (the
    class holding a given index, and the index's rank inside it).
    """

    __slots__ = ("mode", "n", "m", "total")

    def __init__(self, mode: str, n: int, m: int) -> None:
        self.mode, self.n, self.m, self.total = mode, n, m, m ** n


class _EntropyColumns(CodeOrdering):
    """The universal order kept as columns (see the module docstring): the
    level ``entropies`` ascending; ``parts``, the partitions of n packed in
    code order, m-1 parts each, ascending (the last part is n minus the
    others); ``starts[i]``, the code-order index of level i's first
    partition (the partition count last); and ``offsets[i]``, the
    strings in all earlier levels (m**n last).  No per-partition tuple or
    size is kept: a single-orbit level's class size is its strings divided
    by its arrangements.  ``_vectors`` is the one decoder of ``parts``.  No
    level's classes are listed unless it holds several orbits and a string
    falls in it, or the tails walk it."""

    __slots__ = ("entropies", "starts", "parts", "offsets")

    def __init__(self, n: int, m: int) -> None:
        super().__init__(UNIVERSAL, n, m)
        keys, canonical, strings = array("d"), array(_unsigned_typecode(n)), []
        log2, fsum, log2_n = math.log2, math.fsum, math.log2(n)
        term = [0.0, *(c * log2(c) for c in range(1, n + 1))].__getitem__  # c * log2(c)
        for parts, size, arrangements in _iter_partitions(n, m):
            # type_entropy_bits(parts), bit for bit, without its call overhead:
            # fsum is correctly rounded, so the zero parts' 0.0 terms change nothing
            keys.append(max(log2_n - fsum(map(term, parts)) / n, 0.0))
            canonical.extend(parts)
            strings.append(size * arrangements)  # the strings of the partition's orbit
        # a stable sort on the entropy alone makes each level one block, its
        # partitions in descending lex order
        count = len(keys)
        ranking = array(_unsigned_typecode(count), sorted(range(count), key=keys.__getitem__))
        keys = array("d", [keys[j] for j in ranking])  # now in code order
        first = [True, *map(operator.ne, keys[1:], keys), True]  # opens a level, or ends the last
        # the orbits' strings in code order, popped from the end of a list
        # that holds them last first (None stops the pops): each is freed as
        # the running total passes it, so the build never holds two big
        # integers per partition
        pending = [None, *map(strings.__getitem__, reversed(ranking))]
        del strings
        totals = itertools.accumulate(iter(pending.pop, None), initial=0)
        self.offsets = list(itertools.compress(totals, first))
        self.entropies = array("d", itertools.compress(keys, first))
        self.starts = array(ranking.typecode, itertools.compress(range(count + 1), first))
        width, typecode = m - 1, canonical.typecode
        self.parts = array(typecode, bytes(count * width * canonical.itemsize))
        for i in range(width):  # the smallest m-1 parts, ascending, in code order
            column = canonical[m - 1 - i::m]
            self.parts[i::width] = array(typecode, [column[j] for j in ranking])

    def _vectors(self, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
        """The ascending count vectors of partitions lo .. hi-1 in code
        order: the m-1 strided slices of ``parts``, and n minus their sum."""
        width = self.m - 1
        heads = [self.parts[lo * width + i:hi * width:width] for i in range(width)]
        largest = map(operator.sub, itertools.repeat(self.n), map(sum, zip(*heads)))
        return zip(*heads, largest)

    def _class_size(self, i: int, multiplicities: list[int]) -> int:
        """The class size of single-orbit level i, whose partition repeats
        its distinct values ``multiplicities`` times: the level's strings
        over the orbit's arrangements, m! / prod(multiplicity!)."""
        factorial = math.factorial
        arrangements = factorial(self.m) // math.prod(map(factorial, multiplicities))
        return (self.offsets[i + 1] - self.offsets[i]) // arrangements

    def _level(self, i: int) -> tuple[list[tuple[int, ...]], list[int]]:
        """Count vectors and class sizes of level i in lex order."""
        vectors = self._vectors(self.starts[i], self.starts[i + 1])
        return _level_classes(vectors, self.offsets[i + 1] - self.offsets[i], {})

    def _levels(self) -> Iterator[tuple[list[tuple[int, ...]], list[int]]]:
        """Count vectors and class sizes of every level, in code order, from one stream."""
        getters: dict[tuple[int, ...], list[itemgetter]] = {}
        vectors = self._vectors(0, self.starts[-1])
        strings = map(operator.sub, self.offsets[1:], self.offsets)
        for lo, hi, level_strings in zip(self.starts, self.starts[1:], strings):
            yield _level_classes(itertools.islice(vectors, hi - lo), level_strings, getters)

    def class_offset(self, counts: tuple[int, ...]) -> int:
        h = type_entropy_bits(counts)
        i = bisect.bisect_left(self.entropies, h)
        if i == len(self.entropies) or self.entropies[i] != h:
            raise InvariantViolation(f"no entropy level of the universal ordering holds {counts}")
        if self.starts[i + 1] - self.starts[i] > 1:
            order, sizes = self._level(i)
            return self.offsets[i] + sum(sizes[:order.index(counts)])
        values = sorted(set(counts))  # the orbit's vectors are the strings over these
        size = self._class_size(i, list(map(counts.count, values)))
        return self.offsets[i] + size * rank_in_type_class(list(map(values.index, counts)), len(values))

    def locate(self, k: int) -> tuple[tuple[int, ...], int]:
        """(counts, 0-based rank in its class) of the 1-based index k."""
        i, _ = _straddling_class(self.offsets, k)
        rest = k - 1 - self.offsets[i]
        if self.starts[i + 1] - self.starts[i] > 1:
            order, sizes = self._level(i)
            starts = list(itertools.accumulate(sizes, initial=0))
            pos, _ = _straddling_class(starts, rest + 1)
            return order[pos], rest - starts[pos]
        asc = next(self._vectors(self.starts[i], self.starts[i] + 1))
        values = sorted(set(asc))
        multiplicities = list(map(asc.count, values))
        rank, within = divmod(rest, self._class_size(i, multiplicities))
        vector = unrank_in_type_class(multiplicities, rank)
        return tuple(map(values.__getitem__, vector)), within


class _RankedClasses(CodeOrdering):
    """The known-source order kept as the engine's columns (see the module
    docstring): ``sizes`` in canonical order, the ``ranking`` (canonical
    indices in code order) and ``checkpoints[j]``, the strings in the
    ranked classes before position j * _OFFSET_STRIDE.  The inverse of the
    ranking is built on the first encode, so a decoder never pays for it.
    No count vector is stored: a class is found through its canonical
    index, computed from the counts and back in closed form."""

    __slots__ = ("sizes", "ranking", "checkpoints", "_position")

    def __init__(self, n: int, m: int, sizes: list[int], ranking: array) -> None:
        super().__init__(KNOWN_SOURCE, n, m)
        offsets = itertools.accumulate(map(sizes.__getitem__, ranking), initial=0)
        self.checkpoints = list(itertools.islice(offsets, 0, len(ranking), _OFFSET_STRIDE))
        self.sizes, self.ranking = sizes, ranking
        self._position: array | None = None
    def class_offset(self, counts: tuple[int, ...]) -> int:
        """The strings in all classes ranked before the class of ``counts``."""
        if self._position is None:  # the inverse ranking: canonical index -> position
            ranking = self.ranking
            self._position = array(ranking.typecode, bytes(len(ranking) * ranking.itemsize))
            for pos, i in enumerate(ranking):
                self._position[i] = pos
        pos = self._position[type_index(counts)]
        start = pos - pos % _OFFSET_STRIDE
        return self.checkpoints[pos // _OFFSET_STRIDE] + sum(
            map(self.sizes.__getitem__, self.ranking[start:pos]))

    def locate(self, k: int) -> tuple[tuple[int, ...], int]:
        """(counts, 0-based rank in its class) of the 1-based index k."""
        j = bisect.bisect_left(self.checkpoints, k) - 1
        block = self.ranking[j * _OFFSET_STRIDE:(j + 1) * _OFFSET_STRIDE]
        ranked_sizes = map(self.sizes.__getitem__, block)
        starts = list(itertools.accumulate(ranked_sizes, initial=self.checkpoints[j]))
        pos, _ = _straddling_class(starts, k)
        return type_at_index(self.n, self.m, block[pos]), k - 1 - starts[pos]


def _key_tables(p: SourcePmf, n: int) -> list[list[float]]:
    """Per symbol, the table entry c * -log2 p_i at c = 0..n (0.0 at c = 0).
    The fsum of one entry per symbol is a class's sort key: minus its log2
    per-string probability.  ``fsum`` is correctly rounded, so the key does
    not depend on the order in which the entries are added; negation is
    exact and rounding symmetric, so it is bit for bit minus the fsum of
    the entries c*log2 p_i."""
    return [[0.0] + [c * -lp for c in range(1, n + 1)] for lp in p.log2_probs()]


def _canonical_columns(n: int, m: int, tables: list[list[float]]) -> tuple[array, list[int]]:
    """Sort keys and class sizes of every class in canonical order.

    Each prefix from :func:`~pragrate.types_census._iter_prefixes` (the
    first m-2 counts) is one run; its last two slots, (c, r - c) for
    c = 0..r, are unrolled here, so no count vector is built.  Along those
    two slots the size is symmetric, C(r, c) = C(r, r - c), so the second
    half of each run reuses the first half's integers: equal sizes share
    one object.  A run's keys come from one C-level ``map(fsum, zip(...))``
    over the prefix's table entries, repeated, and the last two slots'
    entries at (c, r - c)."""
    keys, sizes, fsum, repeat = array("d"), [], math.fsum, itertools.repeat
    left, right = tables[-2], tables[-1]
    for prefix, r, coeff in _iter_prefixes(n, m - 2, (), 1):
        heads = [repeat(t[c], r + 1) for t, c in zip(tables, prefix)]
        keys.extend(map(fsum, zip(*heads, left[:r + 1], right[r::-1])))
        half = [coeff]  # coeff * C(r, c) for c = 0 .. r // 2
        for c in range(r // 2):
            half.append(half[-1] * (r - c) // (c + 1))
        sizes += half
        sizes += half[-2::-1] if r % 2 == 0 else half[::-1]
    return keys, sizes


def _known_source_classes(n: int, m: int, source: SourcePmf) -> tuple[array, list[int], array]:
    """The engine's columns: ``keys[i]`` (minus the log2 per-string
    probability) and ``sizes[i]`` of class i in canonical order, and the
    ranking, the class indices by decreasing per-string probability with
    ties in canonical order: a stable sort on the float key alone.  No count
    vector is kept; a caller that needs them (exact mode) enumerates the
    classes again in canonical order."""
    keys, sizes = _canonical_columns(n, m, _key_tables(source, n))
    ranking = array(_unsigned_typecode(len(keys)), sorted(range(len(keys)), key=keys.__getitem__))
    return keys, sizes, ranking


def _check_type_cap(n: int, m: int, cap_types: int) -> None:
    """Refuse to rank more than ``cap_types`` type classes; a cap that is
    not an integer >= 1 is bad input, not a limit."""
    total = count_types(n, m)
    check_integer("cap_types", cap_types, 1)
    if total > cap_types:
        raise ResourceLimitError(
            f"{total} type classes at n={n}, m={m} exceeds the cap of {cap_types}"
        )


def _straddling_class(offsets: Sequence[int], rank: int) -> tuple[int, int]:
    """(pos, surviving): class ``pos`` holds the 1-based ``rank``, and
    ``surviving`` of its ranks lie at or past it.

    Class pos covers ranks offsets[pos]+1 .. offsets[pos+1]; the rank must
    lie in 1 .. offsets[-1].  At rank 2**L this is the class that the
    boundary of codeword length L splits."""
    pos = bisect.bisect_left(offsets, rank) - 1
    return pos, offsets[pos + 1] - rank + 1


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
        if not log2_epsilon < 0.0:
            raise DomainError("log2_epsilon must be negative (epsilon < 1)")
        for length, log2_tail in enumerate(self.log2_tails):
            if log2_tail <= log2_epsilon:
                return (length - 1) / self.n
        raise DomainError("no admissible length found")  # pragma: no cover


def _straddles(ranked_sizes: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The forward pass: (pos, surviving) for L = 1, 2, ... while 2**L is
    at most the number of strings.  Class ``pos`` (in code order) holds the
    1-based rank 2**L, and ``surviving`` of its ranks lie at or past it, as
    :func:`_straddling_class` finds them, from one running offset."""
    boundary, end = 2, 0  # end: the ranks in classes 0 .. pos
    for pos, size in enumerate(ranked_sizes):
        end += size
        while boundary <= end:
            yield pos, end - boundary + 1
            boundary <<= 1


def _log2_tails(
    keys: Sequence[float], sizes: Sequence[int], ranking: Sequence[int]
) -> tuple[float, ...]:
    """log2 tails at every length from the columns of
    :func:`_known_source_classes`: per class its sort key and size, and the
    class indices in code order.

    The forward pass (:func:`_straddles`) splits the class straddling each
    2**L.  The backward pass runs the logaddexp2 suffix chain over
    log2(size) - key from the last class down, with
    :func:`~pragrate.numerics.logaddexp2` inlined, and keeps the chain only
    just past the recorded classes."""
    log2, log1p = math.log2, math.log1p
    # surviving counts can have O(n) bits each, so only their logs are kept
    ranked_sizes = map(sizes.__getitem__, ranking)
    records = [(pos, log2(partial)) for pos, partial in _straddles(ranked_sizes)]
    past: dict[int, float] = {}  # pos -> log2 mass of the classes after pos
    s, end = NEG_INF, len(ranking)
    for pos, _ in reversed(records):
        if pos in past:
            continue
        for c in reversed(ranking[pos + 1:end]):
            a = log2(sizes[c]) - keys[c]
            # s = logaddexp2(a, s); a is finite, and s = -inf gives d = -inf
            if a >= s:
                hi, d = a, s - a
            else:
                hi, d = s, a - s
            s = hi if d < -1075.0 else hi + log1p(2.0 ** d) * LOG2E
        past[pos] = s
        end = pos + 1
    tails = [0.0]
    for pos, log2_partial in records:
        tails.append(logaddexp2(log2_partial - keys[ranking[pos]], past[pos]))
    tails.append(NEG_INF)
    return tuple(tails)


def build_ordering(
    mode: str,
    n: int,
    m: int,
    source: SourcePmf | None = None,
    *,
    cap_types: int = DEFAULT_TYPE_CAP,
) -> CodeOrdering:
    """Construct the shared code ordering.

    In universal mode any ``source`` argument is ignored entirely; the
    resulting ordering (hence every codeword) is byte-identical whatever is
    passed.
    """
    _check_type_cap(n, m, cap_types)  # count_types checks n and m
    if mode == UNIVERSAL:
        return _EntropyColumns(n, m)
    if mode != KNOWN_SOURCE:
        raise DomainError(f"unknown ordering mode {mode!r}")
    if source is None:
        raise DomainError("known-source ordering requires a source pmf")
    if source.m != m:
        raise DomainError("source alphabet size disagrees with m")
    _, sizes, ranking = _known_source_classes(n, m, source)
    return _RankedClasses(n, m, sizes, ranking)


def string_index(ordering: CodeOrdering, x: Sequence[int]) -> int:
    """1-based index of string ``x`` in the ordering."""
    if len(x) != ordering.n:
        raise DomainError(f"string length {len(x)} != blocklength {ordering.n}")
    rank = rank_in_type_class(x, ordering.m)  # refuses a symbol outside 0 .. m-1
    return ordering.class_offset(tuple(map(x.count, range(ordering.m)))) + rank + 1


def encode(ordering: CodeOrdering, x: Sequence[int]) -> Codeword:
    """Map a string to its codeword: binary expansion of its index, sans leading 1."""
    return Codeword.from_index(string_index(ordering, x))


def decode(ordering: CodeOrdering, codeword: Codeword) -> tuple[int, ...]:
    """Exact inverse of :func:`encode`."""
    k = codeword.to_index()
    if k > ordering.total:
        raise CodewordError(
            f"index {k} exceeds the {ordering.total} strings of this ordering"
        )
    return unrank_in_type_class(*ordering.locate(k))


@functools.lru_cache(maxsize=64, typed=True)  # typed: True or 1.0 never hits n=1's entry
def universal_length_distribution(
    p: SourcePmf, n: int, *, cap_types: int = DEFAULT_TYPE_CAP
) -> LengthDistribution:
    """Length distribution of the universal code under the source p.

    The classes come in the universal order, which ignores p; p only sets
    each class's per-string probability.  Memoized on (p, n, cap_types):
    an entry holds n+2 floats, and each further tail read is free.
    """
    _check_type_cap(n, p.m, cap_types)
    tables, keys, sizes = _key_tables(p, n), array("d"), []
    for order, level_sizes in _EntropyColumns(n, p.m)._levels():  # one level at a time
        keys.extend(math.fsum(map(list.__getitem__, tables, counts)) for counts in order)
        sizes += level_sizes
    tails = _log2_tails(keys, sizes, range(len(sizes)))  # already in code order
    return LengthDistribution(n=n, m=p.m, log2_tails=tails)


def universal_excess_probability(
    p: SourcePmf, n: int, length: int, *, cap_types: int = DEFAULT_TYPE_CAP
) -> float:
    """Exact P(codeword length >= ``length``) for the universal code under p:
    one read of :func:`universal_length_distribution`."""
    return universal_length_distribution(p, n, cap_types=cap_types).tail(length)
