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
that rearrange it), built by two walks of the runs of partitions
(:func:`~pragrate.types_census._iter_runs`, which walks the known-source
runs too) around one stable sort.  The
first walk lists each partition's parts and float entropy.  A stable sort
on the entropy alone groups the partitions into levels of equal entropy;
its ranking gives the level entropies (an ``array('d')``), each level's
first partition and the partitions packed in code order (m-1 small parts
each), and the canonical columns are dropped; what is left of the ranking
is each partition's level, a small index per partition.  No class size
exists while the partitions sort: the second walk computes the strings of
each orbit in canonical order, by the binomial recurrence along each run,
and adds them to their level's strings.  No tuple and no exact size per
partition outlive the build.  Inside a level the count vectors come in lex
order.
Since ``fsum`` is correctly rounded whatever the order of its terms, every
vector of an orbit has its partition's entropy bit for bit, so this equals
a sort of all C(n+m-1, m-1) classes on (entropy, counts), and a class's
level is found by bisecting the level entropies with
:func:`~pragrate.types_census.type_entropy_bits` of its counts: no map from
partitions to levels is kept.  A single-orbit level's classes all have one
size, the level's strings over the orbit's arrangements, so a class's
offset is its level's plus that size times the lex rank of its count vector
among the rearrangements of the partition: the codec ranks (and unranks)
twice, once over the multiset of counts and once over the string, and never
lists the classes.  The rare level of several orbits (distinct partitions
with equal float entropy) is expanded when a string falls in it.  One
method, ``_vectors``, decodes the packed partitions, for the codec and for
the universal code's length distribution, which streams the same levels.

The known-source ordering is stored as the engine's ranking (below) and
the class sizes in code order.  Both orderings share one offset structure
for enumerative coding (Cover, 1973): the sizes of their units (ranked
classes or entropy levels) in code order and a cumulative offset every
``_OFFSET_STRIDE`` units, so a unit's offset is a checkpoint plus fewer
than ``_OFFSET_STRIDE`` sizes, and the unit holding an index is found by
bisecting the checkpoints and walking one stride.  A known-source class's
position is the inverse ranking, built on the first encode, at its count
vector's canonical index (:func:`~pragrate.types_census.type_index`, in
closed form); decoding maps the ranked class back to a count vector
(:func:`~pragrate.types_census.type_at_index`).  Neither ordering lists
its classes.

The k-th string (1-based) receives the binary expansion of k with its
leading 1 removed, a codeword of length floor(log2 k); k = 1 maps to the
empty codeword.  Encoding is big-integer index arithmetic: the offset of the
string's type class plus its lexicographic rank inside the class, so n in
the hundreds is routine.  Decoding inverts exactly.  A string is checked
and counted once (``x.count`` per symbol, at C speed on ``bytes``, which
is how the CLI hands each line over), and the ordering answers a class's
offset together with its size (``_span``, and ``_class_at`` to decode):
the size is read from the ordering's ``sizes``, or in a single-orbit
entropy level is the level's strings over the orbit's arrangements, so no
multinomial is computed per string.  The rank and its inverse
(:func:`~pragrate.types_census._rank`, :func:`~pragrate.types_census._unrank`)
take those counts and that size, and cost one multiply and one exact
division per symbol once two symbols are left in the rest of the string,
which at m = 2 is every symbol.

The length distribution of either code under a memoryless source is
evaluated exactly by type aggregation, including the split of the class
straddling a 2**L boundary.  This module holds the package's one
ranked-class engine: the known-source class ranking, the type cap check
and the one float tail routine (``_log2_tails``, which fills a
:class:`LengthDistribution`) serve the codecs, the universal code's length
distribution and the optimal-code tails of :mod:`pragrate.exact_limits`
alike.  The checks that stay independent of it are the tests that
enumerate every string, the brute-force oracle ``brute_force_limits`` of
``tests/conftest.py`` among them.

The engine is columnar (``_known_source_classes``): per class it keeps a sort
key in an ``array('d')`` and an exact size, both in canonical order, and
the ranking, the class indices in code order as an index array.  Like the
universal store it sorts before any class size exists: one walk of the
runs fills the keys, the sort's list is narrowed at once to the index
array, and a second walk computes the sizes.  No count vector is built:
exact mode reduces the same runs' rows to integer weights.  The tails
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
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .distributions import SourcePmf
from .errors import CodewordError, DomainError, InvariantViolation, ResourceLimitError
from .inputs import check_integer, check_real, check_source, check_string, describe
from .numerics import LOG2E, NEG_INF, logaddexp2
from .types_census import (
    DEFAULT_TYPE_CAP,
    _check_n_m,
    _class_runs,
    _distinct_permutations,
    _iter_runs,
    _rank,
    _string_counts,
    _unrank,
    count_types,
    type_at_index,
    type_class_size,
    type_entropy_bits,
    type_index,
)

KNOWN_SOURCE = "known-source"
UNIVERSAL = "universal"
_OFFSET_STRIDE = 64  # units (ranked classes or entropy levels) per checkpoint of an ordering


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
    """A total order on A^n shared by encoder and decoder, as a sequence of
    units: ranked classes for the known source, entropy levels for the
    universal code.  The base holds the one offset structure of both:
    ``sizes``, the strings of each unit in code order, and
    ``checkpoints[j]``, the strings before unit j * _OFFSET_STRIDE; from a
    checkpoint, ``_offset`` and ``_unit`` walk less than one stride.  Each
    store answers the two questions of enumerative coding without listing
    its classes: ``class_offset`` (the strings in all classes before a
    given one) and ``locate`` (the class holding a given index, and the
    index's rank inside it).  Both are views of the store's ``_span`` and
    ``_class_at``, which also answer the class's size, so the codec never
    computes a multinomial per string.
    """

    __slots__ = ("mode", "n", "m", "total", "sizes", "checkpoints")

    def __init__(self, mode: str, n: int, m: int, sizes: list[int]) -> None:
        self.mode, self.n, self.m, self.total, self.sizes = mode, n, m, m ** n, sizes
        offsets = itertools.accumulate(sizes, initial=0)
        self.checkpoints = list(itertools.islice(offsets, 0, len(sizes), _OFFSET_STRIDE))

    def _offset(self, pos: int) -> int:
        """The strings in the units before unit ``pos``."""
        start = pos - pos % _OFFSET_STRIDE
        return self.checkpoints[pos // _OFFSET_STRIDE] + sum(self.sizes[start:pos])

    def _unit(self, k: int) -> tuple[int, int]:
        """(unit holding the 1-based index k, the strings before that unit)."""
        j = bisect.bisect_left(self.checkpoints, k) - 1
        block = self.sizes[j * _OFFSET_STRIDE:(j + 1) * _OFFSET_STRIDE]
        offsets = list(itertools.accumulate(block, initial=self.checkpoints[j]))
        pos = bisect.bisect_left(offsets, k) - 1  # unit pos holds offsets[pos]+1 .. offsets[pos+1]
        return j * _OFFSET_STRIDE + pos, offsets[pos]

    def class_offset(self, counts: tuple[int, ...]) -> int:
        """The strings in all classes before the class of ``counts``."""
        return self._span(counts)[0]

    def locate(self, k: int) -> tuple[tuple[int, ...], int]:
        """(counts, 0-based rank in its class) of the 1-based index k."""
        return self._class_at(k)[:2]


class _EntropyColumns(CodeOrdering):
    """The universal order kept as columns (see the module docstring): the
    level ``entropies`` ascending; ``parts``, the partitions of n packed in
    code order, m-1 parts each, ascending (the last part is n minus the
    others); and ``starts[i]``, the code-order index of level i's first
    partition (the partition count last).  The base's units are the
    levels: ``sizes[i]`` is level i's strings.  No per-partition tuple or
    size is kept: a single-orbit level's class size is its strings divided
    by its arrangements.  ``_vectors`` is the one decoder of ``parts``.  No
    level's classes are listed unless it holds several orbits and a string
    falls in it, or the tails walk it."""

    __slots__ = ("entropies", "starts", "parts")

    def __init__(self, n: int, m: int) -> None:
        # first walk: each partition's m parts, smallest first, one row per
        # partition in canonical order (descending lex); its two smallest
        # parts are rest - c and c
        rows = []
        for prefix, rest, prev, _, _, _ in _iter_runs(n, m, True):
            smaller = prefix[::-1]
            for c in range(min(prev, rest), (rest - 1) // 2, -1):
                rows += (rest - c, c, *smaller)
        canonical = array(_unsigned_typecode(n), rows)
        del rows
        # type_entropy_bits of each partition, bit for bit, without its call
        # overhead: fsum is correctly rounded, so the zero parts' 0.0 terms
        # change nothing
        log2_n, repeat = math.log2(n), itertools.repeat
        term = [0.0, *(c * math.log2(c) for c in range(1, n + 1))].__getitem__  # c * log2(c)
        sums = map(math.fsum, zip(*[map(term, canonical)] * m))  # one row's terms at a time
        unclamped = map(operator.sub, repeat(log2_n), map(operator.truediv, sums, repeat(n)))
        keys = array("d", map(max, unclamped, repeat(0.0)))
        # a stable sort on the entropy alone makes each level one block, its
        # partitions in descending lex order; no class size exists yet
        count = len(keys)
        ranking = array(_unsigned_typecode(count), sorted(range(count), key=keys.__getitem__))
        keys = array("d", map(keys.__getitem__, ranking))  # now in code order
        first = [True, *map(operator.ne, keys[1:], keys), True]  # opens a level, or ends the last
        self.entropies = array("d", itertools.compress(keys, first))
        self.starts = array(ranking.typecode, itertools.compress(range(count + 1), first))
        # each partition's level, by canonical index: the level openings up to its position
        level = array(ranking.typecode, bytes(count * ranking.itemsize))
        for j, i in zip(ranking, itertools.accumulate(first[1:count], initial=0)):
            level[j] = i
        del keys, first
        width, typecode = m - 1, canonical.typecode
        self.parts = array(typecode, bytes(count * width * canonical.itemsize))
        for i in range(width):  # the smallest m-1 parts, ascending, in code order
            column = canonical[i::m]
            self.parts[i::width] = array(typecode, [column[j] for j in ranking])
        del canonical, ranking
        # second walk: the strings of each partition's orbit, in canonical
        # order, added to its level's (a level of several orbits sums them)
        sizes, slot, levels = [0] * len(self.entropies), m - 1, iter(level)
        for _, rest, prev, run, size, arr in _iter_runs(n, m, True):
            top = min(prev, rest)
            cls = size * math.comb(rest, top)  # the class size, size * C(rest, c), c falling
            for c in range(top, (rest - 1) // 2, -1):
                r = run + 1 if c == prev else 1  # a part equal to prev extends its run
                last = rest - c
                sizes[next(levels)] += cls * (arr * slot // r * m // (r + 1 if last == c else 1))
                cls = cls * c // (last + 1)
        super().__init__(UNIVERSAL, n, m, sizes)

    def _vectors(self, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
        """The ascending count vectors of partitions lo .. hi-1 in code
        order: the m-1 strided slices of ``parts``, and n minus their sum."""
        width = self.m - 1
        heads = [self.parts[lo * width + i:hi * width:width] for i in range(width)]
        largest = map(operator.sub, itertools.repeat(self.n), map(sum, zip(*heads)))
        return zip(*heads, largest)

    def _orbit(self, i: int, vector: tuple[int, ...]) -> tuple[list[int], list[int], int, int]:
        """(distinct values, their multiplicities, arrangements, class size)
        of single-orbit level i, whose partition ``vector`` rearranges: the
        orbit's m! / prod(multiplicity!) vectors share the level's strings."""
        values = sorted(set(vector))
        multiplicities = list(map(vector.count, values))
        factorial = math.factorial
        arrangements = factorial(self.m) // math.prod(map(factorial, multiplicities))
        return values, multiplicities, arrangements, self.sizes[i] // arrangements

    def _level(self, i: int) -> tuple[list[tuple[int, ...]], list[int]]:
        """Count vectors and class sizes of level i in lex order."""
        return _level_classes(self._vectors(self.starts[i], self.starts[i + 1]), self.sizes[i], {})

    def _levels(self) -> Iterator[tuple[list[tuple[int, ...]], list[int]]]:
        """Count vectors and class sizes of every level, in code order, from one stream."""
        getters: dict[tuple[int, ...], list[itemgetter]] = {}
        vectors = self._vectors(0, self.starts[-1])
        for lo, hi, level_strings in zip(self.starts, self.starts[1:], self.sizes):
            yield _level_classes(itertools.islice(vectors, hi - lo), level_strings, getters)

    def _span(self, counts: tuple[int, ...]) -> tuple[int, int]:
        """(strings before the class of ``counts``, the class's size)."""
        h = type_entropy_bits(counts)
        i = bisect.bisect_left(self.entropies, h)
        if i == len(self.entropies) or self.entropies[i] != h:
            raise InvariantViolation(f"no entropy level of the universal ordering holds {counts}")
        offset = self._offset(i)
        if self.starts[i + 1] - self.starts[i] > 1:
            order, sizes = self._level(i)
            pos = order.index(counts)
            return offset + sum(sizes[:pos]), sizes[pos]
        # the orbit's vectors are the strings over its values: rank counts among them
        values, multiplicities, arrangements, size = self._orbit(i, counts)
        return offset + size * _rank(list(map(values.index, counts)), multiplicities, arrangements), size

    def _class_at(self, k: int) -> tuple[tuple[int, ...], int, int]:
        """(counts, 0-based rank in its class, class size) of the 1-based index k."""
        i, offset = self._unit(k)
        rest = k - 1 - offset
        if self.starts[i + 1] - self.starts[i] > 1:
            order, sizes = self._level(i)
            starts = list(itertools.accumulate(sizes, initial=0))
            pos = bisect.bisect_left(starts, rest + 1) - 1
            return order[pos], rest - starts[pos], sizes[pos]
        asc = next(self._vectors(self.starts[i], self.starts[i] + 1))
        values, multiplicities, arrangements, size = self._orbit(i, asc)
        rank, within = divmod(rest, size)
        vector = _unrank(multiplicities, arrangements, rank)
        return tuple(map(values.__getitem__, vector)), within, size


class _RankedClasses(CodeOrdering):
    """The known-source order kept as the engine's columns (see the module
    docstring): the ``ranking`` (canonical indices in code order), and the
    base's units are the ranked classes, ``sizes`` their sizes in code
    order.  The inverse of the ranking is built on the first encode, so a
    decoder never pays for it.  No count vector is stored: a class is found
    through its canonical index, computed from the counts and back in
    closed form."""

    __slots__ = ("ranking", "_position")

    def __init__(self, n: int, m: int, sizes: list[int], ranking: array) -> None:
        # the canonical sizes' own integers, so equal sizes still share one object
        super().__init__(KNOWN_SOURCE, n, m, list(map(sizes.__getitem__, ranking)))
        self.ranking = ranking
        self._position: array | None = None

    def _span(self, counts: tuple[int, ...]) -> tuple[int, int]:
        """(strings in all classes ranked before the class of ``counts``, its size)."""
        if self._position is None:  # the inverse ranking: canonical index -> position
            ranking = self.ranking
            self._position = array(ranking.typecode, bytes(len(ranking) * ranking.itemsize))
            for pos, i in enumerate(ranking):
                self._position[i] = pos
        pos = self._position[type_index(counts)]
        return self._offset(pos), self.sizes[pos]

    def _class_at(self, k: int) -> tuple[tuple[int, ...], int, int]:
        """(counts, 0-based rank in its class, class size) of the 1-based index k."""
        pos, offset = self._unit(k)
        return type_at_index(self.n, self.m, self.ranking[pos]), k - 1 - offset, self.sizes[pos]


def _key_tables(p: SourcePmf, n: int) -> list[list[float]]:
    """Per symbol, the table entry c * -log2 p_i at c = 0..n (0.0 at c = 0).
    The fsum of one entry per symbol is a class's sort key: minus its log2
    per-string probability.  ``fsum`` is correctly rounded, so the key does
    not depend on the order in which the entries are added; negation is
    exact and rounding symmetric, so it is bit for bit minus the fsum of
    the entries c*log2 p_i."""
    return [[0.0] + [c * -lp for c in range(1, n + 1)] for lp in p.log2_probs()]


def _known_source_classes(n: int, m: int, source: SourcePmf) -> tuple[array, list[int], array]:
    """The engine's columns: ``keys[i]`` (minus the log2 per-string
    probability) and ``sizes[i]`` of class i in canonical order, and the
    ranking, the class indices by decreasing per-string probability with
    ties in canonical order: a stable sort on the float key alone.

    The sort's peak and the sizes' never overlap.  One walk of
    :func:`~pragrate.types_census._class_runs` fills the keys (a key is the
    ``fsum`` of a row); the sort's list is narrowed at once to an index
    array, which frees its int objects and the sort's key floats; only then
    does a second walk of the runs compute the sizes.  A run's sizes
    coeff * C(r, c) are symmetric in c, so its second half reuses the first
    half's integers: equal sizes share one object."""
    keys = array("d")
    for _, _, rows in _class_runs(_key_tables(source, n), n):
        keys.extend(map(math.fsum, rows))
    count = len(keys)
    ranking = array(_unsigned_typecode(count), sorted(range(count), key=keys.__getitem__))
    sizes = []
    for _, r, _, _, coeff, _ in _iter_runs(n, m, False):
        half = [coeff]  # coeff * C(r, c) for c = 0 .. r // 2
        for c in range(r // 2):
            half.append(half[-1] * (r - c) // (c + 1))
        sizes += half
        sizes += half[-2::-1] if r % 2 == 0 else half[::-1]
    return keys, sizes, ranking


def _check_type_cap(n: int, m: int, cap_types: int) -> None:
    """Refuse to rank more than ``cap_types`` type classes, or more symbols
    than the alphabet cap; a cap that is not an integer >= 1 is bad input,
    not a limit."""
    total = count_types(n, m)
    check_integer("cap_types", cap_types, 1)
    if total > cap_types:
        raise ResourceLimitError(f"{describe(total)} type classes at n={describe(n)}, "
                                 f"m={describe(m)} exceeds the cap of {cap_types}")
    _check_n_m(n, m)


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
    """Construct the shared code ordering.

    In universal mode any ``source`` argument is ignored entirely; the
    resulting ordering (hence every codeword) is byte-identical whatever is
    passed.
    """
    if mode == KNOWN_SOURCE and source is not None:
        check_source(source)
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
    """1-based index of string ``x`` in the ordering: its class's offset,
    which the ordering answers with the class's size, plus its rank in the
    class.  ``x`` is counted once; ``bytes`` is the fastest sequence."""
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
    each class's per-string probability.  Memoized on (p, n) once the
    arguments are checked, so an unhashable one is refused like any bad
    value: an entry holds n+2 floats, and each further tail read is free.
    """
    check_source(p)
    _check_type_cap(n, p.m, cap_types)
    return _universal_length_distribution(p, n)


@functools.lru_cache(maxsize=64)
def _universal_length_distribution(p: SourcePmf, n: int) -> LengthDistribution:
    """The memoized body of :func:`universal_length_distribution`, keyed on
    its checked arguments (the cap only admits or refuses them)."""
    tables, keys, sizes = _key_tables(p, n), array("d"), []
    for order, level_sizes in _EntropyColumns(n, p.m)._levels():  # one level at a time
        keys.extend(math.fsum(map(list.__getitem__, tables, counts)) for counts in order)
        sizes += level_sizes
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
