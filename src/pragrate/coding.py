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
key is the ``fsum`` of per-symbol table entries c*log2 p_i.  The universal
build works one permutation orbit at a time: entropy and class size are
computed once per partition of n, the partitions are grouped by their exact
float entropy, and each level's count vectors are emitted in lex order.
Since ``fsum`` is correctly rounded whatever the order of its terms, every
vector of an orbit has its partition's entropy bit for bit, so this equals
a sort of all C(n+m-1, m-1) classes on (entropy, counts).

The k-th string (1-based) receives the binary expansion of k with its
leading 1 removed, a codeword of length floor(log2 k); k = 1 maps to the
empty codeword.  Encoding is big-integer index arithmetic: the offset of the
string's type class plus its lexicographic rank inside the class, so n in
the hundreds is routine.  Decoding inverts exactly.

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
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

from .distributions import SourcePmf
from .errors import CodewordError, DomainError, ResourceLimitError
from .numerics import NEG_INF, logaddexp2
from .types_census import (
    DEFAULT_TYPE_CAP,
    _distinct_permutations,
    _iter_partitions,
    _iter_types_with_sizes,
    _rank_in_class,
    count_types,
    type_entropy_bits,
    unrank_in_type_class,
)

KNOWN_SOURCE = "known-source"
UNIVERSAL = "universal"


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


@dataclass(frozen=True)
class CodeOrdering:
    """A total order on A^n shared by encoder and decoder.

    ``type_order`` lists count vectors in code order; ``offsets[i]`` is the
    number of strings in all earlier classes, so class i covers 0-based
    string indices [offsets[i], offsets[i+1]).  The counts-to-position map
    behind :meth:`position_of` is built on its first use, so a decoder never
    pays for it.
    """

    mode: str
    n: int
    m: int
    type_order: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]  # length len(type_order)+1; last entry is m**n
    _position: dict = field(repr=False, hash=False, compare=False, default_factory=dict)

    @property
    def total(self) -> int:
        return self.offsets[-1]

    def position_of(self, counts: tuple[int, ...]) -> int:
        if not self._position:
            self._position.update((c, i) for i, c in enumerate(self.type_order))
        try:
            return self._position[counts]
        except KeyError:
            raise DomainError(f"type {counts} is not an {self.n}-type on {self.m} symbols")


def _universal_classes(n: int, m: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Count vectors and class sizes by ascending empirical entropy, ties in
    canonical order, built one permutation orbit at a time (see the module
    docstring)."""
    # An orbit's shape maps each slot of its ascending vector to the first
    # slot holding the same value.  That index rises with the value, so the
    # shape's distinct permutations, as itemgetters on the ascending vector,
    # list the orbit in lex order; orbits of one shape share the getters.
    getters: dict[tuple[int, ...], list[itemgetter]] = {}
    levels: dict[float, list] = {}
    for parts, size, _ in _iter_partitions(n, m):
        asc = parts[::-1]
        shape = tuple(map(asc.index, asc))
        if shape not in getters:
            getters[shape] = [itemgetter(*idx) for idx in _distinct_permutations(shape)]
        levels.setdefault(type_entropy_bits(parts), []).append((asc, size, getters[shape]))
    order: list[tuple[int, ...]] = []
    sizes: list[int] = []
    for h in sorted(levels):
        orbits = levels[h]
        if len(orbits) == 1:
            asc, size, gs = orbits[0]
            order += [g(asc) for g in gs]
            sizes += [size] * len(gs)
        else:  # orbits are disjoint, so the sort never compares sizes
            level = sorted((g(asc), size) for asc, size, gs in orbits for g in gs)
            order += [counts for counts, _ in level]
            sizes += [size for _, size in level]
    return order, sizes


def _class_keys(p: SourcePmf, n: int, vectors: Iterable[Sequence[int]]) -> list[float]:
    """Minus each count vector's log2 per-string probability under p: the
    fsum of one table entry c*log2 p_i per symbol (0.0 at c = 0)."""
    tables = [[0.0] + [c * lp for c in range(1, n + 1)] for lp in p.log2_probs()]
    return [-math.fsum(map(list.__getitem__, tables, counts)) for counts in vectors]


def _known_source_classes(
    n: int, m: int, source: SourcePmf
) -> tuple[list[tuple[int, ...]], list[int], list[float]]:
    """Count vectors, class sizes and sort keys by decreasing per-string
    probability, ties in canonical order: a stable sort of the canonical
    rows on the float key alone, each key computed once."""
    rows = list(_iter_types_with_sizes(n, m))
    keys = _class_keys(source, n, (counts for counts, _ in rows))
    ranked = sorted(range(len(rows)), key=keys.__getitem__)
    return (
        [rows[i][0] for i in ranked],
        [rows[i][1] for i in ranked],
        list(map(keys.__getitem__, ranked)),
    )


def _check_type_cap(n: int, m: int, cap_types: int) -> None:
    """Refuse to rank more than ``cap_types`` type classes."""
    total = count_types(n, m)
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


def _log2_tails(sizes: Sequence[int], keys: Sequence[float]) -> tuple[float, ...]:
    """log2 tails at every length from ranked class sizes and sort keys
    (minus each class's log2 per-string probability)."""
    offsets = list(itertools.accumulate(sizes, initial=0))
    suffix = [NEG_INF] * (len(sizes) + 1)
    for i in range(len(sizes) - 1, -1, -1):
        suffix[i] = logaddexp2(math.log2(sizes[i]) - keys[i], suffix[i + 1])
    tails = [0.0]
    for length in range(1, offsets[-1].bit_length()):  # L <= floor(log2 m**n)
        i, partial = _straddling_class(offsets, 1 << length)
        tails.append(logaddexp2(math.log2(partial) - keys[i], suffix[i + 1]))
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
    if n < 1 or m < 2:
        raise DomainError(f"need n >= 1 and m >= 2, got n={n}, m={m}")
    _check_type_cap(n, m, cap_types)
    if mode == UNIVERSAL:
        order, sizes = _universal_classes(n, m)
    elif mode == KNOWN_SOURCE:
        if source is None:
            raise DomainError("known-source ordering requires a source pmf")
        if source.m != m:
            raise DomainError("source alphabet size disagrees with m")
        order, sizes, _ = _known_source_classes(n, m, source)
    else:
        raise DomainError(f"unknown ordering mode {mode!r}")
    return CodeOrdering(
        mode=mode,
        n=n,
        m=m,
        type_order=tuple(order),
        offsets=tuple(itertools.accumulate(sizes, initial=0)),
    )


def string_index(ordering: CodeOrdering, x: Sequence[int]) -> int:
    """1-based index of string ``x`` in the ordering."""
    if len(x) != ordering.n:
        raise DomainError(f"string length {len(x)} != blocklength {ordering.n}")
    counts = [0] * ordering.m
    for s in x:
        if not 0 <= s < ordering.m:
            raise DomainError(f"symbol {s} outside alphabet of size {ordering.m}")
        counts[s] += 1
    pos = ordering.position_of(tuple(counts))
    return ordering.offsets[pos] + _rank_in_class(x, counts) + 1


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
    pos, _ = _straddling_class(ordering.offsets, k)
    return unrank_in_type_class(ordering.type_order[pos], k - 1 - ordering.offsets[pos])


def universal_length_distribution(
    p: SourcePmf, n: int, *, cap_types: int = DEFAULT_TYPE_CAP
) -> LengthDistribution:
    """Length distribution of the universal code under the source p.

    The classes come in the universal order, which ignores p; p only sets
    each class's per-string probability.
    """
    if n < 1:
        raise DomainError(f"blocklength must be >= 1, got {n}")
    _check_type_cap(n, p.m, cap_types)
    order, sizes = _universal_classes(n, p.m)
    keys = _class_keys(p, n, order)
    return LengthDistribution(n=n, m=p.m, log2_tails=_log2_tails(sizes, keys))


def universal_excess_probability(
    p: SourcePmf, n: int, length: int, *, cap_types: int = DEFAULT_TYPE_CAP
) -> float:
    """Exact P(codeword length >= ``length``) for the universal code under p:
    one read of :func:`universal_length_distribution`."""
    return universal_length_distribution(p, n, cap_types=cap_types).tail(length)
