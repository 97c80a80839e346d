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

The excess-rate behaviour of the universal ordering under a memoryless
source is evaluated exactly by type aggregation, including the split of the
class straddling a 2**L boundary.  This module holds the package's one
ranked-class engine: the known-source class ranking, the type cap check and
the lookup of the class holding a given rank serve the codecs, the
universal excess evaluator and the optimal-code tails of
:mod:`pragrate.exact_limits` alike.  The checks that stay independent of it
are the brute-force string oracle ``exact_limits.brute_force_limits`` and
the tests that enumerate every string.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

from .distributions import SourcePmf, tilt
from .errors import CodewordError, DomainError, ResourceLimitError
from .exponents import moment_envelope, solve_alpha_star
from .numerics import LOG2E, SQRT_2PI, log2_sum
from .types_census import (
    DEFAULT_TYPE_CAP,
    _distinct_permutations,
    _iter_partitions,
    _iter_types_with_sizes,
    _rank_in_class,
    count_types,
    low_entropy_count,
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


def _log2_prob_tables(p: SourcePmf, n: int) -> list[list[float]]:
    """``tables[i][c]`` is c*log2 p_i, with 0.0 at c = 0: a class's log2
    per-string probability is the fsum of one entry per symbol."""
    return [[0.0] + [c * lp for c in range(1, n + 1)] for lp in p.log2_probs()]


def _known_source_classes(
    n: int, m: int, source: SourcePmf
) -> tuple[list[tuple[int, ...]], list[int], list[float]]:
    """Count vectors, class sizes and sort keys by decreasing per-string
    probability, ties in canonical order: a stable sort of the canonical
    rows on the float key alone.  A class's key is minus its log2
    per-string probability, computed once here."""
    tables = _log2_prob_tables(source, n)
    rows = list(_iter_types_with_sizes(n, m))
    keys = [-math.fsum(map(list.__getitem__, tables, counts)) for counts, _ in rows]
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


def universal_excess_probability(
    p: SourcePmf, n: int, length: int, *, cap_types: int = DEFAULT_TYPE_CAP
) -> float:
    """Exact P(codeword length >= ``length``) for the universal code under p.

    The event is {index >= 2**length}; the class straddling the boundary is
    split exactly in big integers, everything else aggregates per class.
    """
    if length <= 0:
        return 1.0
    ordering = build_ordering(UNIVERSAL, n, p.m, cap_types=cap_types)
    boundary = 1 << length
    if boundary > ordering.total:
        return 0.0
    tables = _log2_prob_tables(p, n)
    offsets = ordering.offsets
    first, partial = _straddling_class(offsets, boundary)
    log_terms = []
    for pos in range(first, len(ordering.type_order)):
        surviving = partial if pos == first else offsets[pos + 1] - offsets[pos]
        lp = math.fsum(map(list.__getitem__, tables, ordering.type_order[pos]))
        log_terms.append(math.log2(surviving) + lp)
    acc = log2_sum(log_terms)
    return 0.0 if acc < -1074.0 else 2.0 ** acc


@dataclass(frozen=True)
class UniversalOperatingPoint:
    """The universal code's threshold sequence at one blocklength.

    ``alpha_n`` drifts above alpha* at rate log(n)/n; when the blocklength
    is too small for the drift to have kicked in (alpha_n outside
    [alpha*, 1)), ``ok`` is False and the census fields are still reported
    as diagnostics whenever alpha_n is a valid tilt parameter.
    """

    n: int
    alpha_star: float
    alpha_n: float
    ok: bool
    p_bar: float
    q_bar: float
    r_bar: float
    h_threshold_bits: float | None
    string_count: int | None
    rate: float | None  # (log2(count) + 1)/n


def universal_threshold_alpha_n(
    p: SourcePmf, delta: float, n: int, *, include_census: bool = True
) -> UniversalOperatingPoint:
    """Threshold tilt parameter alpha_n of the universal code's analysis,

        alpha_n = alpha* + log2(n)/(2 p_bar (1-alpha*) n) - (q_bar+r_bar)/(p_bar n),

    together with the induced entropy threshold H(P_alpha_n), the exact
    number of strings below it, and the realized rate (log2 count + 1)/n.
    ``include_census=False`` skips the exact string count (useful for very
    large n where only alpha_n itself is wanted).
    """
    if n < 1:
        raise DomainError(f"blocklength must be >= 1, got {n}")
    sol = solve_alpha_star(p, delta)
    env = moment_envelope(p)
    a = sol.alpha_star
    t = sol.tilted
    sigma2, rho2 = math.sqrt(t.sigma2_sq), t.rho2
    p_bar = t.sigma3_sq * LOG2E
    q_bar = (LOG2E / 2.0) * (
        abs(env.sigma3_inf_sq - (1.0 - a) * env.rho3_sup)
        + env.sigma3_sup_sq
        + env.rho3_sup
    )
    r_bar = (1.0 / (1.0 - a)) * math.log2(
        (1.0 / sigma2) * (1.0 / SQRT_2PI + rho2 / sigma2 ** 2)
    )
    alpha_n = (
        a
        + math.log2(n) / (2.0 * p_bar * (1.0 - a) * n)
        - (q_bar + r_bar) / (p_bar * n)
    )
    ok = a <= alpha_n < 1.0
    h_thr = string_count = rate = None
    if 0.0 < alpha_n < 1.0:
        h_thr = tilt(p, alpha_n).entropy_bits
        if include_census:
            report = low_entropy_count(n, p.m, h_thr)
            string_count = report.count
            rate = (math.log2(string_count) + 1.0) / n
    return UniversalOperatingPoint(
        n=n,
        alpha_star=a,
        alpha_n=alpha_n,
        ok=ok,
        p_bar=p_bar,
        q_bar=q_bar,
        r_bar=r_bar,
        h_threshold_bits=h_thr,
        string_count=string_count,
        rate=rate,
    )
