"""Working one-to-one encoders/decoders over fixed-blocklength strings.

Two orderings of A^n are supported, both total orders of the form
"type order, then lexicographic within the type class":

* known-source: type classes sorted by decreasing per-string probability
  under a given source pmf (the ordering of the optimal compressor);
* universal: type classes sorted by increasing empirical entropy, with no
  reference to any source.

The k-th string (1-based) receives the binary expansion of k with its
leading 1 removed, a codeword of length floor(log2 k); k = 1 maps to the
empty codeword.  Encoding is big-integer index arithmetic: the offset of the
string's type class plus its lexicographic rank inside the class, so n in
the hundreds is routine.  Decoding inverts exactly.

The excess-rate behaviour of the universal ordering under a memoryless
source is evaluated exactly by type aggregation (independent of the
optimal-code evaluator, so the two can cross-check each other), including
the split of the class straddling a 2**L boundary.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Sequence

from .distributions import SourcePmf, tilt
from .errors import CodewordError, DomainError, ResourceLimitError
from .exponents import moment_envelope, solve_alpha_star
from .numerics import LOG2E, SQRT_2PI, log2_sum, neumaier_sum
from .types_census import (
    DEFAULT_TYPE_CAP,
    _iter_types_with_sizes,
    count_types,
    low_entropy_count,
    rank_in_type_class,
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
        if any(b not in "01" for b in self.bits):
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
    string indices [offsets[i], offsets[i+1]).
    """

    mode: str
    n: int
    m: int
    type_order: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]  # length len(type_order)+1; last entry is m**n
    _position: dict = field(repr=False, hash=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not self._position:
            self._position.update(
                (counts, i) for i, counts in enumerate(self.type_order)
            )

    @property
    def total(self) -> int:
        return self.offsets[-1]

    def position_of(self, counts: tuple[int, ...]) -> int:
        try:
            return self._position[counts]
        except KeyError:
            raise DomainError(f"type {counts} is not an {self.n}-type on {self.m} symbols")


def _ordered_types(
    mode: str, n: int, m: int, source: SourcePmf | None, cap_types: int
) -> list[tuple[tuple[int, ...], int]]:
    if count_types(n, m) > cap_types:
        raise ResourceLimitError(
            f"{count_types(n, m)} type classes at n={n}, m={m} exceeds cap {cap_types}"
        )
    all_types = list(_iter_types_with_sizes(n, m))
    if mode == UNIVERSAL:
        # Source-independent: ascending empirical entropy, canonical order on ties.
        all_types.sort(key=lambda cs: (type_entropy_bits(cs[0]), cs[0]))
        return all_types
    if mode == KNOWN_SOURCE:
        if source is None:
            raise DomainError("known-source ordering requires a source pmf")
        if source.m != m:
            raise DomainError("source alphabet size disagrees with m")
        log2p = source.log2_probs()
        all_types.sort(
            key=lambda cs: (
                -neumaier_sum(ci * lp for ci, lp in zip(cs[0], log2p) if ci),
                cs[0],
            ),
        )
        return all_types
    raise DomainError(f"unknown ordering mode {mode!r}")


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
    ordered = _ordered_types(mode, n, m, source if mode == KNOWN_SOURCE else None, cap_types)
    offsets = [0]
    for _, size in ordered:
        offsets.append(offsets[-1] + size)
    return CodeOrdering(
        mode=mode,
        n=n,
        m=m,
        type_order=tuple(counts for counts, _ in ordered),
        offsets=tuple(offsets),
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
    return ordering.offsets[pos] + rank_in_type_class(x, ordering.m) + 1


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
    j = k - 1  # 0-based
    pos = bisect.bisect_right(ordering.offsets, j) - 1
    counts = ordering.type_order[pos]
    return unrank_in_type_class(counts, j - ordering.offsets[pos])


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
    log2p = p.log2_probs()
    log_terms = []
    for pos, counts in enumerate(ordering.type_order):
        lo, hi = ordering.offsets[pos], ordering.offsets[pos + 1]
        # ranks are 1-based: this class covers [lo+1, hi]
        surviving = hi - max(lo, boundary - 1)
        if surviving <= 0:
            continue
        lp = neumaier_sum(c * l for c, l in zip(counts, log2p) if c)
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
