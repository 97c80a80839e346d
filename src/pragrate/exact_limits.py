"""Exact evaluation of the optimal one-to-one code for a known memoryless
source: its length distribution, the minimal excess-rate probability at a
given rate, and the smallest rate meeting a given excess-rate probability.

The optimal code orders all strings of length n in decreasing probability
(ties broken deterministically) and gives the k-th string, 1-based, a
codeword of length floor(log2 k).  Strings of the same empirical type are
equiprobable under a memoryless source, so the whole computation aggregates
over type classes.  The classes come ranked by per-string probability from
the known-source code ordering of :mod:`pragrate.coding`, together with
their sizes and sort keys, as columns; the probability that a codeword has
length at least L is the probability mass of ranks >= 2**L.
``coding._log2_tails``, the one float tail routine, which the universal
code's length distribution shares, walks the ranked classes once from the
last: it splits the class holding each boundary exactly and adds the mass
past it from the suffix chain it carries.  Exact mode walks its own
ranking the same way with an integer suffix mass.  ``LengthDistribution``
lives in ``coding`` too and is re-exported here.

Numerics: per-type log2-probabilities are correctly rounded sums
(``math.fsum``) of per-symbol terms, and tail sums are accumulated entirely
in the base-2 log domain so that tails far below the smallest positive
double remain meaningful.  When the source probabilities are exact
rationals, an exact-Fraction mode is available: it re-sorts the classes by
their exact probabilities, which repairs any ulp-level misorder of the float
ranking, and is required to agree bit for bit with the brute-force string
enumeration, ``brute_force_limits`` in ``tests/conftest.py``.  It works in
integers over the common denominator D**n and builds one Fraction per tail.

Rate convention: with L* = min{L : P(length >= L) <= epsilon}, the optimal
rate is (L* - 1)/n.  The defining infimum is over rates R with
P(length >= ceil(n R)) <= epsilon, and the step structure of integer lengths
makes the boundary point (L* - 1)/n that infimum.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .coding import LengthDistribution, _check_log2_epsilon, _key_tables, _known_source_classes, _log2_tails
from .distributions import SourcePmf
from .errors import DomainError
from .inputs import check_real, check_source
from .types_census import DEFAULT_TYPE_CAP, _check_walk_cap, _class_rows


def length_distribution(
    p: SourcePmf,
    n: int,
    *,
    exact: bool = False,
    cap_types: int = DEFAULT_TYPE_CAP,
) -> LengthDistribution:
    """Length distribution of the optimal one-to-one code at blocklength n.

    With ``exact=True`` the tails are additionally computed in exact rational
    arithmetic; the source must then carry exact rational probabilities.
    """
    check_source(p)
    if exact and p.exact is None:
        raise DomainError("exact mode requires a source with exact rational probabilities")
    _check_walk_cap(n, p.m, cap_types)
    keys, sizes, ranking = _known_source_classes(_key_tables(p, n), n)
    tails = _log2_tails(keys, sizes, ranking, p.m ** n)
    exact_tails = _exact_tails(p.exact, n, sizes, ranking) if exact else None
    return LengthDistribution(n=n, m=p.m, log2_tails=tails, exact_tails=exact_tails)


def _exact_tails(
    fracs: Sequence[Fraction], n: int, sizes: Sequence[int], ranking: Sequence[int]
) -> tuple[Fraction, ...]:
    """Exact tails of the ranked classes under the rational pmf ``fracs``.

    With D the common denominator, p_i = w_i / D, so a class's per-string
    probability is the integer weight prod w_i**c_i over D**n, the ``prod``
    of its row of powers.  The float sort already ordered the classes;
    re-sorting by the weights (stable, same tie order) repairs any ulp-level
    misorder.  One pass then walks the re-ranking from the last class as
    :func:`~pragrate.coding._log2_tails` walks the float one, with the
    integer suffix mass sum(size * weight) in place of the log2 chain: the
    tail at a boundary 2**L inside class c is the mass past c plus the
    weight of each of c's strings at ranks >= 2**L, over D**n."""
    denominator = math.lcm(*(f.denominator for f in fracs))
    numerators = [f.numerator * (denominator // f.denominator) for f in fracs]
    powers = [[w ** c for c in range(n + 1)] for w in numerators]
    weights = list(map(math.prod, _class_rows(powers, n)))
    del powers  # the tables, before the sort
    ranked = sorted(ranking, key=weights.__getitem__, reverse=True)
    remaining, past, scale = len(fracs) ** n, 0, denominator ** n
    tails, boundary = [], 1 << (remaining.bit_length() - 1)
    for c in reversed(ranked):
        weight, start = weights[c], remaining - sizes[c]
        while start < boundary > 1:  # class c holds rank boundary = 2**L
            tails.append(Fraction(past + (remaining - boundary + 1) * weight, scale))
            boundary >>= 1
        past += sizes[c] * weight
        remaining = start
    return (Fraction(1), *reversed(tails), Fraction(0))


def excess_rate_probability(
    p: SourcePmf, n: int, rate: float, *, cap_types: int = DEFAULT_TYPE_CAP
) -> float:
    """Minimal probability that the optimal code's length is >= n*rate bits.

    Lengths are integers, so the event is length >= ceil(n*rate); a tiny
    guard keeps nearly-integer products from being rounded up spuriously.
    """
    check_source(p)
    rate = check_real("rate", rate, 0, math.inf, lo_open=False, need="be nonnegative and finite")
    return length_distribution(p, n, cap_types=cap_types).tail(math.ceil(n * rate - 1e-12))


def optimal_rate(
    p: SourcePmf,
    n: int,
    epsilon: float | None = None,
    *,
    log2_epsilon: float | None = None,
    cap_types: int = DEFAULT_TYPE_CAP,
) -> float:
    """Smallest rate whose excess-rate probability is at most epsilon.

    The target may be given directly or as ``log2_epsilon`` (useful when
    epsilon = 2**(-n*delta) underflows a double).  Output lies on the grid
    {0, 1/n, 2/n, ...}.
    """
    check_source(p)
    if (epsilon is None) == (log2_epsilon is None):
        raise DomainError("provide exactly one of epsilon, log2_epsilon")
    if epsilon is not None:
        log2_epsilon = math.log2(check_real("epsilon", epsilon, 0, 1, need="lie in (0, 1)"))
    _check_log2_epsilon(log2_epsilon)  # before the distribution is built
    return length_distribution(p, n, cap_types=cap_types).optimal_rate(log2_epsilon)
