import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from typing import NamedTuple

import pytest

from pragrate import (DomainError, LengthDistribution, ResourceLimitError, SourcePmf, coding, entropy,
                      kl_divergence, tilt)
from pragrate.inputs import check_integer, check_source, describe
from pragrate.numerics import LOG2E, NEG_INF
from pragrate.types_census import ENTROPY_CMP_TOL, type_class_size, type_entropy_bits


def bern(p: float | str) -> SourcePmf:
    """Bernoulli source with P(symbol 0) = p, built exactly from a decimal."""
    f = Fraction(str(p))
    return SourcePmf.from_values([f, 1 - f])


def random_pmf(rng: random.Random, m: int, *, min_prob: float = 0.05, spread: float = 1.5) -> SourcePmf:
    """A full-support pmf that is bounded away from uniform and from the
    simplex boundary, so divergence/derivative magnitudes stay testable."""
    while True:
        raw = [rng.uniform(min_prob, 1.0) for _ in range(m)]
        total = sum(raw)
        probs = [x / total for x in raw]
        if min(probs) < min_prob:
            continue
        if max(probs) / min(probs) < spread:
            continue
        return SourcePmf(tuple(probs))


def skewed_pmf(rng: random.Random, m: int, smallest: float = 1e-5) -> SourcePmf:
    """A full-support pmf whose first entry is between ``smallest`` and twice
    that, so R = max ln p - min ln p reaches about ln(1 / smallest)."""
    first = smallest * rng.uniform(1.0, 2.0)
    rest = [rng.uniform(0.05, 1.0) for _ in range(m - 1)]
    total = sum(rest)
    return SourcePmf((first, *((1.0 - first) * x / total for x in rest)))


class TiltedDerivatives(NamedTuple):
    """Closed-form derivatives along the tilted family at a fixed alpha.

    dD_dalpha, d2D_dalpha2 differentiate D(P_alpha || P) in bits;
    dH_dalpha, d2H_dalpha2 differentiate H(P_alpha) in bits;
    dsigma3sq_dalpha differentiates the nat-valued variance sigma3_sq, and
    equals the signed third central moment of log_e P(X) under P_alpha.
    """

    dD_dalpha: float
    d2D_dalpha2: float
    dH_dalpha: float
    d2H_dalpha2: float
    dsigma3sq_dalpha: float


def tilted_derivatives(p: SourcePmf, alpha: float) -> TiltedDerivatives:
    """Derivatives of D(P_alpha||P), H(P_alpha) and sigma3_sq at alpha in
    (0, 1), in closed form from ``tilt``'s sigma3_sq and the signed third
    central moment m3 of ln P(X), taken here over ``tilt``'s pmf."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"tilted derivatives need alpha strictly inside (0, 1), got {alpha!r}")
    t = tilt(p, alpha)
    ln_p = [math.log(x) for x in p.probs]
    mean = math.fsum(w * v for w, v in zip(t.pmf.probs, ln_p))
    m3 = math.fsum(w * (v - mean) ** 3 for w, v in zip(t.pmf.probs, ln_p))
    s3 = t.sigma3_sq
    return TiltedDerivatives(
        dD_dalpha=(alpha - 1.0) * s3 * LOG2E,
        d2D_dalpha2=LOG2E * (s3 + (alpha - 1.0) * m3),
        dH_dalpha=-LOG2E * alpha * s3,
        d2H_dalpha2=-LOG2E * (s3 + alpha * m3),
        dsigma3sq_dalpha=m3,
    )


def weighted_moments(weights, values) -> tuple[float, float, float]:
    """Mean, variance and absolute third central moment of ``values`` under
    ``weights``, each a correctly rounded sum of its textbook terms."""
    mean = math.fsum(w * v for w, v in zip(weights, values))
    var = math.fsum(w * (v - mean) ** 2 for w, v in zip(weights, values))
    rho = math.fsum(w * abs(v - mean) ** 3 for w, v in zip(weights, values))
    return mean, var, rho


class LogLikelihoodMoments(NamedTuple):
    """Variance and absolute third central moment, in nats, of
    log_e P_alpha(X) (index 1) and log_e [P_alpha/P](X) (index 2) under
    P_alpha."""

    sigma1_sq: float
    rho1: float
    sigma2_sq: float
    rho2: float


def tilted_log_moments(p: SourcePmf, t) -> LogLikelihoodMoments:
    """The moments of the two log-likelihoods that ``tilt`` does not store,
    taken straight from the tilted pmf ``t.pmf`` and ln P, with no use of
    their scalings of sigma3_sq and rho3."""
    w = t.pmf.probs
    ln_pa = [math.log(x) for x in w]
    _, sigma1_sq, rho1 = weighted_moments(w, ln_pa)
    _, sigma2_sq, rho2 = weighted_moments(w, [a - math.log(x) for a, x in zip(ln_pa, p.probs)])
    return LogLikelihoodMoments(sigma1_sq, rho1, sigma2_sq, rho2)


def tilt_identity_residual(p: SourcePmf, q, alpha: float) -> float:
    """Left minus right side of the exact tilting identity: for any pmf Q
    (P full support) and alpha in (0, 1),

        alpha [D(Q||P) - D(P_alpha||P)] = D(Q||P_alpha) + (1-alpha)[H(Q) - H(P_alpha)],

    so the residual is zero up to floating-point noise."""
    t = tilt(p, alpha)
    lhs = alpha * (kl_divergence(q, p) - t.kl_bits)
    rhs = kl_divergence(q, t.pmf) + (1.0 - alpha) * (entropy(q) - t.entropy_bits)
    return lhs - rhs


def stirling_ratio(counts) -> float:
    """Type-class size over its Stirling-style estimate, for a full-support
    type with k counts: 2**(n H) * n**(-(k-1)/2) * prod(1/sqrt(counts[a]/n)),
    the ratio taken in the log domain.  It stays inside a two-sided constant
    band for fixed k."""
    if any(c == 0 for c in counts):
        raise DomainError("stirling_ratio requires a full-support type")
    n, k = sum(counts), len(counts)
    log2_ratio = (
        math.log2(type_class_size(counts))
        - n * type_entropy_bits(counts)
        + 0.5 * (k - 1) * math.log2(n)
        + 0.5 * math.fsum(math.log2(c / n) for c in counts)
    )
    return 2.0 ** log2_ratio


def compositions(n: int, m: int):
    """All count vectors of n into m slots (stars and bars), in no
    particular order; independent of the library's enumerators."""
    for bars in itertools.combinations(range(n + m - 1), m - 1):
        edges = (-1,) + bars + (n + m - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _class_size(counts):
    return math.factorial(sum(counts)) // math.prod(math.factorial(c) for c in counts)


def _reference_ordering(n, m, key):
    """(order, offsets) of a plain sort of every composition on ``key``:
    the count vectors in code order, and the strings in all classes before
    each (the last entry is m**n)."""
    order = tuple(sorted(compositions(n, m), key=key))
    return order, tuple(itertools.accumulate(map(_class_size, order), initial=0))


def _lex_first(counts):
    """The lexicographically first string of the class ``counts``."""
    return tuple(s for s, c in enumerate(counts) for _ in range(c))


def reference_rank(x, counts):
    """Lex rank of ``x`` in its type class ``counts``, one symbol at a time:
    at each position the strings that put a smaller symbol there number
    size * below / remaining.  The library's rank skips this multiply-divide
    where it can; this loop is the reference it must equal."""
    counts, remaining, size, rank = list(counts), len(x), _class_size(counts), 0
    for s in x:
        below = sum(counts[:s])
        if below:
            rank += size * below // remaining
        size = size * counts[s] // remaining
        counts[s] -= 1
        remaining -= 1
    return rank


def reference_unrank(counts, rank):
    """The string of lex rank ``rank`` in the type class ``counts``: at each
    position, the first symbol whose size * count / remaining strings reach
    past what is left of the rank."""
    counts, remaining, size, out = list(counts), sum(counts), _class_size(counts), []
    while remaining > 0:
        for s, c in enumerate(counts):
            if c == 0:
                continue
            here = size * c // remaining
            if rank < here:
                out.append(s)
                size = here
                counts[s] -= 1
                remaining -= 1
                break
            rank -= here
    return tuple(out)


def reference_class_runs(tables, n):
    """(coeff, r, rows) per run of the canonical class order, by a
    depth-first walk with its own stack of (slot, remaining, heads, coeff)
    frames: the runs share their first m-2 counts, whose table entries are
    ``heads``, ``rows`` holds each class's heads and its last two entries,
    and ``types_census._class_rows`` (the rows) and ``_iter_runs`` (each
    run's r and coeff) must equal it.  A frame's children are pushed in
    reverse, so they pop in ascending lex order; a child that leaves
    nothing has one completion, zeros up to the run, so it is pushed as
    that run (at m = 256, n = 2 the 32,640 runs would otherwise pass
    through 2.7 million frames)."""
    last = len(tables) - 2
    stack = [(0, n, (), 1)]
    while stack:
        slot, remaining, heads, coeff = stack.pop()
        if slot == last:
            yield coeff, remaining, map(heads.__add__, zip(tables[-2][:remaining + 1], tables[-1][remaining::-1]))
            continue
        table, binom, children = tables[slot], 1, []  # binom = C(remaining, c)
        for c in range(remaining + 1):
            head = heads + (table[c],)
            if c == remaining:
                head += tuple(t[0] for t in tables[slot + 1:last])
            children.append((last if c == remaining else slot + 1, remaining - c, head, coeff * binom))
            binom = binom * (remaining - c) // (c + 1)
        stack += reversed(children)


def reference_iter_runs(n, m):
    """(prefix, rest, prev, run, size, arr) for every run of partitions of n
    into at most m parts, in descending lex order, by the recursive walk that
    nests one generator per part: ``types_census._iter_runs`` with
    ``partitions`` must equal it."""
    if m == 2:  # one run, with no prefix
        return iter((((), n, n, 0, 1, 1),))
    return _iter_runs_after(m, n, 1, n, 0, (), 1, 1)


def _iter_runs_after(m, remaining, slot, prev, run, prefix, size, arr):
    """The runs of :func:`reference_iter_runs` that start with ``prefix``,
    with ``remaining`` of n left for parts ``slot`` (1-based, at most m - 2)
    onwards."""
    top = min(prev, remaining)
    binom = math.comb(remaining, top)  # C(remaining, c), c counting down
    # the largest part left is at least the mean of what is left
    low = -(-remaining // (m - slot + 1))
    if slot < m - 2:
        for c in range(top, low - 1, -1):
            r = run + 1 if c == prev else 1
            yield from _iter_runs_after(m, remaining - c, slot + 1, c, r, prefix + (c,),
                                        size * binom, arr * slot // r)
            binom = binom * c // (remaining - c + 1)
        return
    for c in range(top, low - 1, -1):
        r = run + 1 if c == prev else 1
        yield prefix + (c,), remaining - c, c, r, size * binom, arr * slot // r
        binom = binom * c // (remaining - c + 1)


def _iter_partitions(n, m):
    """(parts, class size, arrangements) for every partition of n into at
    most m parts, as a nonincreasing count vector of length m (zero padded),
    in descending lex order.  Needs m >= 2.

    Each partition stands for the permutation orbit of the count vectors
    that rearrange it; entropy and class size are the same across an orbit,
    and ``arrangements`` = m!/prod(multiplicity!) is the orbit's size.  Both
    integers are kept incrementally, one multiply/divide per part.  Each run
    of :func:`reference_iter_runs` expands in one flat loop: the last part
    is what is left, so it adds no binomial, and its multiplicity only
    extends the run of the part before it when the two are equal."""
    slot = m - 1
    for prefix, rest, prev, run, size, arr in reference_iter_runs(n, m):
        top = min(prev, rest)
        binom = math.comb(rest, top)
        for c in range(top, (rest - 1) // 2, -1):  # parts m-1 and m: c, then the rest
            r = run + 1 if c == prev else 1
            last = rest - c
            yield (prefix + (c, last), size * binom,
                   arr * slot // r * m // (r + 1 if last == c else 1))
            binom = binom * c // (last + 1)


def reference_entropy_columns(n, m):
    """(entropies, parts, sizes, checkpoints) of the universal store of
    blocklength n over m symbols, built in one pass that keeps every
    orbit's strings through the sort: a stable sort of the partitions of
    :func:`_iter_partitions` on ``type_entropy_bits`` alone, and per
    partition in code order its entropy, its m parts ascending and its
    orbit's strings."""
    partitions = list(_iter_partitions(n, m))
    keys = [type_entropy_bits(parts) for parts, _, _ in partitions]
    ranking = sorted(range(len(keys)), key=keys.__getitem__)
    entropies = [keys[j] for j in ranking]
    sizes = [partitions[j][1] * partitions[j][2] for j in ranking]
    packed = [c for j in ranking for c in partitions[j][0][::-1]]
    offsets = itertools.accumulate(sizes, initial=0)
    checkpoints = list(itertools.islice(offsets, 0, len(sizes), coding._OFFSET_STRIDE))
    return entropies, packed, sizes, checkpoints


def universal_key(n, m):
    """The universal order as a sort key on the compositions of n into m
    slots, independent of the store: (entropy, the index of its partition
    in the order of :func:`_iter_partitions`, counts).  So partitions of
    equal float entropy keep that order, and an orbit's classes are lex."""
    index = {parts: i for i, (parts, _, _) in enumerate(_iter_partitions(n, m))}
    return lambda c: (type_entropy_bits(c), index[tuple(sorted(c, reverse=True))], c)


def equal_entropy_groups(n, m):
    """The groups of two or more partitions of n into at most m parts
    (ascending count vectors) whose float entropies are bit-equal."""
    groups = {}
    for parts, _, _ in _iter_partitions(n, m):
        groups.setdefault(type_entropy_bits(parts), []).append(parts[::-1])
    return [group for group in groups.values() if len(group) > 1]


def reference_low_entropy_count(n, m, h):
    """The census count by a test of every partition of n into at most m
    parts: the loop the library's per-run bisection must equal."""
    hi = h + ENTROPY_CMP_TOL
    return sum(arrangements * size for parts, size, arrangements in _iter_partitions(n, m)
               if type_entropy_bits(parts) <= hi)


def reference_slab_count(n, m, h):
    """The slab count (types with entropy in [h - 1/n, h]) by a test of
    every partition of n into at most m parts."""
    lo, hi = h - 1.0 / n - ENTROPY_CMP_TOL, h + ENTROPY_CMP_TOL
    return sum(arrangements for parts, _, arrangements in _iter_partitions(n, m)
               if lo <= type_entropy_bits(parts) <= hi)


def suffix_tails(sizes, probs, mass, add, zero, one, total):
    """Tails at every codeword length of a code whose ranked classes have
    ``sizes`` and per-string ``probs``: suffix sums of ``mass(size, prob)``
    under ``add``, with the class straddling each 2**L found by a linear
    walk and split by hand.  ``zero``/``one`` are the empty and full masses,
    ``total`` the number of strings.  Works in log2 floats (logaddexp2) and
    in Fractions alike."""
    suffix = [zero] * (len(sizes) + 1)
    for i in reversed(range(len(sizes))):
        suffix[i] = add(mass(sizes[i], probs[i]), suffix[i + 1])
    tails, i, start = [one], 0, 1  # class i holds ranks start .. start + sizes[i] - 1
    for length in range(1, total.bit_length()):
        while start + sizes[i] <= 1 << length:
            start += sizes[i]
            i += 1
        partial = start + sizes[i] - (1 << length)
        tails.append(add(mass(partial, probs[i]), suffix[i + 1]))
    tails.append(zero)
    return tuple(tails)


BRUTE_FORCE_STRING_CAP = 2_000_000


def brute_force_limits(p: SourcePmf, n: int) -> LengthDistribution:
    """Independent oracle: enumerate all m**n strings in exact rationals.

    Sorts strings by probability with the same tie conventions as
    :func:`~pragrate.length_distribution` (canonical type order, then
    lexicographic), assigns length floor(log2 k) to the k-th string and
    tabulates tails.  Must equal ``length_distribution(p, n, exact=True)``
    exactly.  Refuses more than ``BRUTE_FORCE_STRING_CAP`` strings before
    computing m**n.
    """
    check_source(p)
    if p.exact is None:
        raise DomainError("brute force oracle needs exact rational probabilities")
    check_integer("blocklength n", n, 1)
    total = p.m ** min(n, BRUTE_FORCE_STRING_CAP.bit_length())  # m**n wherever it is within the cap
    if total > BRUTE_FORCE_STRING_CAP:
        raise ResourceLimitError(f"{p.m}**{describe(n)} strings exceeds the brute-force cap "
                                 f"of {BRUTE_FORCE_STRING_CAP}")
    prob_of_counts: dict[tuple[int, ...], Fraction] = {}
    rows = []
    for string in itertools.product(range(p.m), repeat=n):
        counts = [0] * p.m
        for s in string:
            counts[s] += 1
        key = tuple(counts)
        prob = prob_of_counts.get(key)
        if prob is None:
            prob = Fraction(1)
            for c, f in zip(key, p.exact):
                if c:
                    prob *= f ** c
            prob_of_counts[key] = prob
        rows.append((-prob, key, string))
    rows.sort()

    max_len = total.bit_length() - 1
    tails: list[Fraction] = [Fraction(0)] * (max_len + 2)
    boundary_to_len = {1 << L: L for L in range(max_len + 2) if (1 << L) <= total}
    acc = Fraction(0)
    for k in range(total, 0, -1):
        acc += -rows[k - 1][0]
        L = boundary_to_len.get(k)
        if L is not None:
            tails[L] = acc  # suffix sum over ranks >= k = 2**L

    log2_tails = tuple(math.log2(t) if t > 0 else NEG_INF for t in tails)
    return LengthDistribution(n=n, m=p.m, log2_tails=log2_tails, exact_tails=tuple(tails))


def peak_mib(fn, *args, **kwargs):
    """The tracemalloc peak, in MiB, of one call ``fn(*args, **kwargs)``."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)
