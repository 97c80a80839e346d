import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from pragrate import SourcePmf


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
