"""Seeded op generators for the four benchmark workloads.

An op is one user request: a CLI invocation (``cli``), a codec encode
followed by a decode of its output (``codec``), or one public library call
the CLI cannot reach (``lib``).  Each workload cycles through a fixed block
of cells (op shapes and sizes), shuffled per block, so every block has the
same mix whatever the seed; the seed only picks the order, the sources,
exponents, thresholds and strings.  Sources are 3-decimal pmfs, so they
also carry exact rationals.

Streams with different names (``warmup``, ``timed``, ``trace``, and the
memory list) draw from independent generators, so the ops of one pass never
repeat those of another: every moment envelope in ``tilted_sweep`` is cold.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator

WORKLOADS = ("exact_sweep", "tilted_sweep", "codec_roundtrip", "census_sweep")

GOLDEN_SOURCE = "0.2,0.8"
GOLDEN_N = 50
GOLDEN_EPS = (0.00003, 0.00010, 0.00032, 0.00093, 0.00251, 0.00626, 0.01444)

LADDER_POINTS = 7  # epsilons (or deltas) per blocklength in ladder/limits ops
MAX_N_DELTA = 600.0  # keeps 2**(-n*delta) far above the double underflow at 1074
ALPHABET = "abcd"


@dataclass(frozen=True)
class Op:
    """One request.  ``argv``/``stdin`` drive the CLI; a codec op runs
    ``argv`` (encode) then ``argv2`` (decode) on the encoder's output; a lib
    op calls ``fn`` with ``args``.  ``info`` holds what the checker needs.
    ``deep`` marks a ladder op with n*delta > 1074, on which the CLI exits 2
    (ROADMAP item 3)."""

    kind: str
    cell: str
    argv: tuple = ()
    argv2: tuple = ()
    stdin: str = ""
    fn: str = ""
    args: tuple = ()
    info: dict = field(default_factory=dict, compare=False)
    deep: bool = False


# --- sources -----------------------------------------------------------------


def _kl_uniform_bits(probs) -> float:
    m = len(probs)
    return sum(math.log2(1.0 / (m * p)) for p in probs) / m


def random_source(rng: random.Random, m: int, *, min_div: float = 0.03) -> tuple[str, tuple[float, ...]]:
    """A 3-decimal pmf with every entry >= 0.02 and D(U||P) >= ``min_div``.

    Returns the CLI text (e.g. ``"0.217,0.783"``) and the float entries.
    """
    while True:
        weights = [rng.uniform(0.05, 1.0) ** 2 for _ in range(m)]
        total = sum(weights)
        milli = [max(20, round(1000 * w / total)) for w in weights]
        milli[milli.index(max(milli))] += 1000 - sum(milli)
        if min(milli) < 20:
            continue
        probs = tuple(x / 1000 for x in milli)
        if _kl_uniform_bits(probs) >= min_div:
            return ",".join(f"{x / 1000:.3f}" for x in milli), probs


def _deltas(rng: random.Random, probs, n_max: int, count: int) -> list[float]:
    """Admissible exponents: strictly inside (0, D(U||P)) and n*delta <= 600."""
    hi = min(0.9 * _kl_uniform_bits(probs), MAX_N_DELTA / n_max)
    lo = 0.05 * hi
    return sorted(float(f"{rng.uniform(lo, hi):.6g}") for _ in range(count))


def _fmt_list(values) -> str:
    return ",".join(repr(v) for v in values)


# --- exact_sweep -------------------------------------------------------------
#
# Sizes are fixed per cell and only the contents come from the seed: a run's
# latency quantiles then move with the code and the machine, not with how
# large the seed happened to draw the inputs.  Duplicated cells weight the mix:
# six cheaper ops, three ladders m=3 n=45, six dearer ops, so the median falls
# mid-way through one cell's latencies rather than in a gap between two cells,
# and the 90th percentile mid-way through the three m=4 ladders.


def _exact_ladder(rng, m, n):
    text, probs = random_source(rng, m)
    deltas = _deltas(rng, probs, n, LADDER_POINTS)
    argv = ("ladder", "--source", text, "--n", str(n), "--delta", _fmt_list(deltas))
    return Op("cli", f"ladder_m{m}_n{n}", argv=argv,
              info={"probs": probs, "ns": [n], "deltas": deltas, "exact": True})


def _exact_limits(rng, m, lo, step):
    text, probs = random_source(rng, m)
    ns = [lo, lo + step, lo + 2 * step]
    # epsilons 2**(-n*delta) at the smallest n, spread over the admissible range
    eps = sorted(float(f"{2.0 ** (-lo * d):.6g}") for d in _deltas(rng, probs, ns[-1], LADDER_POINTS))
    argv = ("limits", "--source", text, "--n", f"{ns[0]}:{ns[-1]}:{step}", "--eps", _fmt_list(eps))
    return Op("cli", f"limits_m{m}_n{lo}", argv=argv, info={"probs": probs, "ns": ns, "eps": eps})


def _exact_golden(rng):
    argv = ("ladder", "--source", GOLDEN_SOURCE, "--n", str(GOLDEN_N), "--eps", _fmt_list(GOLDEN_EPS))
    return Op("cli", "golden", argv=argv,
              info={"probs": (0.2, 0.8), "ns": [GOLDEN_N], "eps": list(GOLDEN_EPS),
                    "exact": True, "golden": True})


def _exact_fraction(rng, m, n):
    text, probs = random_source(rng, m)
    return Op("lib", f"fraction_m{m}_n{n}", fn="length_distribution", args=(text, n),
              info={"probs": probs})


EXACT_CELLS = (
    (_exact_golden, ()),
    (_exact_ladder, (2, 350)),
    (_exact_ladder, (2, 550)),
    (_exact_ladder, (3, 45)),
    (_exact_ladder, (3, 45)),
    (_exact_ladder, (3, 45)),
    (_exact_ladder, (3, 65)),
    (_exact_ladder, (4, 24)),
    (_exact_ladder, (4, 24)),
    (_exact_ladder, (4, 24)),
    (_exact_limits, (2, 250, 50)),
    (_exact_limits, (3, 30, 5)),
    (_exact_limits, (4, 14, 3)),
    (_exact_fraction, (2, 150)),
    (_exact_fraction, (3, 28)),
)


# --- tilted_sweep ------------------------------------------------------------


def _tilted_constants(rng, m):
    text, probs = random_source(rng, m)
    delta = _deltas(rng, probs, 1, 1)[0]
    return Op("cli", f"constants_m{m}", argv=("constants", "--source", text, "--delta", repr(delta)),
              info={"probs": probs, "delta": delta})


def _tilted_ladder(rng, m):
    # 40 blocklengths up to 2000, one alpha* solve each
    text, probs = random_source(rng, m)
    ns = list(range(50, 2001, 50))
    deltas = _deltas(rng, probs, ns[-1], 1)
    argv = ("ladder", "--source", text, "--n", "50:2000:50", "--delta", _fmt_list(deltas), "--no-exact")
    return Op("cli", f"ladder_m{m}", argv=argv,
              info={"probs": probs, "ns": ns, "deltas": deltas, "exact": False})


def _tilted_deep(rng):
    # n*delta = 20000 * 0.07.. > 1074: epsilon = 2**(-n*delta) underflows a double.
    m = rng.choice((2, 3, 4))
    text, probs = random_source(rng, m, min_div=0.12)
    delta = float(f"{rng.uniform(0.07, 0.1):.6g}")
    argv = ("ladder", "--source", text, "--n", "20000", "--delta", repr(delta), "--no-exact")
    return Op("cli", "ladder_deep", argv=argv, deep=True,
              info={"probs": probs, "ns": [20000], "deltas": [delta], "exact": False})


# Two ladders per cold envelope put the median inside the ladder latencies
# and the 90th percentile inside the envelope ones, away from the gap between
# the two; one alphabet size per population keeps each of them narrow.
TILTED_CELLS = (
    (_tilted_deep, ()),
    (_tilted_constants, (3,)),
    (_tilted_constants, (3,)),
    (_tilted_constants, (3,)),
) + ((_tilted_ladder, (4,)),) * 6


# --- codec_roundtrip ---------------------------------------------------------

CODEC_STRINGS = 75
MEMORY_STRINGS = 10  # the ordering, not the strings, sets a codec op's peak


def _codec(rng, m, n, mode):
    text, probs = random_source(rng, m)
    alphabet = ALPHABET[:m]
    # strings drawn i.i.d. from the source, so types near P dominate
    strings = ["".join(rng.choices(alphabet, weights=probs, k=n)) for _ in range(CODEC_STRINGS)]
    source = ("--source", text) if mode == "known" else ()
    enc = ("codec", "encode", "--mode", mode, "--alphabet", alphabet, "--n", str(n)) + source
    dec = ("codec", "decode") + source
    return Op("codec", f"{mode}_m{m}_n{n}", argv=enc, argv2=dec, stdin="\n".join(strings) + "\n",
              info={"m": m, "n": n, "strings": CODEC_STRINGS})


def _codec_excess(rng, m, n):
    text, probs = random_source(rng, m)
    h = -sum(p * math.log2(p) for p in probs)
    lengths = sorted({round(n * rng.uniform(h, math.log2(m))) for _ in range(3)})
    return Op("lib", f"excess_m{m}_n{n}", fn="universal_excess_probability",
              args=(text, n, tuple(lengths)), info={"probs": probs})


CODEC_CELLS = (
    (_codec, (2, 800, "universal")),
    (_codec, (2, 800, "known")),
    (_codec, (3, 150, "universal")),
    (_codec, (3, 150, "known")),
    (_codec, (4, 50, "universal")),
    (_codec, (4, 50, "known")),
    (_codec_excess, (3, 80)),
    (_codec_excess, (4, 32)),
)


# --- census_sweep ------------------------------------------------------------


def _census(rng, m, lo, hi, step, slab, by_source):
    ns = list(range(lo, hi + 1, step))
    argv = ["census", "--n", f"{lo}:{hi}:{step}"]
    info = {"m": m, "ns": ns, "slab": slab}
    if by_source:
        text, probs = random_source(rng, m)
        argv += ["--threshold-source", text]
        info["probs"] = probs
    else:
        h = float(f"{rng.uniform(0.3, 0.95) * math.log2(m):.6g}")
        argv += ["--m", str(m), "--threshold-bits", repr(h)]
        info["h"] = h
    if slab:
        argv.append("--slab")
    kind = "slab" if slab else ("source" if by_source else "bits")
    return Op("cli", f"{kind}_m{m}", argv=tuple(argv), info=info)


CENSUS_CELLS = (
    (_census, (2, 300, 1700, 200, False, False)),
    (_census, (2, 300, 1700, 200, False, True)),
    (_census, (3, 30, 90, 10, False, False)),
    (_census, (3, 30, 90, 10, False, True)),
    (_census, (3, 30, 90, 10, True, False)),
    (_census, (4, 12, 32, 5, False, False)),
    (_census, (4, 12, 32, 5, False, True)),
    (_census, (4, 12, 32, 5, True, False)),
)

CELLS = {
    "exact_sweep": EXACT_CELLS,
    "tilted_sweep": TILTED_CELLS,
    "codec_roundtrip": CODEC_CELLS,
    "census_sweep": CENSUS_CELLS,
}


def block_size(workload: str) -> int:
    return len(CELLS[workload])


def stream(workload: str, seed: int, name: str) -> Iterator[Op]:
    """Endless op stream; the same (workload, seed, name) gives the same ops."""
    cells = CELLS[workload]
    rng = random.Random(f"{workload}/{seed}/{name}")
    while True:
        block = list(cells)
        rng.shuffle(block)
        for make, params in block:
            yield make(rng, *params)


def ops(workload: str, seed: int, name: str, count: int) -> list[Op]:
    return list(itertools.islice(stream(workload, seed, name), count))


def one_per_cell(workload: str, seed: int, name: str) -> list[Op]:
    """One op of each distinct cell, from its own stream."""
    rng = random.Random(f"{workload}/{seed}/{name}")
    seen = {}
    for make, params in CELLS[workload]:
        op = make(rng, *params)
        seen.setdefault(op.cell, op)
    return list(seen.values())


def memory_ops(workload: str, seed: int) -> list[Op]:
    """One op per distinct cell, but one codec op per alphabet size (known
    and universal orderings have the same size), keeping its first
    MEMORY_STRINGS strings: tracemalloc slows allocation-heavy code about
    tenfold."""
    seen = {}
    for op in one_per_cell(workload, seed, "memory"):
        key = op.cell
        if op.kind == "codec":
            lines = op.stdin.splitlines()[:MEMORY_STRINGS]
            op = replace(op, stdin="\n".join(lines) + "\n", info=dict(op.info, strings=len(lines)))
            key = op.info["m"]
        seen.setdefault(key, op)
    return list(seen.values())


HASH_BLOCKS = 2  # blocks of the timed stream covered by the printed hash


def op_list_hash(workload: str, seed: int) -> str:
    """sha256 over the warm-up, memory and trace lists and the first
    ``HASH_BLOCKS`` blocks of the timed stream."""
    k = block_size(workload)
    digest = hashlib.sha256()
    lists = [ops(workload, seed, name, count) for name, count in (("trace", k), ("timed", HASH_BLOCKS * k))]
    for op in itertools.chain(one_per_cell(workload, seed, "warmup"), memory_ops(workload, seed), *lists):
        digest.update(json.dumps(asdict(op), sort_keys=True).encode())
    return digest.hexdigest()
