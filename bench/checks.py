"""Output checks for benchmark ops, run outside the timed region.

Every oracle here is stdlib code of the benchmark's own (entropy, tilt,
alpha* bisection, multinomial census sums); none calls into pragrate.
``check(op, output)`` returns None when the output is right, else a short
reason.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
from fractions import Fraction

from workloads import GOLDEN_EPS

# Bern(0.2), n = 50, rounded to 3 decimals.  Three pinned cells are known not
# to reproduce at the display-rounded epsilons (see tests/test_acceptance.py),
# which leaves 32 checked cells.
GOLDEN = {
    "exact": (0.940, 0.940, 0.920, 0.900, 0.900, 0.880, 0.840),
    "shannon": (0.722,) * 7,
    "strassen": (1.119, 1.086, 1.052, 1.017, 0.983, 0.948, 0.913),
    "blahut": (1.000, 0.997, 0.993, 0.987, 0.979, 0.969, 0.957),
    "pragmatic": (0.941, 0.936, 0.928, 0.917, 0.903, 0.888, 0.869),
}
GOLDEN_SKIP = {("strassen", 3), ("blahut", 1), ("pragmatic", 4)}
GOLDEN_TOL = 0.0005 + 1e-12

ENTROPY_TOL = 1e-12  # the census threshold slack, as documented by the CLI
REL_TOL = 1e-9


# --- stdlib oracles ----------------------------------------------------------


def entropy_bits(probs) -> float:
    return -math.fsum(p * math.log2(p) for p in probs if p > 0)


def _tilted(probs, alpha):
    """(P_alpha, D(P_alpha||P) bits, H(P_alpha) bits, Var and E|.|^3 of ln P under P_alpha)."""
    w = [p ** alpha for p in probs]
    z = math.fsum(w)
    q = [x / z for x in w]
    kl = math.fsum(qi * math.log2(qi / pi) for qi, pi in zip(q, probs))
    h = entropy_bits(q)
    ln_p = [math.log(p) for p in probs]
    mean = math.fsum(qi * v for qi, v in zip(q, ln_p))
    var = math.fsum(qi * (v - mean) ** 2 for qi, v in zip(q, ln_p))
    rho = math.fsum(qi * abs(v - mean) ** 3 for qi, v in zip(q, ln_p))
    return q, kl, h, var, rho


def _kl_tilted(probs, alpha) -> float:
    w = [p ** alpha for p in probs]
    z = math.fsum(w)
    return math.fsum(x / z * math.log2(x / z / p) for x, p in zip(w, probs))


def alpha_star(probs, delta) -> float:
    """alpha in (0, 1) with D(P_alpha||P) = delta, by plain bisection."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if _kl_tilted(probs, mid) > delta:
            lo = mid
        else:
            hi = mid


@functools.lru_cache(maxsize=None)
def _type_table(n, m):
    """Entropies (bits, ascending) of the n-types on m symbols, and the
    running totals of their exact multinomial class sizes."""
    xlogx = [0.0] + [c * math.log2(c) for c in range(1, n + 1)]
    log2n = math.log2(n)
    rows = []

    def rec(rest, slots, s, size):
        if slots == 1:
            rows.append((max(log2n - (s + xlogx[rest]) / n, 0.0), size))
            return
        binom = 1  # C(rest, c)
        for c in range(rest + 1):
            rec(rest - c, slots - 1, s + xlogx[c], size * binom)
            binom = binom * (rest - c) // (c + 1)

    rec(n, m, 0.0, 1)
    rows.sort()
    return [h for h, _ in rows], list(itertools.accumulate((z for _, z in rows), initial=0))


def census_count(n, m, h) -> int:
    """Number of strings whose empirical entropy is at most h (+ slack)."""
    entropies, totals = _type_table(n, m)
    return totals[bisect.bisect_right(entropies, h + ENTROPY_TOL)]


def slab_count(n, m, h) -> int:
    """Number of types with entropy in [h - 1/n, h] (with slack)."""
    entropies, _ = _type_table(n, m)
    return (bisect.bisect_right(entropies, h + ENTROPY_TOL)
            - bisect.bisect_left(entropies, h - 1.0 / n - ENTROPY_TOL))


def _log2_fraction(f: Fraction) -> float:
    return math.log2(f.numerator) - math.log2(f.denominator)


def _close(a, b, tol=REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- per-kind checks ---------------------------------------------------------


def _csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _check_ladder(op, out):
    info = op.info
    probs, m = info["probs"], len(info["probs"])
    header, rows = _csv(out)
    if header != ["n", "epsilon", "delta", "exact", "shannon", "strassen", "blahut", "pragmatic"]:
        return f"ladder header {header}"
    points = info.get("deltas") or info["eps"]
    if len(rows) != len(info["ns"]) * len(points):
        return f"ladder has {len(rows)} rows"
    h = entropy_bits(probs)
    h_max = math.log2(m)
    tilted_h = {}
    if "deltas" in info:
        tilted_h = {d: _tilted(probs, alpha_star(probs, d))[2] for d in info["deltas"]}
    for i, row in enumerate(rows):
        n = int(row["n"])
        if n != info["ns"][i // len(points)]:
            return f"row {i} has n={n}"
        required = ["shannon", "blahut", "pragmatic"]
        if not op.deep:
            required.append("strassen")
        if info["exact"]:
            required.append("exact")
        missing = [c for c in required if row[c] == "-"]
        if missing:
            return f"n={n}: '-' in {missing} at an admissible delta"
        if not _close(float(row["shannon"]), h, 1e-12):
            return f"shannon {row['shannon']} != H(P) {h!r}"
        blahut, pragmatic = float(row["blahut"]), float(row["pragmatic"])
        if not h - 1e-12 <= blahut <= h_max + 1e-12 or not pragmatic < blahut:
            return f"n={n}: tilted columns out of order ({blahut}, {pragmatic})"
        if tilted_h:
            want = tilted_h[points[i % len(points)]]
            if not _close(blahut, want):
                return f"n={n}: blahut {blahut!r} != H(P_alpha*) {want!r}"
        if info["exact"]:
            k = float(row["exact"]) * n
            if abs(k - round(k)) > 1e-9 or not 0 <= round(k) <= n * h_max + 1:
                return f"n={n}: exact rate {row['exact']} not on the k/n grid"
    if info.get("golden"):
        for column, pinned in GOLDEN.items():
            for idx, value in enumerate(pinned):
                if (column, idx) in GOLDEN_SKIP:
                    continue
                got = float(rows[idx][column])
                if abs(got - value) > GOLDEN_TOL:
                    return f"golden {column} at eps={GOLDEN_EPS[idx]}: {got!r} vs {value}"
    return None


def _check_limits(op, out):
    info = op.info
    m = len(info["probs"])
    header, rows = _csv(out)
    if header != ["n", "epsilon", "L_star", "rate"]:
        return f"limits header {header}"
    if len(rows) != len(info["ns"]) * len(info["eps"]):
        return f"limits has {len(rows)} rows"
    prev = None
    for i, row in enumerate(rows):
        n, rate, l_star = int(row["n"]), float(row["rate"]), int(row["L_star"])
        k = rate * n
        if abs(k - round(k)) > 1e-9 or not 0 <= k <= n * math.log2(m) + 1:
            return f"n={n}: rate {row['rate']} not on the k/n grid"
        if l_star != round(k) + 1:
            return f"n={n}: L_star {l_star} != rate*n + 1"
        # epsilons ascend within one n, so rates must not increase
        if i % len(info["eps"]) and rate > prev:
            return f"n={n}: rate rose with epsilon"
        prev = rate
    return None


def _check_constants(op, out):
    info = op.info
    probs, delta = info["probs"], info["delta"]
    d = json.loads(out)
    a = d["alpha_star"]
    if d["delta_bits"] != delta or not 0.0 < a < 1.0:
        return f"alpha_star {a!r} / delta {d['delta_bits']!r}"
    _, kl, _, var, rho = _tilted(probs, a)
    if not _close(kl, delta):
        return f"D(P_alpha*||P) = {kl!r} != delta {delta!r}"
    if not all(d[k] > 0 for k in ("C", "N0", "p", "q", "r")):
        return "nonpositive converse constant"
    if not d["sigma3_inf_sq"] * (1 - REL_TOL) <= var <= d["sigma3_sup_sq"] * (1 + REL_TOL):
        return "sigma3 envelope does not bracket sigma3_sq(alpha*)"
    if rho > d["rho3_sup"] * (1 + REL_TOL):
        return "rho3 envelope below rho3(alpha*)"
    if d["N0"] < max(d["N1"], d["N2"]):
        return "N0 below N1/N2"
    return None


def _check_census(op, out):
    info = op.info
    m, ns = info["m"], info["ns"]
    header, rows = _csv(out)
    if len(rows) != len(ns):
        return f"census has {len(rows)} rows"
    if "probs" in info:
        h_own = entropy_bits(info["probs"])
        h = float(rows[0]["threshold_bits"])
        if not _close(h, h_own, 1e-12):
            return f"threshold {h!r} != H(Q) {h_own!r}"
    else:
        h = info["h"]
    for n, row in zip(ns, rows):
        if int(row["n"]) != n or float(row["threshold_bits"]) != h:
            return f"census row {row}"
        if info["slab"]:
            want = slab_count(n, m, h)
            if int(row["slab_type_count"]) != want:
                return f"n={n}: slab count {row['slab_type_count']} != {want}"
            continue
        count = census_count(n, m, h)
        if float(row["log2_count"]) != math.log2(count):
            return f"n={n}: log2_count {row['log2_count']} != {math.log2(count)!r}"
        theta = 2.0 ** (math.log2(count) - 0.5 * (m - 3) * math.log2(n) - n * h)
        if not _close(float(row["theta_ratio"]), theta):
            return f"n={n}: theta_ratio {row['theta_ratio']} != {theta!r}"
    return None


def _check_codec(op, out):
    encoded, decoded = out
    info = op.info
    m, n = info["m"], info["n"]
    lines = encoded.splitlines()
    if not lines[0].startswith(f"# mode={op.argv[3]} m={m} n={n} "):
        return f"codec header {lines[0]!r}"
    words = lines[1:]
    if len(words) != info["strings"]:
        return f"{len(words)} codewords for {info['strings']} strings"
    max_len = (m ** n).bit_length() - 1
    if any(set(w) - {"0", "1"} or len(w) > max_len for w in words):
        return "codeword not binary or longer than floor(log2 m**n)"
    if decoded != op.stdin:
        return "round trip is not byte-exact"
    return None


def _check_fraction_tails(op, dist):
    if dist.exact_tails is None or len(dist.exact_tails) != len(dist.log2_tails):
        return "exact tails missing"
    prev = Fraction(1)
    for length, (ft, lt) in enumerate(zip(dist.exact_tails, dist.log2_tails)):
        if ft > prev or ft < 0:
            return f"exact tail rises at L={length}"
        prev = ft
        if ft == 0:
            if lt != float("-inf"):
                return f"L={length}: exact tail 0, float tail 2**{lt!r}"
        elif not _close(_log2_fraction(ft), lt):
            return f"L={length}: log2 exact tail {_log2_fraction(ft)!r} != {lt!r}"
    if dist.exact_tails[0] != 1:
        return "P(length >= 0) != 1"
    return None


def _check_excess(op, values):
    prev = 1.0
    for v in values:
        if not 0.0 <= v <= prev:
            return f"excess probabilities not in [0, 1] and non-increasing: {values}"
        prev = v
    return None


def check(op, output):
    """None if ``output`` is right for ``op``, else the reason it is not."""
    try:
        if op.kind == "codec":
            return _check_codec(op, output)
        if op.kind == "lib":
            if op.fn == "length_distribution":
                return _check_fraction_tails(op, output)
            return _check_excess(op, output)
        command = op.argv[0]
        if command == "ladder":
            return _check_ladder(op, output)
        if command == "limits":
            return _check_limits(op, output)
        if command == "constants":
            return _check_constants(op, output)
        return _check_census(op, output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}"
