import dataclasses
import hashlib
import json
import math
import random
import statistics
import sys
import tracemalloc

import pytest

from pragrate import (
    DomainError,
    InvariantViolation,
    ResourceLimitError,
    SourcePmf,
    delta_range,
    entropy,
    error_exponent,
    kl_divergence,
    moment_envelope,
    solve_alpha_star,
    tilt,
)

from pragrate import exponents
from pragrate.cli import main
from pragrate.distributions import _tilt_weights
from pragrate.exponents import ENVELOPE_CHUNK, ENVELOPE_EDGE, ENVELOPE_GRID, ENVELOPE_GRID_CAP
from pragrate.numerics import LOG2E

from conftest import bern, random_pmf, skewed_pmf, weighted_moments

P02 = bern("0.2")
DELTA_HALF = kl_divergence([1 / 3, 2 / 3], P02)  # alpha* = 1/2 exactly


class TestDeltaRange:
    def test_bern02(self):
        rng = delta_range(P02)
        assert not rng.is_empty
        assert rng.hi == pytest.approx(0.321928, abs=5e-7)
        assert rng.contains(0.1) and not rng.contains(0.4)

    def test_uniform_m3_empty(self):
        rng = delta_range(SourcePmf((1 / 3, 1 / 3, 1 / 3)))
        assert rng.is_empty

    def test_uniform_binary_empty(self):
        assert delta_range(bern("0.5")).is_empty

    def test_endpoints_excluded(self):
        rng = delta_range(P02)
        assert not rng.contains(0.0)
        assert not rng.contains(rng.hi)

    def test_equals_kl_divergence_of_the_uniform_law(self, rng):
        # D(U || P) without the uniform vector's checks, bit for bit: seeded
        # sources, sources a few ulps from uniform (where the clamp at 0
        # acts) and the uniform source itself
        sources = [random_pmf(rng, m) for m in range(2, 9) for _ in range(4)]
        sources += [skewed_pmf(rng, m) for m in (2, 3, 5, 8)]
        sources += [SourcePmf(tuple(x * (1 + rng.uniform(-1e-12, 1e-12)) for x in (1 / m,) * m)) for m in range(2, 9)]
        sources += [SourcePmf((0.25,) * 4), SourcePmf((1 / 3,) * 3), bern("0.5")]
        for p in sources:
            hi = delta_range(p).hi
            assert repr(hi) == repr(kl_divergence([1 / p.m] * p.m, p)), p


class TestSolveAlphaStar:
    def test_closed_form_half(self):
        sol = solve_alpha_star(P02, DELTA_HALF)
        assert sol.alpha_star == pytest.approx(0.5, abs=1e-10)
        # H(Bern(1/3)) = log2(3) - 2/3
        assert sol.h_tilted == pytest.approx(math.log2(3) - 2 / 3, abs=1e-10)
        assert abs(sol.tilted.kl_bits - DELTA_HALF) <= 1e-11

    def test_continuity_at_tiny_delta(self):
        sol = solve_alpha_star(P02, 1e-9)
        assert abs(sol.h_tilted - entropy(P02)) < 1e-4

    def test_pinned_blahut_point(self):
        # delta = log2(1/0.01444)/50
        sol = solve_alpha_star(P02, math.log2(1 / 0.01444) / 50)
        assert sol.h_tilted == pytest.approx(0.957, abs=1e-3)

    def test_out_of_range_rejected(self):
        rng = delta_range(P02)
        for bad in (0.0, -0.1, rng.hi, rng.hi + 0.1):
            with pytest.raises(DomainError):
                solve_alpha_star(P02, bad)
        with pytest.raises(DomainError):
            solve_alpha_star(bern("0.5"), 0.01)

    def test_monotone_in_delta(self):
        deltas = [0.01 * k for k in range(1, 31)]
        sols = [solve_alpha_star(P02, d) for d in deltas]
        alphas = [s.alpha_star for s in sols]
        hs = [s.h_tilted for s in sols]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))
        assert all(a < b for a, b in zip(hs, hs[1:]))


class TestErrorExponent:
    def test_inverse_of_alpha_star_example(self):
        got = error_exponent(P02, math.log2(3) - 2 / 3)
        assert got == pytest.approx(DELTA_HALF, abs=1e-9)

    def test_zero_at_entropy(self):
        assert error_exponent(P02, entropy(P02)) == 0.0

    def test_round_trip(self):
        for delta in (0.01, 0.05, 0.12, 0.2, 0.3):
            sol = solve_alpha_star(P02, delta)
            assert error_exponent(P02, sol.h_tilted) == pytest.approx(delta, abs=1e-9)

    def test_full_entropy_gives_uniform_divergence(self):
        assert error_exponent(P02, 1.0) == pytest.approx(delta_range(P02).hi, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            error_exponent(P02, 0.5)  # below H(P)
        with pytest.raises(DomainError):
            error_exponent(P02, 1.1)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_refused(self, rate):
        # nan compares false with everything, so `rate < lo or rate > hi` lets it through
        with pytest.raises(DomainError, match=r"^rate=nan outside|^rate=-?inf outside"):
            error_exponent(P02, rate)

    def test_convex_nondecreasing(self, rng):
        for _ in range(5):
            p = random_pmf(rng, 3)
            h0, h1 = entropy(p), math.log2(3)
            grid = [h0 + (h1 - h0) * k / 20 for k in range(21)]
            vals = [error_exponent(p, r) for r in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            for i in range(1, len(vals) - 1):
                assert vals[i] <= (vals[i - 1] + vals[i + 1]) / 2 + 1e-9

    def test_tilted_entropy_is_constrained_max(self):
        # H(P_alpha*) = sup{H(Q): D(Q||P) <= delta}, by simplex grid search.
        step = 1e-3
        for p, delta in [(P02, 0.08), (SourcePmf((0.6, 0.3, 0.1)), 0.15)]:
            sol = solve_alpha_star(p, delta)
            best = 0.0
            if p.m == 2:
                qs = ([q, 1 - q] for q in (step * k for k in range(1, 1000)))
            else:
                qs = (
                    [a, b, 1 - a - b]
                    for a in (step * k for k in range(1, 1000))
                    for b in (step * k for k in range(1, 1000))
                    if a + b < 1 - step / 2
                )
            for q in qs:
                if kl_divergence(q, p) <= delta:
                    best = max(best, entropy(q))
            assert sol.h_tilted == pytest.approx(best, abs=2e-3)


class TestMomentEnvelope:
    def test_uniform_degenerate(self):
        env = moment_envelope(SourcePmf((0.25,) * 4))
        assert env.degenerate
        assert env.sigma3_inf_sq == env.sigma3_sup_sq == env.rho3_sup == 0.0

    def test_brackets_interior_point(self):
        env = moment_envelope(P02)
        t = tilt(P02, 0.5)
        assert env.sigma3_inf_sq <= t.sigma3_sq <= env.sigma3_sup_sq
        assert t.rho3 <= env.rho3_sup
        assert env.sigma3_inf_sq > 0.0
        assert math.isfinite(env.rho3_sup)

    def test_grid_refinement_stability(self):
        # For Bern(0.2), sigma3_sq = w(1-w) ln(4)^2 and rho3 = w(1-w)(w^2 + (1-w)^2) ln(4)^3
        # with w in [0.2, 0.5]: the inf is at alpha = 1, the sups at alpha = 0.
        # Each envelope is on the safe side of them, by at most its own
        # inflation e^(k R^2 h^2 / 2), R = ln 4 and h half a grid step, and
        # its rounding margin, far below 1e-8 here.
        l4 = math.log(4.0)
        for grid_size in (4096, 8192):
            env = moment_envelope(P02, grid_size=grid_size)
            h = (1.0 - 2 * ENVELOPE_EDGE) / (grid_size - 1) / 2
            c = l4 * l4 * h * h / 2
            assert 0.16 * l4 ** 2 * math.exp(-c) * (1 - 1e-8) <= env.sigma3_inf_sq <= 0.16 * l4 ** 2
            assert 0.25 * l4 ** 2 <= env.sigma3_sup_sq <= 0.25 * l4 ** 2 * math.exp(0.75 * c) * (1 + 1e-8)
            assert 0.125 * l4 ** 3 <= env.rho3_sup <= 0.125 * l4 ** 3 * math.exp(9.5 * c) * (1 + 1e-8)

    def test_envelope_bounds_every_grid_point(self, rng):
        p = random_pmf(rng, 3)
        env = moment_envelope(p, grid_size=512)
        for k in range(512):
            a = 1e-6 + (1 - 2e-6) * k / 511
            t = tilt(p, a)
            assert env.sigma3_inf_sq <= t.sigma3_sq + 1e-15
            assert t.sigma3_sq <= env.sigma3_sup_sq + 1e-15
            assert t.rho3 <= env.rho3_sup + 1e-15

    def test_binary_closed_form_extremes(self):
        # For Bern(0.2): sigma3_sq = w(1-w) ln(4)^2 with w in (0.2, 0.5), so the
        # envelope ends are w=0.2 (inf) and w=0.5 (sup); rho3 sup at w=0.5.
        env = moment_envelope(P02)
        l4sq = math.log(4.0) ** 2
        assert env.sigma3_inf_sq == pytest.approx(0.2 * 0.8 * l4sq, rel=1e-4)
        assert env.sigma3_sup_sq == pytest.approx(0.25 * l4sq, rel=1e-4)
        assert env.rho3_sup == pytest.approx(0.25 * 0.5 * math.log(4.0) ** 3, rel=1e-4)

    def test_grid_evaluations(self, rng, monkeypatch):
        # the top level (every 512th point of 4096 and the last one) is always
        # evaluated, in the first kernel call; the curvature bound rules out
        # most blocks below it, and no grid point is evaluated twice
        calls = []
        kernel = exponents._tilted_sigma3_rho3_columns

        def recording(ln_p, alphas):
            calls.append(list(alphas))
            return kernel(ln_p, alphas)

        monkeypatch.setattr(exponents, "_tilted_sigma3_rho3_columns", recording)
        step = (1.0 - ENVELOPE_EDGE - ENVELOPE_EDGE) / (ENVELOPE_GRID - 1)
        top = [ENVELOPE_EDGE + i * step for i in (*range(0, ENVELOPE_GRID - 1, 512), ENVELOPE_GRID - 1)]
        counts = []
        for _ in range(40):
            calls.clear()
            env = exponents._moment_envelope.__wrapped__(random_pmf(rng, 3))
            assert calls[0] == top and calls[-1] == [0.0, 1.0]
            grid = [alpha for call in calls[:-1] for alpha in call]
            assert env.grid_evaluations == len(grid) == len(set(grid))
            assert all(len(call) <= ENVELOPE_CHUNK for call in calls)
            counts.append(env.grid_evaluations)
        assert all(len(top) <= c <= ENVELOPE_GRID for c in counts)
        assert statistics.median(counts) <= 80  # 55 measured
        assert moment_envelope(SourcePmf((0.25,) * 4)).grid_evaluations == 0

    def test_peak_memory(self, rng):
        # the scan holds the blocks of one level in arrays, and its kernel
        # calls after the top level take at most 24 alphas: at most 19.0 KiB
        # here on CPython 3.10 and 3.11 (20.4 KiB for the two-level scan it
        # replaced, about 60 KiB with a dict per evaluated point)
        sources = [random_pmf(rng, 3) for _ in range(20)] + [P02]
        peaks = []
        for p in sources:
            exponents._moment_envelope.__wrapped__(p)
            tracemalloc.start()
            try:
                exponents._moment_envelope.__wrapped__(p)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 22 * 1024, peaks

    def test_grid_evaluations_do_not_enter_equality(self):
        env = moment_envelope(P02)
        again = exponents._moment_envelope.__wrapped__(P02)
        assert again is not env and again == env and hash(again) == hash(env)
        assert dataclasses.replace(env, grid_evaluations=ENVELOPE_GRID) == env

    @pytest.mark.parametrize("grid_size", [3.5, 4096.0, "4096", True, 2])
    def test_bad_grid_size_is_refused(self, grid_size):
        with pytest.raises(DomainError, match="grid_size"):
            moment_envelope(P02, grid_size=grid_size)

    def test_memo_counts_checked_calls_only(self):
        # bench/run.py reads the memo's hit ratio through the public name
        exponents._moment_envelope.cache_clear()
        env = moment_envelope(P02, 64)
        assert moment_envelope.cache_info()[:2] == (0, 1)  # hits, misses
        assert moment_envelope(P02, 64) is env
        assert moment_envelope.cache_info()[:2] == (1, 1)
        for args, refusal in [(([0.2, 0.8],), DomainError), ((P02, [64]), DomainError),
                              ((P02, 64.0), DomainError), ((P02, ENVELOPE_GRID_CAP + 1), ResourceLimitError)]:
            with pytest.raises(refusal):
                moment_envelope(*args)
        assert moment_envelope.cache_info()[:2] == (1, 1)


def reference_bisection(p, target, field):
    """alpha with tilt(p, alpha).<field> == target, by bisection run down to
    adjacent floats, as a chain of full tilt() calls."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if getattr(tilt(p, mid), field) > target:
            lo = mid
        else:
            hi = mid


SOLVE_FRACTIONS = (1e-6, 1e-3, 0.01, 0.3, 0.9, 0.999)  # of D(U || P)


def solve_grid(rng, per_m=6):
    """(p, delta) over seeded sources at m = 2..6 and SOLVE_FRACTIONS."""
    for m in (2, 3, 4, 5, 6):
        for _ in range(per_m):
            p = random_pmf(rng, m)
            hi = delta_range(p).hi
            for frac in SOLVE_FRACTIONS:
                yield p, frac * hi


def reference_envelope(p, grid_size):
    """moment_envelope from full tilt() calls over the whole grid, and
    tilt()'s weight and moment code at the closed ends, which tilt() does not
    take; certified as MomentEnvelope's docstring says."""
    ln_p = [math.log(x) for x in p.probs]
    step = (1.0 - ENVELOPE_EDGE - ENVELOPE_EDGE) / (grid_size - 1)
    points = [tilt(p, ENVELOPE_EDGE + i * step) for i in range(grid_size)]
    sig = [t.sigma3_sq for t in points]
    rho = [t.rho3 for t in points]
    # the kernel's rounding margin, from the smallest sigma3_sq at every
    # ENVELOPE_CHUNK-th grid point and the last one, less the curvature bound
    # over a block of ENVELOPE_CHUNK steps
    r = max(ln_p) - min(ln_p)
    block = min(ENVELOPE_CHUNK, grid_size - 1) * step / 2
    big = 1.0 - min(ln_p)
    w = 8.0 * sys.float_info.epsilon * big
    floor = math.sqrt(0.5 * min(sig[::ENVELOPE_CHUNK] + sig[-1:]) * math.exp(-r * r / 2 * block * block))
    t = 2.0 * big * w / floor if floor > 0.0 else math.inf
    eps = w + t * (3.0 + t * (3.0 + t))
    if eps >= 0.5:
        return 0.0, math.inf, math.inf
    widen = 1.0 + 1e-9 + 4.0 * eps
    for alpha in (0.0, 1.0):
        _, sigma3_sq, rho3 = weighted_moments(_tilt_weights(ln_p, alpha)[2], ln_p)
        sig.append(sigma3_sq)
        rho.append(rho3)
    h = max(step, ENVELOPE_EDGE) / 2
    c = r * r / 2 * h * h
    return (
        min(sig) * math.exp(-c) / widen,
        max(sig) * math.exp(0.75 * c) * widen,
        max(rho) * math.exp(9.5 * c) * widen,
    )


class TestNewtonSolve:
    """The safeguarded Newton solve of alpha* against a bisection on tilt(),
    over sources at m = 2..6 and exponents from 1e-6 to 0.999 of D(U || P)."""

    def test_alpha_star_against_bisection(self, rng):
        for p, delta in solve_grid(rng):
            sol = solve_alpha_star(p, delta)
            a = sol.alpha_star
            # D's rounding noise: a few ulps of the largest |log P| it sums
            noise = 4 * LOG2E * math.ulp(-min(math.log(x) for x in p.probs))
            assert sol.residual == abs(sol.tilted.kl_bits - delta) <= 8 * noise
            slope = abs((a - 1) * sol.tilted.sigma3_sq * LOG2E)  # dD/dalpha at alpha*
            if slope > 1e-3:
                # within that noise neither solver can order alpha; past it they agree
                ref = reference_bisection(p, delta, "kl_bits")
                assert abs(a - ref) <= 4 * math.ulp(a) + noise / slope, (p, delta)
            assert error_exponent(p, sol.h_tilted) == pytest.approx(delta, rel=1e-9, abs=1e-15)

    def test_wrong_alpha_star_at_tiny_delta_is_refused(self, monkeypatch):
        # at delta = 1e-13 the root is 1 - 6.7e-7, but D(P_alpha || P) at
        # alpha = 1 - 1e-7 is only 2.1e-15 bits: an absolute bound of 1e-11
        # on |D - delta| would pass it, one relative to D's rounding noise
        # must not
        sol = solve_alpha_star(P02, 1e-13)
        assert 1 - sol.alpha_star == pytest.approx(6.7e-7, rel=0.01)
        monkeypatch.setattr(exponents, "_solve_tilted", lambda p, target, entropy: (0.9999999, 1))
        with pytest.raises(InvariantViolation, match="missed target"):
            solve_alpha_star(P02, 1e-13)

    @pytest.mark.parametrize("text,bound", [("0.2,0.8", "1.03e-14"), ("0.1,0.2,0.3,0.4", "2.05e-14")])
    def test_delta_below_the_resolution_is_refused(self, text, bound):
        # at or below 8 rounding noises of D, alpha* is not determined: for
        # Bern(0.2) the solver returned 1 - alpha* off by x18 at 1e-20 and
        # by x6.7e141 at 1e-300, where the quadratic expansion gives the root
        p = SourcePmf.parse(text)
        resolution = 8 * 4 * LOG2E * math.ulp(-min(math.log(x) for x in p.probs))
        assert f"{resolution:.3g}" == bound
        for delta in (resolution, 1e-18, 1e-20, 1e-300):
            with pytest.raises(DomainError, match=rf"^delta={delta!r} is below the alpha\* solver's "
                                                  rf"resolution of {bound} bits for this source$"):
                solve_alpha_star(p, delta)
        sol = solve_alpha_star(p, math.nextafter(resolution, 1.0))
        assert sol.residual <= resolution

    def test_iteration_counts(self, rng):
        counts = [solve_alpha_star(p, delta).iterations for p, delta in solve_grid(rng)]
        assert statistics.median(counts) <= 8
        assert max(counts) <= 47  # the bisection's fixed count

    def test_diagnostics_do_not_enter_equality(self):
        sol = solve_alpha_star(P02, 0.1)
        assert sol.iterations >= 1 and sol.residual == abs(sol.tilted.kl_bits - 0.1)
        again = solve_alpha_star(P02, 0.1)
        assert again == sol and hash(again) == hash(sol)


class TestBitIdenticalToTiltChains:
    """The envelope reads a columnar kernel, not tilt(); its output must
    equal the tilt()-based algorithm exactly."""

    # near-tie sources: two equal entries, and entries with 0.1 * 0.4 == 0.2 ** 2;
    # then a near-uniform source with flat moments
    ENVELOPE_SOURCES = ("0.3,0.3,0.4", "0.1,0.2,0.4,0.3", "0.333,0.333,0.334")
    # sizes that are not one more than a multiple of the block stride, so the
    # last block is short (or empty), and grids of one or two blocks
    GRID_SIZES = (3, 4, 5, 33, 65, 100, 129, 4097)
    # Sources on which a block bound without its curvature term, or without
    # the kernel's rounding margin, skips the block that holds the dense
    # extreme (found by search against such variants): moments with two
    # peaks, from clustered log-probabilities given as (-ln weight, count)
    # pairs, and sources within a few hundred ulps of uniform, where rounding
    # noise makes exact ties, at the grid sizes where that happens.  The
    # four-symbol one has no certified envelope: its rounding margin is too
    # wide.
    SENSITIVE = (
        (((10.06, 1), (13.1, 13), (17.42, 3)), 100),
        (((0.75, 1), (3.97, 13), (9.68, 1), (12.62, 1), (19.21, 2)), 100),
        (((3.66, 1), (8.79, 3), (10.24, 13), (17.25, 1), (17.28, 2)), 129),
        (((12.19, 2), (14.4, 8), (14.49, 5), (19.79, 1)), 257),
        ((0.20000000000010018, 0.19999999999962692, 0.20000000000029475,
          0.20000000000009324, 0.19999999999988494), 257),
        ((0.20000000000049514, 0.2000000000005361, 0.19999999999966073,
          0.20000000000011228, 0.1999999999991957), 1025),
        ((0.2500000000000072, 0.25000000000001205, 0.2500000000000053, 0.24999999999997535), 129),
        ((0.49999999996935507, 0.5000000000306449), 65),
    )

    def test_moment_envelope(self, rng):
        sources = [random_pmf(rng, m) for m in range(2, 9)]
        sources += [skewed_pmf(rng, m) for m in (2, 3, 5, 8)]  # R up to about 11
        sources += [SourcePmf.parse(text) for text in self.ENVELOPE_SOURCES]
        for p in sources:
            env = exponents._moment_envelope.__wrapped__(p)
            got = (env.sigma3_inf_sq, env.sigma3_sup_sq, env.rho3_sup)
            assert got == reference_envelope(p, env.grid_size), p

    def test_moment_envelope_grid_sizes(self, rng):
        # R of about 69 at the last one: a block bound of e^(9.5c) on a grid of
        # one block would overflow, and the rounding margin skips nothing there
        sources = [random_pmf(rng, 3), random_pmf(rng, 8), skewed_pmf(rng, 2), skewed_pmf(rng, 4),
                   SourcePmf.parse("0.333,0.333,0.334"), skewed_pmf(rng, 3, smallest=1e-30)]
        cases = [(p, grid_size) for p in sources for grid_size in self.GRID_SIZES]
        for spec, grid_size in self.SENSITIVE:
            if isinstance(spec[0], tuple):
                raw = [math.exp(-level) for level, count in spec for _ in range(count)]
                spec = tuple(x / math.fsum(raw) for x in raw)
            cases.append((SourcePmf(spec), grid_size))
        for p, grid_size in cases:
            env = exponents._moment_envelope.__wrapped__(p, grid_size)
            got = (env.sigma3_inf_sq, env.sigma3_sup_sq, env.rho3_sup)
            assert got == reference_envelope(p, grid_size), (p, grid_size)

    @pytest.mark.parametrize("grid_size", [2049, 3001, 4100, 16385])
    def test_moment_envelope_deep_grids(self, rng, grid_size):
        # two levels above ENVELOPE_CHUNK, three at 16385; every block is
        # full at 2049 and 16385, the last block of every level is short at
        # 4100 (the last grid index is odd), and of the three coarsest at 3001
        for p in (random_pmf(rng, 3), random_pmf(rng, 5), skewed_pmf(rng, 3)):
            env = exponents._moment_envelope.__wrapped__(p, grid_size)
            got = (env.sigma3_inf_sq, env.sigma3_sup_sq, env.rho3_sup)
            assert got == reference_envelope(p, grid_size), (p, grid_size)

    def test_constants_envelope_fields_pinned(self, capsys):
        # repr strings of the certified envelope: alpha* may move in its last
        # bits, the envelope may not
        assert main(["constants", "--source", "0.2,0.8", "--delta", "0.0703"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert repr(payload["sigma3_inf_sq"]) == "0.30748992419496257"
        assert repr(payload["sigma3_sup_sq"]) == "0.48045301956108527"
        assert repr(payload["rho3_sup"]) == "0.33302469764444986"

    # the sha256 of the sweep below, as first computed
    TILTED_SWEEP_SHA256 = "db4535dd5c33ba462569d786ee1f575ac47fb7c248259c1c403450fee44f4ff0"

    def test_seeded_tilt_and_solve_sweep_is_pinned(self):
        """Every tilt() field, alpha*, H(P_alpha*) and the evaluation count
        over a seeded sweep, bit for bit: a change to the order of the
        moment arithmetic or to the solver's steps shows here."""
        rng = random.Random(22)
        digest = hashlib.sha256()
        sources = [random_pmf(rng, m) for m in (2, 3, 4, 5, 6) for _ in range(10)]
        sources += [skewed_pmf(rng, m) for m in (2, 3, 5) for _ in range(4)]
        for p in sources:
            for alpha in (1e-6, rng.uniform(0.0, 0.5), 0.5, rng.uniform(0.5, 1.0), 1 - 1e-9, 1.0):
                t = tilt(p, alpha)
                fields = (t.alpha, t.pmf.probs, t.logZ, t.sigma3_sq, t.rho3, t.entropy_bits, t.kl_bits)
                digest.update(repr(fields).encode() + b"\n")
            hi = delta_range(p).hi
            for frac in (1e-6, 0.01, rng.uniform(0.05, 0.95), 0.999):
                sol = solve_alpha_star(p, frac * hi)
                digest.update(repr((sol.alpha_star, sol.h_tilted, sol.iterations)).encode() + b"\n")
        assert digest.hexdigest() == self.TILTED_SWEEP_SHA256

    def test_tilt_call_counts(self, monkeypatch):
        calls = []
        original = exponents.tilt

        def counting(p, alpha):
            calls.append(alpha)
            return original(p, alpha)

        monkeypatch.setattr(exponents, "tilt", counting)
        p = SourcePmf((0.1, 0.2, 0.3, 0.4))
        exponents._moment_envelope.__wrapped__(p, grid_size=129)
        assert calls == []
        sol = solve_alpha_star(p, 0.05)
        assert calls == [sol.alpha_star]
