import contextlib
import io
import itertools
import json
import math
import random
import tracemalloc
from operator import attrgetter

import pytest

import pragrate.exact_limits
from pragrate import (
    DomainError,
    RateLadder,
    ResourceLimitError,
    SourcePmf,
    achievability_constant,
    approximations,
    blahut_rate,
    cli,
    compute_rate_ladder,
    compute_rate_ladders,
    converse_constants,
    count_types,
    delta_range,
    error_exponent,
    excess_rate_probability,
    kl_divergence,
    length_distribution,
    moment_envelope,
    optimal_rate,
    pragmatic_rate,
    prefix_adjust,
    shannon_rate,
    solve_alpha_star,
    strassen_rate,
    tilt,
    universal_length_distribution,
    universal_rate_bound,
    universal_threshold_alpha_n,
)
from pragrate.approximations import (
    coding_variance_bits,
    delta_to_epsilon,
    epsilon_to_delta,
)
from pragrate.numerics import normal_tail_inverse

from conftest import bern, random_pmf, tilted_log_moments

P02 = bern("0.2")
DELTA_HALF = kl_divergence([1 / 3, 2 / 3], P02)


def ladder_table(rows, fmt="csv"):
    """The table the ``ladder`` command writes for ``rows`` in ``fmt``, notes
    aside: each row goes to the writer as its columns' cells, then its note."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cells = attrgetter(*cli._LADDER_COLUMNS, "note")
        cli._write_table(cli._LADDER_COLUMNS, map(cells, rows), fmt)
    return out.getvalue()


def q_inverse_oracle(eps: float) -> float:
    """Independent bisection on Q(x) = erfc(x/sqrt(2))/2 = eps.

    The lower tail (eps > 1/2) is reduced by symmetry, since erfc near 2
    carries no relative precision.
    """
    if eps > 0.5:
        return -q_inverse_oracle(1.0 - eps)
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if 0.5 * math.erfc(mid / math.sqrt(2)) > eps:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestNormalTailInverse:
    def test_against_erfc_bisection(self):
        grid = [1e-12, 1e-9, 1e-6, 1e-4, 0.00093, 0.01444, 0.1, 0.3, 0.5,
                0.7, 0.9, 0.99, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]
        for eps in grid:
            assert normal_tail_inverse(eps) == pytest.approx(
                q_inverse_oracle(eps), abs=1e-9
            )

    def test_median_is_zero(self):
        assert normal_tail_inverse(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_subnormal_epsilon_is_finite_and_monotone(self):
        # exp(x*x/2) overflows below about 2**-1031; the smallest subnormal is 2**-1074
        xs = [normal_tail_inverse(2.0 ** -k) for k in range(1000, 1075)]
        assert all(math.isfinite(x) for x in xs)
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert 38.4 < xs[-1] < 38.5

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                normal_tail_inverse(bad)


class TestShannonRate:
    def test_bern02(self):
        assert round(shannon_rate(P02), 3) == 0.722

    def test_uniform_binary(self):
        assert shannon_rate(bern("0.5")) == pytest.approx(1.0, abs=1e-15)

    def test_near_degenerate(self):
        assert shannon_rate(bern("0.999")) == pytest.approx(0.011408, abs=5e-7)


class TestStrassenRate:
    def test_dispersion_is_exact_for_bern02(self):
        # p(1-p) * (log2((1-p)/p))^2 = 0.16 * 4 = 0.64, sigma = 0.8 bits
        assert coding_variance_bits(P02) == pytest.approx(0.64, abs=1e-14)

    def test_table_endpoints(self):
        assert strassen_rate(P02, 50, 0.01444) == pytest.approx(0.913, abs=1e-3)
        assert strassen_rate(P02, 50, 0.00003) == pytest.approx(1.119, abs=1e-3)

    def test_median_case(self):
        n = 50
        expect = shannon_rate(P02) - math.log2(n) / (2 * n)
        assert strassen_rate(P02, n, 0.5) == pytest.approx(expect, abs=1e-12)

    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            strassen_rate(P02, 50, 0.0)


class TestBlahutPragmatic:
    def test_table_cells(self):
        assert blahut_rate(P02, 50, 0.01444) == pytest.approx(0.957, abs=1e-3)
        assert blahut_rate(P02, 50, 0.00003) == pytest.approx(1.000, abs=1e-3)
        assert pragmatic_rate(P02, 50, 0.01444) == pytest.approx(0.869, abs=1e-3)
        assert pragmatic_rate(P02, 50, 0.00003) == pytest.approx(0.941, abs=1e-3)

    def test_closed_form_half_point(self):
        eps = 2.0 ** (-50 * DELTA_HALF)
        h_half = math.log2(3) - 2 / 3
        expect = h_half - math.log2(50) / (2 * 50 * 0.5)
        got = pragmatic_rate(P02, 50, eps)
        assert got == pytest.approx(expect, abs=1e-9)
        assert got == pytest.approx(0.805419, abs=5e-6)

    def test_blahut_tends_to_entropy(self):
        # delta -> 0+ corresponds to epsilon -> 1- at fixed n
        got = blahut_rate(P02, 50, 0.9999999)
        assert got == pytest.approx(shannon_rate(P02), abs=1e-4)

    def test_pragmatic_strictly_below_blahut(self, rng):
        for _ in range(10):
            p = random_pmf(rng, rng.choice([2, 3]))
            hi = delta_range(p).hi
            n = rng.randint(2, 200)
            eps = 2.0 ** (-n * 0.5 * hi)
            assert pragmatic_rate(p, n, eps) < blahut_rate(p, n, eps)

    def test_out_of_range_reports_interval(self):
        # delta beyond D(U||P): eps = 2^{-n*0.4}
        with pytest.raises(DomainError, match="admissible epsilon"):
            blahut_rate(P02, 50, 2.0 ** (-50 * 0.4))
        with pytest.raises(DomainError, match="uniform"):
            blahut_rate(bern("0.5"), 50, 0.1)

    def test_pragmatic_nondecreasing_in_delta(self):
        # regression-style invariant at n >= 10 for Bern(0.2)
        for n in (10, 25, 50, 200):
            deltas = [0.01 + 0.3 * k / 40 for k in range(41)]
            vals = []
            for d in deltas:
                sol = solve_alpha_star(P02, d)
                vals.append(sol.h_tilted - math.log2(n) / (2 * n * (1 - sol.alpha_star)))
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestAchievabilityConstant:
    def test_dual_implementation_oracle(self):
        # the library scales the moments of ln P(X); take those of
        # ln P_alpha(X) and ln [P_alpha/P](X) directly from the tilted pmf
        sol = solve_alpha_star(P02, DELTA_HALF)
        a = sol.alpha_star
        m = tilted_log_moments(P02, sol.tilted)
        sigma1, rho1 = math.sqrt(m.sigma1_sq), m.rho1
        sigma2, rho2 = math.sqrt(m.sigma2_sq), m.rho2
        expect = math.log2((1 / sigma1) * (1 / math.sqrt(2 * math.pi) + rho1 / sigma1 ** 2))
        expect += (a / (1 - a)) * math.log2(
            (1 / sigma2) * (1 / math.sqrt(2 * math.pi) + rho2 / sigma2 ** 2)
        )
        assert achievability_constant(P02, DELTA_HALF) == pytest.approx(expect, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            achievability_constant(P02, 0.9)

    def test_sandwich_holds_for_ternary_source(self):
        # exact rate <= pragmatic + c/n at every blocklength, mid-range exponent
        from pragrate import optimal_rate

        p = SourcePmf.parse("0.6,0.3,0.1")
        delta = delta_range(p).hi / 2
        sol = solve_alpha_star(p, delta)
        c = achievability_constant(p, delta)
        for n in range(1, 41):
            exact = optimal_rate(p, n, log2_epsilon=-n * delta)
            bound = sol.h_tilted - math.log2(n) / (2 * n * (1 - sol.alpha_star)) + c / n
            assert exact <= bound + 1e-12


class TestConverseConstants:
    def test_structure_and_positivity(self):
        cc = converse_constants(P02, DELTA_HALF)
        assert cc.p > 0 and cc.q > 0 and cc.r > 0 and cc.C > 0
        assert cc.N1 >= 8 and cc.N2 >= 3
        assert cc.N0 >= max(cc.N1, cc.N2)
        env = cc.envelope
        expected_n0 = max(
            4.4 * (env.rho3_sup / env.sigma3_inf_sq ** 1.5 + 1.0) ** 2,
            4.0 * (1 + cc.q + cc.r) ** 2 / cc.p ** 2,
            2.0 * (1 + cc.q + cc.r) / (cc.p * (1 - cc.alpha_star)),
            cc.N1,
            cc.N2,
        )
        assert cc.N0 == pytest.approx(expected_n0, rel=1e-12)

    # N1 and N2 range from the search's start values, 8 and 3, up to
    # 143,630; at 0.001,0.999 with half the exponent range the start values
    # already satisfy both predicates
    @pytest.mark.parametrize("source,share", [pytest.param("0.2,0.8", None, id="bern02-delta_half")] + [
        pytest.param(source, share, id=f"{name}-share{share}".replace(".", ""))
        for name, source in (("bern02", "0.2,0.8"), ("bern0001", "0.001,0.999"), ("m3", "0.6,0.3,0.1"),
                             ("m4", "0.1,0.2,0.4,0.3"), ("m4_skewed", "0.001,0.002,0.003,0.994"))
        for share in (0.02, 0.5, 0.9)
    ])
    def test_threshold_minimality(self, source, share):
        p = SourcePmf.parse(source)
        delta = DELTA_HALF if share is None else delta_range(p).hi * share
        cc = converse_constants(p, delta)
        n1, n2 = cc.N1, cc.N2
        # an ascending scan from the start values finds the same thresholds
        assert n1 == next(n for n in itertools.count(8) if math.log2(n) <= cc.p * math.sqrt(n))
        assert n2 == next(
            n for n in itertools.count(3) if math.log2(n) <= cc.p * (1 - cc.alpha_star) * n
        )
        assert math.log2(n1) <= cc.p * math.sqrt(n1)
        if n1 > 8:
            assert math.log2(n1 - 1) > cc.p * math.sqrt(n1 - 1)
        assert math.log2(n2) <= cc.p * (1 - cc.alpha_star) * n2
        if n2 > 3:
            assert math.log2(n2 - 1) > cc.p * (1 - cc.alpha_star) * (n2 - 1)

    def test_threshold_search_past_a_machine_word(self):
        # the search runs on Python ints: a bracket past 2**63 is found exactly
        for target in (9, 1000, 2 ** 63 + 12345, 3 ** 100):
            assert approximations._first_n_with(lambda n: n >= target, 8) == target
        assert approximations._first_n_with(lambda n: n >= 5, 8) == 8
        cc = converse_constants(bern("0.500001"), 1e-14)
        assert cc.N1 > 2 ** 63 and cc.N0 == float(cc.N1)

    def test_near_uniform_finite(self):
        p = bern("0.51")
        cc = converse_constants(p, delta_range(p).hi / 2)
        for v in (cc.C, cc.N0, cc.p, cc.q, cc.r):
            assert math.isfinite(v) and v > 0

    def test_refuses_a_source_without_a_certified_envelope(self):
        # within a few hundred ulps of uniform, the kernel's rounding margin
        # passes 1/2 and the envelope certifies only [0, inf]
        p = SourcePmf((0.2500000000000072, 0.25000000000001205, 0.2500000000000053, 0.24999999999997535))
        env = moment_envelope(p)
        assert (env.sigma3_inf_sq, env.sigma3_sup_sq, env.rho3_sup) == (0.0, math.inf, math.inf)
        with pytest.raises(DomainError, match="no certified bound"):
            converse_constants(p, 1e-28)

    def test_alpha_star_solved_once(self, monkeypatch):
        calls = []

        def counting(p, delta):
            calls.append(delta)
            return solve_alpha_star(p, delta)

        monkeypatch.setattr(approximations, "solve_alpha_star", counting)
        cc = converse_constants(P02, DELTA_HALF)
        assert calls == [DELTA_HALF]
        assert cc.achievability_c == achievability_constant(P02, DELTA_HALF)


class TestUniversalRateBound:
    def test_binary_collapses_to_pragmatic(self):
        # bit for bit: the (m-2)/2 term is an exact 0.0 at m = 2; at 21 of
        # these n the old single-coefficient form differed in its last bits
        for n in range(2, 2000):
            (row,) = compute_rate_ladders(P02, n, deltas=[0.05], include_exact=False)
            assert universal_rate_bound(P02, n, 0.05) == row.pragmatic, n

    def test_ternary_gap_is_half_log_n_over_n(self):
        p = SourcePmf.parse("0.5,0.3,0.2")
        n = 100
        delta = delta_range(p).hi / 2
        eps = 2.0 ** (-n * delta)
        gap = universal_rate_bound(p, n, delta) - pragmatic_rate(p, n, eps)
        assert gap == pytest.approx(0.5 * math.log2(n) / n, abs=1e-12)


class TestPrefixAdjust:
    def test_example(self):
        assert prefix_adjust(0.940, 50) == pytest.approx(0.960, abs=1e-12)

    def test_vanishes_asymptotically(self):
        assert prefix_adjust(0.7, 10 ** 9) == pytest.approx(0.7, abs=1e-8)

    def test_ladder_prefix_mode_shifts_exact_column_only(self):
        row1 = compute_rate_ladder(P02, 20, 0.01)
        row2 = compute_rate_ladder(P02, 20, 0.01, prefix_mode=True)
        assert row2.exact == pytest.approx(row1.exact + 1 / 20, abs=1e-12)
        assert row2.blahut == row1.blahut
        assert row2.pragmatic == row1.pragmatic
        assert row2.strassen == row1.strassen


class TestLadder:
    def test_ordering_in_deep_small_eps_regime(self):
        # upper half of the admissible exponent interval, for sources with a
        # real entropy gap (the ordering is regime-dependent near uniform)
        cases = [
            (P02, 25), (P02, 50), (P02, 200),
            (bern("0.3"), 50),
            (SourcePmf.parse("0.6,0.3,0.1"), 50),
            (SourcePmf.parse("0.5,0.3,0.2"), 100),
        ]
        for p, n in cases:
            for frac in (0.55, 0.75, 0.9):
                delta = delta_range(p).hi * frac
                eps = 2.0 ** (-n * delta)
                row = compute_rate_ladder(p, n, eps, include_exact=False)
                assert row.shannon < row.pragmatic < row.blahut

    def test_uniform_source_marks_tilted_columns(self):
        row = compute_rate_ladder(bern("0.5"), 50, 0.1)
        assert row.blahut is None and row.pragmatic is None
        assert "unavailable" in row.note
        assert row.exact is not None  # exact column still works

    def test_json_round_trip(self):
        rows = [compute_rate_ladder(P02, 50, e) for e in (0.01444, 0.00003)]
        payload = json.loads(ladder_table(rows, "json"))
        assert payload[0]["exact"] == rows[0].exact
        assert payload[1]["pragmatic"] == rows[1].pragmatic

    def test_json_bytes_equal_indented_dumps(self):
        odd = RateLadder(n=7, epsilon=0.0, delta=math.inf, shannon=-0.0, strassen=None,
                         blahut=math.nan, pragmatic=1e-300, exact=None,
                         note='say "}",\n\t{ ünïcode \\ }')
        rows = [compute_rate_ladder(P02, 50, e) for e in (0.01444, 0.00003)]
        keys = ("n", "epsilon", "delta", "exact", "shannon", "strassen", "blahut", "pragmatic", "note")
        for case in ([], rows[:1], rows, [odd], rows + [odd] + rows):
            want = json.dumps([{k: getattr(r, k) for k in keys} for r in case], indent=2) + "\n"
            assert ladder_table(case, "json") == want

    def test_csv_and_markdown_shapes(self):
        rows = [compute_rate_ladder(P02, 50, 0.01444)]
        csv = ladder_table(rows)
        assert csv.splitlines()[0] == "n,epsilon,delta,exact,shannon,strassen,blahut,pragmatic"
        md = ladder_table(rows, "markdown")
        assert "| 50 | 0.01444 | 0.122276 | 0.840 |" in md

    def test_full_precision_csv_follows_the_rate_columns(self):
        # each row is one template: its cells are the header's columns, every
        # value's repr and '-' for None (delta 1.0 is out of range at m = 2)
        rows = compute_rate_ladders(P02, 20, deltas=[0.05, 1.0], cap_types=5)
        header, *lines = ladder_table(rows).splitlines()
        assert header.split(",") == list(cli._LADDER_COLUMNS)
        for r, line in zip(rows, lines, strict=True):
            want = ["-" if v is None else repr(v) for v in map(r.__getattribute__, cli._LADDER_COLUMNS)]
            assert line.split(",") == want
        assert lines[1].count(",-") == 3

    def test_epsilon_delta_conversion(self):
        assert epsilon_to_delta(0.01444, 50) == pytest.approx(
            math.log2(1 / 0.01444) / 50, abs=1e-15
        )

    @pytest.mark.parametrize("n", [0, -3])
    def test_epsilon_to_delta_refuses_blocklength_below_one(self, n):
        with pytest.raises(DomainError, match="blocklength"):
            epsilon_to_delta(0.1, n)


def reference_row(p, n, eps, *, cap_types=10_000_000, prefix_mode=False):
    """One ladder row assembled from the single-point rate functions."""
    notes = []
    blahut = pragmatic = exact = None
    try:
        blahut, pragmatic = blahut_rate(p, n, eps), pragmatic_rate(p, n, eps)
    except DomainError as exc:
        notes.append(f"tilted columns unavailable: {exc}")
    try:
        exact = optimal_rate(p, n, eps, cap_types=cap_types)
        if prefix_mode:
            exact = prefix_adjust(exact, n)
    except ResourceLimitError as exc:
        notes.append(f"exact column infeasible: {exc}")
    return RateLadder(
        n=n, epsilon=eps, delta=epsilon_to_delta(eps, n), shannon=shannon_rate(p),
        strassen=strassen_rate(p, n, eps), blahut=blahut, pragmatic=pragmatic,
        exact=exact, note="; ".join(notes),
    )


class TestRateLadders:
    # the tiny epsilons put delta outside the admissible interval at each n
    EPSILONS = (0.3, 0.05, 1e-3, 1e-6, 1e-40)
    CASES = [(P02, 40), (SourcePmf.parse("0.6,0.3,0.1"), 20), (SourcePmf.parse("0.4,0.3,0.2,0.1"), 10)]

    @pytest.mark.parametrize("p, n", CASES, ids=["m2", "m3", "m4"])
    @pytest.mark.parametrize("prefix_mode", [False, True])
    def test_rows_equal_single_point_rows(self, p, n, prefix_mode):
        rows = compute_rate_ladders(p, n, self.EPSILONS, prefix_mode=prefix_mode)
        assert rows == [
            compute_rate_ladder(p, n, eps, prefix_mode=prefix_mode) for eps in self.EPSILONS
        ]
        assert rows == [reference_row(p, n, eps, prefix_mode=prefix_mode) for eps in self.EPSILONS]
        assert any("tilted columns unavailable" in r.note for r in rows)
        assert any(r.blahut is not None for r in rows)

    @pytest.mark.parametrize("p, n", CASES, ids=["m2", "m3", "m4"])
    def test_type_cap_note_on_every_row(self, p, n):
        cap = count_types(n, p.m) - 1
        rows = compute_rate_ladders(p, n, self.EPSILONS, cap_types=cap)
        assert rows == [compute_rate_ladder(p, n, eps, cap_types=cap) for eps in self.EPSILONS]
        assert rows == [reference_row(p, n, eps, cap_types=cap) for eps in self.EPSILONS]
        assert all(r.exact is None and "exact column infeasible" in r.note for r in rows)

    def test_bad_epsilon_refused_before_any_row(self):
        with pytest.raises(DomainError, match="got 0.0"):
            compute_rate_ladders(P02, 40, [0.1, 0.0])

    def test_empty_epsilon_list(self):
        assert compute_rate_ladders(P02, 40, []) == []

    @pytest.mark.parametrize("points", [{}, {"epsilons": [0.1], "deltas": [0.05]}], ids=["neither", "both"])
    def test_exactly_one_of_epsilons_or_deltas(self, points):
        with pytest.raises(DomainError, match="exactly one"):
            compute_rate_ladders(P02, 40, **points)

    def test_bad_delta_refused_before_any_row(self):
        with pytest.raises(DomainError, match="positive finite exponent, got nan"):
            compute_rate_ladders(P02, 40, deltas=[0.1, math.nan])

    def test_deep_delta_row(self):
        # n*delta = 1400: epsilon underflows a double, the tilted columns do not
        row, = compute_rate_ladders(P02, 20000, deltas=[0.07], include_exact=False)
        sol = solve_alpha_star(P02, 0.07)
        assert row.epsilon == 0.0 and row.delta == 0.07 and row.strassen is None
        assert row.blahut == sol.h_tilted
        assert row.note == "strassen column unavailable: epsilon = 2**-1400 underflows a double"

    def test_tiny_delta_row(self):
        # n*delta = 5e-17: epsilon rounds to 1, where Qinv is undefined, and
        # 1e-17 bits is below the alpha* solver's resolution of 1.03e-14 for
        # Bern(0.2), so the tilted columns are a note too (not a range
        # error); the other columns are filled
        row, = compute_rate_ladders(P02, 5, deltas=[1e-17])
        assert row.epsilon == 1.0 and row.strassen is None
        assert row.blahut is None and row.pragmatic is None
        assert None not in (row.shannon, row.exact)
        assert row.note == (
            "tilted columns unavailable: delta=1e-17 is below the alpha* solver's resolution of "
            "1.03e-14 bits for this source; "
            "strassen column unavailable: epsilon = 2**-5e-17 rounds to 1 in a double"
        )
        with pytest.raises(DomainError, match="below the alpha. solver's resolution"):
            blahut_rate(P02, 5, 2.0 ** (-5 * 1e-15))

    def test_negative_rates_are_none_with_a_note(self):
        # at n=5, delta=1e-10 both expansions fall below 0 bits/symbol; the
        # bare formulas still return the negative values
        row, = compute_rate_ladders(P02, 5, deltas=[1e-10])
        assert 0.0 < row.epsilon < 1.0
        assert row.strassen is None and row.pragmatic is None
        assert None not in (row.shannon, row.blahut, row.exact)
        strassen, pragmatic = strassen_rate(P02, 5, row.epsilon), pragmatic_rate(P02, 5, row.epsilon)
        assert strassen < 0.0 and pragmatic < 0.0
        assert row.note == (
            f"pragmatic column unavailable: {pragmatic:.6g} bits/symbol is below 0; "
            f"strassen column unavailable: {strassen:.6g} bits/symbol is below 0"
        )
        assert "-10934.8" in row.note and "-1.71687" in row.note


def three_decimal_source(rng, m):
    """A seeded 3-decimal pmf on m symbols, every entry at least 0.02, not uniform."""
    while True:
        cuts = sorted(rng.sample(range(20, 981), m - 1))
        milli = [b - a for a, b in zip([0, *cuts], [*cuts, 1000])]
        if min(milli) >= 20 and len(set(milli)) > 1:
            return SourcePmf.parse(",".join(f"{x / 1000:.3f}" for x in milli))


def traced_peak(call):
    """Bytes that ``call()`` allocates at its peak, over what was held before it (tracemalloc)."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def sweep_rows(*args, **kwargs):
    """The rows of ``_rate_ladders``, each checked to be a plain tuple and wrapped as a ``RateLadder``."""
    rows = list(approximations._rate_ladders(*args, **kwargs))
    assert all(type(row) is tuple for row in rows)
    return [RateLadder(*row) for row in rows]


class TestRateLadderSweep:
    """``_rate_ladders``, the sweep the CLI runs over a range of n, streams
    the rows of ``compute_rate_ladders`` at each n in turn, notes included,
    as plain tuples in ``RateLadder`` field order."""

    @staticmethod
    def grid(m, kind):
        """(source, blocklengths, points, cap_types) of the seeded grid at m:
        the last blocklength's exact column is past the cap; the deltas hold
        one past D(U||P) and one whose 2**(-n*delta) rounds to 1, below the
        alpha* solver's resolution; the epsilons one whose delta is out of
        range at every n."""
        rng = random.Random(4000 + 10 * m + (kind == "deltas"))
        p = three_decimal_source(rng, m)
        ns = sorted(rng.sample(range(2, {2: 60, 3: 24, 4: 13}[m]), 3))
        if kind == "deltas":
            hi = delta_range(p).hi
            points = [rng.uniform(0.05, 0.9) * hi, 1.5 * hi, 1e-18]
        else:
            points = [0.3, rng.uniform(1e-4, 0.1), 1e-40]
        return p, ns, {kind: points}, count_types(ns[1], m)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["epsilons", "deltas"])
    @pytest.mark.parametrize("include_exact", [True, False], ids=["exact", "no_exact"])
    @pytest.mark.parametrize("prefix_mode", [False, True], ids=["one_to_one", "prefix"])
    def test_sweep_is_the_per_n_rows(self, m, kind, include_exact, prefix_mode):
        p, ns, points, cap = self.grid(m, kind)
        options = dict(include_exact=include_exact, cap_types=cap, prefix_mode=prefix_mode)
        sweep = sweep_rows(p, ns, **points, **options)
        assert sweep == [row for n in ns for row in compute_rate_ladders(p, n, **points, **options)]
        assert [r.n for r in sweep] == [n for n in ns for _ in range(3)]
        notes = [r.note for r in sweep]
        out_of_range = sum("tilted columns unavailable: delta=" in note and " outside (0, " in note
                           for note in notes)
        assert sum("exact column infeasible" in note for note in notes) == 3 * include_exact
        if kind == "deltas":
            assert out_of_range == len(ns)
            assert sum("rounds to 1 in a double" in note for note in notes) == len(ns)
            assert sum("below the alpha* solver's resolution" in note for note in notes) == len(ns)
        else:  # 1e-40, and at small n the others too
            assert len(ns) <= out_of_range < len(sweep)
        if include_exact and prefix_mode:
            plain = sweep_rows(p, ns, **points, **dict(options, prefix_mode=False))
            shifted = [(r.exact, q.exact + 1.0 / q.n) for r, q in zip(sweep, plain) if q.exact is not None]
            assert shifted and all(a == b for a, b in shifted)

    @pytest.mark.parametrize("source", ["0.2,0.8", "0.05,0.15,0.8"])
    def test_deep_regime_sweep(self, source):
        # n*delta = 1400 at n = 20000: epsilon underflows there and not at n = 100
        p, ns = SourcePmf.parse(source), [100, 20000]
        options = dict(include_exact=False, cap_types=10, prefix_mode=False)
        sweep = sweep_rows(p, ns, deltas=[0.07, 0.01], **options)
        assert sweep == [row for n in ns for row in compute_rate_ladders(p, n, deltas=[0.07, 0.01], **options)]
        assert [r.epsilon == 0.0 for r in sweep] == [False, False, True, False]
        assert sweep[2].note == "strassen column unavailable: epsilon = 2**-1400 underflows a double"

    def test_checks_every_blocklength_before_any_row(self, monkeypatch):
        built = []
        monkeypatch.setattr(pragrate.exact_limits, "length_distribution",
                            lambda *args, **kwargs: built.append(args))
        options = dict(include_exact=True, cap_types=100, prefix_mode=False)
        with pytest.raises(DomainError, match=r"^blocklength n must be an integer >= 1, got 2.5$"):
            approximations._rate_ladders(P02, [10, 20, 2.5], deltas=[0.05], **options)
        with pytest.raises(DomainError, match=r"^delta must be a positive finite exponent, got nan$"):
            approximations._rate_ladders(P02, [10, 20], deltas=[0.05, math.nan], **options)
        assert built == []

    def test_exact_ladder_peak_is_the_engine_peak(self):
        # the first length distribution is built before the stream exists, and
        # alpha* solved after it, so a one-n exact ladder peaks at the engine's
        # own peak: solving first held the solutions through the sort
        p = SourcePmf.parse("0.1,0.2,0.3,0.4")
        deltas = [0.01 * k for k in range(1, 8)]
        options = dict(deltas=deltas, include_exact=True, cap_types=10**7, prefix_mode=False)
        length_distribution(p, 24)
        rows = list(approximations._rate_ladders(p, range(24, 25), **options))  # warm every lazy import and table
        assert [RateLadder(*row) for row in rows] == compute_rate_ladders(p, 24, deltas=deltas)
        alone = traced_peak(lambda: length_distribution(p, 24))
        ladder = traced_peak(lambda: list(approximations._rate_ladders(p, range(24, 25), **options)))
        assert ladder <= alone + 1024, (ladder, alone)

    def test_first_row_builds_one_length_distribution(self, monkeypatch):
        # rows are computed as they are pulled: the first row of a 3-n exact
        # sweep has built the first n's distribution and no other
        built = []
        build = pragrate.exact_limits.length_distribution
        monkeypatch.setattr(pragrate.exact_limits, "length_distribution",
                            lambda p, n, **kwargs: built.append(n) or build(p, n, **kwargs))
        options = dict(include_exact=True, cap_types=100, prefix_mode=False)
        rows = approximations._rate_ladders(P02, [10, 20, 30], deltas=[0.05, 0.1], **options)
        assert next(rows)[0] == 10 and built == [10]
        assert next(rows)[0] == 10 and built == [10]
        assert next(rows)[0] == 20 and built == [10, 20]
        assert [row[0] for row in rows] == [20, 30, 30] and built == [10, 20, 30]

    def test_a_range_is_checked_by_its_ends(self):
        # a list is checked element by element; a range by its first and last
        # element, so a range of 10**12 blocklengths yields its first row at once
        options = dict(include_exact=False, cap_types=100, prefix_mode=False)
        rows = approximations._rate_ladders(P02, range(1, 10**12 + 1), deltas=[0.05], **options)
        assert [row[0] for row in itertools.islice(rows, 3)] == [1, 2, 3]
        for ns in (range(0, 5), range(5, -1, -1), range(2**1100, 2**1100 + 2)):  # 0 first, 0 last, no double
            with pytest.raises(DomainError, match=r"^blocklength n must be an integer >= 1"):
                approximations._rate_ladders(P02, ns, deltas=[0.05], **options)
        assert list(approximations._rate_ladders(P02, range(5, 5), deltas=[0.05], **options)) == []


BLOCKLENGTH_ENTRY_POINTS = {
    "strassen_rate": lambda n: strassen_rate(P02, n, 0.01),
    "blahut_rate": lambda n: blahut_rate(P02, n, 0.01),
    "pragmatic_rate": lambda n: pragmatic_rate(P02, n, 0.01),
    "epsilon_to_delta": lambda n: epsilon_to_delta(0.01, n),
    "delta_to_epsilon": lambda n: delta_to_epsilon(0.05, n),
    "universal_rate_bound": lambda n: universal_rate_bound(P02, n, 0.05),
    "universal_threshold_alpha_n": lambda n: universal_threshold_alpha_n(P02, 0.05, n),
    "prefix_adjust": lambda n: prefix_adjust(0.5, n),
    "compute_rate_ladders": lambda n: compute_rate_ladders(P02, n, deltas=[0.05], include_exact=False),
    "length_distribution": lambda n: length_distribution(P02, n),
    "universal_length_distribution": lambda n: universal_length_distribution(P02, n),
}


@pytest.mark.parametrize("n", [2.5, True, 0, -1, math.nan], ids=["float", "bool", "zero", "negative", "nan"])
@pytest.mark.parametrize("entry", list(BLOCKLENGTH_ENTRY_POINTS))
def test_bad_blocklength_refused(entry, n):
    # True would pass for n = 1 and 2.5 for a blocklength; nan fails every comparison
    with pytest.raises(DomainError, match=r"^blocklength n must be an integer >= 1, got "):
        BLOCKLENGTH_ENTRY_POINTS[entry](n)


@pytest.mark.parametrize("delta", [-2000.0, -0.1, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", [
    lambda d: delta_to_epsilon(d, 10),
    lambda d: compute_rate_ladders(P02, 10, deltas=[d], include_exact=False),
], ids=["delta_to_epsilon", "compute_rate_ladders"])
def test_bad_delta_refused(entry, delta):
    # -2000 at n=10 would be 2**20000, an OverflowError, if converted before the check
    with pytest.raises(DomainError, match=r"^delta must be a positive finite exponent, got "):
        entry(delta)


Q005 = SourcePmf.parse("0.05,0.95")


@pytest.mark.parametrize("entry", [
    lambda: delta_to_epsilon(True, 3),
    lambda: compute_rate_ladders(Q005, 5, deltas=[True], include_exact=False),
    lambda: solve_alpha_star(Q005, True),
    lambda: tilt(P02, True),
    lambda: excess_rate_probability(P02, 10, True),
    lambda: error_exponent(P02, True),
], ids=["delta_to_epsilon", "compute_rate_ladders", "solve_alpha_star", "tilt",
        "excess_rate_probability", "error_exponent"])
def test_bool_exponent_rate_or_tilt_refused(entry):
    # True read as 1.0: a ladder row with delta True, the tail at rate 1.0, a
    # tilt at alpha True; and solve_alpha_star(q, 1.0) then answered from the
    # entry that True left in its memo
    solve_alpha_star(Q005, 1.0)
    with pytest.raises(DomainError, match=r"\bgot True$"):
        entry()
    assert type(solve_alpha_star(Q005, 1.0).delta) is float
