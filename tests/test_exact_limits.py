import hashlib
import math
import random
from array import array
from fractions import Fraction

import pytest

from pragrate import (
    DomainError,
    ResourceLimitError,
    SourcePmf,
    coding,
    converse_constants,
    exact_limits,
    excess_rate_probability,
    kl_divergence,
    length_distribution,
    optimal_rate,
    solve_alpha_star,
    type_class_size,
    universal_length_distribution,
)
from pragrate.numerics import NEG_INF, logaddexp2

from conftest import bern, brute_force_limits, compositions, peak_mib, random_pmf, suffix_tails

P02 = bern("0.2")
P532 = SourcePmf.parse("0.5,0.3,0.2")


def reference_tails(p, n, *, reverse_ties=False):
    """(log2 tails, exact tails or None) of the optimal code by a direct sort
    of every type class on (-log2 probability, counts), ties in reverse
    canonical order on request.  Tails come from suffix sums (logaddexp2 in
    floats, plain sums in Fractions) with the class straddling each 2**L
    found by a linear walk and split by hand."""
    log2p = p.log2_probs()

    def tie(counts):
        return tuple(-c for c in counts) if reverse_ties else counts

    float_rows = sorted(
        (-math.fsum(c * lp for c, lp in zip(counts, log2p) if c), tie(counts), counts)
        for counts in compositions(n, p.m)
    )
    log2_tails = suffix_tails(
        [type_class_size(r[2]) for r in float_rows], [-r[0] for r in float_rows],
        lambda k, lp: math.log2(k) + lp, logaddexp2, NEG_INF, 0.0, p.m ** n,
    )
    if p.exact is None:
        return log2_tails, None
    exact_rows = sorted(
        (-math.prod(f ** c for c, f in zip(counts, p.exact)), tie(counts), counts)
        for counts in compositions(n, p.m)
    )
    exact_tails = suffix_tails(
        [type_class_size(r[2]) for r in exact_rows], [-r[0] for r in exact_rows],
        lambda k, prob: k * prob, lambda a, b: a + b, Fraction(0), Fraction(1), p.m ** n,
    )
    return log2_tails, exact_tails


class TestLengthDistribution:
    def test_n2_hand_table(self):
        d = length_distribution(P02, 2)
        assert d.tail(0) == 1.0
        assert d.tail(1) == pytest.approx(0.36, abs=1e-12)
        assert d.tail(2) == pytest.approx(0.04, abs=1e-12)
        assert d.tail(3) == 0.0

    def test_n1_two_strings(self):
        d = length_distribution(P02, 1)
        assert d.tail(1) == pytest.approx(0.2, abs=1e-15)

    def test_uniform_closed_form(self):
        # ranks are uniform: P(rank >= 2^L) = (2^n - 2^L + 1) / 2^n
        pu = bern("0.5")
        n = 10
        d = length_distribution(pu, n)
        for L in range(n + 1):
            expect = (2 ** n - 2 ** L + 1) / 2 ** n
            assert d.tail(L) == pytest.approx(expect, rel=1e-12)

    def test_tail_monotone_and_bounded(self):
        d = length_distribution(P532, 7)
        tails = [d.tail(L) for L in range(d.max_length + 2)]
        assert tails[0] == 1.0
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        assert tails[-1] == 0.0

    def test_type_cap_guard(self):
        with pytest.raises(ResourceLimitError):
            length_distribution(P532, 50, cap_types=100)

    @pytest.mark.parametrize("m, ns", [(2, (1, 2, 9, 30)), (3, (1, 4, 11)), (4, (2, 7)), (5, (1, 5))])
    def test_tails_equal_reference_sort(self, m, ns):
        # bit for bit: float tails are pinned by the reference, not by approx
        rng = random.Random(1000 + m)
        sources = [random_pmf(rng, m, spread=1.01) for _ in range(3)]
        for _ in range(2):
            w = [rng.randint(1, 40) for _ in range(m)]
            sources.append(SourcePmf.from_values([Fraction(x, sum(w)) for x in w]))
        for p in sources:
            for n in ns:
                d = length_distribution(p, n, exact=p.exact is not None)
                log2_tails, exact_tails = reference_tails(p, n)
                assert d.log2_tails == log2_tails
                assert d.exact_tails == exact_tails

    def test_equiprobable_class_structure(self):
        # strings of the same type are equiprobable: splitting a class at any
        # boundary contributes count * per-string mass; cross-check one split
        d = length_distribution(P02, 4)
        # ranks: (0,4) size 1 prob .4096 | (1,3) size 4 prob .1024 | ...
        # tail at L=2 (rank >= 4): 2 strings of class (1,3) + everything after
        by_hand = 2 * 0.1024 + 6 * 0.0256 + 4 * 0.0064 + 1 * 0.0016
        assert d.tail(2) == pytest.approx(by_hand, abs=1e-12)


class TestColumnarEngine:
    """The columns and the one backward pass over them give what a per-class
    offset list, its bisection and a full suffix list gave."""

    TAIL_SIZES = ((2, 150), (2, 350), (2, 550), (3, 28), (3, 45), (3, 65), (4, 24))
    UNIVERSAL_SIZES = ((3, 80), (4, 32))
    TAILS_SHA256 = "c84290140f00caeb2cae0d882fe73a9cb491e25911e4f95431ac416e4594d3be"

    @pytest.mark.parametrize("seed", range(8))
    def test_forward_pass_equals_bisection(self, seed):
        # the backward pass splits each class at the boundaries inside it as
        # a bisection of the class offsets would: huge classes hold several
        # boundaries each, runs of 1s none.  With every key 0.0 a string
        # weighs 1, so the tail at L is log2 of the number of ranks 2**L .. total
        rng = random.Random(seed)
        sizes = [rng.choice((1, 1, 2, 3, rng.randint(1, 10 ** rng.randint(1, 15))))
                 for _ in range(rng.randint(1, 80))]
        total = sum(sizes)
        tails = coding._log2_tails([0.0] * len(sizes), sizes, range(len(sizes)), total)
        assert len(tails) == total.bit_length() + 1
        assert (tails[0], tails[-1]) == (0.0, NEG_INF)
        for L in range(1, total.bit_length()):
            assert tails[L] == pytest.approx(math.log2(total - 2 ** L + 1), rel=1e-12, abs=0.0), L

    def test_seeded_tails_are_pinned(self):
        """Float and exact tails of the optimal code at the benchmark's exact
        sizes, and float tails of the universal code at its codec sizes, byte
        for byte: classes that hold several boundaries and chains below
        2**-1075, past the reach of the reference sorts."""
        rng = random.Random(24)
        digest = hashlib.sha256()
        for m, n in self.TAIL_SIZES:
            w = [rng.randint(1, 40) for _ in range(m)]
            rational = SourcePmf.from_values([Fraction(x, sum(w)) for x in w])
            for p in (rational, random_pmf(rng, m, spread=1.01)):
                d = length_distribution(p, n, exact=p.exact is not None)
                digest.update(" ".join(map(float.hex, d.log2_tails)).encode() + b"\n")
                for t in d.exact_tails or ():
                    digest.update(f"{t.numerator:x}/{t.denominator:x}\n".encode())
        for m, n in self.UNIVERSAL_SIZES:
            d = universal_length_distribution(random_pmf(rng, m, spread=1.01), n)
            digest.update(" ".join(map(float.hex, d.log2_tails)).encode() + b"\n")
        assert digest.hexdigest() == self.TAILS_SHA256

    @pytest.mark.parametrize("p, ns", [
        (SourcePmf.parse("0.4,0.4,0.2"), range(1, 8)),
        (SourcePmf.parse("0.1,0.2,0.4,0.3"), range(1, 7)),
        (SourcePmf.from_values([Fraction(1, 3)] * 3), range(1, 8)),
        (SourcePmf.parse("0.2,0.2,0.2,0.2,0.2"), range(1, 6)),
    ], ids=["0.4,0.4,0.2", "0.1,0.2,0.4,0.3", "uniform3", "uniform5"])
    def test_tied_sources_equal_both_oracles(self, p, ns):
        # classes tie in float and in exact probability here
        for n in ns:
            d = length_distribution(p, n, exact=True)
            log2_tails, exact_tails = reference_tails(p, n)
            assert d.log2_tails == log2_tails, n
            assert d.exact_tails == exact_tails == brute_force_limits(p, n).exact_tails, n

    def test_peak_memory(self):
        # a count tuple, a row tuple, an offset and a suffix float per class
        # took 0.755 MiB here; the columns take about 0.3
        assert peak_mib(length_distribution, SourcePmf.parse("0.1,0.2,0.4,0.3"), 24) < 0.45

    def test_sort_peak_and_sizes_peak_never_overlap(self):
        # keys first, the sort's list narrowed at once to an index array, and
        # only then the sizes: the engine peaks about 1.12 times its own sort,
        # where sorting while every class size was held took 1.44 times
        p = SourcePmf.parse("0.1,0.2,0.4,0.3")
        keys, _, ranking = coding._known_source_classes(24, 4, p)
        sort = peak_mib(sorted, range(len(keys)), key=keys.__getitem__)
        assert peak_mib(coding._known_source_classes, 24, 4, p) < 1.25 * sort
        assert isinstance(ranking, array) and ranking.typecode == coding._unsigned_typecode(len(keys))


class TestExactMode:
    def test_requires_exact_probabilities(self):
        p_float = SourcePmf.from_values([0.2, 0.8])
        with pytest.raises(DomainError):
            length_distribution(p_float, 3, exact=True)

    def test_exact_mode_refused_before_ranking(self, monkeypatch):
        calls = []
        rank = exact_limits._known_source_classes
        monkeypatch.setattr(
            exact_limits, "_known_source_classes", lambda *a: calls.append(a) or rank(*a)
        )
        with pytest.raises(DomainError, match="exact rational"):
            length_distribution(SourcePmf.from_values([0.2, 0.8]), 12, exact=True)
        assert calls == []
        length_distribution(P02, 12, exact=True)
        assert len(calls) == 1

    def test_exact_tails_sum_structure(self):
        d = length_distribution(P02, 5, exact=True)
        assert d.exact_tails[0] == 1
        assert d.exact_tails[-1] == 0
        # P(rank >= 2): all but the most probable string, 0.8**5
        assert d.exact_tails[1] == 1 - Fraction(4, 5) ** 5
        # float path agrees with the exact path everywhere
        for L, frac in enumerate(d.exact_tails):
            assert d.tail(L) == pytest.approx(float(frac), rel=1e-12, abs=1e-300)
        # at n=400 each large binomial class holds many 2^L boundaries, split by the one backward pass
        d = length_distribution(P02, 400, exact=True)
        assert d.exact_tails[0] == 1 and d.exact_tails[-1] == 0
        checked = [(L, t) for L, t in enumerate(d.exact_tails) if t > 2.0 ** -1000]
        assert len(checked) > 100
        for L, t in checked:
            assert abs(d.tail(L) - float(t)) <= 1e-12 * float(t), (L, d.tail(L), float(t))


class TestBruteForceOracle:
    def test_equals_fast_path_bern02(self):
        for n in range(1, 9):
            fast = length_distribution(P02, n, exact=True)
            slow = brute_force_limits(P02, n)
            assert fast.exact_tails == slow.exact_tails

    def test_equals_fast_path_m3(self):
        for n in range(1, 7):
            fast = length_distribution(P532, n, exact=True)
            slow = brute_force_limits(P532, n)
            assert fast.exact_tails == slow.exact_tails

    def test_uniform_closed_form(self):
        pu = bern("0.5")
        d = brute_force_limits(pu, 10)
        for L in range(11):
            assert d.exact_tails[L] == Fraction(2 ** 10 - 2 ** L + 1, 2 ** 10)

    def test_optimality_structure(self):
        # probability-sorted assignment: lengths nonincreasing in probability
        # and every shorter codeword exhausted before a longer one is used
        import itertools

        for n in (4, 6, 8):
            probs = []
            for s in itertools.product(range(2), repeat=n):
                w = sum(s)
                probs.append(Fraction(1, 5) ** w * Fraction(4, 5) ** (n - w))
            probs.sort(reverse=True)
            lengths = [k.bit_length() - 1 for k in range(1, 2 ** n + 1)]
            assert all(a >= b for a, b in zip(probs, probs[1:])) is True
            assert all(b >= a for a, b in zip(lengths, lengths[1:]))
            for L in range(n):
                assert lengths.count(L) == 2 ** L  # all short codewords used

    def test_string_cap(self):
        with pytest.raises(ResourceLimitError):
            brute_force_limits(P02, 25)

    def test_string_cap_before_any_power(self):
        # 2**(10**5000) was computed before the cap was compared
        with pytest.raises(ResourceLimitError, match=r"^2\*\*<int of 16610 bits> strings exceeds"):
            brute_force_limits(P02, 10 ** 5000)


class TestTieInvariance:
    def test_reversed_tie_order_preserves_tails(self):
        # (2/5, 2/5, 1/5) has genuinely tied type classes
        p = SourcePmf.parse("0.4,0.4,0.2")
        for n in (3, 5, 7):
            a = length_distribution(p, n, exact=True)
            log2_tails, exact_tails = reference_tails(p, n, reverse_ties=True)
            assert a.exact_tails == exact_tails
            for L in range(a.max_length + 2):
                assert a.tail(L) == pytest.approx(2.0 ** log2_tails[L], rel=1e-14, abs=0.0)


class TestExcessRateProbability:
    def test_integer_boundary_convention(self):
        assert excess_rate_probability(P02, 2, 0.5) == pytest.approx(0.36, abs=1e-12)
        assert excess_rate_probability(P02, 2, 0.75) == pytest.approx(0.04, abs=1e-12)

    def test_rate_zero(self):
        assert excess_rate_probability(P02, 5, 0.0) == 1.0

    def test_monotone_in_rate(self):
        vals = [excess_rate_probability(P02, 6, r / 6) for r in range(0, 14)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_step_structure(self):
        # constant on ((L-1)/n, L/n]
        n = 5
        for L in (1, 2, 3):
            lo = (L - 1) / n + 1e-9
            hi = L / n
            assert excess_rate_probability(P02, n, lo) == excess_rate_probability(P02, n, hi)

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            excess_rate_probability(P02, 3, -0.1)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, rate):
        # math.ceil raises ValueError on nan and OverflowError on inf
        with pytest.raises(DomainError, match=r"^rate must be nonnegative and finite"):
            excess_rate_probability(P02, 3, rate)


class TestOptimalRate:
    def test_small_case(self):
        assert optimal_rate(P02, 2, 0.05) == pytest.approx(0.5, abs=1e-15)

    def test_golden_cells(self):
        assert optimal_rate(P02, 50, 0.00003) == pytest.approx(0.940, abs=1e-12)
        assert optimal_rate(P02, 50, 0.01444) == pytest.approx(0.840, abs=1e-12)

    def test_output_on_rate_grid(self):
        for eps in (0.3, 0.01, 0.0004):
            r = optimal_rate(P02, 17, eps)
            assert r * 17 == pytest.approx(round(r * 17), abs=1e-9)

    def test_nonincreasing_in_epsilon(self):
        eps_grid = [0.5, 0.1, 0.02, 0.004, 0.0008]
        rates = [optimal_rate(P02, 30, e) for e in eps_grid]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_log2_epsilon_equivalent(self):
        assert optimal_rate(P02, 40, 0.001) == optimal_rate(
            P02, 40, log2_epsilon=math.log2(0.001)
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            optimal_rate(P02, 10, 1.5)
        with pytest.raises(DomainError):
            optimal_rate(P02, 10, 0.1, log2_epsilon=-3.0)
        with pytest.raises(DomainError):
            optimal_rate(P02, 10)


class TestDeepExponentialRegime:
    def test_converse_and_achievability_beyond_n0(self):
        # direct probe of the converse above its validity threshold, in the
        # regime where 2^(-n delta) underflows any double
        delta = kl_divergence([1 / 3, 2 / 3], P02)
        cc = converse_constants(P02, delta)
        sol = solve_alpha_star(P02, delta)
        n = int(cc.N0) + 100
        exact = optimal_rate(P02, n, log2_epsilon=-n * delta)
        mid = sol.h_tilted - math.log2(n) / (2 * n * (1 - sol.alpha_star))
        assert mid - cc.C / n <= exact <= mid + cc.achievability_c / n
