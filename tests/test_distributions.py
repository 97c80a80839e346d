import dataclasses
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pragrate import (
    DistributionError,
    DomainError,
    SourcePmf,
    TiltedPoint,
    entropy,
    kl_divergence,
    tilt,
)
from pragrate.distributions import _tilt_weights, _tilted_sigma3_rho3_columns, _tilted_values
from pragrate.numerics import LOG2E

from conftest import (
    bern, random_pmf, tilt_identity_residual, tilted_derivatives, tilted_log_moments, weighted_moments,
)


def pmf_strategy(m_values=(2, 3, 4)):
    def build(draw_seed_m):
        seed, m = draw_seed_m
        return random_pmf(random.Random(seed), m)

    return st.tuples(st.integers(0, 2 ** 32), st.sampled_from(m_values)).map(build)


class TestSourcePmf:
    def test_parse_csv_keeps_exact_rationals(self):
        p = SourcePmf.parse("0.2,0.8")
        assert p.probs == (0.2, 0.8)
        assert p.exact == (Fraction(1, 5), Fraction(4, 5))

    def test_parse_json(self):
        p = SourcePmf.parse("[0.5, 0.3, 0.2]")
        assert p.m == 3
        assert p.exact == (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))

    def test_float_inputs_drop_exact(self):
        p = SourcePmf.from_values([0.2, 0.8])
        assert p.exact is None

    def test_rejects_zero_entries(self):
        with pytest.raises(DistributionError):
            SourcePmf((1.0, 0.0))

    def test_refuses_renormalization(self):
        with pytest.raises(DistributionError):
            SourcePmf((0.2, 0.75))

    def test_equal_pmfs_hash_equal_across_constructors(self):
        # the hash is computed once, at construction; every route to the same
        # pmf must still agree with == on it
        parsed = SourcePmf.parse("0.2,0.3,0.5")
        built = [
            SourcePmf.parse(json.dumps([0.2, 0.3, 0.5])),
            SourcePmf.from_values(["0.2", "0.3", "0.5"]),
            SourcePmf.from_values([Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)]),
            pickle.loads(pickle.dumps(parsed)),
        ]
        for other in built:
            assert other == parsed and hash(other) == hash(parsed)
        floats = SourcePmf.from_values([0.2, 0.3, 0.5])
        restored = pickle.loads(pickle.dumps(floats))
        assert restored == floats and hash(restored) == hash(floats)
        assert {parsed: 1}[pickle.loads(pickle.dumps(parsed))] == 1

    def test_sum_tolerance_is_tight(self):
        SourcePmf((0.2, 0.8 + 5e-13))
        with pytest.raises(DistributionError):
            SourcePmf((0.2, 0.8 + 5e-12))

    def test_unreadable_source_file_is_refused(self, tmp_path):
        (tmp_path / "bad.txt").write_bytes(b"\xff\xfe0.2,0.8")
        for spec in (tmp_path, tmp_path / "bad.txt"):  # a directory, then non-UTF-8 bytes
            with pytest.raises(DistributionError, match=f"^cannot read source file {str(spec)!r}"):
                SourcePmf.load(str(spec))

    @pytest.mark.parametrize("spec", ["[null, 1]", "[[0.2], [0.8]]", '["x", 1]'])
    def test_non_numeric_entry_is_refused(self, spec):
        with pytest.raises(DistributionError, match="^bad pmf entry "):
            SourcePmf.load(spec)

    @pytest.mark.parametrize("build, name", [
        (lambda: SourcePmf.parse("[1e5000, 0]"), "<Fraction of 16610 bits>"),
        (lambda: SourcePmf.parse("[0.5, -1e5000]"), "-<Fraction of 16610 bits>"),
        (lambda: SourcePmf.from_values([10 ** 5000, 0]), "<int of 16610 bits>"),
        (lambda: SourcePmf.parse("[[1e5000], 0]"), "[<Fraction of 16610 bits>]"),
        (lambda: SourcePmf.parse('[{"a": 1e5000}, 0]'), "{'a': <Fraction of 16610 bits>}"),
    ], ids=["json", "json_negative", "int", "json_nested_array", "json_nested_object"])
    def test_entry_past_the_repr_digit_limit_is_named_by_its_order(self, build, name):
        # such an integer has no repr, and reprlib would name an object
        # address, at the top level or nested in a list or dict
        with pytest.raises(DistributionError) as info:
            build()
        assert str(info.value).startswith(f"bad pmf entry {name}: ")
        assert " at 0x" not in str(info.value)

    def test_needs_two_symbols(self):
        with pytest.raises(DistributionError):
            SourcePmf((1.0,))


class TestEntropy:
    def test_bernoulli_02(self):
        assert round(entropy(bern("0.2")), 3) == 0.722
        assert entropy(bern("0.2")) == pytest.approx(0.7219280948873623, abs=1e-12)

    def test_uniform_m4_is_two_bits(self):
        assert entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-15)

    def test_degenerate_type_is_zero(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            entropy([1.2, -0.2])

    def test_rejects_bad_sum(self):
        with pytest.raises(DistributionError):
            entropy([0.3, 0.3])


class TestKlDivergence:
    def test_uniform_vs_bern02(self):
        # direct two-term sum: 0.5*log2(2.5) + 0.5*log2(0.625)
        expect = 0.5 * math.log2(0.5 / 0.2) + 0.5 * math.log2(0.5 / 0.8)
        assert kl_divergence([0.5, 0.5], bern("0.2")) == pytest.approx(expect, abs=1e-15)
        assert expect == pytest.approx(0.321928, abs=5e-7)

    def test_identity_is_zero(self):
        p = SourcePmf((0.3, 0.45, 0.25))
        assert kl_divergence(p, p) == 0.0

    def test_bern_third_vs_bern02(self):
        expect = (1 / 3) * math.log2((1 / 3) / 0.2) + (2 / 3) * math.log2((2 / 3) / 0.8)
        got = kl_divergence([1 / 3, 2 / 3], bern("0.2"))
        assert got == pytest.approx(expect, abs=1e-14)
        # rounds to 0.070299 bits; the independent two-term sum is the oracle
        assert got == pytest.approx(0.07029892749953937, abs=1e-12)

    def test_support_violation(self):
        with pytest.raises(DomainError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_nonnegativity_random(self, rng):
        for _ in range(50):
            q = random_pmf(rng, 3)
            p = random_pmf(rng, 3)
            assert kl_divergence(q, p) >= 0.0


class TestTilt:
    def test_bern02_half_is_bern_third(self):
        t = tilt(bern("0.2"), 0.5)
        # sqrt(0.8)/sqrt(0.2) = 2 exactly, so P_alpha = (1/3, 2/3)
        assert t.pmf.probs[0] == pytest.approx(1 / 3, abs=1e-15)
        assert t.pmf.probs[1] == pytest.approx(2 / 3, abs=1e-15)

    def test_alpha_one_is_identity(self):
        p = SourcePmf((0.3, 0.45, 0.25))
        t = tilt(p, 1.0)
        assert t.pmf.probs == p.probs
        assert t.kl_bits == 0.0
        assert t.logZ == 0.0  # Z_1 = 1 exactly

    def test_moment_scaling_at_half(self):
        p = bern("0.2")
        t = tilt(p, 0.5)
        m = tilted_log_moments(p, t)
        assert m.sigma1_sq == pytest.approx(0.25 * t.sigma3_sq, rel=1e-12)
        assert m.rho1 == pytest.approx(0.125 * t.rho3, rel=1e-12)
        assert m.sigma2_sq == pytest.approx(0.25 * t.sigma3_sq, rel=1e-12)
        assert m.rho2 == pytest.approx(0.125 * t.rho3, rel=1e-12)

    def test_fields_are_the_moments_of_ln_p_alone(self):
        # the moments of ln P_alpha(X) and ln [P_alpha/P](X) are scalings of
        # these, applied where the constants use them
        names = [f.name for f in dataclasses.fields(TiltedPoint)]
        assert names == ["alpha", "pmf", "logZ", "sigma3_sq", "rho3", "entropy_bits", "kl_bits"]

    def test_alpha_domain(self):
        p = bern("0.2")
        for bad in (0.0, -0.5, 1.0 + 1e-9, 2.0):
            with pytest.raises(DomainError):
                tilt(p, bad)

    def test_normalizer_range(self, rng):
        # 0 < Z_alpha <= m for alpha in (0, 1]; Z_1 = 1 exactly.
        for _ in range(20):
            p = random_pmf(rng, rng.choice([2, 3, 4]))
            for alpha in (0.1, 0.35, 0.7, 0.95):
                z = 2.0 ** tilt(p, alpha).logZ
                assert 0.0 < z <= p.m
            assert tilt(p, 1.0).logZ == 0.0

    @settings(max_examples=60, deadline=None)
    @given(pmf_strategy(), st.floats(0.01, 0.99))
    def test_moment_scaling_property(self, p, alpha):
        t = tilt(p, alpha)
        m = tilted_log_moments(p, t)
        assert m.sigma1_sq == pytest.approx(alpha ** 2 * t.sigma3_sq, rel=1e-10, abs=1e-18)
        assert m.rho1 == pytest.approx(alpha ** 3 * t.rho3, rel=1e-10, abs=1e-18)
        assert m.sigma2_sq == pytest.approx((1 - alpha) ** 2 * t.sigma3_sq, rel=1e-10, abs=1e-18)
        assert m.rho2 == pytest.approx((1 - alpha) ** 3 * t.rho3, rel=1e-10, abs=1e-18)

    def test_divergence_strictly_decreasing_in_alpha(self, rng):
        for _ in range(10):
            p = random_pmf(rng, rng.choice([2, 3]))
            alphas = [0.05 + 0.9 * i / 30 for i in range(31)]
            kls = [tilt(p, a).kl_bits for a in alphas]
            assert all(a > b for a, b in zip(kls, kls[1:]))

    def test_entropy_strictly_decreasing_in_alpha(self, rng):
        for _ in range(10):
            p = random_pmf(rng, rng.choice([2, 3]))
            alphas = [0.05 + 0.9 * i / 30 for i in range(31)]
            hs = [tilt(p, a).entropy_bits for a in alphas]
            assert all(a > b for a, b in zip(hs, hs[1:]))


class TestLeanTiltEvaluators:
    """The moment pass behind tilt() and the alpha* solve, and the columnar
    kernel behind the moment envelope, must reproduce tilt()'s fields bit
    for bit, and those the textbook sums over tilt()'s pmf."""

    SKEWED = (SourcePmf((1e-6, 1 - 1e-6)), SourcePmf((0.001, 0.002, 0.997)))

    def test_equal_to_tilt_fields(self, rng):
        sources = [random_pmf(rng, rng.randint(2, 6)) for _ in range(40)] + list(self.SKEWED)
        for p in sources:
            ln_p = [math.log(x) for x in p.probs]
            alphas = [rng.uniform(0.0, 1.0) for _ in range(8)] + [1e-6, 0.5, 1 - 1e-6, 1 - 1e-14]
            points = [tilt(p, alpha) for alpha in alphas]
            for alpha, t in zip(alphas, points):
                mean3, sigma3_sq, rho3 = weighted_moments(t.pmf.probs, ln_p)
                assert (t.sigma3_sq, t.rho3) == (sigma3_sq, rho3)
                got = _tilted_values(ln_p, *_tilt_weights(ln_p, alpha))
                assert got == (t.kl_bits, t.entropy_bits, mean3, t.sigma3_sq)
                assert _tilted_sigma3_rho3_columns(ln_p, (alpha,)) == ([t.sigma3_sq], [t.rho3])
            # one columnar call over every alpha at once
            assert _tilted_sigma3_rho3_columns(ln_p, alphas) == (
                [t.sigma3_sq for t in points], [t.rho3 for t in points]
            )


class TestTiltedDerivatives:
    def test_matches_finite_differences(self, rng):
        h = 1e-5
        for _ in range(25):
            p = random_pmf(rng, rng.choice([2, 3, 4]))
            alpha = rng.uniform(0.1, 0.9)
            d = tilted_derivatives(p, alpha)
            up, dn = tilt(p, alpha + h), tilt(p, alpha - h)
            fd_D = (up.kl_bits - dn.kl_bits) / (2 * h)
            fd_H = (up.entropy_bits - dn.entropy_bits) / (2 * h)
            fd_s3 = (up.sigma3_sq - dn.sigma3_sq) / (2 * h)
            assert d.dD_dalpha == pytest.approx(fd_D, rel=1e-6)
            assert d.dH_dalpha == pytest.approx(fd_H, rel=1e-6)
            assert d.dsigma3sq_dalpha == pytest.approx(fd_s3, rel=1e-5, abs=1e-9)

    def test_uniform_has_flat_entropy(self):
        p = SourcePmf((0.25,) * 4)
        for alpha in (0.2, 0.5, 0.8):
            d = tilted_derivatives(p, alpha)
            assert d.dH_dalpha == pytest.approx(0.0, abs=1e-15)
            assert d.dD_dalpha == pytest.approx(0.0, abs=1e-15)

    def test_entropy_decreasing_toward_h_of_p(self):
        d = tilted_derivatives(bern("0.2"), 0.5)
        assert d.dH_dalpha < 0.0

    def test_boundary_alpha_rejected(self):
        p = bern("0.2")
        for bad in (0.0, 1.0):
            with pytest.raises(DomainError):
                tilted_derivatives(p, bad)


class TestTiltIdentityResidual:
    def test_spec_example(self):
        assert abs(tilt_identity_residual(bern("0.2"), [0.5, 0.5], 0.3)) <= 1e-11

    def test_q_equals_tilted_pmf(self):
        p = bern("0.2")
        t = tilt(p, 0.4)
        assert abs(tilt_identity_residual(p, t.pmf, 0.4)) <= 1e-11

    def test_q_equals_p(self):
        p = SourcePmf((0.6, 0.3, 0.1))
        assert abs(tilt_identity_residual(p, p, 0.5)) <= 1e-11

    def test_q_with_zeros(self):
        assert abs(tilt_identity_residual(bern("0.2"), [1.0, 0.0], 0.7)) <= 1e-11

    @settings(max_examples=80, deadline=None)
    @given(pmf_strategy(), pmf_strategy(), st.floats(0.02, 0.98))
    def test_residual_property(self, p, q, alpha):
        if p.m != q.m:
            q = SourcePmf(tuple(1.0 / p.m for _ in range(p.m)))
        assert abs(tilt_identity_residual(p, q, alpha)) <= 1e-11


def test_bits_nats_round_trip():
    for x in (1e-9, 0.1, 1.0, 17.25, 1e6):
        assert (x * LOG2E) / LOG2E == pytest.approx(x, rel=1e-14)
        assert (x / LOG2E) * LOG2E == pytest.approx(x, rel=1e-14)
