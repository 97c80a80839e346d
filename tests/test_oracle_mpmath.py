"""High-precision oracle: the tilted family, the alpha* solve, the
derivative bounds behind the moment envelope, the envelope itself and the
normal tail inverse against mpmath at 50 significant digits.

The oracle evaluates the defining formulas directly on the exact binary
values of the source's float entries, so it shares no code and no rounding
with the library.
"""

import math
import random

import pytest

from pragrate import SourcePmf, delta_range, moment_envelope, solve_alpha_star, tilt
from pragrate.distributions import _tilted_sigma3_rho3_columns
from pragrate.exponents import ENVELOPE_EDGE, ENVELOPE_GRID
from pragrate.numerics import normal_tail_inverse

from conftest import bern, random_pmf, skewed_pmf

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

REL = 1e-12


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


def exact_tilt(probs, alpha):
    """(kl_bits, entropy_bits, sigma3_sq, rho3) of the tilted pmf, in mpmath."""
    p = [mp.mpf(x) for x in probs]
    a = mp.mpf(alpha)
    z = mp.fsum(x ** a for x in p)
    w = [x ** a / z for x in p]
    ln_p = [mp.log(x) for x in p]
    ln_w = [mp.log(x) for x in w]
    mean = mp.fsum(wi * v for wi, v in zip(w, ln_p))
    kl = mp.fsum(wi * (lw - lp) for wi, lw, lp in zip(w, ln_w, ln_p)) / mp.log(2)
    h = -mp.fsum(wi * lw for wi, lw in zip(w, ln_w)) / mp.log(2)
    var = mp.fsum(wi * (v - mean) ** 2 for wi, v in zip(w, ln_p))
    rho = mp.fsum(wi * abs(v - mean) ** 3 for wi, v in zip(w, ln_p))
    return kl, h, var, rho


def exact_alpha_star(probs, delta):
    return mp.findroot(lambda a: exact_tilt(probs, a)[0] - delta, (mp.mpf("1e-3"), 1 - mp.mpf("1e-3")),
                       solver="anderson")


def exact_tail_inverse(eps):
    """x with Q(x) = eps, solved on log Q so that subnormal eps keep their digits."""
    e = mp.mpf(eps)
    log_q = lambda x: mp.log(mp.erfc(x / mp.sqrt(2)) / 2) - mp.log(e)
    return mp.findroot(log_q, mp.sqrt(-2 * mp.log(e)))


def close(got, want, rel=REL):
    return abs(mp.mpf(got) - want) <= rel * abs(want)


def test_tilt_fields():
    rng = random.Random(0x0AC1E)
    for _ in range(30):
        p = random_pmf(rng, rng.randint(2, 6))
        for alpha in (rng.uniform(0.02, 0.9), 0.5, 0.05):
            t = tilt(p, alpha)
            kl, h, var, rho = exact_tilt(p.probs, alpha)
            assert close(t.kl_bits, kl), (p, alpha)
            assert close(t.entropy_bits, h), (p, alpha)
            assert close(t.sigma3_sq, var), (p, alpha)
            assert close(t.rho3, rho), (p, alpha)


def test_alpha_star():
    rng = random.Random(0xA1FA)
    for _ in range(10):
        p = random_pmf(rng, rng.randint(2, 5))
        delta = delta_range(p).hi * rng.uniform(0.05, 0.9)
        got = solve_alpha_star(p, delta).alpha_star
        want = exact_alpha_star(p.probs, delta)
        assert abs(got - want) <= REL, (p, delta)


def test_log_moment_slope_and_curvature_bounds():
    # the bounds that let moment_envelope skip grid blocks (MomentEnvelope's
    # docstring): |(ln sigma3_sq)'| <= R, |(ln rho3)'| <= 2.5 R,
    # -0.75 R^2 <= (ln sigma3_sq)'' <= R^2 and (ln rho3)'' >= -9.5 R^2,
    # with R = max ln p - min ln p; the skewed sources reach R of about 11
    rng = random.Random(0xB0B)
    sources = [random_pmf(rng, m) for m in (2, 3, 4, 6)] + [skewed_pmf(rng, m) for m in (2, 3, 5)]
    steepest = 0.0
    for p in sources:
        ln_p = [mp.log(mp.mpf(x)) for x in p.probs]
        r = max(ln_p) - min(ln_p)
        ln_sigma3_sq = lambda a: mp.log(exact_tilt(p.probs, a)[2])
        ln_rho3 = lambda a: mp.log(exact_tilt(p.probs, a)[3])
        for k in range(1, 40):
            alpha = mp.mpf(k) / 40
            _, slope, curve = mpmath.diffs(ln_sigma3_sq, alpha, 2)
            assert abs(slope) <= r and -0.75 * r ** 2 <= curve <= r ** 2, (p, k)
            steepest = max(steepest, abs(slope) / r)
            _, slope, curve = mpmath.diffs(ln_rho3, alpha, 2)
            assert abs(slope) <= 2.5 * r and curve >= -9.5 * r ** 2, (p, k)
    assert steepest > 0.99  # the slope bound of sigma3_sq is all but attained


def test_moment_envelope_is_a_bound():
    # sigma3_inf_sq <= sigma3_sq <= sigma3_sup_sq and rho3 <= rho3_sup at the
    # closed ends, near them, and between grid points: next to the grid's
    # extremes (located with the library's kernel) and at random.  Bern(0.2)
    # has its sups at alpha = 0, off the grid.  At grid_size=65 the sigma3_sq
    # and rho3 of 0.5,0.3,0.2 peak between grid points, above every point
    # the envelope evaluates: only the half-step inflation covers them.
    rng = random.Random(0xE4E1)
    sources = [random_pmf(rng, m) for m in range(2, 7)] + [skewed_pmf(rng, m) for m in (2, 3, 5)]
    cases = [(p, ENVELOPE_GRID) for p in sources + [bern("0.2")]]
    cases.append((SourcePmf.parse("0.5,0.3,0.2"), 65))
    for p, grid_size in cases:
        env = moment_envelope(p, grid_size)
        step = (1.0 - 2 * ENVELOPE_EDGE) / (grid_size - 1)
        grid = [ENVELOPE_EDGE + i * step for i in range(grid_size)]
        sig, rho = _tilted_sigma3_rho3_columns([math.log(x) for x in p.probs], grid)
        intervals = set(rng.sample(range(grid_size - 1), 32))
        for i in (sig.index(min(sig)), sig.index(max(sig)), rho.index(max(rho))):
            intervals.update(j for j in (i - 1, i) if 0 <= j < grid_size - 1)
        alphas = [0.0, 1.0, 1e-12, 1e-9, 5e-7, 1 - 5e-7, 1 - 1e-9, 1 - 1e-12]
        alphas += [ENVELOPE_EDGE + (i + f) * step for i in intervals for f in (0.25, 0.5, 0.75)]
        sampled = [exact_tilt(p.probs, a)[2:] for a in alphas]
        sig_max, rho_max = max(v for v, _ in sampled), max(r for _, r in sampled)
        assert env.sigma3_inf_sq <= min(v for v, _ in sampled), (p, grid_size)
        assert env.sigma3_sup_sq >= sig_max, (p, grid_size)
        assert env.rho3_sup >= rho_max, (p, grid_size)
    evaluated = [exact_tilt(p.probs, a)[2:] for a in [0.0, 1.0] + grid]
    assert max(v for v, _ in evaluated) < sig_max and max(r for _, r in evaluated) < rho_max


def test_normal_tail_inverse_down_to_smallest_subnormal():
    assert normal_tail_inverse(0.5) == 0.0
    epsilons = [0.3, 0.1, 1e-3, 1e-9, 1e-30, 1e-100, 1e-300, 2.0 ** -1022]
    epsilons += [2.0 ** -k for k in range(1023, 1075)]
    for eps in epsilons:
        assert close(normal_tail_inverse(eps), exact_tail_inverse(eps), rel=1e-9), eps


def test_normal_tail_inverse_within_16_ulps_of_the_root():
    # statistics.NormalDist (Wichura's AS241) comes within 5.3 ulps of the
    # root on this sweep with every k.  A rational approximation polished by
    # one Halley step was off by up to 9.6e6 ulps one ulp from eps = 0.5,
    # where x is about 1e-16.
    rng = random.Random(0x0F1AB)
    epsilons = [rng.uniform(0.45, 0.55) for _ in range(120)]
    epsilons += [0.5 - k * 2.0 ** -54 for k in range(1, 9)] + [0.5 + k * 2.0 ** -53 for k in range(1, 9)]
    epsilons += [10.0 ** rng.uniform(-300, -1e-12) for _ in range(150)]
    epsilons += [1.0 - 10.0 ** rng.uniform(-12, -0.3) for _ in range(40)] + [1.0 - 1e-12]
    epsilons += [2.0 ** -k for k in range(2, 1075, 3)] + [2.0 ** -1074]  # at 2**-1 the root is 0
    for eps in epsilons:
        # above 0.5 the root is solved on the lower tail, at 1 - eps held exactly
        want = exact_tail_inverse(eps) if eps <= 0.5 else -exact_tail_inverse(1 - mp.mpf(eps))
        ulps = abs(mp.mpf(normal_tail_inverse(eps)) - want) / math.ulp(float(want))
        assert ulps <= 16, (eps, float(ulps))
