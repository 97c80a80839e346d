"""Inverse error-exponent machinery over the tilted family.

Given a target exponent delta (bits), the map alpha -> D(P_alpha || P) is
continuous and strictly decreasing on (0, 1), running from D(U || P) down to
0, so there is a unique alpha* with D(P_alpha* || P) = delta.  A safeguarded
Newton iteration finds it from the closed-form slope

    dD/dalpha = (alpha - 1) sigma3_sq log2(e),

with a bisection bracket as the fallback; the same solver inverts the
entropy map, whose slope is dH/dalpha = -alpha sigma3_sq log2(e).
H(P_alpha*) is then the inverse of the error-exponent function

    Delta_P(R) = inf { D(P' || P) : H(P') >= R },

and the extremal nat-valued moments of log_e P(X) over alpha in (0, 1) feed
the explicit converse constants downstream.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count
from typing import Iterable

from .distributions import (
    SourcePmf,
    TiltedPoint,
    _tilt_weights,
    _tilted_sigma3_rho3_columns,
    _tilted_values,
    kl_divergence,
    tilt,
)
from .errors import DomainError, InvariantViolation, ResourceLimitError
from .inputs import check_integer, check_real, check_source, describe
from .numerics import LOG2E

ALPHA_TOL = 1e-14
_ALPHA_STAR_NOISES = 8.0  # |D - delta| allowed at alpha*, in units of D's rounding noise
ENVELOPE_EDGE = 1e-6
ENVELOPE_GRID = 4096
ENVELOPE_GRID_CAP = 10_000_000  # grid points an envelope may take
ENVELOPE_CHUNK = 32  # grid alphas per columnar kernel call; bounds its lists
_ENVELOPE_SLACK = 1e-9  # relative widening of each block bound, over the kernel's rounding


@dataclass(frozen=True)
class DeltaRange:
    """Admissible open interval (0, D(U || P)) for the exponent delta, in bits.

    Empty exactly when P is uniform (D(U || P) = 0); emptiness is a value,
    not an exception, so callers can branch on it.
    """

    hi: float

    @property
    def is_empty(self) -> bool:
        return self.hi <= 0.0

    def contains(self, delta: float) -> bool:
        return 0.0 < delta < self.hi


@dataclass(frozen=True)
class AlphaStarSolution:
    """alpha* at ``delta``, with the solver's diagnostics: ``iterations``
    counts the divergence evaluations, and ``residual`` is
    |D(P_alpha* || P) - delta| in bits."""

    alpha_star: float
    delta: float
    h_tilted: float  # H(P_alpha*), bits
    tilted: TiltedPoint
    iterations: int = field(compare=False)
    residual: float = field(compare=False)


@dataclass(frozen=True)
class MomentEnvelope:
    """Certified bounds on sigma3_sq and rho3 (nats) over the tilt interval.

    ``sigma3_inf_sq`` <= sigma3_sq(alpha) <= ``sigma3_sup_sq`` and
    rho3(alpha) <= ``rho3_sup`` for every alpha in [0, 1], so also over the
    open interval (0, 1) whose sup and inf the converse constants need.
    They come from a ``grid_size``-point grid on [1e-6, 1 - 1e-6] and the
    closed ends alpha = 0 and alpha = 1: every alpha lies on an interval
    between two of these points, of half-width at most
    h = max(step, 1e-6) / 2, and the curvature bounds below carry the
    extremes of the evaluated points over it (the half-step inflation).
    ``degenerate`` marks the uniform source, where all the moments vanish
    identically.

    The grid extremes are those of a dense scan, bit for bit, but most grid
    points are never evaluated: a bound on the curvature of ln sigma3_sq
    and ln rho3 in alpha rules their blocks out.  With V = ln P(X) under
    P_alpha, mu = E[V], D = V - mu, sigma3_sq = E[D^2], rho3 = E[|D|^3]
    and R = max ln p - min ln p, every |D| <= R, and
    d/dalpha E_alpha[g] = E[g D] + E[dg/dmu] sigma3_sq, so

        (ln sigma3_sq)' = E[D^3] / sigma3_sq,                  |.| <= R,
        (ln rho3)' = (E[|D|^3 D] - 3 sigma3_sq E[D|D|]) / rho3,  |.| <= 2.5 R,

    the second because 3 sigma3^4 <= 1.5 R rho3, by Lyapunov
    (sigma3^3 <= rho3) and Popoviciu (sigma3 <= R/2).  One more derivative:

        (ln sigma3_sq)'' = (E[D^4] - 3 sigma3^4) / sigma3_sq - (E[D^3] / sigma3_sq)^2,
        rho3'' = E[|D|^5] - 7 sigma3_sq rho3 - 3 E[D^3] E[D|D|] + 6 sigma3^4 E[|D|],

    so -0.75 R^2 <= (ln sigma3_sq)'' <= R^2 (Cauchy-Schwarz bounds
    E[D^3]^2 by sigma3_sq E[D^4]), rho3'' >= -3.25 R^2 rho3, and
    (ln rho3)'' = rho3''/rho3 - ((ln rho3)')^2 >= -9.5 R^2.  A function
    with g'' >= -K lies below its chord plus K h^2 / 2 on an interval of
    half-width h, and one with g'' <= K above its chord minus that.  So on a
    block [a, b] of half-width h, with c = R^2 h^2 / 2,

        sigma3_sq <= max(sigma3_sq(a), sigma3_sq(b)) e^(0.75 c),
        sigma3_sq >= min(sigma3_sq(a), sigma3_sq(b)) e^(-c),
        rho3 <= max(rho3(a), rho3(b)) e^(9.5 c).

    These hold for the exact moments.  Taken over every interval between
    two evaluated points, with h = max(step, 1e-6) / 2, they give the
    returned bounds: the extremes of the evaluated points times e^(-c),
    e^(0.75 c) and e^(9.5 c).  The kernel's floats differ from the exact
    moments by a relative error eps <= w + 3t + 3t^2 + t^3:
    w = 8 e (1 + max |ln p|), with e the machine epsilon, bounds the error
    of the tilted weights, and t = 2 w (1 + max |ln p|) / sigma3_floor that
    of a deviation D over the smallest sigma3 the bound allows on the grid,
    taken with a factor 1/2 on sigma3_sq to spare: the closed ends lie
    within 1e-6 of the grid, so by the slope bound their sigma3_sq is at
    least e^(-1e-6 R) times a grid value.  Each block bound is widened by
    the factor 1 + 1e-9 + 4 eps, which covers (1 + eps)/(1 - eps) and the
    rounding of the bound itself; past eps = 1/4 (a source within a few
    hundred ulps of uniform) nothing is skipped.  The returned bounds
    are widened by the same factor, which covers (1 + eps)/(1 - eps) up to
    eps = 1/2; past that the floats bound nothing, and the envelope is
    [0, inf].  ``grid_evaluations`` counts the grid points the kernel
    evaluated: every ``ENVELOPE_CHUNK``-th point, the last one, and the
    blocks between them that the bound could not rule out, but not the two
    closed ends.  It is a diagnostic and does not enter equality.
    """

    sigma3_inf_sq: float
    sigma3_sup_sq: float
    rho3_sup: float
    grid_size: int
    grid_evaluations: int = field(compare=False)
    degenerate: bool = False


def delta_range(p: SourcePmf) -> DeltaRange:
    """Open interval of exponents for which the tilted solve is well posed."""
    check_source(p)
    uniform = [1.0 / p.m] * p.m
    return DeltaRange(hi=kl_divergence(uniform, p))


def _rounding_noise(ln_p: Iterable[float]) -> float:
    """The rounding noise of D and H in bits: a few ulps of the largest
    |log P(x)| that they sum."""
    return 4.0 * LOG2E * math.ulp(-min(ln_p))


def _solve_tilted(p: SourcePmf, target: float, *, entropy: bool) -> tuple[float, int]:
    """``(alpha, evaluations)``: the alpha in (0, 1) with D(P_alpha || P), or
    H(P_alpha) if ``entropy``, equal to ``target``.

    Both maps fall strictly in alpha, so each evaluation narrows a bracket
    [lo, hi] around the root.  Newton runs on the square root of the distance
    to the end where the slope vanishes: sqrt(D), zero at alpha = 1, and
    sqrt(log2 m - H), zero at alpha = 0.  Both maps are quadratic there, so
    the root is simple and the iteration nearly linear.  It starts from that
    quadratic expansion.  A step that leaves the bracket, or that is more
    than half the step before last, is replaced by bisection (the safeguard
    of ``rtsafe``, Numerical Recipes 9.4).  The solve ends at the first step
    no longer than ``ALPHA_TOL``, or once the value is within its own
    rounding noise of the target: past that, steps only chase the noise, and
    the last Newton step, taken without a further evaluation, is as good an
    estimate as any.
    """
    ln_p = [math.log(x) for x in p.probs]
    h_max = math.log2(p.m)
    gap_target = math.sqrt(h_max - target if entropy else target)
    # variance of ln P(X) at the flat end: under U at alpha = 0, under P at alpha = 1
    at_end = _tilt_weights(ln_p, 0.0) if entropy else (ln_p, 0.0, p.probs)
    scale = math.sqrt(2.0 / (_tilted_values(ln_p, *at_end)[3] * LOG2E))
    alpha = scale * gap_target if entropy else 1.0 - scale * gap_target
    if not 0.0 < alpha < 1.0:
        alpha = 0.5
    noise = _rounding_noise(ln_p)
    lo, hi = 0.0, 1.0
    step = last = hi - lo
    for evaluations in count(1):
        kl, h, _, sigma3_sq = _tilted_values(ln_p, *_tilt_weights(ln_p, alpha))
        value = h if entropy else kl
        if value > target:
            lo = alpha
        else:
            hi = alpha
        if entropy:  # the slopes dH/dalpha and dD/dalpha, and the gap to the flat end
            gap, slope = math.sqrt(max(h_max - h, 0.0)), -alpha * sigma3_sq * LOG2E
        else:
            gap, slope = math.sqrt(kl), (alpha - 1.0) * sigma3_sq * LOG2E
        # the Newton step on the gap, written through value - target so
        # that no cancellation of square roots limits its resolution
        newton = math.inf
        if gap > 0.0 and slope != 0.0:
            newton = (value - target) / slope * (2.0 * gap / (gap + gap_target))
        if abs(value - target) <= noise and lo <= alpha - newton <= hi:
            return alpha - newton, evaluations
        if not (lo < alpha - newton < hi and abs(newton) <= 0.5 * abs(last)):
            newton = alpha - 0.5 * (lo + hi)
        last, step = step, newton
        alpha -= step
        if abs(step) <= ALPHA_TOL:
            return alpha, evaluations


def solve_alpha_star(p: SourcePmf, delta: float) -> AlphaStarSolution:
    """Find the unique alpha in (0, 1) with D(P_alpha || P) = delta (bits).

    Safeguarded Newton on the strictly decreasing divergence map, with a
    bisection bracket as the fallback, to a last step of at most 1e-14 in
    alpha.  ``delta`` must lie strictly inside ``delta_range(p)``.

    Pure in its (immutable) arguments, so results are memoized: alpha*
    depends on the exponent alone, and a ladder over many blocklengths at
    one delta shares a single solve.  Only a SourcePmf and a float reach
    the memo (any other delta is made one by ``check_real`` or refused), so
    an unhashable argument is refused like any bad value; the range is
    checked on a miss, and a refusal is never memoized.
    """
    check_source(p)
    if type(delta) is not float:
        delta = check_real("delta", delta)
    return _solve_alpha_star(p, delta)


@lru_cache(maxsize=256)
def _solve_alpha_star(p: SourcePmf, delta: float) -> AlphaStarSolution:
    """The memoized body of :func:`solve_alpha_star`."""
    rng = delta_range(p)
    if rng.is_empty:
        raise DomainError("uniform source: the admissible exponent interval is empty")
    delta = check_real("delta", delta, 0, rng.hi)
    alpha, evaluations = _solve_tilted(p, delta, entropy=False)
    point = tilt(p, alpha)
    residual = abs(point.kl_bits - delta)
    # relative to D's rounding noise, not absolute: a fixed bound would pass
    # any alpha near 1 once delta itself falls below it
    if residual > _ALPHA_STAR_NOISES * _rounding_noise(map(math.log, p.probs)):
        raise InvariantViolation(f"alpha* solve missed target: |D - delta| = {residual!r}")
    return AlphaStarSolution(
        alpha_star=alpha, delta=delta, h_tilted=point.entropy_bits, tilted=point,
        iterations=evaluations, residual=residual,
    )


def error_exponent(p: SourcePmf, rate: float) -> float:
    """The exponent Delta_P(rate) = inf {D(P'||P) : H(P') >= rate}, in bits.

    Computed through the tilted family: the solver of :func:`solve_alpha_star`
    finds alpha with H(P_alpha) = rate on the strictly decreasing entropy
    map, and D(P_alpha || P) is returned.  ``rate`` must lie in
    [H(P), log2 m], within 1e-12.
    """
    check_source(p)
    h_p = tilt(p, 1.0).entropy_bits
    h_max = math.log2(p.m)
    tol = 1e-12
    rate = check_real("rate", rate, h_p - tol, h_max + tol, lo_open=False, hi_open=False)
    if p.is_uniform or rate <= h_p + tol:
        return 0.0
    if rate >= h_max - tol:
        # Only the uniform law has full entropy, so the infimum is D(U || P).
        return delta_range(p).hi
    alpha, _ = _solve_tilted(p, rate, entropy=True)
    return tilt(p, alpha).kl_bits


@lru_cache(maxsize=64, typed=True)  # typed: a float grid_size never hits an int's entry
def moment_envelope(p: SourcePmf, grid_size: int = ENVELOPE_GRID) -> MomentEnvelope:
    """Certified bounds on sigma3_sq and rho3 over alpha in [0, 1], see
    :class:`MomentEnvelope`.

    Two levels over the grid, each through the columnar kernel in chunks of
    at most ``ENVELOPE_CHUNK`` alphas.  First every ``ENVELOPE_CHUNK``-th
    grid point and the last one; then, block by block, the points between
    two of them, unless the curvature bound of :class:`MomentEnvelope`,
    widened by its rounding margin, shows that none of them can beat or tie
    an extreme found so far.  The extremes of the grid are those of a dense
    scan, bit for bit.  One more kernel call evaluates the closed ends
    alpha = 0 and alpha = 1; the extremes of all these points, inflated over
    half a grid step and widened by the rounding margin, are returned.
    ``grid_size`` must be an integer from 3 to ``ENVELOPE_GRID_CAP``.

    Pure in its (immutable) arguments, so results are memoized.
    """
    check_source(p)
    check_integer("grid_size", grid_size, 3)
    if grid_size > ENVELOPE_GRID_CAP:
        raise ResourceLimitError(f"grid_size={describe(grid_size)} exceeds the cap of {ENVELOPE_GRID_CAP}")
    if p.is_uniform:
        return MomentEnvelope(0.0, 0.0, 0.0, grid_size, 0, degenerate=True)
    lo_edge, hi_edge = ENVELOPE_EDGE, 1.0 - ENVELOPE_EDGE
    step = (hi_edge - lo_edge) / (grid_size - 1)
    ln_p = [math.log(x) for x in p.probs]
    last = grid_size - 1
    stride = ENVELOPE_CHUNK  # so that a block's interior is one kernel call
    blocks = -(-last // stride)

    def alpha_at(i: int) -> float:
        return lo_edge + i * step

    def coarse(j: int) -> int:  # grid index of the j-th block end
        return min(j * stride, last)

    # Level 1: the block ends, kept in arrays as the blocks read them.
    sig_c, rho_c = array("d"), array("d")
    for start in range(0, blocks + 1, ENVELOPE_CHUNK):
        ends = [alpha_at(coarse(j)) for j in range(start, min(start + ENVELOPE_CHUNK, blocks + 1))]
        sig, rho = _tilted_sigma3_rho3_columns(ln_p, ends)
        sig_c.extend(sig)
        rho_c.extend(rho)
        del sig, rho  # before the next kernel call: the arrays take their memory
    evaluations = blocks + 1
    sig_lo, sig_hi, rho_hi = min(sig_c), max(sig_c), max(rho_c)

    # The curvature scale R^2 / 2 and rounding margin of MomentEnvelope's
    # docstring.  eps < 1/4 needs sigma_floor > 24 big weight_err; as
    # sigma3_sq <= R^2 / 4, that holds only while c < 60 on the widest block,
    # so e^(9.5 c) below stays finite.
    spread = max(ln_p) - min(ln_p)
    curve = spread * spread / 2.0
    half_max = min(stride, last) * step / 2.0
    big = 1.0 - min(ln_p)
    weight_err = 8.0 * sys.float_info.epsilon * big
    sigma_floor = math.sqrt(0.5 * sig_lo * math.exp(-curve * half_max * half_max))
    t = 2.0 * big * weight_err / sigma_floor if sigma_floor > 0.0 else math.inf
    eps = weight_err + t * (3.0 + t * (3.0 + t))
    widen = 1.0 + _ENVELOPE_SLACK + 4.0 * eps
    prune = eps < 0.25

    # Level 2: a block's interior, unless no point of it can beat or tie.
    for j in range(blocks):
        a, b = coarse(j), coarse(j + 1)
        if b - a < 2:
            continue
        if prune:
            c = curve * ((b - a) * step / 2.0) ** 2
            if (min(sig_c[j], sig_c[j + 1]) * math.exp(-c) > sig_lo * widen
                    and max(sig_c[j], sig_c[j + 1]) * math.exp(0.75 * c) * widen < sig_hi
                    and max(rho_c[j], rho_c[j + 1]) * math.exp(9.5 * c) * widen < rho_hi):
                continue
        sig, rho = _tilted_sigma3_rho3_columns(ln_p, [alpha_at(i) for i in range(a + 1, b)])
        evaluations += b - a - 1
        sig_lo, sig_hi, rho_hi = min(sig_lo, *sig), max(sig_hi, *sig), max(rho_hi, *rho)
        del sig, rho

    if eps >= 0.5:  # past this the kernel's floats bound nothing
        return MomentEnvelope(0.0, math.inf, math.inf, grid_size, evaluations)
    # The closed ends: then every alpha in [0, 1] lies between two evaluated
    # points at most 2 half apart, where the chord bounds apply.  As for the
    # blocks above, eps < 1/2 keeps c below 61, so e^(9.5 c) stays finite.
    sig, rho = _tilted_sigma3_rho3_columns(ln_p, (0.0, 1.0))
    half = max(step, ENVELOPE_EDGE) / 2.0
    c = curve * half * half
    return MomentEnvelope(
        sigma3_inf_sq=min(sig_lo, *sig) * math.exp(-c) / widen,
        sigma3_sup_sq=max(sig_hi, *sig) * math.exp(0.75 * c) * widen,
        rho3_sup=max(rho_hi, *rho) * math.exp(9.5 * c) * widen,
        grid_size=grid_size,
        grid_evaluations=evaluations,
    )
