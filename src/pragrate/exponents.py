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
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, count, islice

from .distributions import (
    SourcePmf,
    TiltedPoint,
    _kl_from_terms,
    _tilt_weights,
    _tilted_sigma3_rho3_columns,
    _tilted_values,
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
ENVELOPE_CHUNK = 32  # the stride of the final margin's grid points, and the most alphas per kernel call
_ENVELOPE_SLACK = 1e-9  # relative widening of each block bound, over the kernel's rounding
_ENVELOPE_FAN = 4  # blocks cut from a block at the next level; a power of two, so strides divide 32
_ENVELOPE_GROUP = 16  # blocks of stride ENVELOPE_CHUNK refined together; bounds the state below it
_ENVELOPE_CALL = 24  # alphas per kernel call after the top level: leaves room for a level's arrays


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
    and ln rho3 in alpha rules out blocks of them, coarse ones first.  With
    V = ln P(X) under P_alpha, mu = E[V], D = V - mu, sigma3_sq = E[D^2],
    rho3 = E[|D|^3] and R = max ln p - min ln p, every |D| <= R, and
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
    [0, inf].

    That margin needs the smallest sigma3_sq over every
    ``ENVELOPE_CHUNK``-th grid point and the last one, so the levels of
    the scan coarser than ``ENVELOPE_CHUNK`` run before it is known.  They
    prune with the margin eps_c that the same formula gives for
    L = m e^(-c_top) / 2 in place of that smallest value, where m is the
    smallest sigma3_sq of the top level's points and c_top the curvature
    term over its widest block.  eps_c bounds the kernel's error on its
    own: its floor on sigma3_sq is at most half the one that the top
    level's points give by the argument above.  While eps_c < 1/4, the
    only case in which it prunes, every ``ENVELOPE_CHUNK``-th point lies in
    a top block, where the chord bound and the rounding keep its float
    above m e^(-c_top) (1 - eps_c)/(1 + eps_c) > L.  So L is at most the
    smallest value, and eps_c is no smaller than the final margin, as
    rounding is monotone.  In particular, a final margin of 1/4 or more
    gives eps_c >= 1/4, and then no level prunes, as in a dense scan.
    ``grid_evaluations`` counts the grid points the kernel evaluated: the
    top level's points and the points of every block that no level could
    rule out, but not the two closed ends.  It is a diagnostic and does
    not enter equality.
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
    # kl_divergence([u] * m, p), without checking the uniform vector it builds
    u = 1.0 / p.m
    return DeltaRange(hi=_kl_from_terms([u * math.log2(u / x) for x in p.probs]))


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
    alpha.  ``delta`` must lie strictly inside ``delta_range(p)``, and above
    the solver's resolution: D is known only to a few ulps of the largest
    |log P(x)|, so at or below 8 times that noise (1.03e-14 bits for
    Bern(0.2)) alpha* is not determined, and such a delta raises
    ``DomainError``.  The residual |D(P_alpha* || P) - delta| is verified
    against the same bound.  Each call is one solve; the ladder sweep holds
    its solutions, one per delta.
    """
    check_source(p)
    delta = check_real("delta", delta)
    rng = delta_range(p)
    if rng.is_empty:
        raise DomainError("uniform source: the admissible exponent interval is empty")
    check_real("delta", delta, 0, rng.hi)
    # relative to D's rounding noise, not absolute: a fixed bound would pass
    # any alpha near 1 once delta itself falls below it
    resolution = _ALPHA_STAR_NOISES * _rounding_noise(map(math.log, p.probs))
    if delta <= resolution:
        raise DomainError(f"delta={delta!r} is below the alpha* solver's resolution of "
                          f"{resolution:.3g} bits for this source")
    alpha, evaluations = _solve_tilted(p, delta, entropy=False)
    point = tilt(p, alpha)
    residual = abs(point.kl_bits - delta)
    if residual > resolution:
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


def moment_envelope(p: SourcePmf, grid_size: int = ENVELOPE_GRID) -> MomentEnvelope:
    """Certified bounds on sigma3_sq and rho3 over alpha in [0, 1], see
    :class:`MomentEnvelope`.

    A branch and bound over the grid, level by level, each level through
    the columnar kernel in calls of at most ``ENVELOPE_CHUNK`` alphas.  The
    top level is every top-th grid point and the last one, with top the
    largest ``ENVELOPE_CHUNK * 4^k`` that leaves at least 4 blocks (so at
    most 16), or ``ENVELOPE_CHUNK`` on a smaller grid.  Each level drops
    the blocks in which the curvature bound of :class:`MomentEnvelope`,
    widened by a rounding margin, shows that no point can beat or tie an
    extreme found so far, and cuts the others into 4 blocks of the next
    stride, down to single steps.  Blocks wider than ``ENVELOPE_CHUNK``
    are tested with the coarse margin, which is no smaller than the final
    one; the rest with the final margin, which needs every
    ``ENVELOPE_CHUNK``-th point.  The extremes of the grid are those of a
    dense scan, bit for bit.  One more kernel call evaluates the closed
    ends alpha = 0 and alpha = 1; the extremes of all these points,
    inflated over half a grid step and widened by the rounding margin, are
    returned.  The scan holds one level's blocks in arrays, and refines the
    blocks of stride ``ENVELOPE_CHUNK`` that survive ``_ENVELOPE_GROUP`` at
    a time, so it never holds more than at that stride.  Where the final
    margin is 1/4 or more no block can be ruled out, so the levels below
    that stride build no blocks: their points are evaluated densely,
    folded into the extremes one kernel call at a time, with the same
    points and bits.  ``grid_size`` must be an integer from 3 to
    ``ENVELOPE_GRID_CAP``.

    Checks its arguments, then memoizes: the result is pure in them, and
    only a SourcePmf and an int within the cap reach the memo, so an
    unhashable or float argument is refused like any bad value, and a
    refusal is never memoized.
    """
    check_source(p)
    check_integer("grid_size", grid_size, 3)
    if grid_size > ENVELOPE_GRID_CAP:
        raise ResourceLimitError(f"grid_size={describe(grid_size)} exceeds the cap of {ENVELOPE_GRID_CAP}")
    return _moment_envelope(p, grid_size)


@lru_cache(maxsize=64)
def _moment_envelope(p: SourcePmf, grid_size: int = ENVELOPE_GRID) -> MomentEnvelope:
    """The memoized body of :func:`moment_envelope`."""
    if p.is_uniform:
        return MomentEnvelope(0.0, 0.0, 0.0, grid_size, 0, degenerate=True)
    lo_edge, hi_edge = ENVELOPE_EDGE, 1.0 - ENVELOPE_EDGE
    step = (hi_edge - lo_edge) / (grid_size - 1)
    ln_p = [math.log(x) for x in p.probs]
    last = grid_size - 1

    # The curvature scale R^2 / 2 and the rounding margin of MomentEnvelope's
    # docstring.  eps < 1/4 needs sigma_floor > 24 big weight_err; as
    # sigma3_sq <= R^2 / 4, that holds only while c < 60 on the widest block
    # a margin below 1/4 tests, so e^(9.5 c) below stays finite.
    spread = max(ln_p) - min(ln_p)
    curve = spread * spread / 2.0
    big = 1.0 - min(ln_p)
    weight_err = 8.0 * sys.float_info.epsilon * big
    half_max = min(ENVELOPE_CHUNK, last) * step / 2.0

    def margin(sig_min: float) -> float:
        """eps, given a float no larger than any sigma3_sq of the
        ENVELOPE_CHUNK-th grid points and the last one."""
        sigma_floor = math.sqrt(0.5 * sig_min * math.exp(-curve * half_max * half_max))
        t = 2.0 * big * weight_err / sigma_floor if sigma_floor > 0.0 else math.inf
        return weight_err + t * (3.0 + t * (3.0 + t))

    def evaluate(points: Iterable[int], total: int, most: int = _ENVELOPE_CALL) -> tuple[array, array]:
        """sigma3_sq and rho3 at the ``total`` grid points, folded into the
        extremes: in as few kernel calls of at most ``most`` alphas as there
        can be, their sizes within one of each other.  The kernel's lists
        grow with the alphas of a call, and the scan's peak is theirs plus
        the level's arrays."""
        nonlocal sig_lo, sig_hi, rho_hi, evaluations
        sig, rho = array("d"), array("d")
        points = iter(points)
        calls = -(-total // most)
        for k in range(calls):
            size = (total + k) // calls  # these sum to total
            chunk = _tilted_sigma3_rho3_columns(ln_p, [lo_edge + i * step for i in islice(points, size)])
            sig.extend(chunk[0])
            rho.extend(chunk[1])
            del chunk  # before the next kernel call: the arrays take its memory
        if total:
            sig_lo, sig_hi, rho_hi = min(sig_lo, min(sig)), max(sig_hi, max(sig)), max(rho_hi, max(rho))
            evaluations += total
        return sig, rho

    def survivors(blocks: tuple[array, ...], first: int, stop: int, width: int, eps: float) -> list[int]:
        """The blocks first .. stop-1, each ``width`` >= 2 steps wide, that
        the curvature bound, widened by the margin eps, does not rule out.
        A product by a positive factor rounds monotonically, so testing both
        ends is testing their min and their max."""
        if eps >= 0.25 or first == stop:  # an empty range may name a width too wide for exp
            return list(range(first, stop))
        _, sig_a, rho_a, sig_b, rho_b = blocks
        widen = 1.0 + _ENVELOPE_SLACK + 4.0 * eps
        floor = sig_lo * widen
        c = curve * (width * step / 2.0) ** 2
        lo, hi, rh = math.exp(-c), math.exp(0.75 * c), math.exp(9.5 * c)
        ends = zip(range(first, stop), sig_a[first:stop], sig_b[first:stop], rho_a[first:stop], rho_b[first:stop])
        return [j for j, sa, sb, ra, rb in ends
                if not (sa * lo > floor and sb * lo > floor and sa * hi * widen < sig_hi and sb * hi * widen < sig_hi
                        and ra * rh * widen < rho_hi and rb * rh * widen < rho_hi)]

    def prune(blocks: tuple[array, ...], stride: int, eps: float) -> tuple[array, ...]:
        """The blocks whose interior may beat or tie an extreme found so far.
        Every block is ``stride`` wide but the last one, which may be short."""
        left = blocks[0]
        full = len(left) - (len(left) > 0 and left[-1] + stride > last)
        kept = survivors(blocks, 0, full, stride, eps)
        if full < len(left) and last - left[-1] >= 2:
            kept += survivors(blocks, full, len(left), last - left[-1], eps)
        if len(kept) == len(left):
            return blocks
        return tuple(array(column.typecode, map(column.__getitem__, kept)) for column in blocks)

    def split(blocks: tuple[array, ...], stride: int) -> tuple[array, ...]:
        """The next level: each block [a, min(a + stride, last)] cut at every
        sub-th grid point into blocks sub wide, or carried whole when it is
        narrower; none once sub is 1, as a single step has no interior."""
        left = blocks[0]
        sub = max(stride // _ENVELOPE_FAN, 1)

        def kids(a: int) -> range:
            return range(a + sub, min(a + stride, last), sub)

        sig, rho = evaluate(chain.from_iterable(map(kids, left)), sum(map(len, map(kids, left))))
        out = tuple(column[:0] for column in blocks)
        if sub == 1:
            return out
        starts, sig_a, rho_a, sig_b, rho_b = out
        k = 0
        for j, a in enumerate(left):
            inner = kids(a)
            end = k + len(inner)
            starts.append(a)
            starts.extend(inner)
            sig_a.append(blocks[1][j])
            sig_a.extend(sig[k:end])
            rho_a.append(blocks[2][j])
            rho_a.extend(rho[k:end])
            sig_b.extend(sig[k:end])
            sig_b.append(blocks[3][j])
            rho_b.extend(rho[k:end])
            rho_b.append(blocks[4][j])
            k = end
        return out

    # The top level: every top-th grid point and the last one, at most
    # _ENVELOPE_FAN^2 blocks.  A block is its left end and the moments at
    # both ends, kept in arrays.
    sig_lo, sig_hi, rho_hi, evaluations = math.inf, -math.inf, -math.inf, 0
    top = ENVELOPE_CHUNK
    while top * _ENVELOPE_FAN * _ENVELOPE_FAN <= last:
        top *= _ENVELOPE_FAN
    points = array("q", range(0, last, top))
    points.append(last)
    sig, rho = evaluate(points, len(points), ENVELOPE_CHUNK)  # at most 17 points, one call
    blocks = (points[:-1], sig[:-1], rho[:-1], sig[1:], rho[1:])
    del points, sig, rho
    # The coarse levels, down to stride ENVELOPE_CHUNK, prune with a margin
    # no smaller than the final one (MomentEnvelope's docstring), from a
    # floor under the sigma3_sq of every ENVELOPE_CHUNK-th point.
    half_top = min(top, last) * step / 2.0
    coarse_eps = margin(0.5 * sig_lo * math.exp(-curve * half_top * half_top))
    stride = top
    while stride > ENVELOPE_CHUNK:
        blocks = prune(blocks, stride, coarse_eps)
        blocks = split(blocks, stride)
        stride //= _ENVELOPE_FAN
    # Every ENVELOPE_CHUNK-th point and the last one are now evaluated or
    # ruled out, so sig_lo is the smallest of them: the final margin.
    eps = margin(sig_lo)
    if eps >= 0.5:  # past this the kernel's floats bound nothing
        return MomentEnvelope(0.0, math.inf, math.inf, grid_size, evaluations)
    if eps >= 0.25:
        # No block can be ruled out (survivors keeps all), nor could a coarse
        # level's, whose margin is no smaller: the points left are those
        # between the ENVELOPE_CHUNK-th ones.  A dense scan of them, folded
        # into the extremes one kernel call at a time, evaluates the points
        # that the levels below would, with no level's blocks held.
        del blocks
        left = (i for i in range(1, last) if i % ENVELOPE_CHUNK)
        total = last - 1 - (last - 1) // ENVELOPE_CHUNK
        while total:
            size = min(total, _ENVELOPE_CALL)
            evaluate(islice(left, size), size)
            total -= size
    else:
        # The levels below, down to single steps, with the final margin: the
        # surviving blocks _ENVELOPE_GROUP at a time, moved out from the end.
        blocks = prune(blocks, ENVELOPE_CHUNK, eps)
        while blocks[0]:
            group = tuple(column[-_ENVELOPE_GROUP:] for column in blocks)
            for column in blocks:
                del column[-_ENVELOPE_GROUP:]
            stride = ENVELOPE_CHUNK
            while group[0]:
                group = split(group, stride)
                stride = max(stride // _ENVELOPE_FAN, 1)
                group = prune(group, stride, eps)

    # The closed ends: then every alpha in [0, 1] lies between two evaluated
    # points at most 2 half apart, where the chord bounds apply.  As for the
    # blocks above, eps < 1/2 keeps c below 61, so e^(9.5 c) stays finite.
    sig, rho = _tilted_sigma3_rho3_columns(ln_p, (0.0, 1.0))
    half = max(step, ENVELOPE_EDGE) / 2.0
    c = curve * half * half
    widen = 1.0 + _ENVELOPE_SLACK + 4.0 * eps
    return MomentEnvelope(
        sigma3_inf_sq=min(sig_lo, *sig) * math.exp(-c) / widen,
        sigma3_sup_sq=max(sig_hi, *sig) * math.exp(0.75 * c) * widen,
        rho3_sup=max(rho_hi, *rho) * math.exp(9.5 * c) * widen,
        grid_size=grid_size,
        grid_evaluations=evaluations,
    )


moment_envelope.cache_info = _moment_envelope.cache_info  # the memo's hit ratio, which bench/run.py reads
