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
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count
from typing import Iterable

from .distributions import (
    SourcePmf,
    TiltedPoint,
    _tilted_kl_entropy_sigma3,
    _tilted_sigma3_rho3_columns,
    _weighted_moments,
    kl_divergence,
    tilt,
)
from .errors import DomainError, InvariantViolation
from .numerics import LOG2E, golden_section_minimize

ALPHA_TOL = 1e-14
_ALPHA_STAR_NOISES = 8.0  # |D - delta| allowed at alpha*, in units of D's rounding noise
ENVELOPE_EDGE = 1e-6
ENVELOPE_GRID = 4096
ENVELOPE_CHUNK = 32  # grid alphas per columnar kernel call; bounds its lists
ENVELOPE_REFINE_TOL = 1e-10


@dataclass(frozen=True)
class DeltaRange:
    """Admissible open interval (0, D(U || P)) for the exponent delta, in bits.

    Empty exactly when P is uniform (D(U || P) = 0); emptiness is a value,
    not an exception, so callers can branch on it.
    """

    hi: float

    @property
    def lo(self) -> float:
        return 0.0

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
    """Extremes of sigma3_sq and rho3 (nats) over the open tilt interval.

    The open-interval sup/inf are approximated on [1e-6, 1 - 1e-6]: a dense
    grid evaluation, in chunks of ``ENVELOPE_CHUNK`` alphas through one
    columnar kernel, followed by golden-section refinement around each grid
    extremum.  This is a grid estimate (not yet a certified bound): by
    construction the returned values bound every grid evaluation, but not
    necessarily the moments between grid points.  ``degenerate`` marks the
    uniform source, where all the moments vanish identically.
    """

    sigma3_inf_sq: float
    sigma3_sup_sq: float
    rho3_sup: float
    grid_size: int
    refinement_tol: float
    degenerate: bool = False


def delta_range(p: SourcePmf) -> DeltaRange:
    """Open interval of exponents for which the tilted solve is well posed."""
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
    at_end = [1.0 / p.m] * p.m if entropy else p.probs
    scale = math.sqrt(2.0 / (_weighted_moments(at_end, ln_p)[1] * LOG2E))
    alpha = scale * gap_target if entropy else 1.0 - scale * gap_target
    if not 0.0 < alpha < 1.0:
        alpha = 0.5
    noise = _rounding_noise(ln_p)
    lo, hi = 0.0, 1.0
    step = last = hi - lo
    for evaluations in count(1):
        kl, h, sigma3_sq = _tilted_kl_entropy_sigma3(ln_p, alpha)
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


@lru_cache(maxsize=256)
def solve_alpha_star(p: SourcePmf, delta: float) -> AlphaStarSolution:
    """Find the unique alpha in (0, 1) with D(P_alpha || P) = delta (bits).

    Safeguarded Newton on the strictly decreasing divergence map, with a
    bisection bracket as the fallback, to a last step of at most 1e-14 in
    alpha.  ``delta`` must lie strictly inside ``delta_range(p)``.

    Pure in its (immutable) arguments, so results are memoized: alpha*
    depends on the exponent alone, and a ladder over many blocklengths at
    one delta shares a single solve.
    """
    rng = delta_range(p)
    if rng.is_empty:
        raise DomainError(
            "uniform source: the admissible exponent interval is empty"
        )
    if not rng.contains(delta):
        raise DomainError(
            f"delta={delta!r} outside the admissible open interval "
            f"(0, {rng.hi!r}) bits"
        )
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
    [H(P), log2 m].
    """
    h_p = tilt(p, 1.0).entropy_bits
    h_max = math.log2(p.m)
    tol = 1e-12
    if rate < h_p - tol or rate > h_max + tol:
        raise DomainError(
            f"rate={rate!r} outside [H(P), log2 m] = [{h_p!r}, {h_max!r}]"
        )
    if p.is_uniform:
        return 0.0
    if rate <= h_p + tol:
        return 0.0
    if rate >= h_max - tol:
        # Only the uniform law has full entropy, so the infimum is D(U || P).
        return delta_range(p).hi
    alpha, _ = _solve_tilted(p, rate, entropy=True)
    return tilt(p, alpha).kl_bits


@lru_cache(maxsize=64)
def moment_envelope(
    p: SourcePmf,
    grid_size: int = ENVELOPE_GRID,
    refinement_tol: float = ENVELOPE_REFINE_TOL,
) -> MomentEnvelope:
    """Extremes of sigma3_sq and rho3 over alpha in (0, 1): a grid estimate
    (not yet a certified bound), see :class:`MomentEnvelope`.

    Pure in its (immutable) arguments, so results are memoized; the dense
    grid pass is the dominant cost in sweeps that call this per blocklength.
    """
    if p.is_uniform:
        return MomentEnvelope(0.0, 0.0, 0.0, grid_size, refinement_tol, degenerate=True)
    if grid_size < 3:
        raise DomainError("grid_size must be at least 3")
    lo_edge, hi_edge = ENVELOPE_EDGE, 1.0 - ENVELOPE_EDGE
    step = (hi_edge - lo_edge) / (grid_size - 1)
    ln_p = [math.log(x) for x in p.probs]

    def alpha_at(i: int) -> float:
        return lo_edge + i * step

    # Chunk by chunk, keep the first argmin/argmax of each grid column.
    sig_lo = sig_hi = rho_hi = 0
    sig_lo_v, sig_hi_v, rho_hi_v = math.inf, -math.inf, -math.inf
    for start in range(0, grid_size, ENVELOPE_CHUNK):
        chunk = [lo_edge + i * step for i in range(start, min(start + ENVELOPE_CHUNK, grid_size))]
        sig, rho = _tilted_sigma3_rho3_columns(ln_p, chunk)
        s_lo, s_hi, r_hi = min(sig), max(sig), max(rho)
        if s_lo < sig_lo_v:
            sig_lo, sig_lo_v = start + sig.index(s_lo), s_lo
        if s_hi > sig_hi_v:
            sig_hi, sig_hi_v = start + sig.index(s_hi), s_hi
        if r_hi > rho_hi_v:
            rho_hi, rho_hi_v = start + rho.index(r_hi), r_hi

    def refine(idx: int, value: float, objective, minimize: bool) -> float:
        a = alpha_at(max(idx - 1, 0))
        b = alpha_at(min(idx + 1, grid_size - 1))
        f = objective if minimize else (lambda x: -objective(x))
        _, fx = golden_section_minimize(f, a, b, refinement_tol)
        best = fx if minimize else -fx
        return min(best, value) if minimize else max(best, value)

    sigma3_of = lambda a: _tilted_sigma3_rho3_columns(ln_p, (a,))[0][0]
    rho3_of = lambda a: _tilted_sigma3_rho3_columns(ln_p, (a,))[1][0]
    return MomentEnvelope(
        sigma3_inf_sq=refine(sig_lo, sig_lo_v, sigma3_of, minimize=True),
        sigma3_sup_sq=refine(sig_hi, sig_hi_v, sigma3_of, minimize=False),
        rho3_sup=refine(rho_hi, rho_hi_v, rho3_of, minimize=False),
        grid_size=grid_size,
        refinement_tol=refinement_tol,
    )
