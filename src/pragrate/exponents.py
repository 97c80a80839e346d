"""Inverse error-exponent machinery over the tilted family.

Given a target exponent delta (bits), the map alpha -> D(P_alpha || P) is
continuous and strictly decreasing on (0, 1), running from D(U || P) down to
0, so a plain bisection pins the unique alpha* with D(P_alpha* || P) = delta.
H(P_alpha*) is then the inverse of the error-exponent function

    Delta_P(R) = inf { D(P' || P) : H(P') >= R },

and the extremal nat-valued moments of log_e P(X) over alpha in (0, 1) feed
the explicit converse constants downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .distributions import (
    SourcePmf,
    TiltedPoint,
    _tilted_kl_entropy,
    _tilted_sigma3_rho3,
    kl_divergence,
    tilt,
)
from .errors import DomainError, InvariantViolation
from .numerics import golden_section_minimize

ALPHA_BISECTION_TOL = 1e-14
ALPHA_STAR_KL_TOL = 1e-11
ENVELOPE_EDGE = 1e-6
ENVELOPE_GRID = 4096
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
    alpha_star: float
    delta: float
    h_tilted: float  # H(P_alpha*), bits
    tilted: TiltedPoint


@dataclass(frozen=True)
class MomentEnvelope:
    """Extremes of sigma3_sq and rho3 (nats) over the open tilt interval.

    The open-interval sup/inf are approximated on [1e-6, 1 - 1e-6]: a dense
    grid evaluation followed by golden-section refinement around each grid
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


@lru_cache(maxsize=256)
def solve_alpha_star(p: SourcePmf, delta: float) -> AlphaStarSolution:
    """Find the unique alpha in (0, 1) with D(P_alpha || P) = delta (bits).

    Bisection on the strictly decreasing divergence map, to bracket width
    1e-14 in alpha.  ``delta`` must lie strictly inside ``delta_range(p)``.

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
    ln_p = [math.log(x) for x in p.probs]
    lo, hi = 0.0, 1.0  # D(lo+) > delta > D(hi) by the range check
    while hi - lo > ALPHA_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if _tilted_kl_entropy(ln_p, mid)[0] > delta:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    point = tilt(p, alpha)
    if abs(point.kl_bits - delta) > ALPHA_STAR_KL_TOL:
        raise InvariantViolation(
            f"alpha* solve missed target: |D - delta| = {abs(point.kl_bits - delta)!r}"
        )
    return AlphaStarSolution(
        alpha_star=alpha, delta=delta, h_tilted=point.entropy_bits, tilted=point
    )


def error_exponent(p: SourcePmf, rate: float) -> float:
    """The exponent Delta_P(rate) = inf {D(P'||P) : H(P') >= rate}, in bits.

    Computed through the tilted family: bisection on the strictly monotone
    entropy map finds alpha with H(P_alpha) = rate, and D(P_alpha || P) is
    returned.  ``rate`` must lie in [H(P), log2 m].
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
    ln_p = [math.log(x) for x in p.probs]
    lo, hi = 0.0, 1.0  # H decreasing in alpha: H(lo+) = log2 m, H(1) = H(P)
    while hi - lo > ALPHA_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if _tilted_kl_entropy(ln_p, mid)[1] > rate:
            lo = mid
        else:
            hi = mid
    return _tilted_kl_entropy(ln_p, 0.5 * (lo + hi))[0]


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

    # One streaming pass keeps the first argmin/argmax of each grid column.
    sig_lo = sig_hi = rho_hi = 0
    sig_lo_v, rho_hi_v = _tilted_sigma3_rho3(ln_p, alpha_at(0))
    sig_hi_v = sig_lo_v
    for i in range(1, grid_size):
        s, r = _tilted_sigma3_rho3(ln_p, alpha_at(i))
        if s < sig_lo_v:
            sig_lo, sig_lo_v = i, s
        if s > sig_hi_v:
            sig_hi, sig_hi_v = i, s
        if r > rho_hi_v:
            rho_hi, rho_hi_v = i, r

    def refine(idx: int, value: float, objective, minimize: bool) -> float:
        a = alpha_at(max(idx - 1, 0))
        b = alpha_at(min(idx + 1, grid_size - 1))
        f = objective if minimize else (lambda x: -objective(x))
        _, fx = golden_section_minimize(f, a, b, refinement_tol)
        best = fx if minimize else -fx
        return min(best, value) if minimize else max(best, value)

    sigma3_of = lambda a: _tilted_sigma3_rho3(ln_p, a)[0]
    rho3_of = lambda a: _tilted_sigma3_rho3(ln_p, a)[1]
    return MomentEnvelope(
        sigma3_inf_sq=refine(sig_lo, sig_lo_v, sigma3_of, minimize=True),
        sigma3_sup_sq=refine(sig_hi, sig_hi_v, sigma3_of, minimize=False),
        rho3_sup=refine(rho_hi, rho_hi_v, rho3_of, minimize=False),
        grid_size=grid_size,
        refinement_tol=refinement_tol,
    )
