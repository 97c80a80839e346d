"""Probability vectors, entropies, divergences, and exponential tilting.

Everything here is a pure function of its arguments; the value types are
frozen dataclasses, safe to share between threads.

Units
-----
Entropies, divergences and normalizer logs are in bits (log base 2).
The centered moments of log-likelihoods (the sigma**2 and rho fields of
:class:`TiltedPoint`) are in nats, i.e. computed from natural logs; the
conversion factor ``LOG2E`` appears exactly where a bit-valued quantity is
assembled from nat-valued moments.

The tilted family
-----------------
For a full-support pmf P and alpha in (0, 1], the tilted pmf is

    P_alpha(x) = P(x)**alpha / Z_alpha,   Z_alpha = sum_x P(x)**alpha.

It interpolates between the uniform distribution (alpha -> 0) and P itself
(alpha = 1).  The paper's constants use the second and absolute third
centered moments, under P_alpha, of the three log-likelihoods

    log_e P_alpha(X),   log_e [P_alpha(X)/P(X)],   log_e P(X)

(indices 1, 2, 3).  The first two are alpha log_e P(X) and
(alpha-1) log_e P(X) plus constants, so

    sigma1_sq = alpha**2 * sigma3_sq,       rho1 = alpha**3 * rho3,
    sigma2_sq = (1-alpha)**2 * sigma3_sq,   rho2 = (1-alpha)**3 * rho3,

exactly.  :func:`tilt` returns the tilted pmf with sigma3_sq and rho3
alone, and the constants apply these scalings where they use the others.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mul, sub, truediv
from typing import Sequence, Union

from .errors import DistributionError, DomainError
from .inputs import brief, check_real, describe
from .numerics import LOG2E, neumaier_sum

SUM_ABS_TOL = 1e-12

PmfLike = Union["SourcePmf", Sequence[float]]


@dataclass(frozen=True)
class SourcePmf:
    """A full-support probability vector over an alphabet of size m >= 2.

    ``exact`` carries the entries as exact rationals when the pmf was built
    from decimal strings or Fractions summing to exactly 1; it enables the
    exact-rational code paths of the optimal-code evaluator.

    The hash is computed once, at construction: memoized solvers key on the
    pmf, and hashing the Fractions anew on every lookup costs microseconds.
    """

    probs: tuple[float, ...]
    exact: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.probs) < 2:
            raise DistributionError("a source pmf needs at least 2 symbols")
        if any(not (x > 0.0) or x > 1.0 for x in self.probs):
            raise DistributionError(
                f"source pmf entries must lie in (0, 1]: {self.probs}"
            )
        total = neumaier_sum(self.probs)
        if abs(total - 1.0) > SUM_ABS_TOL:
            # Deliberately no silent renormalization: that would hide caller bugs.
            raise DistributionError(
                f"source pmf sums to {total!r}, outside 1 +/- {SUM_ABS_TOL}"
            )
        if self.exact is not None:
            if len(self.exact) != len(self.probs):
                raise DistributionError("exact/float entry count mismatch")
            if sum(self.exact) != 1:
                raise DistributionError("exact entries must sum to exactly 1")
        object.__setattr__(self, "_hash", hash((self.probs, self.exact)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def m(self) -> int:
        return len(self.probs)

    @property
    def is_uniform(self) -> bool:
        lo, hi = min(self.probs), max(self.probs)
        return hi - lo <= 1e-15

    def log2_probs(self) -> tuple[float, ...]:
        return tuple(math.log2(x) for x in self.probs)

    @classmethod
    def from_values(cls, values: Sequence) -> "SourcePmf":
        """Build from floats, Fractions, ints, or decimal strings.

        Exact rationals are preserved only when every entry is given in an
        exact form (not a float) and the exact entries sum to exactly 1.
        """
        exact: list[Fraction] | None = []
        floats: list[float] = []
        for v in values:
            try:
                floats.append(float(v))
            except (TypeError, ValueError, OverflowError) as exc:
                raise DistributionError(f"bad pmf entry {brief(v)}: {exc}") from exc
            if isinstance(v, float):
                exact = None
            elif exact is not None:
                try:
                    exact.append(Fraction(v))
                except (ValueError, TypeError):
                    exact = None
        if exact is not None and sum(exact) != 1:
            exact = None
        return cls(tuple(floats), tuple(exact) if exact is not None else None)

    @classmethod
    def parse(cls, text: str) -> "SourcePmf":
        """Parse a JSON array (``[0.2, 0.8]``) or comma-separated string (``0.2,0.8``).

        Decimal literals are read exactly, so ``0.2`` becomes the rational 1/5.
        """
        text = text.strip()
        if not text:
            raise DistributionError("empty source pmf specification")
        if text.startswith("["):
            try:
                values = json.loads(text, parse_float=Fraction, parse_int=Fraction)
            except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
                raise DistributionError(f"bad JSON pmf: {exc}") from exc
            if not isinstance(values, list):
                raise DistributionError("JSON pmf must be an array of numbers")
            return cls.from_values(values)
        tokens = [tok.strip() for tok in text.split(",")]
        try:
            values = [Fraction(tok) for tok in tokens]
        except (ValueError, ZeroDivisionError) as exc:
            raise DistributionError(f"bad pmf entry in {text!r}: {exc}") from exc
        return cls.from_values(values)

    @classmethod
    def load(cls, spec: str) -> "SourcePmf":
        """Parse an inline spec, or read one from a file if ``spec`` names one."""
        if os.path.exists(spec):
            try:
                with open(spec, "r", encoding="utf-8") as fh:
                    spec = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise DistributionError(f"cannot read source file {spec!r}: {exc}") from exc
        return cls.parse(spec)


def _as_prob_vector(p: PmfLike, *, what: str) -> tuple[float, ...]:
    """Validate a probability vector; zeros allowed (empirical types)."""
    if isinstance(p, SourcePmf):
        return p.probs
    try:
        vec = tuple(check_real(what, x) for x in p)
    except (TypeError, DomainError):  # not iterable, or an entry no double holds
        raise DistributionError(f"{what}: not a vector of reals: {describe(p)}") from None
    if len(vec) < 1:
        raise DistributionError(f"{what}: empty vector")
    if any(x < 0.0 for x in vec):
        raise DistributionError(f"{what}: negative entries in {vec}")
    total = neumaier_sum(vec)
    if abs(total - 1.0) > SUM_ABS_TOL:
        raise DistributionError(f"{what}: sums to {total!r}, not 1")
    return vec


def entropy(p: PmfLike) -> float:
    """Shannon entropy -sum p(x) log2 p(x) in bits, with 0*log 0 = 0.

    Accepts a SourcePmf or any probability vector (zeros allowed, so
    empirical types can be fed in directly).
    """
    vec = _as_prob_vector(p, what="entropy")
    h = -neumaier_sum(x * math.log2(x) for x in vec if x > 0.0)
    return 0.0 if h == 0.0 else h  # normalizes -0.0


def kl_divergence(q: PmfLike, p: PmfLike) -> float:
    """Relative entropy D(q || p) = sum q(x) log2 [q(x)/p(x)] in bits.

    Requires supp(q) a subset of supp(p); q may have zeros.
    """
    qv = _as_prob_vector(q, what="kl_divergence q")
    pv = _as_prob_vector(p, what="kl_divergence p")
    if len(qv) != len(pv):
        raise DomainError("kl_divergence: alphabet size mismatch")
    terms = []
    for qx, px in zip(qv, pv):
        if qx == 0.0:
            continue
        if px == 0.0:
            raise DomainError("kl_divergence: q puts mass where p has none")
        terms.append(qx * math.log2(qx / px))
    d = neumaier_sum(terms)
    return max(d, 0.0) if abs(d) < 1e-15 else d


@dataclass(frozen=True)
class TiltedPoint:
    """The tilted pmf P_alpha with its normalizer and the moments of ln P(X).

    ``logZ`` is log2 of the normalizer; ``entropy_bits`` and ``kl_bits`` are
    H(P_alpha) and D(P_alpha || P), precomputed from the same weighted sums
    as the moments so that root finders see a smooth, cheap map.
    ``sigma3_sq`` and ``rho3`` are the variance and absolute third central
    moment of log_e P(X) under P_alpha; those of the other two
    log-likelihoods are their scalings, see the module docstring.
    """

    alpha: float
    pmf: SourcePmf
    logZ: float
    sigma3_sq: float
    rho3: float
    entropy_bits: float
    kl_bits: float


def _tilt_weights(ln_p: list[float], alpha: float) -> tuple[list[float], float, list[float]]:
    """``(alpha * ln P, ln Z_alpha, P_alpha)`` for alpha in [0, 1].

    The one copy of the tilted-family weight code: :func:`tilt` and the
    alpha* solver call it, and the columnar kernel repeats its float
    operations, so their floats agree bit for bit.
    """
    scaled = [alpha * lp for lp in ln_p]
    peak = max(scaled)
    zs = [math.exp(s - peak) for s in scaled]
    z_shifted = math.fsum(zs)
    ln_z = peak + math.log(z_shifted)
    weights = [z / z_shifted for z in zs]
    return scaled, ln_z, weights


def _tilted_values(
    ln_p: Sequence[float], scaled: Sequence[float], ln_z: float, weights: Sequence[float]
) -> tuple[float, float, float, float]:
    """``(kl_bits, entropy_bits, mean3, sigma3_sq)`` of the tilted pmf
    ``weights``, whose log is ``scaled - ln_z``, given
    ``ln_p = [log(x) for x in p.probs]``: D(P_alpha || P), H(P_alpha), and
    the mean and variance of log_e P(X) under P_alpha.

    The one scalar moment pass over the tilted family: :func:`tilt` adds
    rho3 to it, and the alpha* solver reads it alone.
    """
    t1 = [s - ln_z for s in scaled]  # log_e P_alpha(x)
    mean1 = math.fsum(map(mul, weights, t1))
    mean2 = math.fsum(map(mul, weights, map(sub, t1, ln_p)))  # of log_e [P_alpha/P](x)
    mean3 = math.fsum(map(mul, weights, ln_p))
    # every term is non-negative, so the sum is too
    sigma3_sq = math.fsum(w * (v - mean3) ** 2 for w, v in zip(weights, ln_p))
    return max(mean2 * LOG2E, 0.0), -mean1 * LOG2E, mean3, sigma3_sq


def _tilted_sigma3_rho3_columns(ln_p: list[float], alphas: Sequence[float]) -> tuple[list[float], list[float]]:
    """``(sigma3_sq, rho3)`` of ``tilt(p, alpha)`` for every alpha in
    ``alphas``, bit for bit, given ``ln_p = [log(x) for x in p.probs]`` and
    alphas in [0, 1] (at the closed ends, which :func:`tilt` does not take,
    those of its sums over the weights of :func:`_tilt_weights`).

    Columnar: one Python step per symbol, each a ``map`` over all the alphas,
    with the float operations of :func:`_tilt_weights`, of
    :func:`_tilted_values` and of :func:`tilt`'s rho3 sum in their order.
    The peak ``max(alpha * ln_p)`` is ``alpha * max(ln_p)`` exactly, because
    rounding a product by a positive factor is monotone, and ``math.fsum``
    is correctly rounded, so summing a column in any order gives the same
    float.
    """
    peaks = list(map(mul, alphas, repeat(max(ln_p))))
    zs = [list(map(math.exp, map(sub, map(mul, alphas, repeat(lp)), peaks))) for lp in ln_p]
    totals = list(map(math.fsum, zip(*zs)))
    weights = [list(map(truediv, z, totals)) for z in zs]
    means = list(map(math.fsum, zip(*[map(mul, w, repeat(lp)) for w, lp in zip(weights, ln_p)])))
    devs = [list(map(sub, repeat(lp), means)) for lp in ln_p]
    # every term is non-negative, so these sums are too: max(x, 0.0) is x
    var = list(map(math.fsum, zip(*[map(mul, w, map(pow, d, repeat(2))) for w, d in zip(weights, devs)])))
    rho = list(map(math.fsum, zip(*[
        map(mul, w, map(pow, map(abs, d), repeat(3))) for w, d in zip(weights, devs)
    ])))
    return var, rho


def tilt(p: SourcePmf, alpha: float) -> TiltedPoint:
    """Exponentially tilt ``p``: returns P_alpha, Z_alpha and its moments.

    alpha must be a real in (0, 1]; alpha = 1 reproduces ``p`` itself.
    """
    if not isinstance(p, SourcePmf):
        raise DomainError("tilt requires a SourcePmf (full support)")
    alpha = check_real("alpha", alpha, 0, 1, hi_open=False)
    ln_p = [math.log(x) for x in p.probs]
    if alpha == 1.0:
        # No tilt: P_1 = P and Z_1 = 1 exactly.
        scaled, ln_z, weights = ln_p, 0.0, p.probs
    else:
        scaled, ln_z, weights = _tilt_weights(ln_p, alpha)
    kl_bits, entropy_bits, mean3, sigma3_sq = _tilted_values(ln_p, scaled, ln_z, weights)
    return TiltedPoint(
        alpha=alpha,
        pmf=SourcePmf(tuple(weights)),
        logZ=ln_z * LOG2E,
        sigma3_sq=sigma3_sq,
        rho3=math.fsum(w * abs(v - mean3) ** 3 for w, v in zip(weights, ln_p)),
        entropy_bits=entropy_bits,
        kl_bits=kl_bits,
    )
