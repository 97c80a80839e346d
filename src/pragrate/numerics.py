"""Small floating-point toolbox: correctly rounded sums, base-2 log-domain
addition (tail sums live in ``coding._log2_tails``) and the normal tail
inverse.

Unit convention used across the package: entropies, divergences, rates and
exponents are in bits (log base 2); central moments of log-likelihoods are
in nats (log base e).  ``LOG2E`` converts nats to bits.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import DomainError

LOG2E = math.log2(math.e)  # bits per nat
NEG_INF = float("-inf")
SQRT_2PI = math.sqrt(2.0 * math.pi)


def neumaier_sum(values: Iterable[float]) -> float:
    """Correctly rounded sum of ``values`` (``math.fsum``)."""
    return math.fsum(values)


def logaddexp2(a: float, b: float) -> float:
    """log2(2**a + 2**b) without leaving the log domain."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    d = lo - hi
    if d < -1075.0:
        return hi
    return hi + math.log1p(2.0 ** d) * LOG2E


# Rational approximation for the inverse normal CDF (Acklam's algorithm),
# polished with one Halley step through math.erfc, or, for a subnormal
# argument, one Newton step in the log domain.  After the refinement the
# relative error is a few ulps down to the smallest subnormal, comfortably
# below the 1e-9 contract.

_ICDF_A = (
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
)
_ICDF_B = (
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01,
)
_ICDF_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
)
_ICDF_D = (
    7.784695709041462e-03, 3.224671290700398e-01,
    2.445134137142996e+00, 3.754408661907416e+00,
)
_ICDF_SPLIT = 0.02425
_SMALLEST_NORMAL = 2.0 ** -1022


def _normal_cdf_inverse_raw(p: float) -> float:
    a, b, c, d = _ICDF_A, _ICDF_B, _ICDF_C, _ICDF_D
    if p < _ICDF_SPLIT:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p > 1.0 - _ICDF_SPLIT:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def normal_cdf_inverse(p: float) -> float:
    """Inverse of the standard normal CDF on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal_cdf_inverse requires p in (0, 1), got {p!r}")
    if p > 0.5:
        # 1 - p is exact here (Sterbenz), and the upper-tail erfc keeps full
        # relative precision where the lower-tail form would cancel.
        return -normal_cdf_inverse(1.0 - p)
    x = _normal_cdf_inverse_raw(p)
    if p < _SMALLEST_NORMAL:
        return _newton_log_lower_tail(x, p)
    # Halley refinement: e = Phi(x) - p, Phi via erfc for tail accuracy.
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * SQRT_2PI * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def _newton_log_lower_tail(x: float, p: float) -> float:
    """One Newton step on log Phi(x) = log p, for subnormal p (x < -37).

    There Phi(x) and p have lost significant bits, so Phi(x) - p is mostly
    rounding, and exp(x*x/2) overflows.  Instead log Phi(x) comes from the
    asymptotic series Phi(x) = phi(x)/(-x) * s, s = sum_k (-1)**k (2k-1)!!/x**(2k),
    cut after k = 8: the first omitted term is below 1e-20 at |x| > 37.
    Newton uses d/dx log Phi(x) = -x/s.
    """
    y = 1.0 / (x * x)
    s, term = 1.0, 1.0
    for k in range(1, 9):
        term *= -(2 * k - 1) * y
        s += term
    log_phi = -x * x / 2.0 - math.log(-x * SQRT_2PI) + math.log(s)
    return x + (log_phi - math.log(p)) * s / x


def normal_tail_inverse(epsilon: float) -> float:
    """Inverse of the upper tail Q(x) = 1 - Phi(x): returns x with Q(x) = epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"normal_tail_inverse requires epsilon in (0, 1), got {epsilon!r}")
    return -normal_cdf_inverse(epsilon)
