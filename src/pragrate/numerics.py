"""Small floating-point toolbox shared by the package.

* ``neumaier_sum``: a correctly rounded sum (``math.fsum``).
* ``logaddexp2``: log2(2**a + 2**b) without leaving the log domain; the
  optimal code's tail chains inline it in ``coding._log2_tails``.
* ``normal_tail_inverse``: Qinv(epsilon), the only nontrivial term of the
  ``strassen`` ladder column, taken from ``statistics.NormalDist``.  Its
  argument is a double, so it stops at the smallest subnormal, 2**-1074.
  ``statistics`` is imported on the first call, not by every command.
  ``_qinv`` is its unchecked body, for the ladder's rows, whose epsilons
  are checked once per sweep.

Unit convention used across the package: entropies, divergences, rates and
exponents are in bits (log base 2); central moments of log-likelihoods are
in nats (log base e).  ``LOG2E`` converts nats to bits.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .inputs import check_real

LOG2E = math.log2(math.e)  # bits per nat
NEG_INF = float("-inf")
SQRT_2PI = math.sqrt(2.0 * math.pi)
_STANDARD_NORMAL = None  # statistics.NormalDist(), built by the first _qinv


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


def normal_tail_inverse(epsilon: float) -> float:
    """Inverse of the upper tail Q(x) = 1 - Phi(x): returns x with Q(x) = epsilon.

    Wichura's AS241 (``statistics.NormalDist.inv_cdf``), within a few ulps
    down to the smallest subnormal epsilon."""
    return _qinv(check_real("epsilon", epsilon, 0, 1, need="lie in (0, 1)"))


def _qinv(epsilon: float) -> float:
    """:func:`normal_tail_inverse` of a float its caller knows lies in (0, 1)."""
    global _STANDARD_NORMAL
    if _STANDARD_NORMAL is None:
        from statistics import NormalDist
        _STANDARD_NORMAL = NormalDist()
    return -_STANDARD_NORMAL.inv_cdf(epsilon)
