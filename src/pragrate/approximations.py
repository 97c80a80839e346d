"""Finite-blocklength approximations to the optimal and universal rates, and
the explicit constants of the matching achievability and converse bounds.

At blocklength n and excess-rate probability epsilon = 2**(-n*delta), the
ladder of approximations (bits/symbol) is

    shannon    H(P)
    strassen   H(P) + sigma(P) Qinv(epsilon)/sqrt(n) - log2(n)/(2n)
    blahut     H(P_alpha*)
    pragmatic  H(P_alpha*) - log2(n) / (2 n (1 - alpha*))

where alpha* solves D(P_alpha* || P) = delta and sigma**2(P) is the variance
of -log2 P(X) in bits**2.  The pragmatic rate is sandwiched around the true
optimum by explicit c/n and C/n corrections whose constants are assembled
here from the tilted moments; the n-thresholds N1, N2, N0 under which the
converse bound is guaranteed are computed by their defining minimizations.

The exponent/probability conversion is delta = log2(1/epsilon)/n throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Iterator, Sequence

from . import exact_limits
from .distributions import SourcePmf, TiltedPoint, tilt
from .errors import DomainError, ResourceLimitError
from .exponents import (
    AlphaStarSolution,
    MomentEnvelope,
    delta_range,
    moment_envelope,
    solve_alpha_star,
)
from .inputs import check_blocklength, check_integer, check_real
from .numerics import LOG2E, SQRT_2PI, neumaier_sum, normal_tail_inverse
from .types_census import DEFAULT_TYPE_CAP, low_entropy_count


def epsilon_to_delta(epsilon: float, n: int) -> float:
    """delta = log2(1/epsilon)/n (bits)."""
    epsilon = check_real("epsilon", epsilon, 0, 1, need="lie in (0, 1)")
    check_blocklength(n)
    return -math.log2(epsilon) / n


def delta_to_epsilon(delta: float, n: int) -> float:
    """epsilon = 2**(-n*delta); underflows to 0.0 for very large exponents."""
    check_blocklength(n)
    return 2.0 ** (-n * check_real("delta", delta, 0, math.inf, need="be a positive finite exponent"))


def shannon_rate(p: SourcePmf) -> float:
    """First-order approximation: the source entropy H(P)."""
    return tilt(p, 1.0).entropy_bits


def coding_variance_bits(p: SourcePmf) -> float:
    """Source dispersion sigma**2(P) = Var(-log2 P(X)) in bits**2."""
    logs = [math.log2(x) for x in p.probs]
    mean = neumaier_sum(w * v for w, v in zip(p.probs, logs))
    return neumaier_sum(w * (v - mean) ** 2 for w, v in zip(p.probs, logs))


def strassen_rate(p: SourcePmf, n: int, epsilon: float) -> float:
    """Normal-approximation rate H + sigma Qinv(eps)/sqrt(n) - log2(n)/(2n).

    Only informative for moderate epsilon; at very small epsilon the Qinv
    term dominates and the expansion is no longer trustworthy, but the value
    is still reported; ``normal_tail_inverse`` checks epsilon.
    """
    check_blocklength(n)
    return _strassen(*_source_terms(p), n, epsilon)


@lru_cache(maxsize=64)
def _source_terms(p: SourcePmf) -> tuple[float, float]:
    """``(H(P), sigma(P))``, the per-source ladder terms, computed once per
    source: a ladder sweep over many blocklengths reuses them."""
    return shannon_rate(p), math.sqrt(coding_variance_bits(p))


def _strassen(h: float, sigma: float, n: int, epsilon: float) -> float:
    return h + sigma * normal_tail_inverse(epsilon) / math.sqrt(n) - math.log2(n) / (2.0 * n)


def _solve_for(p: SourcePmf, n: int, delta: float) -> AlphaStarSolution:
    """alpha* at ``delta``, with the range error phrased for blocklength n."""
    try:
        return solve_alpha_star(p, delta)
    except DomainError:
        rng = delta_range(p)
        if rng.is_empty:
            raise DomainError("uniform source: no admissible exponent; any epsilon in (0,1) "
                              "fails the tilted solve") from None
        lo_eps = delta_to_epsilon(rng.hi, n)
        # where 2**(-n*hi) underflows, its exponent still names the lower end
        lo = f"{lo_eps:.6g}" if lo_eps > 0.0 else f"2**-{n * rng.hi:.6g}"
        raise DomainError(f"delta={float(delta):.6g} outside (0, {rng.hi:.6g}); at n={n} the "
                          f"admissible epsilon interval is ({lo}, 1)") from None


def blahut_rate(p: SourcePmf, n: int, epsilon: float) -> float:
    """Error-exponent approximation H(P_alpha*) with delta = log2(1/eps)/n."""
    return _solve_for(p, n, epsilon_to_delta(epsilon, n)).h_tilted


def pragmatic_rate(p: SourcePmf, n: int, epsilon: float) -> float:
    """H(P_alpha*) - log2(n)/(2n(1-alpha*)): the finite-n refined rate."""
    sol = _solve_for(p, n, epsilon_to_delta(epsilon, n))
    return sol.h_tilted - math.log2(n) / (2.0 * n * (1.0 - sol.alpha_star))


def _berry_esseen_prefactor_log2(scale: float, t: TiltedPoint) -> float:
    """log2 of (1/sigma) (1/sqrt(2 pi) + rho/sigma**2) for the log-likelihood
    ``scale`` * log_e P(X) plus a constant under P_alpha: sigma = scale *
    sigma3 and rho = scale**3 * rho3, in nats."""
    sigma = scale * math.sqrt(t.sigma3_sq)
    return math.log2((1.0 / sigma) * (1.0 / SQRT_2PI + scale ** 3 * t.rho3 / sigma ** 2))


def achievability_constant(p: SourcePmf, delta: float) -> float:
    """The additive c in the bound R*_n <= pragmatic + c/n, valid all n >= 1."""
    return _achievability_c(solve_alpha_star(p, delta))


def _achievability_c(sol: AlphaStarSolution) -> float:
    # log_e P_alpha(X) and log_e [P_alpha/P](X) are alpha and alpha - 1
    # times log_e P(X), plus constants; the sign drops out of sigma and rho
    a, t = sol.alpha_star, sol.tilted
    return _berry_esseen_prefactor_log2(a, t) + (
        a / (1.0 - a)
    ) * _berry_esseen_prefactor_log2(1.0 - a, t)


@dataclass(frozen=True)
class ConverseConstants:
    """Constant block of the converse bound R*_n >= pragmatic - C/n, n > N0.

    p, q, r are the Taylor/Berry-Esseen coefficients; N1, N2 are the
    smallest blocklengths at which log2(n) is dominated by p*sqrt(n) and
    p(1-alpha*)*n respectively; N0 is the overall validity threshold.
    ``achievability_c`` is bundled for one-stop reporting.
    """

    alpha_star: float
    delta: float
    C: float
    N0: float
    p: float
    q: float
    r: float
    N1: int
    N2: int
    achievability_c: float
    envelope: MomentEnvelope

    def __post_init__(self) -> None:
        checks = [self.p > 0.0, self.q > 0.0, self.r > 0.0]
        if not all(checks):
            raise DomainError("converse constants must be strictly positive")

    def to_dict(self) -> dict:
        return {
            "alpha_star": self.alpha_star,
            "delta_bits": self.delta,
            "C": self.C,
            "N0": self.N0,
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "N1": self.N1,
            "N2": self.N2,
            "achievability_c": self.achievability_c,
            "sigma3_inf_sq": self.envelope.sigma3_inf_sq,
            "sigma3_sup_sq": self.envelope.sigma3_sup_sq,
            "rho3_sup": self.envelope.rho3_sup,
        }


def _first_n_with(predicate, start: int) -> int:
    """min{n >= start : predicate(n)} for predicates of the form
    log2(n) <= g(n) with log2(n)/g(n) eventually decreasing.

    A direct ascending scan, accelerated by doubling and bisection once the
    predicate region is bracketed; both ratios involved are strictly
    decreasing beyond e**2, so the first hit is well defined and the
    bracketed search returns exactly the scan's answer.
    """
    if predicate(start):
        return start
    lo = start  # predicate False here
    hi = start * 2
    while not predicate(hi):
        lo = hi
        hi *= 2
        if hi > 1 << 200:  # pragma: no cover - absurd inputs
            raise DomainError("threshold search diverged")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


def converse_constants(p_src: SourcePmf, delta: float) -> ConverseConstants:
    """Assemble C, N0, p, q, r, N1, N2 from the tilted moments at alpha*
    and the moment envelope over the whole tilt interval."""
    sol = solve_alpha_star(p_src, delta)
    env = moment_envelope(p_src)
    if env.sigma3_inf_sq == 0.0:
        raise DomainError(
            "source within rounding noise of uniform: its moments have no certified bound"
        )
    a = sol.alpha_star
    sigma3_sq = sol.tilted.sigma3_sq
    sigma3_tilde_sq = env.sigma3_inf_sq
    sigma3_hat_sq = env.sigma3_sup_sq
    rho3_hat = env.rho3_sup
    sigma3_tilde_cubed = sigma3_tilde_sq ** 1.5

    p_const = LOG2E * (1.0 - a) * sigma3_sq
    q_const = (LOG2E / 2.0) * (sigma3_hat_sq + rho3_hat)
    r_const = (
        19.0
        * LOG2E
        * (1.0 - a)
        * (rho3_hat / sigma3_tilde_cubed + 1.0)
        * math.sqrt(sigma3_sq + rho3_hat)
    )
    big_c = (
        (1.0 + q_const + r_const) / (1.0 - a)
        + (LOG2E / 2.0) * abs(sigma3_tilde_sq - (1.0 - a) * rho3_hat)
        + (LOG2E / 2.0) * (sigma3_hat_sq + rho3_hat)
        + 1.0
    )
    n1 = _first_n_with(lambda n: math.log2(n) <= p_const * math.sqrt(n), 8)
    n2 = _first_n_with(lambda n: math.log2(n) <= p_const * (1.0 - a) * n, 3)
    n0 = max(
        4.4 * (rho3_hat / sigma3_tilde_cubed + 1.0) ** 2,
        4.0 * (1.0 + q_const + r_const) ** 2 / p_const ** 2,
        2.0 * (1.0 + q_const + r_const) / (p_const * (1.0 - a)),
        float(n1),
        float(n2),
    )
    return ConverseConstants(
        alpha_star=a,
        delta=delta,
        C=big_c,
        N0=n0,
        p=p_const,
        q=q_const,
        r=r_const,
        N1=n1,
        N2=n2,
        achievability_c=_achievability_c(sol),
        envelope=env,
    )


def universal_rate_bound(p: SourcePmf, n: int, delta: float) -> float:
    """Rate guarantee of the universal code, main terms only:

        H(P_alpha*) + ((m-2)/2 - 1/(2(1-alpha*))) * log2(n)/n.

    An additional O(1)/n residual exists but carries no explicit constant;
    it is deliberately not folded in here, and the codec sweeps pin an
    empirical stand-in for it.  At m = 2 this collapses to the pragmatic
    rate exactly.
    """
    check_blocklength(n)
    sol = solve_alpha_star(p, delta)
    m = p.m
    coeff = (m - 2) / 2.0 - 1.0 / (2.0 * (1.0 - sol.alpha_star))
    return sol.h_tilted + coeff * math.log2(n) / n


@dataclass(frozen=True)
class UniversalOperatingPoint:
    """The universal code's threshold sequence at one blocklength.

    ``alpha_n`` drifts above alpha* at rate log(n)/n; when the blocklength
    is too small for the drift to have kicked in (alpha_n outside
    [alpha*, 1)), ``ok`` is False and the census fields are still reported
    as diagnostics whenever alpha_n is a valid tilt parameter.
    """

    n: int
    alpha_star: float
    alpha_n: float
    ok: bool
    p_bar: float
    q_bar: float
    r_bar: float
    h_threshold_bits: float | None
    string_count: int | None
    rate: float | None  # (log2(count) + 1)/n


def universal_threshold_alpha_n(
    p: SourcePmf, delta: float, n: int, *, include_census: bool = True
) -> UniversalOperatingPoint:
    """Threshold tilt parameter alpha_n of the universal code's analysis,

        alpha_n = alpha* + log2(n)/(2 p_bar (1-alpha*) n) - (q_bar+r_bar)/(p_bar n),

    together with the induced entropy threshold H(P_alpha_n), the exact
    number of strings below it, and the realized rate (log2 count + 1)/n.
    ``include_census=False`` skips the exact string count (useful for very
    large n where only alpha_n itself is wanted).
    """
    check_blocklength(n)
    sol = solve_alpha_star(p, delta)
    env = moment_envelope(p)
    a = sol.alpha_star
    t = sol.tilted
    p_bar = t.sigma3_sq * LOG2E
    q_bar = (LOG2E / 2.0) * (
        abs(env.sigma3_inf_sq - (1.0 - a) * env.rho3_sup)
        + env.sigma3_sup_sq
        + env.rho3_sup
    )
    r_bar = (1.0 / (1.0 - a)) * _berry_esseen_prefactor_log2(1.0 - a, t)
    alpha_n = (
        a
        + math.log2(n) / (2.0 * p_bar * (1.0 - a) * n)
        - (q_bar + r_bar) / (p_bar * n)
    )
    ok = a <= alpha_n < 1.0
    h_thr = string_count = rate = None
    if 0.0 < alpha_n < 1.0:
        h_thr = tilt(p, alpha_n).entropy_bits
        if include_census:
            report = low_entropy_count(n, p.m, h_thr)
            string_count = report.count
            rate = (math.log2(string_count) + 1.0) / n
    return UniversalOperatingPoint(
        n=n,
        alpha_star=a,
        alpha_n=alpha_n,
        ok=ok,
        p_bar=p_bar,
        q_bar=q_bar,
        r_bar=r_bar,
        h_threshold_bits=h_thr,
        string_count=string_count,
        rate=rate,
    )


def prefix_adjust(rate_per_symbol: float, n: int) -> float:
    """One-to-one limit -> prefix-free limit: add exactly 1/n per symbol."""
    check_blocklength(n)
    return check_real("rate_per_symbol", rate_per_symbol) + 1.0 / n


@dataclass(frozen=True)
class RateLadder:
    """One row of the approximation ladder at a given (n, epsilon)."""

    n: int
    epsilon: float
    delta: float
    shannon: float
    strassen: float | None
    blahut: float | None
    pragmatic: float | None
    exact: float | None
    note: str = ""


def compute_rate_ladder(
    p: SourcePmf,
    n: int,
    epsilon: float,
    *,
    include_exact: bool = True,
    cap_types: int = DEFAULT_TYPE_CAP,
    prefix_mode: bool = False,
) -> RateLadder:
    """The one-row :func:`compute_rate_ladders`."""
    options = dict(include_exact=include_exact, cap_types=cap_types, prefix_mode=prefix_mode)
    return compute_rate_ladders(p, n, [epsilon], **options)[0]


def _nonnegative(column: str, rate: float, notes: list[str]) -> float | None:
    """``rate``, or None with a note naming ``column`` if it is below 0."""
    if rate < 0.0:
        notes.append(f"{column} column unavailable: {rate:.6g} bits/symbol is below 0")
        return None
    return rate


def compute_rate_ladders(
    p: SourcePmf,
    n: int,
    epsilons: Sequence[float] | None = None,
    *,
    deltas: Sequence[float] | None = None,
    include_exact: bool = True,
    cap_types: int = DEFAULT_TYPE_CAP,
    prefix_mode: bool = False,
) -> list[RateLadder]:
    """Evaluate every ladder column at blocklength n, one row per point.

    The points are given as exactly one of ``epsilons`` or ``deltas``.  An
    epsilon is read as delta = log2(1/epsilon)/n; a delta is used as given,
    with log2(epsilon) = -n*delta for the exact column, so the deep regime
    where 2**(-n*delta) underflows a double still has its tilted and exact
    columns.  Every point is validated before any work.  The optimal code's
    length distribution is built once and read at each point.  Columns that
    are undefined at a point (exponent out of range, epsilon underflowed or
    rounded to 1 for the normal approximation, or the exact computation
    infeasible, or a strassen or pragmatic value below 0 bits/symbol) come
    back as None with a note; in prefix mode the exact column is shifted by
    the 1/n prefix penalty.
    """
    if (epsilons is None) == (deltas is None):
        raise DomainError("provide exactly one of epsilons or deltas")
    check_blocklength(n)
    check_integer("cap_types", cap_types, 1)  # read only by the exact column
    if epsilons is not None:
        points = [(eps, epsilon_to_delta(eps, n), math.log2(eps)) for eps in epsilons]
    else:
        points = [(delta_to_epsilon(d, n), d, -n * d) for d in deltas]
    if not points:
        return []
    shannon, sigma = _source_terms(p)
    dist = exact_note = None
    if include_exact:
        try:
            dist = exact_limits.length_distribution(p, n, cap_types=cap_types)
        except ResourceLimitError as exc:
            exact_note = f"exact column infeasible: {exc}"
    rows = []
    for epsilon, delta, log2_epsilon in points:
        notes = []
        strassen = blahut = pragmatic = exact = None
        try:
            sol = _solve_for(p, n, delta)
            blahut = sol.h_tilted
            pragmatic = sol.h_tilted - math.log2(n) / (2.0 * n * (1.0 - sol.alpha_star))
            pragmatic = _nonnegative("pragmatic", pragmatic, notes)
        except DomainError as exc:
            notes.append(f"tilted columns unavailable: {exc}")
        if dist is not None:
            exact = dist.optimal_rate(log2_epsilon)
            exact = prefix_adjust(exact, n) if prefix_mode else exact
        elif exact_note:
            notes.append(exact_note)
        if 0.0 < epsilon < 1.0:
            strassen = _nonnegative("strassen", _strassen(shannon, sigma, n, epsilon), notes)
        else:  # 2**(-n*delta) underflows to 0, or rounds to 1 for a tiny n*delta
            fate = "underflows" if epsilon == 0.0 else "rounds to 1 in"
            notes.append(f"strassen column unavailable: epsilon = 2**-{n * delta:.6g} {fate} a double")
        rows.append(RateLadder(
            n=n, epsilon=epsilon, delta=delta, shannon=shannon, strassen=strassen,
            blahut=blahut, pragmatic=pragmatic, exact=exact, note="; ".join(notes),
        ))
    return rows


_RATE_COLUMNS = ("exact", "shannon", "strassen", "blahut", "pragmatic")
_rates = attrgetter(*_RATE_COLUMNS)


def _rate_cells(rows: list[RateLadder], digits: int | None) -> Iterator[list[str]]:
    """Each row's rate cells in ``_RATE_COLUMNS`` order: '-' where the rate
    is None, else its repr (``digits`` None) or ``digits`` decimals.  Lazy,
    so only one row's cells are held at a time."""
    fmt = repr if digits is None else f"{{:.{digits}f}}".format
    return (["-" if v is None else fmt(v) for v in _rates(r)] for r in rows)


def ladder_to_csv(rows: list[RateLadder], *, digits: int | None = None) -> str:
    """CSV with full-precision cells by default; '-' marks unavailable ones."""
    out = [",".join(("n", "epsilon", "delta", *_RATE_COLUMNS))]
    for r, rates in zip(rows, _rate_cells(rows, digits)):
        out.append(",".join([str(r.n), repr(r.epsilon), repr(r.delta), *rates]))
    return "\n".join(out) + "\n"


def ladder_to_markdown(rows: list[RateLadder], *, digits: int = 3) -> str:
    """Markdown table rounded for display (3 decimals by default)."""
    lines = ["| " + " | ".join(("epsilon", *_RATE_COLUMNS)) + " |",
             "|---" * (1 + len(_RATE_COLUMNS)) + "|"]
    for r, rates in zip(rows, _rate_cells(rows, digits)):
        lines.append(" | ".join([f"| {r.epsilon:g}", *rates]) + " |")
    return "\n".join(lines) + "\n"


_JSON_KEYS = ("n", "epsilon", "delta", *_RATE_COLUMNS, "note")


def ladder_to_json(rows: list[RateLadder]) -> str:
    """The rows as a JSON array of flat objects, keys in table order."""
    fields = attrgetter(*_JSON_KEYS)
    return json.dumps([dict(zip(_JSON_KEYS, fields(r))) for r in rows], indent=2)
