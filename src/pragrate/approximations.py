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

A ladder over many blocklengths is one column-wise sweep
(``_rate_ladders``): the source, every blocklength and every point are
checked once, at the call, alpha* is solved and held once per delta (or
once per (n, epsilon), since an epsilon's delta depends on n), and each
row then costs only its own arithmetic.  The sweep is a stream of plain
tuples, each row computed when it is pulled, so a caller that writes rows
as they come holds one at a time.  :func:`compute_rate_ladders` is its
one-n view, each row wrapped as a :class:`RateLadder`.
Only the exact column reads ``exact_limits``, and only the universal
operating point's census reads ``types_census``: each is imported where it
is read, so a ladder without the exact column loads neither.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .distributions import SourcePmf, TiltedPoint, tilt
from .errors import DEFAULT_TYPE_CAP, DomainError, ResourceLimitError
from .exponents import (
    AlphaStarSolution,
    DeltaRange,
    MomentEnvelope,
    delta_range,
    moment_envelope,
    solve_alpha_star,
)
from .inputs import check_blocklength, check_integer, check_real, check_source
from .numerics import LOG2E, SQRT_2PI, _qinv, neumaier_sum, normal_tail_inverse


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
    check_source(p)
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
    check_source(p)
    check_blocklength(n)
    sigma = math.sqrt(coding_variance_bits(p))
    return shannon_rate(p) + sigma * normal_tail_inverse(epsilon) / math.sqrt(n) - math.log2(n) / (2.0 * n)


def _solve(p: SourcePmf, delta: float) -> AlphaStarSolution | DeltaRange | DomainError:
    """alpha* at ``delta``; else the range it lies outside, or the solver's refusal."""
    try:
        return solve_alpha_star(p, delta)
    except DomainError as exc:
        rng = delta_range(p)
        return exc if rng.contains(delta) else rng


def _unsolved(sol: DeltaRange | DomainError, n: int, delta: float) -> str:
    """Why ``delta`` has no alpha*, phrased for blocklength n."""
    if isinstance(sol, DomainError):  # below the solver's resolution
        return str(sol)
    if sol.is_empty:
        return "uniform source: no admissible exponent; any epsilon in (0,1) fails the tilted solve"
    lo_eps = delta_to_epsilon(sol.hi, n)
    # where 2**(-n*hi) underflows, its exponent still names the lower end
    lo = f"{lo_eps:.6g}" if lo_eps > 0.0 else f"2**-{n * sol.hi:.6g}"
    return (f"delta={float(delta):.6g} outside (0, {sol.hi:.6g}); at n={n} the "
            f"admissible epsilon interval is ({lo}, 1)")


def _solve_for(p: SourcePmf, n: int, delta: float) -> AlphaStarSolution:
    """alpha* at ``delta``, with a range error phrased for blocklength n."""
    sol = _solve(p, delta)
    if not isinstance(sol, AlphaStarSolution):
        raise DomainError(_unsolved(sol, n, delta))
    return sol


def blahut_rate(p: SourcePmf, n: int, epsilon: float) -> float:
    """Error-exponent approximation H(P_alpha*) with delta = log2(1/eps)/n."""
    check_source(p)
    return _solve_for(p, n, epsilon_to_delta(epsilon, n)).h_tilted


def pragmatic_rate(p: SourcePmf, n: int, epsilon: float) -> float:
    """H(P_alpha*) - log2(n)/(2n(1-alpha*)): the finite-n refined rate."""
    check_source(p)
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
    check_source(p)
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
    decreasing beyond e**2, so the first hit is well defined.  Below 2**52
    the bracketed search returns exactly the scan's answer.  Above it the
    predicate sees n rounded to a double and need not be monotone near its
    crossing, so the answer is accurate only to that rounding of n.
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
    and the moment envelope over the whole tilt interval.

    N1 and N2 are exact below 2**52 and accurate to the double rounding of
    n above it (see :func:`_first_n_with`)."""
    check_source(p_src)
    # the envelope first: a source it cannot certify has no exponent above the solver's resolution
    env = moment_envelope(p_src)
    if env.sigma3_inf_sq == 0.0 and not env.degenerate:
        raise DomainError(
            "source within rounding noise of uniform: its moments have no certified bound"
        )
    sol = solve_alpha_star(p_src, delta)
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

        H(P_alpha*) - log2(n) / (2n(1-alpha*)) + (m-2)/2 * log2(n)/n.

    An additional O(1)/n residual exists but carries no explicit constant;
    it is deliberately not folded in here, and the codec sweeps pin an
    empirical stand-in for it.  At m = 2 the last term is an exact 0.0, so
    this is the pragmatic rate bit for bit.
    """
    check_source(p)
    check_blocklength(n)
    sol = solve_alpha_star(p, delta)
    pragmatic = sol.h_tilted - math.log2(n) / (2.0 * n * (1.0 - sol.alpha_star))
    return pragmatic + (p.m - 2) / 2.0 * math.log2(n) / n


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
    check_source(p)
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
            from .types_census import low_entropy_count
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
    check_source(p)
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

    This is the one-blocklength view of the ladder sweep, which the CLI
    runs over a whole range of n with alpha* solved once per delta.
    """
    options = dict(include_exact=include_exact, cap_types=cap_types, prefix_mode=prefix_mode)
    return [RateLadder(*row) for row in _rate_ladders(p, [n], epsilons, deltas=deltas, **options)]


def _rate_ladders(
    p: SourcePmf,
    ns: Sequence[int],
    epsilons: Sequence[float] | None = None,
    *,
    deltas: Sequence[float] | None = None,
    include_exact: bool,
    cap_types: int,
    prefix_mode: bool,
) -> Iterator[tuple]:
    """The rows of :func:`compute_rate_ladders` at each n of ``ns`` in turn,
    as one column-wise stream: each row is a plain tuple in ``RateLadder``
    field order, computed only when it is pulled.

    Every check is made here, at the call, before any row: the source,
    every blocklength (a ``range`` by its first and last element, since
    every element lies between them), every point and ``cap_types``.  The
    first blocklength's length distribution is built here too, before the
    stream exists: the engine's sort is an exact ladder's peak, and nothing
    of the stream is alive through it.
    """
    check_source(p)
    if (epsilons is None) == (deltas is None):
        raise DomainError("provide exactly one of epsilons or deltas")
    for n in (ns[0], ns[-1]) if isinstance(ns, range) and ns else ns:
        check_blocklength(n)
    check_integer("cap_types", cap_types, 1)  # read only by the exact column
    by_delta = deltas is not None
    given = list(deltas if by_delta else epsilons)  # a row's delta or epsilon is the value as given
    if by_delta:
        floats = [check_real("delta", d, 0, math.inf, need="be a positive finite exponent") for d in given]
    else:
        floats = [check_real("epsilon", eps, 0, 1, need="lie in (0, 1)") for eps in given]
    if not (given and ns):
        return iter(())
    first = _exact_column(p, ns[0], include_exact, cap_types)
    return _ladder_rows(p, ns, first, given, floats, by_delta, include_exact, cap_types, prefix_mode)


def _exact_column(
    p: SourcePmf, n: int, include_exact: bool, cap_types: int
) -> tuple[LengthDistribution | None, str]:
    """(distribution, '') with the length distribution that the exact
    column reads at n; (None, note) where the column is infeasible there;
    (None, '') without the column."""
    if not include_exact:
        return None, ""
    from .exact_limits import length_distribution  # the exact column is the engine's only reader
    try:
        return length_distribution(p, n, cap_types=cap_types), ""
    except ResourceLimitError as exc:
        return None, f"exact column infeasible: {exc}"


def _ladder_rows(
    p: SourcePmf,
    ns: Sequence[int],
    first: tuple[LengthDistribution | None, str],
    given: list[float],
    floats: list[float],
    by_delta: bool,
    include_exact: bool,
    cap_types: int,
    prefix_mode: bool,
) -> Iterator[tuple]:
    """The rows of :func:`_rate_ladders`, from its checked points and
    ``first``, the first blocklength's :func:`_exact_column`.

    alpha* is solved once per delta, on the first row that reads it, which
    comes after the first length distribution is built, so no solution is
    held through the engine's sort; ``solved`` then holds it, or its
    refusal, the one place alpha* is reused.  An epsilon's delta depends on
    n, so it is solved per (n, epsilon).  Each blocklength's length
    distribution is dropped before the next one is built.  A row takes the
    single-point formulas' float operations, in their order, so every value
    is bit for bit the one-n ladder's.
    """
    shannon, sigma = shannon_rate(p), math.sqrt(coding_variance_bits(p))
    solved: list[AlphaStarSolution | DeltaRange | DomainError | None] = [None] * len(given)  # per delta
    for n in ns:
        dist, exact_note = first or _exact_column(p, n, include_exact, cap_types)
        first = None
        log2_n, two_n, sqrt_n = math.log2(n), 2.0 * n, math.sqrt(n)
        log_term = log2_n / two_n  # strassen's log2(n) / (2n)
        for i, (point, value) in enumerate(zip(given, floats)):
            if by_delta:
                epsilon, delta, log2_epsilon = 2.0 ** (-n * value), point, -n * point
                sol = solved[i]
                if sol is None:
                    sol = solved[i] = _solve(p, delta)
            else:
                log2_epsilon = math.log2(value)
                epsilon, delta = point, -log2_epsilon / n
                sol = _solve(p, delta)
            notes = []
            strassen = exact = pragmatic = blahut = None
            if isinstance(sol, AlphaStarSolution):
                blahut = sol.h_tilted
                pragmatic = blahut - log2_n / (two_n * (1.0 - sol.alpha_star))
                pragmatic = _nonnegative("pragmatic", pragmatic, notes)
            else:
                notes.append(f"tilted columns unavailable: {_unsolved(sol, n, delta)}")
            if dist is not None:
                exact = dist.optimal_rate(log2_epsilon)
                if prefix_mode:  # the 1/n penalty, as prefix_adjust adds it
                    exact += 1.0 / n
            elif exact_note:
                notes.append(exact_note)
            if 0.0 < epsilon < 1.0:
                q = _qinv(epsilon if by_delta else value)  # epsilon as a float
                strassen = shannon + sigma * q / sqrt_n - log_term
                strassen = _nonnegative("strassen", strassen, notes)
            else:  # 2**(-n*delta) underflows to 0, or rounds to 1 for a tiny n*delta
                fate = "underflows" if epsilon == 0.0 else "rounds to 1 in"
                notes.append(f"strassen column unavailable: epsilon = 2**-{n * delta:.6g} {fate} a double")
            yield n, epsilon, delta, shannon, strassen, blahut, pragmatic, exact, "; ".join(notes)
        dist = None  # this n's distribution goes before the next one is built
