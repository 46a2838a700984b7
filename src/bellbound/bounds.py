"""Bilateral non-asymptotic estimates of B^{1/p}(p, beta).

Upper side: the optimized Chernoff/MGF bound g_beta(p), its closed form in
the regime p >= 2*beta, the K+ * beta bound for p/beta <= 2, and a rough
triangle-inequality bound.  Lower side: the largest single Dobinski term
(integer search), its Stirling-smoothed continuous relaxation, the
closed-form term at k0, Jensen's beta, and the K- * beta candidate.  All
objectives are evaluated in log-space.  CANDIDATES lists every public bound
once; verify.check_point checks them all against the series at a point,
and bound_report ranks the reported ones, with GOptimized alone on the
upper side.  Every bound leaves log space through series.in_range, so it
returns a finite double or raises DomainError.  Each query computes its
peak frame, BellQuery.frame (the largest term's index m and log t_m), and
the MGF optimum BellQuery.lambda_star once: the series, H0Search and
HContinuous share the frame, and GOptimized reads lambda_star.  Where m
has no double (p ~ 1e300 at beta = DBL_MAX), series.peak_index refuses on
every access, and where p log k passes DBL_MAX (p ~ 2.6e305 at beta = 1)
the single terms do; either way H0Search and HContinuous are refused and
the report answers with Jensen.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache
from operator import attrgetter
from typing import NamedTuple

from .errors import DomainError
from .series import (
    BellQuery,
    EvalResult,
    Regime,
    bell_dobinski,
    _lambda0,
    _log_term_ratio,
    _poisson_deviance,
    in_range,
    log_mgf_bound,
    log_term,
)

K_PLUS = math.exp((math.e**2 - 3.0) / 2.0)
K_MINUS_FORMULA = (2.0 * math.pi) ** -0.5 * math.exp(-1.0 / (2.0 * math.e) + 1.0 / 3.0)
K_MINUS_PAPER = 0.6538


def upper_g_optimized(q: BellQuery) -> tuple[float, float]:
    """Optimized MGF upper bound on B^{1/p}: g_beta(p) = inf over lambda of
    the Chernoff bound.  Returns (bound, lambda_star).

    The log-objective is strictly convex in lambda and stationary where
    lambda * e^lambda = p/beta, so lambda_star = W(p/beta) in closed form:
    the query's q.lambda_star, computed once per query (from logs where
    p/beta overflows).
    """
    if q.p < 1:
        raise DomainError(f"upper_g_optimized requires p >= 1, got p={q.p}")
    lam = q.lambda_star
    g = in_range("upper_g_optimized", math.exp, log_mgf_bound(q, lam))
    # g >= B^{1/p} >= beta (Jensen), which rounding breaks past beta ~ 1e14
    return max(g, q.beta), lam


def upper_closed_form_largep(q: BellQuery) -> float:
    """Closed-form upper bound on B^{1/p} for p >= 2*beta: the MGF bound at
    lambda0 = ln(p/b) - lnln(p/b), which is
    [p/e / (ln(p/b) - lnln(p/b))] * exp{1/ln(p/b) - 1/(p/b)}.
    """
    if q.ratio < 2.0:
        raise DomainError(f"regime p >= 2*beta violated: p/beta = {q.ratio}")
    return in_range("the closed-form upper bound", math.exp,
                    log_mgf_bound(q, _lambda0(q)[1]))


class H0Result(NamedTuple):
    """Largest single Dobinski term: a rigorous lower bound on B(p, beta)."""

    log_bound_on_b: float
    k_star: int
    p: float

    @property
    def root_bound(self) -> float:
        """h0^{1/p}, the lower estimate on the B^{1/p} scale; DomainError
        where the term's log is not finite (p log k past DBL_MAX)."""
        return in_range("h0^(1/p)", math.exp, self.log_bound_on_b / self.p)


def lower_h0_search(q: BellQuery) -> H0Result:
    """Max over integer k >= 1 of the Dobinski term e^{-b} k^p b^k / k!.

    The terms are unimodal in k (strictly decreasing ratio), so the maximum
    sits at the query's peak, and its log is the peak frame's log t_m:
    q.frame, computed once per query (series.peak_index) and shared with
    the series.  Its root_bound is refused from p ~ 2.6e305 (at beta = 1),
    where p log k passes DBL_MAX.
    """
    if q.p <= 0:
        raise DomainError(f"lower_h0_search requires p > 0, got p={q.p}")
    m, _, _, log_peak, _ = q.frame
    return H0Result(log_peak, m, q.p)  # log_bound_on_b, k_star, p


def lower_h_continuous(q: BellQuery) -> tuple[float, float]:
    """Stirling-smoothed single-term lower bound on B^{1/p}:
    sup over real x >= 1 of [e^{-b} x^p b^x / zeta(x)]^{1/p}, capped at
    (t_n + t_{n+1})^{1/p}: the largest term t_m, from the query's peak
    frame q.frame, and its neighbour on x_star's side, n = m - (x_star < m).

    zeta(x) >= x! makes each smoothed term at integer x no larger than the
    true term.  Between integers nothing bounds it: at small beta, where
    the terms fall steeply, the sup can lie above B^{1/p} (6% above at
    (p, beta) = (444.65, 5.8e-135)).  The two terms of the cap belong to
    the series, so the capped value is a proven lower bound; the cap binds
    only below beta ~ 1.3e-3.  Its log is log t_m + log1p(e^-|r|), r the
    pair's log term ratio.  n = max(1, floor(x_star)) up to beta ~ 1e13;
    from ~3e14 x_star strays a few indices from m, where the pair through
    t_m is the larger.  Returns (bound, x_star).

    The log-objective p ln x - D(x) - ln(2 pi x)/2 - 1/(12x), D the Poisson
    deviance, is strictly concave on [1, inf) with a decreasing convex
    derivative, so Newton's method on its stationary equation, started at
    the largest integer term (the query's shared peak, q.peak) and clamped
    to x >= 1, converges (monotonically after the first step, by shrinking
    steps: it starts within about 1 of the root).  A later step that does
    not shrink is rounding, a cycle between doubles a few ulps apart, and
    ends the loop; a step of at most 1e-15 x is taken and ends it.  Within
    a factor 2 of beta the slope's ln(x/beta) is log1p((x - beta)/beta),
    x - beta exact (Sterbenz), as in series._log_term_ratio: ln x - ln beta
    cancels there to an ulp of ln beta, which put x_star 4 indices below
    the root at beta ~ 7e14.  Where the slope at x = 1, p + ln beta - 5/12,
    is <= 0, the maximum is at x = 1: then 2^(p-1) beta < 1, so the largest
    term is the first, and the clamped first step stays there.
    The curvature is formed without x * x, which overflows from x ~ 1.3e154.
    Evaluating the objective through D avoids the cancellation of x ln beta
    against x ln x, both of size ~beta ln beta.  DomainError from
    p ~ 2.6e305 (at beta = 1), where p log x passes DBL_MAX.
    """
    if q.p <= 0:
        raise DomainError(f"lower_h_continuous requires p > 0, got p={q.p}")
    p, beta = q.p, q.beta
    m, _, _, log_peak, _ = q.frame
    log_beta = math.log(beta)
    x = float(m)
    last = math.inf
    for _ in range(100):  # <= 7 steps seen; the cap is a backstop
        if 0.5 * beta <= x <= 2.0 * beta:
            log_ratio = math.log1p((x - beta) / beta)
        else:
            log_ratio = math.log(x) - log_beta
        slope = (p - 0.5) / x - log_ratio + 1.0 / (12.0 * x * x)
        curv = -((p - 0.5) / x + 1.0 + 1.0 / (6.0 * x * x)) / x
        x_new = max(1.0, x - slope / curv)
        step = abs(x_new - x)
        if step >= last:  # a rounding cycle
            break
        x, last = x_new, step
        if step <= 1e-15 * x:  # converged: the last step is taken
            break
    log_term_x = (p * math.log(x) - _poisson_deviance(x, beta)[0]
                  - 0.5 * math.log(2.0 * math.pi * x) - 1.0 / (12.0 * x))
    n = m - (x < m)
    log_cap = log_peak + math.log1p(
        math.exp(-abs(_log_term_ratio(n, p, beta, log_beta))))
    return in_range("the smoothed term^(1/p)", math.exp,
                    min(log_term_x, log_cap) / p), x


def k0_selector(q: BellQuery) -> int:
    """Integer seed floor(p / ln(p*e/beta)) + 1 for the single-term lower
    bound, the log taken as ln p + 1 - ln beta, which stays finite where
    p*e/beta overflows."""
    if q.p < 1:
        raise DomainError(f"k0_selector requires p >= 1, got p={q.p}")
    arg = math.log(q.p) + 1.0 - math.log(q.beta)
    if arg <= 0:
        raise DomainError(f"ln(p*e/beta) = {arg} <= 0")
    return int(math.floor(q.p / arg)) + 1


def lower_closed_form_largep(q: BellQuery) -> float:
    """Single Dobinski term at k0, on the B^{1/p} scale; rigorous lower
    bound for p/beta >= 2.  DomainError from p ~ 2.6e305 (at beta = 1),
    where p log k0 passes DBL_MAX."""
    if q.ratio < 2.0:
        raise DomainError(f"regime p/beta >= 2 violated: p/beta = {q.ratio}")
    k0 = k0_selector(q)
    return in_range("the k0 term^(1/p)", math.exp,
                    log_term(k0, q.p, q.beta) / q.p)


def lower_jensen(q: BellQuery) -> float:
    """Jensen's lower bound beta on B^{1/p}: E X^p >= (E X)^p for p >= 1."""
    if q.p < 1:
        raise DomainError(f"lower_jensen requires p >= 1, got p={q.p}")
    return q.beta


def regime_upper_largebeta(q: BellQuery) -> float:
    """K+ * beta, K+ = exp((e^2 - 3)/2), for p >= 1, p/beta <= 2: the MGF
    bound at lambda = p/beta there, so never below upper_g_optimized.
    DomainError from beta ~ 2e307, where K+ * beta passes DBL_MAX."""
    if q.p < 1:
        raise DomainError(f"requires p >= 1, got p={q.p}")
    if q.ratio > 2.0:
        raise DomainError(f"regime p/beta <= 2 violated: p/beta = {q.ratio}")
    return in_range("K+ * beta", operator.mul, K_PLUS, q.beta)


class KMinusBound(NamedTuple):
    """The K- * beta lower-bound candidate; `holds` records whether the
    proof K- * beta <= beta <= B^{1/p} (Jensen) applies, i.e. K- <= 1."""

    value: float
    constant: float
    constant_label: str  # "formula"
    holds: bool


def regime_lower_largebeta(q: BellQuery) -> KMinusBound:
    """K- * beta candidate lower bound for p >= 1, p/beta <= 2.

    The constant is the auditable formula value
    (2 pi)^{-1/2} exp(-1/(2e) + 1/3) ~ 0.4632, not the printed 0.6538
    (K_MINUS_PAPER).  Both are below 1, so Jensen proves the bound.
    """
    if q.p < 1:
        raise DomainError(f"requires p >= 1, got p={q.p}")
    if q.ratio > 2.0:
        raise DomainError(f"regime p/beta <= 2 violated: p/beta = {q.ratio}")
    # value, constant, constant_label, holds
    return KMinusBound(K_MINUS_FORMULA * q.beta, K_MINUS_FORMULA, "formula",
                       K_MINUS_FORMULA <= 1.0)


# The grid of 40 log-spaced p in [2, 200] on which the rough constant is
# fitted, restricted to lnln p > 0 (the normalization flips sign below
# p = e and diverges at p = e).
_ROUGH_FIT_GRID = tuple(
    p for p in (2.0 * 100.0 ** (i / 39) for i in range(40)) if p > math.e)


@cache
def fitted_rough_constant() -> float:
    """Empirical constant for the rough triangle bound, fitted at beta = 1.

    Maximizes (B^{1/p} e ln p / p - 1) * ln p / lnln p over
    _ROUGH_FIT_GRID.
    """
    best = 0.0
    for p in _ROUGH_FIT_GRID:
        lnp = math.log(p)
        root = bell_dobinski(BellQuery(p, 1.0)).root(p)
        need = (root * math.e * lnp / p - 1.0) * lnp / math.log(lnp)
        best = max(best, need)
    return best


def rough_upper_triangle(q: BellQuery) -> float:
    """Triangle-inequality upper bound on B^{1/p}:
    ceil(beta) * (p / (e ln p)) * (1 + c3 * lnln p / ln p), c3 the beta = 1
    fitted constant.  Valid whenever p is at least the first point of the
    fit's grid (p ~ 2.85); below it the fit says nothing and the formula
    falls under B^{1/p}, even below 0.  For fractional beta the ceiling
    keeps the sum-of-norms argument applicable.  DomainError where the
    bound passes DBL_MAX (p = 100, beta = 1e308, say).
    """
    p_min = _ROUGH_FIT_GRID[0]
    if q.p < p_min:
        raise DomainError(f"requires p >= {p_min:.4f} (the rough constant's "
                          f"fitted range), got p={q.p}")
    if q.beta < 1:
        raise DomainError(f"requires beta >= 1, got beta={q.beta}")
    lnp = math.log(q.p)
    return in_range("the rough triangle bound", operator.mul,
                    math.ceil(q.beta) * (q.p / (math.e * lnp)),
                    1.0 + fitted_rough_constant() * math.log(lnp) / lnp)


@dataclass(frozen=True)
class BoundReport:
    """Matched lower/upper estimates of B^{1/p}(p, beta), and the series'
    result, kept where its root is a finite double."""

    query: BellQuery
    regime: Regime
    lower: float
    lower_method: str
    upper: float
    upper_method: str
    witness: dict = field(default_factory=dict)
    series: EvalResult | None = None
    kminus: KMinusBound | None = None
    errors: tuple[str, ...] = ()

    @property
    def series_root(self) -> float | None:
        """The series' value of B^{1/p}; None without a series."""
        return None if self.series is None else self.series.root(self.query.p)

    def to_dict(self) -> dict:
        """The report as JSON types; a side with no bound (NaN) is None."""
        return {
            "p": self.query.p,
            "beta": self.query.beta,
            "regime": self.regime.value,
            "lower": self.lower if math.isfinite(self.lower) else None,
            "lower_method": self.lower_method,
            "upper": self.upper if math.isfinite(self.upper) else None,
            "upper_method": self.upper_method,
            "witness": self.witness,
            "series_check": self.series_root,
            "kminus": None if self.kminus is None else {
                "value": self.kminus.value,
                "constant": self.kminus.constant,
                "constant_label": self.kminus.constant_label,
                "holds": self.kminus.holds,
            },
            "errors": list(self.errors),
        }


_H0_WITNESS = attrgetter("root_bound", "k_star")


class Candidate(NamedTuple):  # cheaper to build at import than a dataclass
    """One public bound on B^{1/p}: `evaluate` returns (value on the B^{1/p}
    scale, witness), the witness reported under `witness_key`; bound_report
    ranks the `reported` ones."""

    name: str  # the method label, with a (side) suffix where two share one
    side: str  # "lower" or "upper"
    reported: bool
    witness_key: str | None
    evaluate: Callable[[BellQuery], tuple[float, float | None]]


# Every public bound, lower side first.  The adapters look each bound up in
# the module's globals when called, so a patched module attribute is the one
# that runs.  Five are checked, not reported: the k0 term never exceeds
# H0Search, the largest single term; K- * beta never exceeds Jensen's beta;
# the closed form and K+ * beta are the MGF bound at one lambda each, so
# never below GOptimized, its infimum; RoughTriangle is checked, not
# reported.
CANDIDATES = (
    Candidate("H0Search", "lower", True, "k_star",
              lambda q: _H0_WITNESS(lower_h0_search(q))),
    Candidate("HContinuous", "lower", True, "x_star",
              lambda q: lower_h_continuous(q)),
    Candidate("Jensen", "lower", True, None, lambda q: (lower_jensen(q), None)),
    Candidate("ClosedFormLargeP(lower)", "lower", False, None,
              lambda q: (lower_closed_form_largep(q), None)),
    Candidate("KMinusLargeBeta", "lower", False, None,
              lambda q: (regime_lower_largebeta(q).value, None)),
    Candidate("GOptimized", "upper", True, "lambda_star",
              lambda q: upper_g_optimized(q)),
    Candidate("ClosedFormLargeP(upper)", "upper", False, None,
              lambda q: (upper_closed_form_largep(q), None)),
    Candidate("KPlusLargeBeta", "upper", False, None,
              lambda q: (regime_upper_largebeta(q), None)),
    Candidate("RoughTriangle", "upper", False, None,
              lambda q: (rough_upper_triangle(q), None)),
)


def bound_report(q: BellQuery, series_tol: float = 1e-12) -> BoundReport:
    """Evaluate the reported CANDIDATES for q and cross-check against the
    series.  A series refusal, such as p past series.P_MAX, lands in errors
    like any candidate's, as "<name>: <message>", in CANDIDATES order after
    the series.

    Lower: the largest of H0Search, HContinuous (capped at the largest
    series term and its neighbour) and Jensen's beta, a tie going to the
    larger method name.  Upper: the optimized MGF bound, GOptimized, the one
    reported upper candidate.  The regime labels the report; LargeBeta also
    carries the K- candidate.  The series, H0Search and HContinuous share
    q.frame, and GOptimized reads q.lambda_star: one peak search and one
    Lambert W per report.
    """
    if q.p < 1:
        raise DomainError(f"bound_report requires p >= 1, got p={q.p}")
    regime = q.regime
    errors: list[str] = []
    witness: dict = {}
    try:
        series = bell_dobinski(q, tol=series_tol)
        series.root(q.p)
    except DomainError as exc:
        errors.append(f"series: {exc}")
        series = None

    cands: dict[str, list[tuple[float, str]]] = {"lower": [], "upper": []}
    for c in CANDIDATES:
        if not c.reported:
            continue
        try:
            value, witness_value = c.evaluate(q)
        except DomainError as exc:
            errors.append(f"{c.name}: {exc}")
            continue
        cands[c.side].append((value, c.name))
        if c.witness_key:
            witness[c.witness_key] = witness_value

    kminus = regime_lower_largebeta(q) if regime is Regime.LARGE_BETA else None
    lower, lower_method = max(cands["lower"], default=(math.nan, "none"))
    upper, upper_method = min(cands["upper"], default=(math.nan, "none"))
    # positional, in field order
    return BoundReport(q, regime, lower, lower_method, upper, upper_method,
                       witness, series, kminus, tuple(errors))
