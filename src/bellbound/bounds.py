"""Bilateral non-asymptotic estimates of B^{1/p}(p, beta).

Upper side: the optimized Chernoff/MGF bound g_beta(p), its closed form in
the regime p >= 2*beta, the K+ * beta bound for p/beta <= 2, and a rough
triangle-inequality bound.  Lower side: the largest single Dobinski term
(integer search), its Stirling-smoothed continuous relaxation, the
closed-form term at k0, Jensen's beta, and the K- * beta candidate.  All
objectives are evaluated in log-space.  CANDIDATES lists every public bound
once; bound_report and the sandwich suite both read it.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache
from operator import attrgetter
from typing import NamedTuple

from .errors import BellboundError, DomainError
from .series import (
    BellQuery,
    Regime,
    bell_dobinski,
    _poisson_deviance,
    lambert_w,
    log_mgf_bound,
    log_term,
    p_max_limit,
    peak_index,
)

K_PLUS = math.exp((math.e**2 - 3.0) / 2.0)
K_MINUS_FORMULA = (2.0 * math.pi) ** -0.5 * math.exp(-1.0 / (2.0 * math.e) + 1.0 / 3.0)
K_MINUS_PAPER = 0.6538


def upper_g_optimized(q: BellQuery) -> tuple[float, float]:
    """Optimized MGF upper bound on B^{1/p}: g_beta(p) = inf over lambda of
    the Chernoff bound.  Returns (bound, lambda_star).

    The log-objective is strictly convex in lambda and stationary where
    lambda * e^lambda = p/beta, so lambda_star = W(p/beta) in closed form.
    """
    if q.p < 1:
        raise DomainError(f"upper_g_optimized requires p >= 1, got p={q.p}")
    lam = lambert_w(q.ratio)
    try:
        g = math.exp(log_mgf_bound(q, lam))
    except OverflowError:
        raise DomainError(f"upper_g_optimized exceeds the double range at "
                          f"p={q.p}, beta={q.beta}") from None
    # g >= B^{1/p} >= beta (Jensen), which rounding breaks past beta ~ 1e14
    return max(g, q.beta), lam


def upper_closed_form_largep(q: BellQuery) -> float:
    """Closed-form upper bound on B^{1/p} for p >= 2*beta:
    [p/e / (ln(p/b) - lnln(p/b))] * exp{1/ln(p/b) - 1/(p/b)}.

    Equals the MGF bound at lambda0 = ln(p/b) - lnln(p/b) exactly.
    """
    if q.p < 1:
        raise DomainError(f"requires p >= 1, got p={q.p}")
    if q.ratio < 2.0:
        raise DomainError(f"regime p >= 2*beta violated: p/beta = {q.ratio}")
    log_r = math.log(q.p) - math.log(q.beta)  # finite where p/beta overflows
    lam0 = log_r - math.log(log_r)  # >= 1, as log_r >= ln 2
    return (q.p / math.e) / lam0 * math.exp(1.0 / log_r - q.beta / q.p)


@dataclass(frozen=True)
class H0Result:
    """Largest single Dobinski term: a rigorous lower bound on B(p, beta)."""

    log_bound_on_b: float
    k_star: int
    p: float

    @property
    def bound_on_b(self) -> float:
        return math.exp(self.log_bound_on_b)

    @property
    def root_bound(self) -> float:
        """h0^{1/p}, the lower estimate on the B^{1/p} scale."""
        return math.exp(self.log_bound_on_b / self.p)


def lower_h0_search(q: BellQuery) -> H0Result:
    """Max over integer k >= 1 of the Dobinski term e^{-b} k^p b^k / k!.

    The terms are unimodal in k (strictly decreasing ratio), so the maximum
    sits at series.peak_index, found by bisection in O(log(beta + p)).
    """
    if q.p <= 0:
        raise DomainError(f"lower_h0_search requires p > 0, got p={q.p}")
    k = peak_index(q.p, q.beta)
    return H0Result(log_bound_on_b=log_term(k, q.p, q.beta), k_star=k, p=q.p)


def lower_h_continuous(q: BellQuery) -> tuple[float, float]:
    """Stirling-smoothed single-term lower bound on B^{1/p}:
    sup over real x >= 1 of [e^{-b} x^p b^x / zeta(x)]^{1/p}, capped at
    (t_n + t_{n+1})^{1/p} with n = max(1, floor(x_star)).

    zeta(x) >= x! makes each smoothed term at integer x no larger than the
    true term.  Between integers nothing bounds it: at small beta, where
    the terms fall steeply, the sup can lie above B^{1/p} (6% above at
    (p, beta) = (444.65, 5.8e-135)).  The two terms of the cap belong to
    the series, so the capped value is a proven lower bound; the cap binds
    only below beta ~ 1.3e-3.  Returns (bound, x_star).

    The log-objective p ln x - D(x) - ln(2 pi x)/2 - 1/(12x), D the Poisson
    deviance, is strictly concave on [1, inf) with a decreasing convex
    derivative, so Newton's method on its stationary equation, started at
    the largest integer term and clamped to x >= 1, converges (monotonically
    after the first step).  Evaluating it through D avoids the cancellation
    of x ln beta against x ln x, both of size ~beta ln beta.
    """
    if q.p <= 0:
        raise DomainError(f"lower_h_continuous requires p > 0, got p={q.p}")
    p, beta = q.p, q.beta
    log_beta = math.log(beta)
    x = 1.0
    if p + log_beta - 5.0 / 12.0 > 0.0:  # the slope at x = 1
        x = float(peak_index(p, beta))
        for _ in range(100):  # <= 7 steps seen; the cap stops a rounding cycle
            slope = (p - 0.5) / x - (math.log(x) - log_beta) + 1.0 / (12.0 * x * x)
            curv = -(p - 0.5) / (x * x) - 1.0 / x - 1.0 / (6.0 * x * x * x)
            x_new = max(1.0, x - slope / curv)
            if abs(x_new - x) <= 1e-15 * x:
                break
            x = x_new
    log_term_x = (p * math.log(x) - _poisson_deviance(x, beta)[0]
                  - 0.5 * math.log(2.0 * math.pi * x) - 1.0 / (12.0 * x))
    n = max(1, math.floor(x))
    lo, hi = sorted((log_term(n, p, beta), log_term(n + 1, p, beta)))
    log_cap = hi + math.log1p(math.exp(lo - hi))
    return math.exp(min(log_term_x, log_cap) / p), x


def k0_selector(q: BellQuery) -> int:
    """Integer seed floor(p / ln(p*e/beta)) + 1 for the single-term lower bound."""
    if q.p < 1:
        raise DomainError(f"k0_selector requires p >= 1, got p={q.p}")
    arg = math.log(q.p * math.e / q.beta)
    if arg <= 0:
        raise DomainError(f"ln(p*e/beta) = {arg} <= 0")
    return int(math.floor(q.p / arg)) + 1


def lower_closed_form_largep(q: BellQuery) -> float:
    """Single Dobinski term at k0, on the B^{1/p} scale; rigorous lower
    bound for p/beta >= 2."""
    if q.ratio < 2.0:
        raise DomainError(f"regime p/beta >= 2 violated: p/beta = {q.ratio}")
    k0 = k0_selector(q)
    return math.exp(log_term(k0, q.p, q.beta) / q.p)


def lower_jensen(q: BellQuery) -> float:
    """Jensen's lower bound beta on B^{1/p}: E X^p >= (E X)^p for p >= 1."""
    if q.p < 1:
        raise DomainError(f"lower_jensen requires p >= 1, got p={q.p}")
    return q.beta


def regime_upper_largebeta(q: BellQuery) -> float:
    """K+ * beta, K+ = exp((e^2 - 3)/2), for p >= 1, p/beta <= 2: the MGF
    bound at lambda = p/beta there, so never below upper_g_optimized."""
    if q.p < 1:
        raise DomainError(f"requires p >= 1, got p={q.p}")
    if q.ratio > 2.0:
        raise DomainError(f"regime p/beta <= 2 violated: p/beta = {q.ratio}")
    return K_PLUS * q.beta


@dataclass(frozen=True)
class KMinusBound:
    """The K- * beta lower-bound candidate; `holds` records whether the
    proof K- * beta <= beta <= B^{1/p} (Jensen) applies, i.e. K- <= 1."""

    value: float
    constant: float
    constant_label: str  # "formula" or "paper"
    holds: bool


def regime_lower_largebeta(q: BellQuery,
                           use_paper_constant: bool = False) -> KMinusBound:
    """K- * beta candidate lower bound for p >= 1, p/beta <= 2.

    The default constant is the auditable formula value
    (2 pi)^{-1/2} exp(-1/(2e) + 1/3) ~ 0.4632; the printed 0.6538 is kept
    behind the flag.  Both are below 1, so Jensen proves the bound.
    """
    if q.p < 1:
        raise DomainError(f"requires p >= 1, got p={q.p}")
    if q.ratio > 2.0:
        raise DomainError(f"regime p/beta <= 2 violated: p/beta = {q.ratio}")
    const, label = ((K_MINUS_PAPER, "paper") if use_paper_constant
                    else (K_MINUS_FORMULA, "formula"))
    return KMinusBound(value=const * q.beta, constant=const,
                       constant_label=label, holds=const <= 1.0)


@cache
def _rough_fit_grid() -> tuple[float, ...]:
    """The grid of 40 log-spaced p in [2, 200] on which the rough constant
    is fitted, restricted to lnln p > 0 (the normalization flips sign below
    p = e and diverges at p = e)."""
    grid = (2.0 * 100.0 ** (i / 39) for i in range(40))
    return tuple(p for p in grid if p > math.e)


@cache
def fitted_rough_constant() -> float:
    """Empirical constant for the rough triangle bound, fitted at beta = 1.

    Maximizes (B^{1/p} e ln p / p - 1) * ln p / lnln p over the grid of
    _rough_fit_grid.
    """
    best = 0.0
    for p in _rough_fit_grid():
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
    keeps the sum-of-norms argument applicable.
    """
    p_min = _rough_fit_grid()[0]
    if q.p < p_min:
        raise DomainError(f"requires p >= {p_min:.4f} (the rough constant's "
                          f"fitted range), got p={q.p}")
    if q.beta < 1:
        raise DomainError(f"requires beta >= 1, got beta={q.beta}")
    lnp = math.log(q.p)
    return math.ceil(q.beta) * (q.p / (math.e * lnp)) * (
        1.0 + fitted_rough_constant() * math.log(lnp) / lnp
    )


@dataclass(frozen=True)
class BoundReport:
    """Matched lower/upper estimates of B^{1/p}(p, beta)."""

    query: BellQuery
    regime: Regime
    lower: float
    lower_method: str
    upper: float
    upper_method: str
    witness: dict = field(default_factory=dict)
    series_root: float | None = None
    kminus: KMinusBound | None = None
    errors: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "p": self.query.p,
            "beta": self.query.beta,
            "regime": self.regime.value,
            "lower": self.lower,
            "lower_method": self.lower_method,
            "upper": self.upper,
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


class Candidate(NamedTuple):  # cheaper to build at import than a dataclass
    """One public bound on B^{1/p}: `evaluate` returns (value on the B^{1/p}
    scale, witness), the witness reported under `witness_key`; `regimes`
    are those in which bound_report lets it compete."""

    name: str  # the method label, with a (side) suffix where two share one
    side: str  # "lower" or "upper"
    regimes: tuple[Regime, ...]
    witness_key: str | None
    evaluate: Callable[[BellQuery], tuple[float, float | None]]

    @property
    def method(self) -> str:
        return self.name.partition("(")[0]

    def on_side(self, value: float, root: float, slack: float) -> bool:
        """True when value lies on this bound's side of root = B^{1/p},
        within relative slack (False for NaN)."""
        if self.side == "lower":
            return value <= root * (1.0 + slack)
        return value >= root * (1.0 - slack)


_BOTH = (Regime.LARGE_P, Regime.LARGE_BETA)

# Every public bound, lower side first.  The adapters look each bound up in
# the module's globals when called, so a patched module attribute is the one
# that runs.  Three compete in no regime: the k0 term never exceeds
# H0Search, the largest single term; K+ * beta never falls below GOptimized,
# the infimum it is one value of; RoughTriangle is checked, not reported.
CANDIDATES = (
    Candidate("H0Search", "lower", _BOTH, "k_star", lambda q:
              attrgetter("root_bound", "k_star")(lower_h0_search(q))),
    Candidate("HContinuous", "lower", _BOTH, "x_star",
              lambda q: lower_h_continuous(q)),
    Candidate("Jensen", "lower", _BOTH, None, lambda q: (lower_jensen(q), None)),
    Candidate("ClosedFormLargeP(lower)", "lower", (), None,
              lambda q: (lower_closed_form_largep(q), None)),
    Candidate("GOptimized", "upper", _BOTH, "lambda_star",
              lambda q: upper_g_optimized(q)),
    Candidate("ClosedFormLargeP(upper)", "upper", (Regime.LARGE_P,), None,
              lambda q: (upper_closed_form_largep(q), None)),
    Candidate("KPlusLargeBeta", "upper", (), None,
              lambda q: (regime_upper_largebeta(q), None)),
    Candidate("RoughTriangle", "upper", (), None,
              lambda q: (rough_upper_triangle(q), None)),
)


def _attempt(errors: list[str], label: str, thunk):
    """thunk(), or None with "<label>: <message>" appended to errors when
    it raises a BellboundError."""
    try:
        return thunk()
    except BellboundError as exc:
        errors.append(f"{label}: {exc}")
        return None


def bound_report(q: BellQuery, series_tol: float = 1e-12) -> BoundReport:
    """Evaluate the regime's bound pair for q and cross-check against the
    series when p <= p_max.

    The best of the CANDIDATES that list the regime wins on each side, ties
    going to the larger (value, method).  Lower: H0Search, HContinuous
    (capped at two series terms) or Jensen's beta in both regimes.  Upper:
    the optimized MGF bound in both, or its closed form in LargeP.  LargeBeta
    also carries the K- candidate.
    """
    if q.p < 1:
        raise DomainError(f"bound_report requires p >= 1, got p={q.p}")
    regime = q.regime
    errors: list[str] = []
    witness: dict = {}
    series_root = None
    if q.p <= p_max_limit():
        series_root = _attempt(
            errors, "series", lambda: bell_dobinski(q, tol=series_tol).root(q.p))

    cands: dict[str, list[tuple[float, str]]] = {"lower": [], "upper": []}
    for c in CANDIDATES:
        if regime not in c.regimes:
            continue
        got = _attempt(errors, c.name, lambda: c.evaluate(q))
        if got is not None:
            cands[c.side].append((got[0], c.method))
            if c.witness_key:
                witness[c.witness_key] = got[1]

    kminus = regime_lower_largebeta(q) if regime is Regime.LARGE_BETA else None
    lower, lower_method = max(cands["lower"], default=(math.nan, "none"))
    upper, upper_method = min(cands["upper"], default=(math.nan, "none"))
    return BoundReport(query=q, regime=regime, lower=lower,
                       lower_method=lower_method, upper=upper,
                       upper_method=upper_method, witness=witness,
                       series_root=series_root, kminus=kminus,
                       errors=tuple(errors))
