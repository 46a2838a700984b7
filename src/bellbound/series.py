"""Dobinski-series evaluation of the two-parameter Bell function.

B(p, beta) = e^{-beta} * sum_{k>=0} k^p beta^k / k!  is the p-th moment of
a Poisson(beta) variable.  The series is the ground-truth evaluator here;
an exact Stirling-number (Touchard) path serves as the independent oracle
for integer p.  Every value travels as a natural log and is exponentiated
only at the presentation layer: B(p, 1) already overflows double precision
near p ~ 170.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetError, DomainError

DEFAULT_P_MAX = 500.0
DEFAULT_TERM_BUDGET = 200_000
P_MAX_ENV = "BELLBOUND_PMAX"


def p_max_limit() -> float:
    """Largest exponent the series evaluator accepts (env-overridable)."""
    raw = os.environ.get(P_MAX_ENV)
    return float(raw) if raw else DEFAULT_P_MAX


class Regime(Enum):
    LARGE_P = "LargeP"
    LARGE_BETA = "LargeBeta"
    GAP = "Gap"


@dataclass(frozen=True)
class BellQuery:
    """A (p, beta) evaluation point.  p >= 0, beta > 0."""

    p: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 0):
            raise DomainError(f"p must be finite and >= 0, got {self.p!r}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise DomainError(f"beta must be finite and > 0, got {self.beta!r}")

    @property
    def ratio(self) -> float:
        return self.p / self.beta

    @property
    def regime(self) -> Regime:
        # Tie at p/beta == 2 resolves to LARGE_P.
        if self.p < 1:
            return Regime.GAP
        return Regime.LARGE_P if self.ratio >= 2.0 else Regime.LARGE_BETA


@dataclass(frozen=True)
class EvalResult:
    """A positive value in log-space with a two-part error certificate.

    tail_bound_log is the log of a certified upper bound on the omitted
    tails (truncation), relative to the returned value.  rounding_bound_log
    is the log of a forward-error bound on the floating-point error of
    log_value, expressed as a relative error of the value.  The total
    relative error is at most the sum of the two; it is at most the
    requested tol whenever the rounding part is at most tol/2.
    """

    log_value: float
    terms_used: int
    tail_bound_log: float
    peak_index: int
    rounding_bound_log: float

    @property
    def value(self) -> float:
        return math.exp(self.log_value)

    def root(self, p: float) -> float:
        """value**(1/p), the B^{1/p} scale."""
        return math.exp(self.log_value / p)


# Unit roundoff of IEEE double.  Forward-error bounds below charge 2u for
# each libm log/log1p/exp (one ulp) and u for each arithmetic operation.
_U = 2.0**-53

# Exact log(k!) for k <= _LOG_FACTORIAL_MAX, each exactly rounded (lgamma(3)
# is off log(2) by one ulp, enough to break exact term ties).  Beyond it the
# Stirling remainder below is accurate to well under an ulp.
_LOG_FACTORIAL_MAX = 20
_LOG_FACTORIAL = tuple(math.log(math.factorial(k))
                       for k in range(_LOG_FACTORIAL_MAX + 1))
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _poisson_deviance(x: float, beta: float) -> tuple[float, float]:
    """The Poisson deviance D = x log(x/beta) + beta - x >= 0, and the
    magnitude of the operands that enter it (for rounding bounds).

    Near x = beta, D is summed as a series in v = (x - beta)/(x + beta),
    D = (x - beta) v + 2x (v^3/3 + v^5/5 + ...), so no x-sized operands
    cancel; away from it the closed form loses at most a few digits of a
    quantity of size x.
    """
    d = x - beta
    half_sum = 0.5 * x + 0.5 * beta  # (x + beta)/2, finite up to DBL_MAX
    if abs(d) < 0.2 * half_sum:
        v = 0.5 * d / half_sum
        v2 = v * v
        dev = d * v + x * v * v2 * (1.0 / 3 + v2 * (1.0 / 5 + v2 * (
            1.0 / 7 + v2 * (1.0 / 9 + v2 * (1.0 / 11 + v2 * (
                1.0 / 13 + v2 / 15)))))) * 2.0
        return dev, dev
    ratio = x / beta  # overflows only for subnormal beta
    lr = x * (math.log(ratio) if ratio < math.inf
              else math.log(x) - math.log(beta))
    return lr + beta - x, abs(lr) + beta + x


def _log_poisson(k: int, beta: float, log_beta: float) -> tuple[float, float]:
    """log of the Poisson(beta) mass at k, k log beta - beta - log k!, and
    the magnitude of the operands that enter it (for the rounding bound).

    Beyond the exact table this is -(D + log(2 pi k)/2 + R), with D the
    Poisson deviance and R the Stirling remainder of log k!.
    """
    if k <= _LOG_FACTORIAL_MAX:
        lf = _LOG_FACTORIAL[k]
        return k * log_beta - lf - beta, k * abs(log_beta) + lf + beta
    dev, mag = _poisson_deviance(k, beta)
    x = float(k)
    r = 1.0 / (x * x)
    rem = (1.0 / 12 - (1.0 / 360 - (1.0 / 1260 - (1.0 / 1680
           - r / 1188) * r) * r) * r) / x
    half_log = _HALF_LOG_2PI + 0.5 * math.log(x)
    return -(dev + half_log + rem), mag + half_log + rem


def log_term(k: int, p: float, beta: float) -> float:
    """Natural log of the k-th Dobinski term e^{-beta} k^p beta^k / k!.

    For k > 20, k log beta - beta - log k! is evaluated as in _log_poisson,
    -(k log(k/beta) + beta - k) - log(2 pi k)/2 - (Stirling remainder), so
    operands of size k log k never cancel.
    """
    if k == 0:
        return -beta if p == 0 else -math.inf
    if k <= _LOG_FACTORIAL_MAX:
        # this association keeps exact ties exact, e.g. t_2 = t_3 at
        # (p, beta) = (1, 2)
        return p * math.log(k) + k * math.log(beta) - _LOG_FACTORIAL[k] - beta
    return p * math.log(k) + _log_poisson(k, beta, math.log(beta))[0]


def _log_term_ratio(k: int, p: float, log_beta: float) -> float:
    """log(t_{k+1}/t_k) = p*log(1 + 1/k) + log(beta) - log(k + 1), for k >= 1.

    Strictly decreasing in k, which makes the terms unimodal and the
    geometric tail bounds on both sides of the peak rigorous.  log(beta)
    is taken apart because beta/(k + 1) underflows for subnormal beta.
    """
    return p * math.log1p(1.0 / k) + log_beta - math.log(k + 1.0)


def peak_index(p: float, beta: float) -> int:
    """Index of the largest Dobinski term: the smallest k >= 1 with
    t_{k+1} <= t_k, so the earlier index of a tied pair.

    Bisects on the strictly decreasing log term ratio, whose sign changes
    by k = beta + p + 1, then settles the tie rule on log_term itself: a
    ratio within rounding of 0 can put the bisection one index off.
    O(log(beta + p)) evaluations.
    """
    log_beta = math.log(beta)
    lo, hi = 1, math.ceil(beta + p) + 1
    if _log_term_ratio(lo, p, log_beta) <= 0.0:
        hi = lo
    while hi - lo > 1:  # ratio(lo) > 0 >= ratio(hi)
        mid = (lo + hi) // 2
        if _log_term_ratio(mid, p, log_beta) > 0.0:
            lo = mid
        else:
            hi = mid
    cur = log_term(hi, p, beta)
    if hi > 1 and log_term(hi - 1, p, beta) >= cur:
        return hi - 1
    if log_term(hi + 1, p, beta) > cur:
        return hi + 1
    return hi


def _geometric_tail(w: float, w_prev: float) -> float:
    """Bound w * r / (1 - r), r = w / w_prev, on the terms beyond a term w
    reached from w_prev; inf unless r < 1.

    Walking away from the peak on either side, each step ratio is at most
    the one before it (the term ratio is strictly decreasing), so every
    later ratio is at most r.
    """
    if w >= w_prev:
        return math.inf
    return w * w / (w_prev - w)


def bell_dobinski(q: BellQuery, tol: float = 1e-12) -> EvalResult:
    """Evaluate log B(p, beta) with a certified relative error.

    Summation starts at the largest term (peak_index) and walks outward in
    both directions, each term scaled by the peak term, with Kahan
    compensation.  The term ratio is strictly decreasing, so on either
    side each step away from the peak shrinks the terms by a ratio no
    larger than the step before: with r the ratio of a side's last step,
    its remaining tail is at most t r / (1 - r), t its last term.  A side's
    bound is used once its r is below 1, and the side with the larger
    bound takes the next term.  The terms are Gaussian-like with width
    ~sqrt(beta + p), so the cost is O(sqrt(beta) * sqrt(log(1/tol))) terms
    at large beta, and O(log(beta + p)) to find the peak.

    A forward-error bound on rounding is kept alongside: from the operands
    of the peak term, each term's offset from it, the sum and the final
    addition.  Summation stops once truncation <= tol - rounding, so tol
    bounds the total error whenever rounding <= tol/2.  Otherwise (only
    when |log B| runs to several hundred or more, where log_value's own
    ulp approaches tol) truncation is pushed to tol/2 and the returned
    certificate honestly exceeds tol.  p above p_max_limit() is refused,
    and a sum not certified within DEFAULT_TERM_BUDGET terms raises
    BudgetError.
    """
    if not (0.0 < tol <= 1e-3):
        raise DomainError(f"tol must lie in (0, 1e-3], got {tol!r}")
    limit = p_max_limit()
    if q.p > limit:
        raise DomainError(f"p={q.p} exceeds p_max={limit}")

    p, beta = q.p, q.beta
    log_beta = math.log(beta)
    m = peak_index(p, beta)
    # The sum is anchored at its largest term: for p = 0 that is
    # t_0 = e^{-beta} once beta <= 1, outside peak_index's range k >= 1.
    top = 0 if p == 0 and beta <= 1 else m
    log_pois_m, mag_m = _log_poisson(top, beta, log_beta)
    log_pow_m = p * math.log(top) if p else 0.0
    log_peak = log_pow_m + log_pois_m
    # First-order rounding model.  Errors in p*log(m) and in the addition
    # forming log_peak shift log_value directly.  An error in a term's
    # Poisson part or offset moves log_value by that error times the term's
    # share of the sum; the peak's Poisson error enters with weight 1, since
    # every offset subtracts the same computed log_pois_m.  peak_err and
    # off_err (the weighted sum, in units of _U) keep the two parts.
    peak_err = _U * (3.0 * abs(log_pow_m) + abs(log_peak))
    off_err = 6.0 * mag_m
    # s sums the terms scaled by the peak term, which contributes 1.
    s, c = 1.0, 0.0
    terms = 1
    k_low = 0 if p == 0 else 1
    right = left = top
    right_w = left_w = 1.0
    right_tail = math.inf
    left_tail = 0.0 if top == k_low else math.inf

    while True:
        tails = left_tail + right_tail
        if tails <= tol * s:
            log_s = math.log(s)
            rounding = math.expm1(peak_err + _U * off_err / s + 4.0 * _U
                                  + _U * (2.0 * log_s + abs(log_peak + log_s)))
            if tails <= (tol - min(rounding, 0.5 * tol)) * s:
                break
        if terms >= DEFAULT_TERM_BUDGET:
            raise BudgetError(
                f"series for (p={p}, beta={beta}) did not certify tol={tol} "
                f"within {DEFAULT_TERM_BUDGET} terms")
        go_right = right_tail >= left_tail
        k = right + 1 if go_right else left - 1
        log_pow = p * math.log1p((k - top) / top) if p else 0.0
        log_pois, mag = _log_poisson(k, beta, log_beta)
        d_pois = log_pois - log_pois_m
        w = math.exp(log_pow + d_pois)
        off_err += w * (5.0 * abs(log_pow) + 6.0 * mag + 2.0 * abs(d_pois)
                        + 2.0)
        # Kahan step
        y = w - c
        t = s + y
        c = (t - s) - y
        s = t
        terms += 1
        if go_right:
            right_tail = _geometric_tail(w, right_w)
            right, right_w = k, w
        else:
            left_tail = 0.0 if k == k_low else _geometric_tail(w, left_w)
            left, left_w = k, w

    return EvalResult(
        log_value=log_peak + log_s,
        terms_used=terms,
        tail_bound_log=math.log(tails) - log_s if tails else -math.inf,
        peak_index=m,
        rounding_bound_log=math.log(rounding),
    )


@lru_cache(maxsize=None)
def stirling_second_row(p: int) -> tuple[int, ...]:
    """Row p of the Stirling-numbers-of-the-second-kind triangle, exact ints."""
    if p == 0:
        return (1,)
    prev = stirling_second_row(p - 1) + (0,)  # S(p - 1, p) = 0
    return (0,) + tuple(prev[j - 1] + j * prev[j] for j in range(1, p + 1))


TOUCHARD_P_CAP = 30


def bell_touchard_exact(p: int, beta):
    """Independent oracle: B(p, beta) = sum_j S(p, j) beta^j for integer p.

    Exact (int or Fraction) when beta is exact; compensated float sum
    otherwise.  beta = 1 reproduces the classical Bell numbers.
    """
    if not isinstance(p, int) or p < 0:
        raise DomainError(f"p must be a non-negative integer, got {p!r}")
    if p > TOUCHARD_P_CAP:
        raise BudgetError(f"exact Touchard path capped at p={TOUCHARD_P_CAP}")
    row = stirling_second_row(p)
    if isinstance(beta, (int, Fraction)):
        return sum(s * beta**j for j, s in enumerate(row))
    b = float(beta)
    if not (math.isfinite(b) and b > 0):
        raise DomainError(f"beta must be finite and > 0, got {beta!r}")
    return math.fsum(s * b**j for j, s in enumerate(row))


def lambert_w(x: float) -> float:
    """Principal-branch W(x) for finite x >= 0: the solution of w * e^w = x.

    Halley iteration, stopped once the residual is within 1e-13 relative
    (at most 60 steps); seeds: log1p(x) for x >= 1 and the series start
    x*(1 - x) near 0.  The residual w e^w - x is carried divided by e^w,
    as w - x e^{-w}, so no step overflows even at x = DBL_MAX.
    """
    if not (x >= 0 and math.isfinite(x)):
        raise DomainError(f"lambert_w requires finite x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    w = math.log1p(x) if x >= 1.0 else x * (1.0 - x)
    for _ in range(60):
        emw = math.exp(-w)
        resid = w - x * emw
        if abs(resid) <= 1e-13 * max(emw, x * emw):
            return w
        wp1 = w + 1.0
        w -= resid / (wp1 - (w + 2.0) * resid / (2.0 * wp1))
    raise BudgetError(f"lambert_w failed to converge for x={x}")


def log_mgf_bound(q: BellQuery, lam: float) -> float:
    """log of the Chernoff-type upper bound on B^{1/p}:
    (p / (e * lam)) * exp(beta * (e^lam - 1) / p)."""
    if not (lam > 0):
        raise DomainError(f"lambda must be > 0, got {lam!r}")
    if q.p < 1:
        raise DomainError(f"MGF bound requires p >= 1, got p={q.p}")
    return math.log(q.p) - 1.0 - math.log(lam) + q.beta * math.expm1(lam) / q.p


def mgf_bound_at_lambda(q: BellQuery, lam: float) -> float:
    """Chernoff-type upper bound on B^{1/p}(p, beta), valid for every lam > 0."""
    try:
        return math.exp(log_mgf_bound(q, lam))
    except OverflowError:
        return math.inf


def log_stirling_zeta(x: float) -> float:
    """log of sqrt(2 pi x) (x/e)^x e^{1/(12x)}, a majorant of x! for x >= 1."""
    if not (x >= 1):
        raise DomainError(f"stirling_zeta requires x >= 1, got {x!r}")
    return 0.5 * math.log(2.0 * math.pi * x) + x * (math.log(x) - 1.0) + 1.0 / (12.0 * x)


def stirling_zeta(x: float) -> float:
    """Stirling factorial majorant: k! <= zeta(k) for every integer k >= 1."""
    return math.exp(log_stirling_zeta(x))
