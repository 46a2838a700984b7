"""Dobinski-series evaluation of the two-parameter Bell function.

B(p, beta) = e^{-beta} * sum_{k>=0} k^p beta^k / k!  is the p-th moment of
a Poisson(beta) variable.  The series, walked outward from its largest
term over every h-th term (h = 1, or the step h >= 5 of a trapezoid rule
where that rule certifies tol), is the ground-truth evaluator here; an exact
Stirling-number (Touchard) path serves as the independent oracle for
integer p.  Every value travels as a natural log and is exponentiated only
at the presentation layer: B(p, 1) already overflows double precision near
p ~ 170.  in_range is the one exit from log space: it returns a finite
double or raises DomainError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import BudgetError, DomainError

P_MAX = 500.0  # the largest exponent the series evaluator accepts


class Regime(Enum):
    LARGE_P = "LargeP"
    LARGE_BETA = "LargeBeta"


class _cached:
    """A cached property without the lock that the standard one takes on
    every first read before Python 3.12: the first read stores the value in
    the instance __dict__ (past a frozen dataclass's __setattr__), where
    later reads find it before this descriptor.  A raise stores nothing."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class BellQuery:
    """A (p, beta) evaluation point.  p >= 0, beta > 0.

    Two things are computed once per query, on first use, and shared: its
    peak frame, `frame` (the index `peak` of its largest Dobinski term and
    that term's log), which the series, H0Search and HContinuous read, and
    the MGF optimum `lambda_star`, which GOptimized reads.  Each is a
    _cached property: its first read stores it in the instance __dict__,
    taking no lock, and a refusal stores nothing, so every read that needs
    a refused value raises again.  Neither is a field: equality, hashing,
    repr and dataclasses.replace see only p and beta.
    """

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

    @_cached
    def lambda_star(self) -> float:
        """The MGF optimum lambda* = W(p/beta), where lambda e^lambda = p/beta.
        Where p/beta overflows, lambda* solves lambda + ln lambda = ln(p/beta)
        instead, by Newton from lambda0 = ln r - lnln r (_lambda0): its error
        ~ lnln r / ln r < 0.01 falls below an ulp in two steps."""
        if self.ratio < math.inf:
            return lambert_w(self.ratio)
        log_r, lam = _lambda0(self)
        for _ in range(3):
            lam -= (lam + math.log(lam) - log_r) / (1.0 + 1.0 / lam)
        return lam

    @_cached
    def frame(self) -> tuple:
        """_peak_frame at m = peak_index(p, beta), on first access.  A
        refusal is not cached, so each access that needs the peak raises it
        again."""
        return _peak_frame(self.p, self.beta, peak_index(self.p, self.beta))

    @property
    def peak(self) -> int:
        """peak_index(p, beta): the frame's m."""
        return self.frame[0]

    @property
    def regime(self) -> Regime:
        # Tie at p/beta == 2 resolves to LARGE_P.
        return Regime.LARGE_P if self.ratio >= 2.0 else Regime.LARGE_BETA


def _lambda0(q: BellQuery) -> tuple[float, float]:
    """(ln r, lambda0 = ln r - lnln r) for r = p/beta >= 2, taken from logs
    so that both stay finite where p/beta overflows; lambda0 >= 1."""
    log_r = math.log(q.p) - math.log(q.beta)
    return log_r, log_r - math.log(log_r)


@dataclass(frozen=True)
class EvalResult:
    """A positive value in log-space with a two-part error certificate.

    tail_bound_log is the log of a certified upper bound on the method
    error, relative to the returned value: the omitted tails of the
    series, or everything the trapezoid rule leaves out.
    rounding_bound_log is the log of a forward-error bound on the
    floating-point error of log_value, expressed as a relative error of
    the value.  The total relative error is at most the sum of the two; it
    is at most the requested tol whenever the rounding part is at most
    tol/2.  method names the evaluator: "Series", "Trapezoid", or
    "ClosedForm" for p = 0; terms_used counts the terms it summed, which
    are the nodes of the trapezoid rule.
    """

    log_value: float
    terms_used: int
    tail_bound_log: float
    peak_index: int
    rounding_bound_log: float
    method: str

    @property
    def value(self) -> float:
        """exp(log_value); DomainError past the double range."""
        return in_range("value", math.exp, self.log_value)

    def root(self, p: float) -> float:
        """value**(1/p), the B^{1/p} scale; DomainError unless p > 0 and
        the root is a finite double."""
        if not p > 0:
            raise DomainError(f"root needs p > 0, got {p!r}")
        return in_range("root", math.exp, self.log_value / p)


def in_range(what: str, f, *args) -> float:
    """f(*args) as a finite double: the one exit from log space, or from
    any computation that can leave the double range.  DomainError
    "<what> exceeds the double range" when f raises OverflowError or
    returns inf or NaN; for f = math.exp the message names the exponent,
    "<what> = exp(<x>) exceeds ...", or "the log of <what> passes the double
    range" where x is inf or NaN.  Pass a constant `what` on hot paths."""
    try:
        value = f(*args)
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    if f is math.exp and not math.isfinite(args[0]):
        raise DomainError(f"the log of {what} passes the double range")
    at = f" = exp({args[0]:.6g})" if f is math.exp else ""
    raise DomainError(f"{what}{at} exceeds the double range")


# Unit roundoff of IEEE double.  Forward-error bounds below charge 2u for
# each libm log/log1p/exp (one ulp) and u for each arithmetic operation.
_U = 2.0**-53

# At h = 1 every _REANCHOR-th term of a side is an offset (_log_offset), so
# a term's rounding error grows over at most _REANCHOR - 1 ratio steps.
_REANCHOR = 32

# Exact log(k!) for k <= _LOG_FACTORIAL_MAX, each exactly rounded, as
# _log_dr's bound charges (lgamma(3) is off log(2) by one ulp).  Beyond
# it the Stirling remainder below is accurate to well under an ulp.
_LOG_FACTORIAL_MAX = 20
_LOG_FACTORIAL = tuple(math.log(math.factorial(k))
                       for k in range(_LOG_FACTORIAL_MAX + 1))
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _poisson_deviance(x: float, beta: float,
                      d: float | None = None) -> tuple[float, float]:
    """The Poisson deviance D = x log(x/beta) + beta - x >= 0, and a
    first-order bound on its rounding error, in units of _U.

    d = x - beta, if given, was formed exactly elsewhere; x and d may each
    carry one rounding of their own (x = float(k) past 2**53).  Near
    x = beta, D is summed as a series in v = (x - beta)/(x + beta),
    D = (x - beta) v + 2x (v^3/3 + v^5/5 + ...), so no x-sized operands
    cancel.  There |v| < 0.1, d v = (x + beta) v^2 carries 5 roundings,
    the odd part, at most 0.037 d v, fewer than 27, the terms from v^17 on
    are below 0.6 D and the last sum adds one: 9 D in all.  Away from it
    the closed form loses at most a few digits of a quantity of size x:
    the quotient and log put 1 + 2|log(x/beta)| units on the log (its
    operands' logs, where x/beta overflows), so lr = x log(x/beta) errs by
    x + 3|lr|, a rounded x moves D by |dD/dx| x u = |lr| u more, and the
    two sums add |lr + beta| and |D|.
    """
    if d is None:
        d = x - beta
    half_sum = 0.5 * x + 0.5 * beta  # (x + beta)/2, finite up to DBL_MAX
    if abs(d) < 0.2 * half_sum:
        v = 0.5 * d / half_sum
        v2 = v * v
        dev = d * v + x * v * v2 * (1.0 / 3 + v2 * (1.0 / 5 + v2 * (
            1.0 / 7 + v2 * (1.0 / 9 + v2 * (1.0 / 11 + v2 * (
                1.0 / 13 + v2 / 15)))))) * 2.0
        return dev, 9.0 * dev
    ratio = x / beta  # overflows only for subnormal beta
    if ratio < math.inf:
        log_ratio = math.log(ratio)
        log_err = 1.0 + 2.0 * abs(log_ratio)
    else:
        log_x, log_b = math.log(x), math.log(beta)
        log_ratio = log_x - log_b
        log_err = 2.0 * (abs(log_x) + abs(log_b)) + log_ratio
    lr = x * log_ratio
    dev = lr + beta - x
    return dev, x * log_err + 2.0 * abs(lr) + abs(lr + beta) + abs(dev)


def _log_dr(k: int, beta: float) -> tuple[float, float]:
    """dr = -log Poisson_beta(k) - log(2 pi k)/2, so that log t_k =
    p log k - log(2 pi k)/2 - dr: the one routine that forms a Dobinski
    term.  Returns (dr, err), err a first-order bound on dr's rounding, in
    units of _U.

    Beyond the exact table dr = D + R, with D the Poisson deviance and R
    the Stirling remainder of log k!, which errs by less than its first
    omitted term, 691/(360360 k^11) < u/10.  From 2**52 beta is an integer
    and k - beta is formed exactly, so D keeps its digits where k has no
    double.  The bound there: D's own, less than 1 for R and |dr| for the
    sum.  In the table dr is formed from log Poisson(k) = k log beta - beta
    - log k!: log beta errs by 2|log beta| units, so k log beta by
    3|k log beta|, the correctly rounded log k! by log k!, each difference
    by its result, log(2 pi k)/2 by at most 3 times itself and the last sum
    by |dr|.
    """
    if k <= _LOG_FACTORIAL_MAX:
        lf = _LOG_FACTORIAL[k]
        kl = k * math.log(beta)
        head = kl - lf
        log_pois = head - beta
        half_log = _HALF_LOG_2PI + 0.5 * math.log(k)
        dr = -log_pois - half_log
        return dr, (3.0 * abs(kl) + lf + abs(head) + abs(log_pois)
                    + 3.0 * half_log + abs(dr))
    x = float(k)
    d = float(k - int(beta)) if beta >= _INTEGER_FLOATS else k - beta
    dev, err = _poisson_deviance(x, beta, d)
    r = 1.0 / (x * x)
    dr = dev + (1.0 / 12 - (1.0 / 360 - (1.0 / 1260 - (1.0 / 1680
                - r / 1188) * r) * r) * r) / x
    return dr, err + 1.0 + abs(dr)


def log_term(k: int, p: float, beta: float) -> float:
    """Natural log of the k-th Dobinski term e^{-beta} k^p beta^k / k!, for
    k >= 1: the log_peak of _peak_frame at m = k, which bounds its error."""
    return _peak_frame(p, beta, k)[3]


def _peak_frame(p: float, beta: float, m: int) -> tuple:
    """The peak frame at m, the tuple (m, dr_m, dr_err, log_peak, peak_err).
    dr_m and its bound dr_err (in units of _U) are _log_dr's at m, and
    log_peak = log t_m = p log m - (dr_m + log(2 pi m)/2) errs by at most
    peak_err + _U dr_err: peak_err charges p log m (with float(m) past
    2**53), log(2 pi m)/2 and the two sums.  _log_offset measures from dr_m,
    so dr_m's rounding cancels from log_peak + offset.  A tuple: a
    NamedTuple costs ~0.4 us a query."""
    dr_m, dr_err = _log_dr(m, beta)
    half_log = _HALF_LOG_2PI + 0.5 * math.log(m)
    log_pow = p * math.log(m)
    head = dr_m + half_log
    log_peak = log_pow - head
    peak_err = _U * (3.0 * abs(log_pow) + 3.0 * half_log + abs(head)
                     + abs(log_peak) + (p if m > 2**53 else 0.0))
    return m, dr_m, dr_err, log_peak, peak_err


# Doubles from 2**52 up are integers.
_INTEGER_FLOATS = 2.0**52

# The least int that float() refuses, the midpoint of DBL_MAX = 2**1024 -
# 2**971 and 2**1024: from it up ints round to 2**1024 (a tie goes to the
# even one), which overflows.  peak_index clamps its bracket to it.
_NO_DOUBLE = 2**1024 - 2**970


def _log1p_minus_x(x: float) -> float:
    """log(1 + x) - x without the cancellation at small |x|."""
    if abs(x) < 1e-4:
        return -x * x * (0.5 - x * (1.0 / 3 - x * (0.25 - 0.2 * x)))
    return math.log1p(x) - x


def _log_term_ratio(k: int, p: float, beta: float, log_beta: float) -> float:
    """log(t_{k+1}/t_k) = p*log(1 + 1/k) + log(beta / (k + 1)), for k >= 1.

    Strictly decreasing in k, which makes the terms unimodal and the
    geometric tail bounds on both sides of the peak rigorous.  Away from
    k ~ beta, log(beta) is taken apart, because beta/(k + 1) underflows for
    subnormal beta.  Within a factor 2 of beta, log(beta) - log(k + 1)
    would cancel to ulp(log beta), which at beta = 1e30 puts the peak
    ~1e16 indices off, so the second part is -log1p(d / beta) with
    d = k + 1 - beta formed exactly (Sterbenz).  From 2**52 on, the two
    parts agree to within their own rounding at a near-tie, so their
    leading terms p/k - d/beta are subtracted in exact integers.
    """
    if not 0.5 * beta <= k + 1 <= 2.0 * beta:
        return p * math.log1p(1.0 / k) + log_beta - math.log(k + 1.0)
    if beta < _INTEGER_FLOATS:
        return p * math.log1p(1.0 / k) - math.log1p(((k + 1) - beta) / beta)
    b = int(beta)
    d = k + 1 - b
    num, den = p.as_integer_ratio()
    lead = (num * b - d * k * den) / (k * b * den)  # correctly rounded
    return lead + p * _log1p_minus_x(1 / k) - _log1p_minus_x(d / b)


def peak_index(p: float, beta: float) -> int:
    """Index of the largest Dobinski term: the smallest k >= 1 whose
    computed log term ratio, _log_term_ratio, is <= 0 (but see beta >= 2**52
    below).  At an exact tie t_k = t_{k+1} that is the earlier index k
    wherever the ratio there rounds to 0 (t_2 = t_3 at (p, beta) = (1, 2),
    say), and k + 1 where it rounds above 0; either is a largest term.

    Bisects on the strictly decreasing ratio, whose sign changes between
    k = floor(beta) - 1 and k = beta + p + 1: ~log2(p + 4) evaluations.
    For k + 1 < beta the ratio is > 0, and is computed so:
    p * log1p(1/k) >= 0 plus log(beta) - log(k + 1) > 0, or -log1p(d / beta)
    > 0 with an exact d = k + 1 - beta < 0 (from 2**52, the exact lead term
    p/k - d/beta), so the bracket's lower end, floor(beta) - 2 (or 0), is
    never evaluated.  From beta = 2**52, where p is not small against beta,
    the computed ratio crosses 0 many times within ~1e-17 k of the peak
    (its rounded log1p corrections step while the lead term falls); there
    bisection returns one crossing, a largest term to within rounding.
    The bracket's upper end is clamped to the least int that float()
    refuses, so every ratio takes a double k; a peak with no double
    (p ~ 1e300 at beta = DBL_MAX, say) is refused with DomainError.
    """
    log_beta = math.log(beta)
    lo, hi = max(0, math.floor(beta) - 2), min(
        math.ceil(beta) + math.ceil(p) + 1, _NO_DOUBLE)
    while hi - lo > 1:  # ratio(lo) > 0 >= ratio(hi)
        mid = (lo + hi) // 2
        if _log_term_ratio(mid, p, beta, log_beta) > 0.0:
            lo = mid
        else:
            hi = mid
    if hi == _NO_DOUBLE:
        raise DomainError(f"peak index of p={p}, beta={beta} exceeds DBL_MAX")
    return hi


def _log_offset(k: int, p: float, beta: float,
                frame: tuple) -> tuple[float, float]:
    """log(t_k / t_m) for the peak m of frame (_peak_frame), and err:
    log_peak + offset errs from log t_k by <= peak_err + _U err (first order).

    The offset is (p - 1/2) L + dr_m - dr_k (_log_dr): L = log(k/m), as
    log1p((k - m)/m) from k = m/2 up.  dr_m's rounding cancels against
    log_peak's.  The bound: the quotient rounds once, moving L by
    |k - m|/k units, or 1 below m/2 (a subnormal k/m, at |L| > 708, takes
    the spare unit of 4|(p - 1/2) L|, which the log, p - 1/2 and the
    product add); dr_k brings _log_dr's bound, the last two sums their
    results.
    """
    m, dr_m, _, _, _ = frame
    if 2 * k < m:
        lp, q_err = (p - 0.5) * math.log(k / m), 1.0
    else:
        lp, q_err = (p - 0.5) * math.log1p((k - m) / m), abs(k - m) / k
    dr, err = _log_dr(k, beta)
    diff = dr_m - dr
    off = lp + diff
    return off, (err + abs(p - 0.5) * q_err + 4.0 * abs(lp) + abs(diff)
                 + abs(off))


# _trapezoid_step's h < 5 at any tol where pi^2 var < _H5_VAR, as
# sd_a <= sqrt(var) and g_min >= log(2/u); most series calls stop there.
_PI_SQUARED = math.pi**2
_H5_VAR = 12.5 * math.log(2.0 / _U)
_LOG_2, _LOG_16, _LOG_8U = math.log(2.0), math.log(16.0), math.log(8.0 * _U)


def _trapezoid_step(p: float, m: int, tol: float):
    """(h, alias, floor) of the trapezoid rule that replaces the series, or
    None where it cannot certify tol.

    The series S is the unit-step sum of f(x) = x^p beta^x e^-beta /
    Gamma(x + 1), analytic for Re x > 0, over the integers; the rule
    T = h sum_j f(m + j h), h odd, has integer nodes, where f is a term.
    With A and D the half-integers h/2 beyond the outer nodes and
    I = int_A^D f, |S - T| <= (S outside [A, D]) + |S_AD - I| + |I - T|.

    Strip: by the Weierstrass product of 1/Gamma,
    |Gamma(x+1)/Gamma(x+1+iy)|^2 = prod_{n>=1} (1 + y^2/(x+n)^2)
    <= exp(y^2 psi'(x+1)), psi'(x+1) = sum_{n>=1} (x+n)^-2 <= 1/x, and
    |(x+iy)^p| = x^p (1 + y^2/x^2)^(p/2), so |f(x+iy)| <= f(x) e^(c y^2/2)
    with c(x) = p/x^2 + 1/x, decreasing in x.

    Trapezoid errors (Trefethen & Weideman, SIAM Review 2014, sec. 5): for
    nodes spaced s in {1, h} and A, D half-way between nodes, the residues
    of f(z) pi cot(pi (z - m)/s) in [A, D] x [-a, a] give T_s - I =
    -int f q/(1 - q) dz, q = e^(2 pi i (z - m)/s), on the boundary's upper
    half, and its mirror below.  |q/(1 - q)| is at most
    1/(e^(2 pi a/s) - 1) on the horizontal edges and e^(-2 pi |y|/s) on
    the vertical ones, where q = -e^(-2 pi |y|/s).  With c_A >= c on
    [A, D] and a = 2 pi/(s c_A), c y^2/2 <= pi |y|/s for |y| <= a, so
    |T_s - I| <= I csch(g_s) + (2 s/pi) (f(A) + f(D)), g_s = 2 pi^2/(s^2 c_A).
    Taking c_A = c(floor) and I <= (T + edges)/(1 - csch(g_h)), both
    aliasing terms are at most alias (T + edges).

    Edges and tails: (log f)'' = -p/x^2 - psi'(x+1) < 0, so with
    rho(x) = log(f(x+1)/f(x)), f(y) <= f(x) e^((y-x) rho(x)) for y >= x + 1
    and f(y) <= f(x) e^((y-x) rho(x-1)) for y <= x - 1.  rho decreases, so
    log r, r = (w/prev)^(1/h) over a side's last step, bounds rho(k) at
    the outer node from above on the right and rho(k - 1) from below on
    the left.  A side then adds at most w r^(h/2) (2 (h+1)/pi +
    r^(1/2)/(1 - r)): f at its edge, and the geometric tail of S.

    floor, (sqrt(2 log(2/tol)) + 2) standard deviations below m, is where
    f has fallen far below tol; h is the largest odd step with
    g_h >= log(16/min(tol, 8u)), so that aliasing takes at most tol/8 and
    leaves the value as exact as the series'.  None without floor > 0 or
    h >= 5: a node (_log_offset) costs ~4x a ratio step, so the rule loses
    to the series at h = 3 (110 against 79 us at (p, beta) = (2, 150), 2-vCPU
    Xeon), wins by 14-23% at h = 5 ((2, 180), (500, 50)) and ~37% at h = 7.
    """
    var = m / (1.0 + p / m)  # 1/c(m)
    if _PI_SQUARED * var < _H5_VAR:
        return None
    log_tol = math.log(tol)  # 1/tol overflows at subnormal tol
    far = math.sqrt(2.0 * (_LOG_2 - log_tol)) + 2.0
    floor = m - far * math.sqrt(var)
    if floor <= 0.0:
        return None
    sd_a = math.sqrt(floor / (1.0 + p / floor))  # c(floor)^(-1/2)
    g_min = _LOG_16 - min(log_tol, _LOG_8U)
    h = 2 * int(0.5 * math.pi * sd_a * math.sqrt(2.0 / g_min) - 0.5) + 1
    if h < 5:
        return None
    g_h = 2.0 * (math.pi * sd_a / h) ** 2
    g_1 = g_h * h * h
    a_h = 2.0 * math.exp(-g_h) / -math.expm1(-2.0 * g_h)  # csch(g_h)
    a_1 = 2.0 * math.exp(-g_1) / -math.expm1(-2.0 * g_1)  # csch(g_1)
    return h, (a_h + a_1) / (1.0 - a_h), floor


def _edge_tail(lo: float, lo_prev: float, edge: float, inv_h: float) -> float:
    """The rule's edge and tail beyond a side's outer node of offset lo, edge
    2 (h + 1)/pi, log r = inv_h (lo - lo_prev); inf unless lo < lo_prev."""
    d = lo - lo_prev
    return math.exp(lo + 0.5 * d) * (edge + math.exp(
        0.5 * inv_h * d) / -math.expm1(inv_h * d)) if d < 0.0 else math.inf


def _walk(p: float, beta: float, frame: tuple, tol: float, h: int = 1,
          alias: float = 0.0, floor: float = 0.0) -> EvalResult | None:
    """The walk of bell_dobinski over the nodes m + j h, outward from the
    peak m of frame (_peak_frame): the series at h = 1, above it the
    trapezoid rule of _trapezoid_step (h, alias, floor), None once a node
    would pass floor.

    A node is its neighbour times the term ratio or, every anchor-th
    (every _REANCHOR-th at h = 1, every node above), the exp of its offset
    lo from _log_offset.  A side's tail is t r / (1 - r) at h = 1, r its
    last ratio, and _edge_tail above; the left tail is 0 at k = 1.  The
    rule adds alias (T + edges) for its two aliasing errors.

    First-order rounding model, from the frame: peak_err shifts log_value,
    and a term's error moves it by that error times the term's share of the
    sum.  The peak and the ratio-built terms carry dr_err, an offset its own
    bound and 2 units for its exp; off_err sums them, weighted, in units of
    _U.  The sum, its log and the final addition cost 4 units more, and
    h s one at h > 1.
    """
    m, _, off_err, log_peak, peak_err = frame
    rule = h > 1  # the trapezoid rule, not the series
    units = 5.0 if rule else 4.0
    anchor = h if rule else _REANCHOR
    tol_h, edge, inv_h = tol * h, 2.0 * (h + 1) / math.pi, 1.0 / h
    # s sums the terms scaled by the peak term, which contributes 1.
    s, c = 1.0, 0.0
    terms = 1
    right = left = m
    right_w = left_w = 1.0
    right_lo = left_lo = 0.0  # each side's last offset, in the rule
    right_e = left_e = off_err  # each side's last term's bound, in _U
    exp, log1p, inf = math.exp, math.log1p, math.inf
    right_tail = inf
    left_tail = 0.0 if m == 1 else inf
    four_p = 4.0 * p  # a ratio step over (j, j + 1) adds 6 + 4p/j

    while True:
        tails = left_tail + right_tail
        if tails <= tol_h * s:
            # aliasing only adds to the tails, so it can wait for this test
            if alias:
                tails += alias * (h * s + tails)
            log_s = math.log(h * s)
            rounding = math.expm1(peak_err + _U * (
                off_err / s + units + 2.0 * log_s + abs(log_peak + log_s)))
            if tails <= (tol - min(rounding, 0.5 * tol)) * h * s:
                break
        if right_tail >= left_tail:
            k = right + h
            if (k - m) % anchor:
                w = right_w * (beta / k) * exp(p * log1p(1.0 / right))
                e = right_e + 6.0 + four_p / right
            else:
                lo, e = _log_offset(k, p, beta, frame)
                w, e = exp(lo), e + 2.0
            if rule:
                right_tail, right_lo = _edge_tail(lo, right_lo, edge, inv_h), lo
            else:  # w r / (1 - r), r = w / right_w, once r < 1
                right_tail = w * w / (right_w - w) if w < right_w else inf
            right, right_w, right_e = k, w, e
        else:
            k = left - h
            # in floats: at beta ~1e151 floor rounds to float(m), which the
            # exact k < floor + h/2 would put above the first left node
            if rule and k - 0.5 * h < floor:
                return None
            if (k - m) % anchor:
                w = left_w * (left / beta) * exp(-p * log1p(1.0 / k))
                e = left_e + 6.0 + four_p / k
            else:
                lo, e = _log_offset(k, p, beta, frame)
                w, e = exp(lo), e + 2.0
            if k == 1:
                left_tail = 0.0
            elif rule:
                left_tail, left_lo = _edge_tail(lo, left_lo, edge, inv_h), lo
            else:
                left_tail = w * w / (left_w - w) if w < left_w else inf
            left, left_w, left_e = k, w, e
        off_err += w * e
        # Kahan step
        y = w - c
        t = s + y
        c = (t - s) - y
        s = t
        terms += 1

    # positional, in field order: log_value, terms_used, tail_bound_log,
    # peak_index, rounding_bound_log, method
    return EvalResult(log_peak + log_s, terms,
                      math.log(tails) - log_s if tails else -math.inf, m,
                      math.log(rounding), "Trapezoid" if rule else "Series")


def bell_dobinski(q: BellQuery, tol: float = 1e-12) -> EvalResult:
    """Evaluate log B(p, beta) with a certified relative error.

    B(0, beta) = 1, the Poisson total mass, is returned in closed form,
    method "ClosedForm": log_value 0, no terms and no error.  For p > 0
    the walk stops at k = 1, as t_0 = 0.  p > P_MAX is refused.

    One walk, _walk, sums the nodes m + j h outward from the largest term
    m, the peak of the query's frame q.frame, each over it, with Kahan
    compensation, and returns h times the sum.  The term ratio is strictly
    decreasing, so a side's remainder is bounded by its last node once its
    ratio is below 1; the side with the larger bound takes the next node.
    At h = 1 it is the series, O(sqrt(beta) * sqrt(log(1/tol))) terms;
    where _trapezoid_step takes a step h >= 5, the trapezoid rule, a few
    dozen nodes at any beta up to DBL_MAX.  A term is its neighbour times
    the term ratio, but every _REANCHOR-th and every node of the rule is
    the exp of its offset log(t_k/t_m) (_log_offset, ~4x the cost).
    Summation stops once the method error <= tol - rounding, its bound kept
    alongside (_walk), so tol bounds the total error whenever rounding
    <= tol/2.  Otherwise (|log B| of several hundred or more, where
    log_value's own ulp nears tol) the method error is pushed to tol/2 and
    the certificate honestly exceeds tol.
    """
    if not (0.0 < tol <= 1e-3):
        raise DomainError(f"tol must lie in (0, 1e-3], got {tol!r}")
    if q.p > P_MAX:
        raise DomainError(f"p={q.p} exceeds p_max={P_MAX}")

    p, beta, frame = q.p, q.beta, q.frame
    m = frame[0]
    if p == 0:
        return EvalResult(log_value=0.0, terms_used=0, tail_bound_log=-math.inf,
                          peak_index=m, rounding_bound_log=-math.inf,
                          method="ClosedForm")
    step = _trapezoid_step(p, m, tol)
    return ((step and _walk(p, beta, frame, tol, *step))
            or _walk(p, beta, frame, tol))


@lru_cache(maxsize=64)
def stirling_second_row(p: int) -> tuple[int, ...]:
    """Row p of the Stirling-numbers-of-the-second-kind triangle, exact ints.

    Built up from row 0 by S(n, j) = S(n-1, j-1) + j S(n-1, j); only the
    requested row is cached.
    """
    row = (1,)
    for n in range(1, p + 1):
        prev = row + (0,)  # S(n - 1, n) = 0
        row = (0,) + tuple(prev[j - 1] + j * prev[j] for j in range(1, n + 1))
    return row


TOUCHARD_P_CAP = 30


def bell_touchard_exact(p: int, beta):
    """Independent oracle: B(p, beta) = sum_j S(p, j) beta^j for integer p.

    Exact (int or Fraction) when beta is exact.  A float beta is summed
    exactly as Fraction(beta) and rounded once, so the result is within
    half an ulp of the exact sum.  beta = 1 reproduces the classical Bell
    numbers.
    """
    from fractions import Fraction  # only the oracle needs it

    if not isinstance(p, int) or p < 0:
        raise DomainError(f"p must be a non-negative integer, got {p!r}")
    if p > TOUCHARD_P_CAP:
        raise BudgetError(f"exact Touchard path capped at p={TOUCHARD_P_CAP}")
    if isinstance(beta, (int, Fraction)):
        return sum(s * beta**j for j, s in enumerate(stirling_second_row(p)))
    b = float(beta)
    if not (math.isfinite(b) and b > 0):
        raise DomainError(f"beta must be finite and > 0, got {beta!r}")
    return in_range(f"B({p}, {beta!r})", float,
                    bell_touchard_exact(p, Fraction(b)))


def axis(start: float, stop: float, count: int, log: bool = False) -> list[float]:
    """`count` points from start to stop, evenly spaced or, when `log`,
    log-spaced, without importing numpy.  The linear points are
    `start + i*step` with the last set to `stop`, as np.linspace computes
    them (unless `step` underflows to 0); the log points are `start`,
    `10.0 ** x` over the interior of the linear axis of the log10
    endpoints, within 1 ulp of np.logspace, whose vectorised pow may round
    differently, and `stop` (10.0 ** log10(DBL_MAX) overflows).
    DomainError for count < 1."""
    if count < 1:
        raise DomainError(f"axis count must be >= 1, got {count!r}")
    if count == 1:
        return [start]
    if log:
        inner = axis(math.log10(start), math.log10(stop), count)[1:-1]
        return [start] + [10.0 ** x for x in inner] + [stop]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [stop]


def lambert_w(x: float) -> float:
    """Principal-branch W(x) for finite x >= 0: the solution of w * e^w = x.

    Halley iteration from log1p(x), stopped after a step of at most
    2^-26 * w: Halley's error cubes at each step, so what is left then lies
    far below rounding.  A test at the rounding level would cycle, as at
    x = 0.25181370764269145, where the steps alternate between +-2 ulps.
    W(0) = 0 is reached on the first step.  On 140k points, log-uniform
    over [5e-324, DBL_MAX] and over [1e-6, 1e4], it took at most 7 steps and
    stayed within 2.6e-16 relative of mpmath.  The residual w e^w - x is
    carried divided by e^w, as w - x e^{-w}, so no step overflows even at
    x = DBL_MAX.
    """
    if not (x >= 0 and math.isfinite(x)):
        raise DomainError(f"lambert_w requires finite x >= 0, got {x!r}")
    w = math.log1p(x)
    for _ in range(60):
        resid = w - x * math.exp(-w)
        wp1 = w + 1.0
        step = resid / (wp1 - (w + 2.0) * resid / (2.0 * wp1))
        w -= step
        if abs(step) <= 2.0**-26 * w:
            return w
    raise BudgetError(f"lambert_w failed to converge for x={x}")


def log_mgf_bound(q: BellQuery, lam: float) -> float:
    """log of the Chernoff-type upper bound on B^{1/p}:
    (p / (e * lam)) * exp(beta * (e^lam - 1) / p)."""
    if not (0 < lam < math.inf):
        raise DomainError(f"lambda must be finite and > 0, got {lam!r}")
    if q.p < 1:
        raise DomainError(f"MGF bound requires p >= 1, got p={q.p}")
    try:
        growth = q.beta * math.expm1(lam) / q.p
    except OverflowError:
        growth = math.inf
    if growth == math.inf:  # beta (e^lam - 1) overflows; its log need not
        growth = in_range(
            f"log of the MGF bound at p={q.p}, beta={q.beta}", math.exp,
            lam + math.log1p(-math.exp(-lam)) + math.log(q.beta) - math.log(q.p))
    return math.log(q.p) - 1.0 - math.log(lam) + growth
