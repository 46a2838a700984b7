"""Asymptotic approximations of the one-parameter Bell function B(p).

The six-term logarithmic expansion of ln B(p)/p (de Bruijn) and a
Lambert-W closed-form approximation of B(p).  Both are measured against
the series, never assumed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .series import BellQuery, bell_dobinski, lambert_w


@dataclass(frozen=True)
class ExpansionValue:
    """The six expansion terms of ln B(p)/p, in order, and their sum."""

    p: float
    partial_terms: tuple[float, ...]
    total: float


def debruijn_expansion(p: float) -> ExpansionValue:
    """ln p - lnln p - 1 + lnln p/ln p + 1/ln p + (lnln p/ln p)^2 / 2,
    term by term.  Requires p > e so lnln p is defined."""
    if not (p > math.e):
        raise DomainError(f"debruijn_expansion requires p > e, got {p!r}")
    lp = math.log(p)
    llp = math.log(lp)
    terms = (lp, -llp, -1.0, llp / lp, 1.0 / lp, 0.5 * (llp / lp) ** 2)
    return ExpansionValue(p=p, partial_terms=terms, total=math.fsum(terms))


@dataclass(frozen=True)
class LambertApprox:
    """A Lambert-W approximation of B(p) with the log of its measured ratio
    to the series, None where the series refuses p.  The ratio itself
    underflows from p ~ 180 on."""

    p: float
    log_value: float
    log_ratio_to_series: float | None


def _lambert_approx(p: float, power: float) -> LambertApprox:
    """(1/sqrt(p)) * (p/W(p))^power * exp(p/W(p) - p - 1), measured against
    the series where the series accepts p."""
    if not (p >= 2):
        raise DomainError(f"requires p >= 2, got {p!r}")
    pw = p / lambert_w(p)
    log_value = -0.5 * math.log(p) + power * math.log(pw) + (pw - p - 1.0)
    try:
        log_ratio = log_value - bell_dobinski(BellQuery(p, 1.0)).log_value
    except DomainError:
        log_ratio = None
    return LambertApprox(p=p, log_value=log_value, log_ratio_to_series=log_ratio)


def bell_lambert_approx(p: float) -> LambertApprox:
    """The literal approximation (1/sqrt(p)) * (p/W(p)) * exp(p/W(p) - p - 1).

    Kept as printed so its quality can be measured; see
    bell_lambert_approx_corrected for the classical exponent.
    """
    return _lambert_approx(p, 1.0)


def bell_lambert_approx_corrected(p: float) -> LambertApprox:
    """Variant with the classical exponent: (1/sqrt(p)) * (p/W(p))^{p + 1/2}
    * exp(p/W(p) - p - 1)."""
    return _lambert_approx(p, p + 0.5)
