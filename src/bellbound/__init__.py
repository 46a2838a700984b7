"""Bilateral non-asymptotic bounds for Poisson moments (Bell functions)."""

from .errors import BellboundError, BudgetError, DomainError
from .series import (
    BellQuery,
    EvalResult,
    Regime,
    bell_dobinski,
    bell_touchard_exact,
    log_mgf_bound,
    log_stirling_zeta,
    mgf_bound_at_lambda,
    p_max_limit,
    stirling_second_row,
    stirling_zeta,
)

__all__ = [
    "BellboundError",
    "BellQuery",
    "BudgetError",
    "DomainError",
    "EvalResult",
    "Regime",
    "bell_dobinski",
    "bell_touchard_exact",
    "log_mgf_bound",
    "log_stirling_zeta",
    "mgf_bound_at_lambda",
    "p_max_limit",
    "stirling_second_row",
    "stirling_zeta",
]

__version__ = "0.1.0"
