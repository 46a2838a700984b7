"""Bilateral non-asymptotic bounds for Poisson moments (Bell functions)."""

from .errors import BudgetError, DomainError
from .series import (
    BellQuery,
    EvalResult,
    Regime,
    bell_dobinski,
    bell_touchard_exact,
    log_mgf_bound,
    stirling_second_row,
)

__all__ = [
    "BellQuery",
    "BudgetError",
    "DomainError",
    "EvalResult",
    "Regime",
    "bell_dobinski",
    "bell_touchard_exact",
    "log_mgf_bound",
    "stirling_second_row",
]

__version__ = "0.1.0"
