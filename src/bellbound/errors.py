"""Semantic exception hierarchy shared by all modules."""


class BellboundError(Exception):
    """Base class for all library errors."""


class DomainError(BellboundError, ValueError):
    """An argument violates a documented precondition."""


class BudgetError(DomainError):
    """A refusal for cost: the exact Touchard path past its cap, an
    enumeration past ENUM_BUDGET states, or lambert_w past its step limit."""
