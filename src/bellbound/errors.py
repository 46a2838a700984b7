"""Semantic exception hierarchy shared by all modules."""


class BellboundError(Exception):
    """Base class for all library errors."""


class DomainError(BellboundError, ValueError):
    """An argument violates a documented precondition."""


class BudgetError(BellboundError, RuntimeError):
    """A numerical budget was exhausted: tolerance not reached, exact
    arithmetic cap exceeded, or an enumeration too large."""
