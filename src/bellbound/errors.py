"""The library's refusals.  Every exception the library raises on purpose
is a DomainError, and only those are caught and reported: by bound_report
for a candidate, by a scan row, and by the CLI, which exits 2.  Anything
else is a bug and propagates."""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class BudgetError(DomainError):
    """A refusal for cost: the exact Touchard path past its cap, an
    enumeration past ENUM_BUDGET states, or lambert_w past its step limit."""
