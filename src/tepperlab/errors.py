"""Exception types shared across the package, and the one work budget: a unit is
about one interpreted loop step (60-100 ns), so 10^7 units take about a second."""
from decimal import Decimal

DEFAULT_BUDGET = 10**7


class InputError(ValueError):
    """An input violates a documented precondition (maps to CLI exit code 2)."""


class BudgetExceededError(RuntimeError):
    """Work priced beyond its budget (maps to CLI exit code 3)."""


def check_budget(cost: int | Decimal, budget: int, what: str) -> None:
    """Refuse ``what``, priced at ``cost`` units, when that exceeds ``budget``."""
    if cost > budget:
        # Decimal prints a cost of any size, where str(int) stops at 4300 digits.
        raise BudgetExceededError(f"{what} costs {Decimal(cost)} units, which exceeds the budget of {budget}")
