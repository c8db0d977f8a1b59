"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: usage problems are argparse's business
(exit 2), every exception below exits 3, and a failing validation suite is
not an exception at all (exit 1).
"""

__all__ = [
    "ChainValidationError",
    "DivergenceError",
    "DomainError",
    "McmcBudgetError",
    "NumericalError",
    "RegimeError",
]


class McmcBudgetError(Exception):
    """Base class for all package errors."""


class DomainError(McmcBudgetError, ValueError):
    """A parameter lies outside the mathematical domain of a formula."""


class RegimeError(DomainError):
    """An operation was asked to run in a regime it lacks constants for."""


class DivergenceError(DomainError):
    """A requested moment or norm diverges."""


class ChainValidationError(McmcBudgetError, ValueError):
    """A chain definition violates a structural invariant.

    The message names the violated invariant (e.g. "rows sum to 1").
    """


class NumericalError(McmcBudgetError, RuntimeError):
    """An iterative routine failed to converge; carries diagnostics."""
