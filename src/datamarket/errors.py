"""Semantic exception hierarchy for the data-market solver.

Public functions never raise bare ValueError/RuntimeError; every failure mode
has a named class so callers (and the CLI exit-code mapping) can distinguish
bad inputs, ill-posed scenarios, and solver breakdowns.
"""

from __future__ import annotations


class DataMarketError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DataMarketError, ValueError):
    """An input lies outside the mathematical domain of the operation."""


class IncentiveRangeError(DomainError):
    """Total quality weight falls outside a source's incentive range.

    Carries which bound was violated so callers can report it.
    """

    def __init__(self, message: str, *, bound: str, limit: float, value: float):
        super().__init__(message)
        self.bound = bound      # "lower" or "upper"
        self.limit = limit
        self.value = value


class ShapeError(DataMarketError, ValueError):
    """Array or table dimensions do not match the scenario structure."""


class IllDefinedEstimatorError(DataMarketError):
    """The regression design is rank deficient; the estimator is ill-defined."""


class IllDefinedPaymentError(IllDefinedEstimatorError):
    """A leave-one-out design is rank deficient; the payment is ill-defined."""

    def __init__(self, message: str, *, aggregator: str | None = None,
                 source: str | None = None):
        super().__init__(message)
        self.aggregator = aggregator
        self.source = source


class ParseError(DataMarketError, ValueError):
    """A scenario document is malformed; message names the offending field."""

    def __init__(self, message: str, *, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


class ScenarioValidationError(DataMarketError):
    """An operation requiring a valid scenario was given one with violations."""

    def __init__(self, message: str, *, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class SolverError(DataMarketError):
    """Base class for equilibrium-solver failures."""


class NumericalFailureError(SolverError):
    """A linear solve failed inside its guaranteed-solvable regime; `condition` is
    a Krylov estimate of cond(I - alpha Xi) (see equilibrium._solve_coupled)."""

    def __init__(self, message: str, *, condition: float = float("nan")):
        super().__init__(message)
        self.condition = condition


class NonConvergenceError(SolverError):
    """Iteration budget exhausted.  Not a nonexistence claim: carries the last
    iterate, its residual and the sweep count for inspection."""

    def __init__(self, message: str, *, last_iterate=None, residual: float = float("nan"),
                 iterations: int = 0):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.iterations = iterations


class GenerationError(DataMarketError):
    """Random scenario generation gave up after its retry budget."""

    def __init__(self, message: str, *, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class InfeasibleSpecError(GenerationError, ValueError):
    """The generation spec cannot produce a well-posed scenario at all."""
