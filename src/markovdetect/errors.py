"""Error classes shared across the package.

Each class carries the process exit code the CLI maps it to, so the
command layer never has to maintain a separate table.
"""


class MarkovDetectError(Exception):
    """Base class for all package-specific failures."""

    exit_code = 1


class DataContractError(MarkovDetectError):
    """Inputs violate a documented precondition (bad counts, bad shapes, ...)."""

    exit_code = 4


class TokenizerError(DataContractError):
    """Text cannot be tokenized under the requested scheme."""


class UnseenContextError(DataContractError):
    """A model was asked to score or extend a context it has no row for."""


class AtomBudgetError(DataContractError):
    """An exact enumeration would exceed the configured atom cap."""


class NonConvergenceError(MarkovDetectError):
    """An iterative solve hit its cap; usually a reducible or periodic chain."""

    exit_code = 5


class BoundInapplicableError(MarkovDetectError):
    """Requested bound parameters fall outside the admissible region."""

    exit_code = 5


class UninformativeFitError(MarkovDetectError):
    """Too few grid points carried a nonzero estimate to fit a decay slope."""

    exit_code = 5


class SupportViolationWarning(UserWarning):
    """A divergence was evaluated where the second argument has zero mass."""


class DegenerateStatisticWarning(UserWarning):
    """All calibration samples produced the same statistic value."""
