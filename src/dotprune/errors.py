"""Exception types shared across the package."""


class DotpruneError(Exception):
    """Base class for all package errors."""


class ShapeError(DotpruneError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(DotpruneError, ValueError):
    """An input violates a documented precondition."""


class InputTooLongError(DotpruneError, ValueError):
    """A token sequence cannot fit the configured budget."""


class BudgetError(DotpruneError, ValueError):
    """A selection budget is too small to keep the mandatory tokens."""


class ConfigError(DotpruneError, ValueError):
    """A configuration value is invalid or unknown."""


class TrainingDivergedError(DotpruneError, RuntimeError):
    """The training loss became non-finite."""
