"""Exception types shared across the package, and ``open_input``, which
opens an input file so that failing to open it raises one of them."""

import os


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


def open_input(path, error: type[DotpruneError], mode: str = "r", **kwargs):
    """``open(path, mode)`` for reading; an ``OSError`` (a missing file, a
    directory, no permission) becomes ``error`` naming the path, as does a
    path that is not a string (``open`` would use an int as a descriptor)."""
    if not isinstance(path, (str, os.PathLike)):
        raise error(f"an input path must be a string, got {path!r}")
    try:
        return open(path, mode, **kwargs)
    except OSError as e:
        raise error(f"cannot open {path}: {e.strerror or e}") from None
