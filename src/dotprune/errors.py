"""Exception types shared across the package; ``open_input``, which opens
an input file so that failing to open it raises one of them;
``check_field_types``, the one type rule of the config dataclasses; and
``field_kinds``, the types it reads from each field's hint."""

import dataclasses
import functools
import math
import os
import typing


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


@functools.cache
def field_kinds(cls) -> tuple[tuple[str, tuple[type, ...]], ...]:
    """Each field's name and accepted types, read once per class from its
    type hints: resolving the hints takes some 25 times as long as the rest
    of a config's construction, and checkpoint loading builds three."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, typing.get_args(hints[f.name]) or (hints[f.name],))
                 for f in dataclasses.fields(cls))


def check_field_types(config) -> None:
    """Raise ``ConfigError`` naming the first field of the dataclass
    ``config`` whose value does not have the field's declared type.

    The rule is JSON's: a value's type must be one the hint names, so
    true/false is not a number and numpy scalars are refused, except that an
    int is also a float (``X | None`` names None as well). A float must be
    finite: NaN passes no range check written ``x < 0``, and Python's
    ``json`` reads ``NaN`` and ``Infinity``."""
    for name, kinds in field_kinds(type(config)):
        value = getattr(config, name)
        if not (type(value) in kinds or (type(value) is int and float in kinds)):
            kind = " or ".join("None" if k is type(None) else
                               ("an " if k is int else "a ") + k.__name__ for k in kinds)
            raise ConfigError(f"{name} must be {kind}, got {value!r}")
        if type(value) is float and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
