"""Shared exception types, mapped to CLI exit codes in marlcert.cli, the
number rule that both config readers (the run config and the grid
config) apply, the integer and real-number rules of the configs they
build, and the one rule for an allocation a config sizes."""

import math
import numbers

import numpy as np


class ConfigError(ValueError):
    """Malformed or inconsistent run/grid configuration (exit code 2)."""


class MissingArtifactError(FileNotFoundError):
    """A referenced checkpoint/result file does not exist (exit code 3)."""


class NumericalError(ArithmeticError):
    """Non-finite values where finite ones are required (exit code 4)."""


class CheckpointError(ValueError):
    """Corrupt, truncated, or incompatible checkpoint data (exit code 3)."""


def as_number(name: str, value, kind: type):
    """``value`` read as a ``kind`` (``int`` or ``float``).

    Numeric strings are accepted, because YAML 1.1 reads exponent forms
    like ``1e3`` as strings; booleans and every other type, and floats
    where an integer is due, raise `ConfigError`.
    """
    noun = "an integer" if kind is int else "a number"
    types = (int, str) if kind is int else (int, float, str)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{name} must be {noun}")
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{name} must be {noun}, got {value!r}")


def as_integer(name: str, value) -> int:
    """A Python or NumPy integer ``value`` as an ``int``; else `ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(name: str, value) -> float:
    """A Python or NumPy real ``value`` that a float holds, as a ``float``; else `ConfigError`."""
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"{name} must be a real number, got {value!r}")


def allocate(shape: tuple, field: str, purpose: str, dtype=np.float64) -> np.ndarray:
    """``np.empty(shape, dtype)``; else a `ConfigError` naming ``field`` and the bytes asked for."""
    try:
        return np.empty(shape, dtype)
    except (MemoryError, ValueError) as exc:
        gib = math.prod(shape) * np.dtype(dtype).itemsize / 2**30
        message = f"{field} needs {gib:.3g} GiB for {purpose}, more than can be allocated"
        raise ConfigError(message) from exc
