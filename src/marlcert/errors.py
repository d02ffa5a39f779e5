"""Shared exception types, mapped to CLI exit codes in marlcert.cli, and
the number rule that both config readers (the run config and the grid
config) apply."""


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
