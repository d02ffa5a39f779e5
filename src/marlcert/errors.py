"""Shared exception types, mapped to CLI exit codes in marlcert.cli."""


class ConfigError(ValueError):
    """Malformed or inconsistent run/grid configuration (exit code 2)."""


class MissingArtifactError(FileNotFoundError):
    """A referenced checkpoint/result file does not exist (exit code 3)."""


class NumericalError(ArithmeticError):
    """Non-finite values where finite ones are required (exit code 4)."""


class CheckpointError(ValueError):
    """Corrupt, truncated, or incompatible checkpoint data (exit code 3)."""
