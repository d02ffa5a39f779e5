"""Shared exception types, mapped to CLI exit codes in marlcert.cli; the
one rule for an allocation a config sizes; and the number rule of every
config.  `read_yaml` reads both config files, the run config and the
grid (JSON is YAML too); their numbers are the YAML 1.1 forms (``50``,
``0.5``, ``1.0e+3``, ``.inf``, ``.nan``) and YAML 1.2's exponent floats
(``1e3``, JSON's ``1e-05``), while a quoted number and the bare words
``inf`` and ``nan`` are strings.  Each config checks each number once, by
its field's annotation: an integer, or a real number a float holds."""

import dataclasses
import math
import numbers
import re

import numpy as np
import yaml


class ConfigError(ValueError):
    """Malformed or inconsistent run/grid configuration (exit code 2)."""


class MissingArtifactError(FileNotFoundError):
    """A referenced checkpoint/result file does not exist (exit code 3)."""


class NumericalError(ArithmeticError):
    """Non-finite values where finite ones are required (exit code 4)."""


class CheckpointError(ValueError):
    """Corrupt, truncated, or incompatible checkpoint data (exit code 3)."""


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


def check_numbers(config) -> None:
    """Check each ``int`` and ``float`` field of the dataclass ``config``,
    whose module postpones annotations, and store the value read."""
    rules = {"int": as_integer, "float": as_real}
    for f in dataclasses.fields(config):
        if f.type in rules:
            value = rules[f.type](f.name, getattr(config, f.name))
            object.__setattr__(config, f.name, value)


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, with YAML 1.2's exponent floats as numbers."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def read_file(path, what: str) -> str:
    """The UTF-8 text of the file ``path``, a ``what``; else
    `MissingArtifactError` if there is none, `ConfigError` if not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise MissingArtifactError(f"{what} not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} is not UTF-8: {path}") from exc


def read_yaml(text: str, what: str):
    """The YAML document ``text``, a ``what``, by the number rule; else a
    one-line `ConfigError`, also for an integer of more digits than Python
    converts, an impossible date, or nesting too deep."""
    try:
        return yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        mark = getattr(exc, "problem_mark", None)  # PyYAML's text quotes the document
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        detail = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ConfigError(f"{what} is not valid YAML: {detail}{where}") from exc


def allocate(shape: tuple, field: str, purpose: str, dtype=np.float64) -> np.ndarray:
    """``np.empty(shape, dtype)``; else a `ConfigError` naming ``field`` and the bytes asked for."""
    try:
        return np.empty(shape, dtype)
    except (MemoryError, ValueError) as exc:
        gib = math.prod(shape) * np.dtype(dtype).itemsize / 2**30
        message = f"{field} needs {gib:.3g} GiB for {purpose}, more than can be allocated"
        raise ConfigError(message) from exc
