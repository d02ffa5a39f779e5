"""Tests for the one YAML reader and number rule of every config."""

import dataclasses
import json
import math
import struct

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from marlcert.cli import RunConfig  # imports every module that reads a config
from marlcert.errors import ConfigError, read_yaml

_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig) if f.type in ("int", "float")}
_DUMPS = {"json": json.dumps, "yaml": yaml.safe_dump}


@st.composite
def _documents(draw):
    """A run-config number field or a grid reward, and a value for it."""
    field = draw(st.sampled_from(sorted(_FIELDS) + ["rewards"]))
    if _FIELDS.get(field) == "int":
        return {field: draw(st.integers())}
    value = draw(st.floats(allow_nan=False, allow_infinity=False))
    return {field: {"apple": value}} if field == "rewards" else {field: value}


def _number(doc):
    """The one number in a document of `_documents`, floats as their bits."""
    value = next(iter(doc.values()))
    value = value["apple"] if isinstance(value, dict) else value
    return type(value), struct.pack("<d", value) if isinstance(value, float) else value


@given(doc=_documents(), dumper=st.sampled_from(sorted(_DUMPS)))
def test_written_numbers_read_back_bit_for_bit(doc, dumper):
    assert _number(read_yaml(_DUMPS[dumper](doc), "config")) == _number(doc)


@pytest.mark.parametrize(
    "text, value",
    [
        ("1e3", 1000.0),
        ("1.0e5", 1e5),
        ("1e-05", 1e-05),
        ("-2E+2", -200.0),
        (".5e1", 5.0),
        ("1.0e+3", 1000.0),
        ("50", 50),
        (".inf", math.inf),
    ],
)
def test_numbers_of_either_yaml_version_are_numbers(text, value):
    read = read_yaml(f"x: {text}", "config")["x"]
    assert read == value and type(read) is type(value)


@pytest.mark.parametrize("text", ['"50"', "'1e3'", "inf", "nan", "1e", "e3", "1e3.5"])
def test_quoted_numbers_and_bare_words_are_strings(text):
    assert isinstance(read_yaml(f"x: {text}", "config")["x"], str)


def test_safe_loader_itself_is_unchanged():
    assert yaml.safe_load("1e3") == "1e3"
    assert yaml.safe_load("1.0e+3") == 1000.0


@pytest.mark.parametrize(
    "text",
    [
        "x: 1" + "0" * 5000,  # more digits than Python converts
        "x: 2020-02-31",
        "x: " + "[" * 5000 + "]" * 5000,
        "x: [1\ny: 2\n",
        "x: !!python/object:os.system ls\n",
        "x: \x00\n",
    ],
    ids=["digits", "date", "nesting", "syntax", "python-tag", "nul"],
)
def test_every_parse_failure_is_one_line(text):
    with pytest.raises(ConfigError, match="^config is not valid YAML: ") as caught:
        read_yaml(text, "config")
    assert "\n" not in str(caught.value)
