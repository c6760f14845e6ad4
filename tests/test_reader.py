"""The typed-field reader every JSON input goes through (errors.value,
fields and decode), and the check that nothing else in the package decodes
JSON."""

import ast
import builtins
import math
import re
from pathlib import Path

import pytest

import specdrive
from specdrive.errors import (REQUIRED, CorruptContainer, Field, InvalidOption, decode, fields,
                              value)


@pytest.mark.parametrize("v, f", [
    (True, Field(int)), (1.0, Field(int)), ("1", Field(int)), (None, Field(int)),
    (False, Field(float)), (math.nan, Field(float)), (math.inf, Field(float)),
    (-math.inf, Field(float)), (2**1100, Field(float)), (0, Field(int, 1)),
    (257, Field(int, 1, 256)), (-0.5, Field(float, 0)), (1, Field(bool)), (0, Field(str)),
    ("b", Field(frozenset({"a"}))), (["a"], Field(frozenset({"a"}))),
    ([1, 2, 3], Field([int] * 2)), (1, Field([int])), ([1, True], Field([int])),
    ([[1], [2, 3]], Field([[int] * 2])), ([1], Field(dict)), ("{}", Field({})),
    (None, Field(str, default="x")), ("a\0b", Field(str)), (["a", "\0"], Field([str])),
], ids=repr)
def test_value_refuses(v, f):
    with pytest.raises(InvalidOption, match="^opt"):
        value(v, f, "opt")


def test_field_repr_is_the_same_in_every_run():
    """A Field's repr, which test_value_refuses takes for its ids, holds no
    object address, even with the REQUIRED default."""
    assert repr(REQUIRED) == "<object object at REQUIRED>"
    assert not re.search("0x[0-9a-f]", repr(Field(int)))


def test_value_reads():
    assert type(value(3, Field(float), "opt")) is float
    assert value(2**70, Field(int, 0), "opt") == 2**70
    assert value([[1, 2]], Field([[int] * 2], 0, 2), "opt") == ((1, 2),)
    assert value([], Field([int]), "opt") == ()
    assert value(None, Field(float, default=None), "opt") is None
    assert value("a", Field(frozenset({"a", "b"})), "opt") == "a"


SPEC = {"a": Field(int, 0), "b": Field({"c": Field([str])}, default=None),
        "d": Field(bool, default=False)}


def test_fields_fill_defaults_and_read_nested_objects():
    assert fields({"a": 1}, SPEC, "f.json") == {"a": 1, "b": None, "d": False}
    assert fields({"a": 1, "b": {"c": ["x"]}, "d": True}, SPEC, "f.json") == {
        "a": 1, "b": {"c": ("x",)}, "d": True}


@pytest.mark.parametrize("obj, message", [
    ([], "f.json must be a JSON object, got []"),
    ({}, "f.json: missing key 'a'"),
    ({"a": 1, "e": 2}, "f.json: unknown key 'e'"),
    ({"a": -1}, "f.json: 'a' must be int in [0, inf], got -1"),
    ({"a": 1, "d": None}, "f.json: 'd' must be bool, got None"),
    ({"a": 1, "b": {"c": ["x", 1]}}, "f.json: 'b': 'c'[1] must be str, got 1"),
    ({"a": 1, "b": {"c": ["x"], "z": 0}}, "f.json: 'b': unknown key 'z'"),
], ids=repr)
def test_fields_refusal_names_file_and_key(obj, message):
    with pytest.raises(CorruptContainer, match=f"^{re.escape(message)}$"):
        fields(obj, SPEC, "f.json", CorruptContainer)


@pytest.mark.parametrize("text", [b"{", b"\xff", b"", "[" * 100_000], ids=lambda t: repr(t[:3]))
def test_decode_refuses_text_that_is_not_json(text):
    with pytest.raises(InvalidOption, match="^in.json: not JSON"):
        decode(text, "in.json")


def test_json_is_decoded_in_one_place():
    """errors.decode is the package's only call of json.loads or json.load,
    and no module imports either by name."""
    found = []
    for path in sorted(Path(specdrive.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found.append((path.name, "from json import"))
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                # ast.walk is breadth first, so the innermost function is last
                inner = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                found.append((path.name, inner[-1] if inner else None))
    assert found == [("errors.py", "decode")]


def test_no_raise_names_a_builtin_exception():
    """Every error the package raises is a SpecdriveError (InvalidOption is
    also a ValueError): no raise names a builtin exception class, so bad
    input never surfaces as a bare KeyError or ValueError. SystemExit, the
    usage exit, is not an Exception."""
    found = []
    for path in sorted(Path(specdrive.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
            if isinstance(cls, type) and issubclass(cls, Exception):
                found.append((path.name, node.lineno, exc.id))
    assert found == []
