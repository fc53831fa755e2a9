"""Parsing and schema validation of action spec files.

A spec file is a JSON object with a ``name``, the fixed-point ``components``
(weights given as integers or exact ``"p/q"`` strings) together with
``dim_X``, and/or a ``lie`` block (Dynkin type, rank, marked node, integral
cocharacter) from which the components can be recomputed.  When both are
present the listed components are treated as expected values and checked
against the Lie computation.  See docs/spec-format.md for the full schema.
"""

from __future__ import annotations

import io
import json
from collections import namedtuple
from fractions import Fraction

from .actions import ActionError, FixedComponent, exact_component, shown

# Largest number of decimal digits in an integer field or in the numerator or
# denominator of a rational one, well below Python's limit for int <-> str
# conversion (4300 digits), so that every number derived from a spec can be written out.
MAX_RATIONAL_DIGITS = 1000
_INT_BOUND = 10**MAX_RATIONAL_DIGITS
TOO_BIG = f"more than {MAX_RATIONAL_DIGITS} digits"
# Largest spec file read, in bytes: ten times a chain of criticality 1,280.
MAX_SPEC_BYTES = 1 << 20


class SpecSyntaxError(ActionError):
    pass


class SchemaError(ActionError):
    def __init__(self, path: str, message: str):
        self.path, self.message = path, message
        super().__init__(f"{path}: {message}")


LieInput = namedtuple("LieInput", "dynkin_type rank node cocharacter")
# dim_x, components, lie and declared_equalized are None where the spec leaves them out.
ActionSpecFile = namedtuple("ActionSpecFile", "name dim_x components lie declared_equalized")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return obj[key]


def expect_int(value, path: str) -> int:
    """``value`` if it is an integer of at most ``MAX_RATIONAL_DIGITS`` digits."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {shown(repr(value))}")
    if abs(value) >= _INT_BOUND:
        raise SchemaError(path, TOO_BIG)
    return value


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a string, got {shown(repr(value))}")
    return value


def _implied_digits(text: str) -> int:
    """An upper bound on the digits of the numerator and denominator that a
    rational string stands for, read off the string without building them:
    its length, plus the size of a decimal exponent (``1e5`` is 100000)."""
    _, e, exponent = text.lower().partition("e")
    try:
        shift = abs(int(exponent)) if e else 0
    except ValueError:  # not an exponent; Fraction rejects the string
        shift = 0
    return len(text) + shift


def _parse_rational(value, path: str) -> Fraction:
    """A weight: an integer, or a string that ``Fraction`` reads.  An ASCII
    string ``n`` or ``n/d`` of digits with an optional leading ``-`` is read
    with ``int``, to the same value; every other form goes to ``Fraction``
    (docs/spec-format.md)."""
    if isinstance(value, bool):
        raise SchemaError(path, f"expected a rational, got {shown(repr(value))}")
    if isinstance(value, int):
        return Fraction(expect_int(value, path))
    if isinstance(value, str):
        if _implied_digits(value) > MAX_RATIONAL_DIGITS:
            raise SchemaError(path, TOO_BIG)
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        try:
            if value.isascii() and digits.isdigit() and (den.isdigit() or not slash):
                return Fraction(int(num), int(den or 1))
            return Fraction(value)
        except ZeroDivisionError:
            raise SchemaError(path, "zero denominator") from None
        except ValueError:
            raise SchemaError(path, f"not a rational: {shown(repr(value))}") from None
    raise SchemaError(path, f"expected an integer or 'p/q' string, got {shown(repr(value))}")


_COMPONENT_FIELDS = ("name", "weight", "dim", "nu_minus", "nu_plus")
_LIE_FIELDS = ("type", "rank", "node", "cocharacter")
_SPEC_FIELDS = ("name", "dim_X", "components", "lie", "declared_equalized")


def _unknown_field(obj: dict, fields, path: str) -> SchemaError:
    """The error naming the first key of ``obj`` outside ``fields``."""
    return SchemaError(f"{path}.{shown(min(set(obj) - set(fields)))}", "unknown field")


def _parse_component(obj) -> FixedComponent:
    """A component, its fields read in the order of ``_COMPONENT_FIELDS``:
    the first that is missing or malformed is the error, with a path inside
    the component, and no path is built before a check fails.  The weight
    is already exact, so the component skips the constructor's coercion."""
    if not isinstance(obj, dict):
        raise SchemaError("", "expected an object")
    component = exact_component((
        _expect_str(_require(obj, "name", ""), ".name"),
        _parse_rational(_require(obj, "weight", ""), ".weight"),
        expect_int(_require(obj, "dim", ""), ".dim"),
        expect_int(_require(obj, "nu_minus", ""), ".nu_minus"),
        expect_int(_require(obj, "nu_plus", ""), ".nu_plus"),
        False,
    ))
    # every field is present, so one more key is an unknown one
    if len(obj) > len(_COMPONENT_FIELDS):
        raise _unknown_field(obj, _COMPONENT_FIELDS, "")
    return component


def _parse_lie(obj) -> LieInput:
    """A lie block, read as ``_parse_component`` reads a component."""
    if not isinstance(obj, dict):
        raise SchemaError("", "expected an object")
    dynkin_type = _expect_str(_require(obj, "type", ""), ".type").upper()
    rank = expect_int(_require(obj, "rank", ""), ".rank")
    node = expect_int(_require(obj, "node", ""), ".node")
    raw = _require(obj, "cocharacter", "")
    if not isinstance(raw, list):
        raise SchemaError(".cocharacter", "expected a list of integers")
    try:
        for k, v in enumerate(raw):
            expect_int(v, "")
    except SchemaError as exc:
        raise SchemaError(f".cocharacter[{k}]", exc.message) from None
    if len(raw) != rank:
        raise SchemaError(".cocharacter", f"expected {shown(str(rank))} entries, got {len(raw)}")
    if len(obj) > len(_LIE_FIELDS):
        raise _unknown_field(obj, _LIE_FIELDS, "")
    return LieInput(dynkin_type, rank, node, tuple(raw))


def parse_spec_dict(obj, path: str = "") -> ActionSpecFile:
    if not isinstance(obj, dict):
        raise SchemaError(path or ".", "top level must be an object")
    name = _expect_str(_require(obj, "name", path), f"{path}.name")
    try:
        lie = _parse_lie(obj["lie"]) if "lie" in obj else None
    except SchemaError as exc:  # its path starts inside the block
        raise SchemaError(f"{path}.lie{exc.path}", exc.message) from None
    components = None
    if "components" in obj:
        raw = obj["components"]
        if not isinstance(raw, list) or not raw:
            raise SchemaError(f"{path}.components", "expected a nonempty list")
        parsed = []
        try:
            for k, c in enumerate(raw):
                parsed.append(_parse_component(c))
        except SchemaError as exc:  # its path starts inside component k
            raise SchemaError(f"{path}.components[{k}]{exc.path}", exc.message) from None
        components = tuple(parsed)
    if components is None and lie is None:
        raise SchemaError(f"{path}.components", "need components or a lie block")
    dim_x = None
    if "dim_X" in obj:
        dim_x = expect_int(obj["dim_X"], f"{path}.dim_X")
    elif lie is None:
        raise SchemaError(f"{path}.dim_X", "missing required field")
    declared = None
    if "declared_equalized" in obj:
        if not isinstance(obj["declared_equalized"], bool):
            raise SchemaError(f"{path}.declared_equalized", "expected a boolean")
        declared = obj["declared_equalized"]
    if not set(obj).issubset(_SPEC_FIELDS):
        raise _unknown_field(obj, _SPEC_FIELDS, path)
    return ActionSpecFile(name, dim_x, components, lie, declared)


def parse_spec(path) -> ActionSpecFile:
    """Parse a spec file of at most ``MAX_SPEC_BYTES`` bytes; raises
    SpecSyntaxError / SchemaError with positions but not the file's path,
    which the caller names."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_SPEC_BYTES + 1)  # one byte more tells a longer file
        if len(data) > MAX_SPEC_BYTES:
            raise SpecSyntaxError(f"more than {MAX_SPEC_BYTES} bytes")
        obj = json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except OSError as exc:
        raise SpecSyntaxError(exc.strerror) from exc
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(f"{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, too many digits, too deep
        raise SpecSyntaxError(str(exc)) from exc
    return parse_spec_dict(obj)
