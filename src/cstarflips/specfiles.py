"""Parsing and schema validation of action spec files.

A spec file is a JSON object with a ``name``, the fixed-point ``components``
(weights given as integers or exact ``"p/q"`` strings) together with
``dim_X``, and/or a ``lie`` block (Dynkin type, rank, marked node, integral
cocharacter) from which the components can be recomputed.  When both are
present the listed components are treated as expected values and checked
against the Lie computation.  See docs/spec-format.md for the full schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .actions import ActionError, FixedComponent

# Largest number of decimal digits in the numerator or denominator of a
# rational field, well below Python's limit for int <-> str conversion
# (4300 digits), so that every number derived from a spec can be written out.
MAX_RATIONAL_DIGITS = 1000


class SpecSyntaxError(ActionError):
    pass


class SchemaError(ActionError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class LieInput:
    dynkin_type: str
    rank: int
    node: int
    cocharacter: Tuple[int, ...]


@dataclass(frozen=True)
class ActionSpecFile:
    name: str
    dim_x: Optional[int]
    components: Optional[Tuple[FixedComponent, ...]]
    lie: Optional[LieInput]
    declared_equalized: Optional[bool]


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return obj[key]


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a string, got {value!r}")
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
    if isinstance(value, bool):
        raise SchemaError(path, f"expected a rational, got {value!r}")
    too_big = f"more than {MAX_RATIONAL_DIGITS} digits"
    if isinstance(value, int):
        if abs(value) >= 10**MAX_RATIONAL_DIGITS:
            raise SchemaError(path, too_big)
        return Fraction(value)
    if isinstance(value, str):
        if _implied_digits(value) > MAX_RATIONAL_DIGITS:
            raise SchemaError(path, too_big)
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise SchemaError(path, "zero denominator") from None
        except ValueError:
            raise SchemaError(path, f"not a rational: {value!r}") from None
    raise SchemaError(path, f"expected an integer or 'p/q' string, got {value!r}")


def _parse_component(obj, path: str) -> FixedComponent:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    return FixedComponent(
        name=_expect_str(_require(obj, "name", path), f"{path}.name"),
        weight=_parse_rational(_require(obj, "weight", path), f"{path}.weight"),
        dim=_expect_int(_require(obj, "dim", path), f"{path}.dim"),
        nu_minus=_expect_int(_require(obj, "nu_minus", path), f"{path}.nu_minus"),
        nu_plus=_expect_int(_require(obj, "nu_plus", path), f"{path}.nu_plus"),
    )


def _parse_lie(obj, path: str) -> LieInput:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    dynkin_type = _expect_str(_require(obj, "type", path), f"{path}.type").upper()
    rank = _expect_int(_require(obj, "rank", path), f"{path}.rank")
    node = _expect_int(_require(obj, "node", path), f"{path}.node")
    raw = _require(obj, "cocharacter", path)
    if not isinstance(raw, list):
        raise SchemaError(f"{path}.cocharacter", "expected a list of integers")
    cochar = tuple(
        _expect_int(v, f"{path}.cocharacter[{k}]") for k, v in enumerate(raw)
    )
    if len(cochar) != rank:
        raise SchemaError(f"{path}.cocharacter", f"expected {rank} entries, got {len(cochar)}")
    return LieInput(dynkin_type, rank, node, cochar)


def parse_spec_dict(obj, path: str = "") -> ActionSpecFile:
    if not isinstance(obj, dict):
        raise SchemaError(path or ".", "top level must be an object")
    name = _expect_str(_require(obj, "name", path), f"{path}.name")
    lie = _parse_lie(obj["lie"], f"{path}.lie") if "lie" in obj else None
    components = None
    if "components" in obj:
        raw = obj["components"]
        if not isinstance(raw, list) or not raw:
            raise SchemaError(f"{path}.components", "expected a nonempty list")
        components = tuple(
            _parse_component(c, f"{path}.components[{k}]") for k, c in enumerate(raw)
        )
    if components is None and lie is None:
        raise SchemaError(f"{path}.components", "need components or a lie block")
    dim_x = None
    if "dim_X" in obj:
        dim_x = _expect_int(obj["dim_X"], f"{path}.dim_X")
    elif lie is None:
        raise SchemaError(f"{path}.dim_X", "missing required field")
    declared = None
    if "declared_equalized" in obj:
        if not isinstance(obj["declared_equalized"], bool):
            raise SchemaError(f"{path}.declared_equalized", "expected a boolean")
        declared = obj["declared_equalized"]
    extra = set(obj) - {"name", "dim_X", "components", "lie", "declared_equalized"}
    if extra:
        raise SchemaError(f"{path}.{sorted(extra)[0]}", "unknown field")
    return ActionSpecFile(name, dim_x, components, lie, declared)


def parse_spec(path) -> ActionSpecFile:
    """Parse a spec file; raises SpecSyntaxError / SchemaError with positions."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SpecSyntaxError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise SpecSyntaxError(f"{path}: {exc}") from exc
    return parse_spec_dict(obj)
