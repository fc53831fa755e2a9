import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cstarflips.actions import shown, validate_action
from cstarflips.specfiles import (
    SchemaError,
    SpecSyntaxError,
    _implied_digits,
    parse_spec,
    parse_spec_dict,
)

GOOD = {
    "name": "gr24-k2",
    "dim_X": 4,
    "components": [
        {"name": "Y0", "weight": 0, "dim": 0, "nu_minus": 0, "nu_plus": 4},
        {"name": "Y1", "weight": 1, "dim": 2, "nu_minus": 1, "nu_plus": 1},
        {"name": "Y2", "weight": 2, "dim": 0, "nu_minus": 4, "nu_plus": 0},
    ],
}


def test_well_formed():
    spec = parse_spec_dict(GOOD)
    assert spec.name == "gr24-k2"
    assert spec.dim_x == 4
    assert len(spec.components) == 3
    assert spec.lie is None


def test_rational_weight_strings():
    obj = json.loads(json.dumps(GOOD))
    obj["components"][1]["weight"] = "1/2"
    spec = parse_spec_dict(obj)
    assert str(spec.components[1].weight) == "1/2"


def test_zero_denominator():
    obj = json.loads(json.dumps(GOOD))
    obj["components"][0]["weight"] = "1/0"
    with pytest.raises(SchemaError) as exc:
        parse_spec_dict(obj)
    assert exc.value.path == ".components[0].weight"
    assert "zero denominator" in str(exc.value)


def test_missing_dim_x():
    obj = {k: v for k, v in GOOD.items() if k != "dim_X"}
    with pytest.raises(SchemaError) as exc:
        parse_spec_dict(obj)
    assert exc.value.path == ".dim_X"


def test_lie_without_dim_x_ok():
    obj = {
        "name": "lie-only",
        "lie": {"type": "A", "rank": 3, "node": 2, "cocharacter": [0, 1, 0]},
    }
    spec = parse_spec_dict(obj)
    assert spec.dim_x is None and spec.components is None


def test_cocharacter_length():
    obj = {
        "name": "bad",
        "lie": {"type": "A", "rank": 3, "node": 2, "cocharacter": [0, 1]},
    }
    with pytest.raises(SchemaError) as exc:
        parse_spec_dict(obj)
    assert exc.value.path == ".lie.cocharacter"


def test_unknown_field():
    obj = json.loads(json.dumps(GOOD))
    obj["bogus"] = 1
    with pytest.raises(SchemaError) as exc:
        parse_spec_dict(obj)
    assert exc.value.path == ".bogus"


LIE_ONLY = {"name": "lie-only", "lie": {"type": "A", "rank": 3, "node": 2, "cocharacter": [0, 1, 0]}}


@pytest.mark.parametrize("spec,where,key,path", [
    (GOOD, ("components", 0), "colour", ".components[0].colour"),
    (GOOD, ("components", 2), "\r", ".components[2].'\\r'"),
    (LIE_ONLY, ("lie",), "extra", ".lie.extra"),
    (LIE_ONLY, ("lie",), "k" * 100_000, ".lie." + "k" * 40 + "..."),
    (GOOD, (), "\u2028" * 100, ".'" + "\\u2028" * 6 + "\\u2..."),
], ids=["component", "component-line-break", "lie", "lie-long-key", "top-long-key"])
def test_unknown_field_at_every_level(spec, where, key, path):
    """Every block refuses a key outside its fields, and names it in at most
    40 characters."""
    obj = json.loads(json.dumps(spec))
    block = obj
    for step in where:
        block = block[step]
    block[key] = 1
    with pytest.raises(SchemaError) as exc:
        parse_spec_dict(obj)
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: unknown field"


def test_missing_field_before_unknown_field():
    """A component with a field missing and an unknown one has the same
    number of keys as a whole one; the missing field is named."""
    obj = json.loads(json.dumps(GOOD))
    del obj["components"][1]["nu_plus"]
    obj["components"][1]["colour"] = "red"
    with pytest.raises(SchemaError) as exc:
        parse_spec_dict(obj)
    assert exc.value.path == ".components[1].nu_plus"


COMPONENT = {"name": "Y", "weight": "1/2", "dim": 1, "nu_minus": 2, "nu_plus": 3}
_MISSING = object()
TOO_BIG = "more than 1000 digits"


# A component's faults, as (fields set, a value _MISSING for a field left
# out), and the message parse_spec_dict gives, recorded before the component
# parser built its paths only on failure: the first field in the order name,
# weight, dim, nu_minus, nu_plus that is missing or malformed is named.
COMPONENT_FAULTS = [
    ({"name": _MISSING}, ".name: missing required field"),
    ({"name": 7}, ".name: expected a string, got 7"),
    ({"name": True}, ".name: expected a string, got True"),
    ({"name": 10**1000}, ".name: expected a string, got " + "1" + "0" * 39 + "..."),
    ({"weight": _MISSING}, ".weight: missing required field"),
    ({"weight": [1]}, ".weight: expected an integer or 'p/q' string, got [1]"),
    ({"weight": True}, ".weight: expected a rational, got True"),
    ({"weight": "1/" + "1" * 1000}, f".weight: {TOO_BIG}"),
    ({"dim": _MISSING}, ".dim: missing required field"),
    ({"dim": "1"}, ".dim: expected an integer, got '1'"),
    ({"dim": True}, ".dim: expected an integer, got True"),
    ({"dim": 10**1000}, f".dim: {TOO_BIG}"),
    ({"nu_minus": _MISSING}, ".nu_minus: missing required field"),
    ({"nu_minus": "2"}, ".nu_minus: expected an integer, got '2'"),
    ({"nu_minus": True}, ".nu_minus: expected an integer, got True"),
    ({"nu_minus": -10**1000}, f".nu_minus: {TOO_BIG}"),
    ({"nu_plus": _MISSING}, ".nu_plus: missing required field"),
    ({"nu_plus": None}, ".nu_plus: expected an integer, got None"),
    ({"nu_plus": True}, ".nu_plus: expected an integer, got True"),
    ({"nu_plus": 10**1000}, f".nu_plus: {TOO_BIG}"),
    # two faults: the earlier field is named
    ({"name": 1, "weight": _MISSING}, ".name: expected a string, got 1"),
    ({"weight": False, "dim": _MISSING}, ".weight: expected a rational, got False"),
    ({"dim": "x", "nu_plus": "y"}, ".dim: expected an integer, got 'x'"),
    ({"nu_minus": 1.5, "nu_plus": _MISSING}, ".nu_minus: expected an integer, got 1.5"),
    ({"colour": 1, "nu_plus": _MISSING}, ".nu_plus: missing required field"),
    ({"weight": "1/0", "name": None}, ".name: expected a string, got None"),
]


@pytest.mark.parametrize("fault,message", COMPONENT_FAULTS)
def test_component_fault_precedence(fault, message):
    component = {**COMPONENT, **fault}
    for key in [key for key, value in fault.items() if value is _MISSING]:
        del component[key]
    obj = {"name": "s", "dim_X": 6, "components": [COMPONENT, component]}
    with pytest.raises(SchemaError) as exc:
        parse_spec_dict(obj)
    assert str(exc.value) == ".components[1]" + message
    assert exc.value.path == ".components[1]" + message.split(":")[0]


@pytest.mark.parametrize("field,value,message", [
    ("dim", "7" * 100_000, "expected an integer, got '" + "7" * 39 + "..."),
    ("dim", [1] * 100_000, "expected an integer, got [" + "1, " * 13 + "..."),
    ("weight", "x" * 1_000, "not a rational: '" + "x" * 39 + "..."),
    ("name", {"k": "v" * 100_000}, "expected a string, got {'k': '" + "v" * 33 + "..."),
])
def test_a_quoted_value_is_cut_to_40_characters(field, value, message):
    obj = json.loads(json.dumps(GOOD))
    obj["components"][0][field] = value
    with pytest.raises(SchemaError) as exc:
        parse_spec_dict(obj)
    assert str(exc.value) == f".components[0].{field}: {message}"


def _fraction_reading(text: str):
    """What a weight string means, by ``Fraction(text)`` alone: its value, or
    the (path, message) of the parser's error, past the digit bound first."""
    path = ".components[1].weight"
    if _implied_digits(text) > 1000:
        return path, TOO_BIG
    try:
        return Fraction(text)
    except ZeroDivisionError:
        return path, "zero denominator"
    except ValueError:
        return path, f"not a rational: {shown(repr(text))}"


def _parsed_weight(text: str):
    obj = {"name": "s", "dim_X": 6,
           "components": [COMPONENT, {**COMPONENT, "name": "Z", "weight": text}]}
    try:
        return parse_spec_dict(obj).components[1].weight
    except SchemaError as exc:
        return exc.path, exc.message


def _assert_read_as_fraction_reads(text: str):
    want, got = _fraction_reading(text), _parsed_weight(text)
    if isinstance(want, Fraction):
        assert type(got) is Fraction
        assert got.as_integer_ratio() == want.as_integer_ratio()
    else:
        assert got == want


# Weight strings at the edges of the grammar of docs/spec-format.md: signs,
# whitespace, underscores, leading zeros, zero and malformed denominators,
# decimals, exponents, non-ASCII digits, and the 1,000-digit bound.
WEIGHT_STRINGS = [
    "0", "-0", "+0", "-0/5", "7", "-7", "+7", "007", "007/010", "2/4", "1/2", "-2/4",
    "3/-4", "3/+4", "-3/4", "--3", "1/0", "0/0", "-1/00", "1/2/3", "1//2", "/2", "2/", "-",
    "", " ", " 1/2", "1/2 ", "1 / 2", "\t-3\n", "1_000", "1_000/2_0", "_1", "1__0", "1_",
    "1.5", "-.5", "5.", "1.5/2", "1e3", "1E-3", "-2.5e-3", "1e", "e3", "1/2e3",
    "\u0663/4", "3/\u0664", "\uff13", "-\u0663", "\u00b2", "3\u00b2/4", "1x", "0x10",
    "9" * 1000, "9" * 1001, "-" + "9" * 1000, "-" + "9" * 1001, "1/" + "9" * 998,
    "1/" + "9" * 999, "1e996", "1e997", " " * 1001,
]

_WEIGHT_PIECES = st.sampled_from([
    "-", "+", " ", "\t", "_", "/", ".", "e", "E-", "0", "00", "\u0663", "\uff14", "\u00b2",
]) | st.text("0123456789", min_size=1, max_size=4)


@pytest.mark.parametrize("text", WEIGHT_STRINGS)
def test_weight_strings_read_as_fraction_reads_them(text):
    """A weight string is what ``Fraction(text)`` reads, or both refuse it
    with one path and message, whichever way the parser reads it."""
    _assert_read_as_fraction_reads(text)


@given(st.lists(_WEIGHT_PIECES, max_size=7).map("".join)
       | st.builds("{}{}/{}".format, st.sampled_from(["", "-"]),
                   st.integers(0, 10**12), st.integers(0, 10**12))
       | st.integers(990, 1010).map(lambda n: "1/" + "3" * n))
def test_generated_weight_strings_read_as_fraction_reads_them(text):
    _assert_read_as_fraction_reads(text)


def test_spellings_of_one_weight_share_a_level():
    """``"2/4"``, ``"1/2"`` and ``"0.5"`` are one critical value."""
    obj = {"name": "s", "dim_X": 4, "components": [
        {"name": "S", "weight": "-3/4", "dim": 0, "nu_minus": 0, "nu_plus": 4},
        {"name": "A", "weight": "2/4", "dim": 0, "nu_minus": 2, "nu_plus": 2},
        {"name": "B", "weight": "1/2", "dim": 0, "nu_minus": 2, "nu_plus": 2},
        {"name": "C", "weight": "0.5", "dim": 0, "nu_minus": 2, "nu_plus": 2},
        {"name": "T", "weight": 4, "dim": 0, "nu_minus": 4, "nu_plus": 0},
    ]}
    spec = parse_spec_dict(obj)
    model = validate_action(spec.components, spec.dim_x)
    assert model.critical_values == (0, Fraction(5, 4), Fraction(19, 4))
    assert [c.name for c in model.level_components(1)] == ["A", "B", "C"]


def test_neither_components_nor_lie():
    with pytest.raises(SchemaError):
        parse_spec_dict({"name": "empty", "dim_X": 4})


def test_syntax_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec(path)
    assert "1:2" in str(exc.value)


def test_parse_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(GOOD), encoding="utf-8")
    assert parse_spec(path).name == "gr24-k2"
