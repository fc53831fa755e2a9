"""The records are ``collections.namedtuple`` classes, built without
``typing.NamedTuple``'s per-field work, and keep the tuple semantics they
had as ``typing.NamedTuple`` classes: fields, defaults, ``repr``, equality
with tuples, ``_make``, ``_replace`` and pickling."""

import ast
import importlib
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from cstarflips.lie.roots import build_root_system

SRC = Path(__file__).resolve().parent.parent / "src" / "cstarflips"

# (module, record) -> (_fields, _field_defaults), as the typing.NamedTuple
# classes had them.
RECORDS = {
    ("actions", "Violation"): (("code", "message", "component"), {"component": None}),
    ("actions", "FixedComponent"): (
        ("name", "weight", "dim", "nu_minus", "nu_plus", "inner"), {"inner": False}),
    ("actions", "ActionModel"): (
        ("dim_x", "levels", "flat", "equalized", "equalization_source", "sink_origin_dim",
         "source_origin_dim", "weight_offset"),
        {"flat": False, "equalized": True, "equalization_source": "declared",
         "sink_origin_dim": None, "source_origin_dim": None, "weight_offset": Fraction(0)}),
    ("chambers", "Chamber"): (("pair", "polygon"), {}),
    ("lie.catalog", "Factor"): (("dynkin_type", "rank", "nodes", "veronese"), {"veronese": False}),
    ("lie.catalog", "HorosphericalRow"): (
        ("sink_label", "source_label", "conditions", "variety"), {}),
    ("lie.catalog", "RowInstance"): (
        ("table", "family", "dynkin_type", "rank", "marked_node", "grading_nodes",
         "extremal_factors", "inner_factors", "expected_weights", "note"), {"note": ""}),
    ("lie.catalog", "GradedRow"): (
        ("table", "family", "dynkin_type", "marked_node", "parameter", "min_rank", "make",
         "note"), {"note": ""}),
    ("lie.catalog", "Catalog"): (("table1", "table2", "table3"), {}),
    ("lie.catalog", "RowVerification"): (
        ("instance", "ok", "failures", "signatures_equal"), {}),
    ("lie.homogeneous", "HomogeneousSpace"): (("datum", "node"), {}),
    ("lie.homogeneous", "FixedPoint"): (("weight", "tangent_roots"), {}),
    ("lie.homogeneous", "LieActionResult"): (
        ("model", "space_label", "cocharacter", "fixed_point_count", "tangent_certificates",
         "is_short", "equalized", "warnings"), {}),
    ("lie.roots", "RootSystem"): (
        ("dynkin_type", "rank", "cartan_matrix", "coords", "labels", "coroots", "coord_columns",
         "coroot_columns", "cartan_rows", "cartan_columns", "supports", "negative_labels"), {}),
    ("lie.roots", "GradingSpec"): (("cocharacter", "graded_dims"), {}),
    ("locate", "DivisorClass"): (("tau_minus", "tau_plus", "m"), {"m": Fraction(1)}),
    ("locate", "BaseLocusDescription"): (
        ("plus_levels", "minus_levels", "flat"), {"flat": True}),
    ("locate", "SliceLocation"): (
        ("kind", "chambers", "tight", "fixed_divisor"),
        {"chambers": (), "tight": (), "fixed_divisor": None}),
    ("modifications", "FlipCenter"): (("component", "dim", "center_dim", "flipped_dim"), {}),
    ("modifications", "FlipEdge"): (("from_pair", "to_pair", "direction", "level", "centers"), {}),
    ("modifications", "FlipObstruction"): (
        ("from_pair", "to_pair", "direction", "level", "components"), {}),
    ("modifications", "GraphNode"): (("pair", "nef_polygon"), {}),
    ("modifications", "FlipGraph"): (("nodes", "edges", "obstructions"), {}),
    ("modifications", "QuotientNode"): (("dim", "label", "identity"), {"identity": None}),
    ("modifications", "QuotientDiagram"): (
        ("geometric", "semigeometric", "dashed_arrows", "diagonal_arrows", "fiber_note"), {}),
    ("modifications", "P1BundleModel"): (("index", "base_label", "node_pair", "nef_polygon"), {}),
    ("modifications", "ChainSummary"): (
        ("chain_arrows", "left", "right", "blowups", "blowdowns", "flips"), {}),
    ("report", "ReportBundle"): (
        ("name", "model", "flat", "notes", "checked", "failures", "lie"), {}),
    ("specfiles", "LieInput"): (("dynkin_type", "rank", "node", "cocharacter"), {}),
    ("specfiles", "ActionSpecFile"): (
        ("name", "dim_x", "components", "lie", "declared_equalized"), {}),
}


def _record(module: str, name: str):
    cls = getattr(importlib.import_module(f"cstarflips.{module}"), name)
    if name == "RootSystem":
        return cls, build_root_system("A", 2)
    if name == "HomogeneousSpace":
        return cls, cls(build_root_system("A", 3), 2)
    return cls, cls(*range(len(cls._fields)))  # DivisorClass and FixedComponent coerce ints


@pytest.mark.parametrize("module, name", sorted(RECORDS), ids=lambda key: key)
def test_record_keeps_its_tuple_semantics(module, name):
    cls, rec = _record(module, name)
    fields, defaults = RECORDS[module, name]
    assert (cls._fields, cls._field_defaults) == (fields, defaults)
    required = len(fields) - len(defaults)
    if name not in ("RootSystem", "HomogeneousSpace"):
        assert tuple(cls(*rec[:required])[required:]) == tuple(defaults.values())
    assert not hasattr(rec, "__dict__")
    assert rec == tuple(rec) and tuple(rec) == rec
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, rec))
    assert repr(rec) == ("build_root_system('A', 2)" if name == "RootSystem"
                         else f"{name}({shown})")
    for copy in (cls._make(tuple(rec)), rec._replace(**{fields[0]: rec[0]})):
        assert type(copy) is cls and copy == rec
    copy = pickle.loads(pickle.dumps(rec))
    assert type(copy) is cls and copy == rec
    if name == "RootSystem":
        assert copy is rec


def test_no_record_is_a_typing_named_tuple():
    """No class in the package derives from ``typing.NamedTuple``, whose
    class set-up compiles every field annotation of a module with postponed
    annotations."""
    bases = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases += [(path.name, node.name) for b in node.bases
                          if (b.id if isinstance(b, ast.Name) else getattr(b, "attr", None))
                          == "NamedTuple"]
    assert bases == []
