"""Pipeline orchestration and the canonical report bundle.

``run_pipeline`` takes a parsed spec, validates (or derives, for Lie input)
the action model, passes to the divisorial-extremes model, and assembles the
cone, chamber, flip-graph and quotient data into a :class:`ReportBundle`.
Every list is in a canonical order and the encoding is canonical (sorted
keys, no spaces, ASCII), so identical input produces byte-identical JSON
output.  The O(r) sections are kept as JSON values; the three O(r^2)
sections are written once as canonical JSON text.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from . import chambers as ch
from . import modifications as md
from .actions import (
    DEFAULT_MAX_COSETS,
    ActionModel,
    InvalidActionError,
    Violation,
    is_bordism,
    is_btype,
    blowup_extremal,
    index_set_i,
    level_signature,
    model_warnings,
    validate_action,
)
from .specfiles import ActionSpecFile

EXTREMAL_LABEL_NOTE = (
    "extremal components of X(i,j) labeled GX(i,i+1) / GX(j-1,j); "
    "offset conventions GX(i,i)/GX(j,j) and GX(i,i+1)/GX(j,j+1) appear elsewhere"
)


# The canonical encoding: sorted keys, no spaces, ASCII only.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode


class ReportBundle:
    """A report: ``values`` holds sections as JSON values, ``texts`` holds
    sections as their canonical JSON text.  ``run_pipeline`` keeps the O(r)
    sections as values and writes the three O(r^2) sections (chambers, flip
    graph, P1-bundles) once as text; ``to_json`` splices both in sorted key
    order.  ``data`` and ``bundle[key]`` give every section as values; a
    text section is parsed on first use.  A bundle is immutable and compares
    by ``values`` and ``texts``."""

    __slots__ = ("values", "texts", "_parsed")

    def __init__(self, values: dict, texts: dict | None = None):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "texts", {} if texts is None else texts)
        object.__setattr__(self, "_parsed", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a ReportBundle is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values and self.texts == other.texts

    __hash__ = None  # the sections are dicts

    def to_json(self) -> bytes:
        parts, run = [], {}
        for key in sorted(self.values.keys() | self.texts.keys()):
            if key in self.texts:
                if run:
                    parts.append(_encode(run)[1:-1])
                    run = {}
                parts.append(_encode(key) + ":" + self.texts[key])
            else:
                run[key] = self.values[key]
        if run:
            parts.append(_encode(run)[1:-1])
        return "".join(("{", ",".join(parts), "}\n")).encode("ascii")

    @classmethod
    def from_json(cls, payload: bytes) -> "ReportBundle":
        return cls(json.loads(payload.decode("utf-8")))

    @property
    def data(self) -> dict:
        return {**self.values, **{key: self[key] for key in self.texts}}

    def __getitem__(self, key):
        if key not in self.texts:
            return self.values[key]
        if key not in self._parsed:
            self._parsed[key] = json.loads(self.texts[key])
        return self._parsed[key]


def _s(x: Fraction) -> str:
    return str(x)


def _point(p) -> list:
    return [_s(p[0]), _s(p[1])]


def _model_dict(model: ActionModel) -> dict:
    return {
        "dim_X": model.dim_x,
        "flat": model.flat,
        "equalized": model.equalized,
        "equalization_source": model.equalization_source,
        "weight_offset": _s(model.weight_offset),
        "sink_origin_dim": model.sink_origin_dim,
        "source_origin_dim": model.source_origin_dim,
        "components": [
            {
                "name": c.name,
                "weight": _s(c.weight),
                "dim": c.dim,
                "nu_minus": c.nu_minus,
                "nu_plus": c.nu_plus,
                "inner": c.inner,
            }
            for c in model.components
        ],
    }


def _chain_sections(flat: ActionModel, index_set: list[int]) -> dict[str, str]:
    """The canonical JSON text of the O(r^2) sections (chambers, flip graph,
    P1-bundles), written once from O(r) facts: each critical value is encoded
    once, each chamber's node and polygon text once (the P1-bundles reuse
    them), and each flip record's rows once per (direction, level).  A move
    is the record's text up to ``"from":``, then its two nodes around its
    level; every object's keys are written in sorted order."""
    a = [_encode(_s(v)) for v in flat.critical_values]
    pairs = ch.chamber_pairs(flat)
    node = {pair: "[%d,%d]" % pair for pair in pairs}
    polygon = {
        pair: "[" + ",".join(["[%s,%s]" % (a[k], a[l]) for k, l in ch.chamber_corners(pair)]) + "]"
        for pair in pairs
    }
    edges, obstructions, records = [], [], {}
    for pair, target, direction, level, (centers, blocked) in md.flip_moves(flat, pairs):
        key = (direction, level)
        if key not in records:
            if blocked:
                rows = '{"components":%s' % _encode(blocked)
            else:
                rows = '{"centers":%s' % _encode([
                    {"component": c.component, "dim": c.dim,
                     "center_dim": c.center_dim, "flipped_dim": c.flipped_dim}
                    for c in centers
                ])
            records[key] = (
                rows + ',"direction":%s,"from":' % _encode(direction),
                ',"level":%d,"to":' % level,
            )
        head, mid = records[key]
        (obstructions if blocked else edges).append(head + node[pair] + mid + node[target] + "}")
    return {
        "chambers": "[" + ",".join(
            ['{"pair":%s,"polygon":%s}' % (node[pair], polygon[pair]) for pair in pairs]
        ) + "]",
        "flip_graph": '{"edges":[%s],"nodes":[%s],"obstructions":[%s]}' % (
            ",".join(edges), ",".join(node.values()), ",".join(obstructions)
        ),
        "p1_bundles": "[" + ",".join([
            '{"base":"GX(%d,%d)","index":%d,"nef_polygon":%s,"node":%s}'
            % (i, i + 1, i, polygon[i, i + 1], node[i, i + 1])
            for i in index_set
        ]) + "]",
    }


def _compare_expected(model: ActionModel, expected: ActionModel) -> list[str]:
    failures = []
    if model.dim_x != expected.dim_x:
        failures.append(f"dim_X: derived {model.dim_x}, expected {expected.dim_x}")
    got, want = dict(level_signature(model)), dict(level_signature(expected))
    if set(got) != set(want):
        failures.append(
            f"critical values: derived {sorted(map(str, got))}, expected {sorted(map(str, want))}"
        )
        return failures
    for a in sorted(got):
        if got[a] != want[a]:
            failures.append(
                f"level {a}: derived (dim, nu-, nu+) = {list(got[a])}, expected {list(want[a])}"
            )
    return failures


def run_pipeline(
    spec: ActionSpecFile,
    *,
    max_cosets: int = DEFAULT_MAX_COSETS,
    strict_equalized: bool = False,
) -> ReportBundle:
    """Validate or derive the model, then compute the full report.

    With a lie block, the model is recomputed from the root datum and any
    listed components are cross-checked; mismatches are collected in the
    bundle's verification section rather than raised.
    """
    notes: list[str] = []
    lie_section: Optional[dict] = None
    verification_failures: list[str] = []

    if spec.lie is not None:
        from .lie.homogeneous import HomogeneousSpace, build_action
        from .lie.roots import build_root_system

        datum = build_root_system(spec.lie.dynkin_type, spec.lie.rank)
        result = build_action(
            HomogeneousSpace(datum, spec.lie.node), spec.lie.cocharacter, max_cosets=max_cosets
        )
        model = result.model
        notes.extend(result.warnings)
        lie_section = {
            "space": result.space_label,
            "cocharacter": list(result.cocharacter),
            "fixed_points": result.fixed_point_count,
            "is_short": result.is_short,
            "tangent_certificates": {
                name: list(cert) for name, cert in sorted(result.tangent_certificates.items())
            },
        }
        if spec.components is not None:
            expected = validate_action(
                spec.components, spec.dim_x if spec.dim_x is not None else model.dim_x
            )
            verification_failures = _compare_expected(model, expected)
        elif spec.dim_x is not None and spec.dim_x != model.dim_x:
            verification_failures = [f"dim_X: derived {model.dim_x}, expected {spec.dim_x}"]
    else:
        declared = True if spec.declared_equalized is None else spec.declared_equalized
        if spec.declared_equalized is None:
            notes.append("equalization assumed (no declared_equalized field, no lie block)")
        model = validate_action(
            spec.components,
            spec.dim_x,
            equalized=declared,
            equalization_source="declared",
        )

    if not model.equalized:
        raise InvalidActionError(
            [Violation("NotEqualized", "action is not equalized; the construction needs it")]
        )
    if strict_equalized and model.equalization_source == "declared":
        raise InvalidActionError(
            [
                Violation(
                    "DeclaredEqualization",
                    "--strict-equalized: equalization is only declared, not derived",
                )
            ]
        )

    notes.extend(model_warnings(model))
    if is_btype(model):
        notes.append("input already has divisorial extremes; treated as its own blowup")
    flat = blowup_extremal(model)

    index_set = sorted(index_set_i(flat))
    diagram = md.quotient_diagram(flat)
    summary = md.flip_chain_summary(flat)

    data = {
        "schema": "cstarflips.report/1",
        "name": spec.name,
        "validation": {"ok": True, "violations": []},
        "verification": {
            "checked": spec.lie is not None and spec.components is not None,
            "failures": verification_failures,
        },
        "provenance": {
            "equalized": model.equalized,
            "equalization_source": model.equalization_source,
            "notes": sorted(notes),
            "label_convention": EXTREMAL_LABEL_NOTE,
        },
        "lie": lie_section,
        "model": _model_dict(model),
        "flat_model": _model_dict(flat),
        "case": ch.extremal_case(flat),
        "bandwidth": _s(flat.bandwidth),
        "criticality": flat.criticality,
        "index_set": index_set,
        "bordism": is_bordism(flat),
        "movable_cone": [_point(p) for p in ch.movable_polygon(flat)],
        "quotients": {
            "geometric": [{"label": q.label, "dim": q.dim} for q in diagram.geometric],
            "semigeometric": [
                {"label": q.label, "dim": q.dim, "identity": q.identity}
                for q in diagram.semigeometric
            ],
            "dashed_arrows": [list(a) for a in diagram.dashed_arrows],
            "diagonal_arrows": [list(a) for a in diagram.diagonal_arrows],
            "fiber_note": diagram.fiber_note,
        },
        "chain_summary": {
            "chain_arrows": summary.chain_arrows,
            "left": summary.left,
            "right": summary.right,
            "blowups": summary.blowups,
            "blowdowns": summary.blowdowns,
            "flips": summary.flips,
        },
    }
    return ReportBundle(data, _chain_sections(flat, index_set))
