"""Pipeline orchestration and the canonical report bundle.

``run_pipeline`` takes a parsed spec, validates (or derives, for Lie input)
the action model, passes to the divisorial-extremes model, and assembles the
cone, chamber, flip-graph and quotient data into a :class:`ReportBundle`.
The bundle holds plain JSON-ready values with every list in a canonical
order, so identical input produces byte-identical JSON output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ReportBundle:
    data: dict

    def to_json(self) -> bytes:
        return (
            json.dumps(self.data, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
            + "\n"
        ).encode("utf-8")

    @classmethod
    def from_json(cls, payload: bytes) -> "ReportBundle":
        return cls(json.loads(payload.decode("utf-8")))

    def __getitem__(self, key):
        return self.data[key]


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


def _chain_sections(flat: ActionModel, index_set: list[int]) -> dict:
    """The O(r^2) sections (chambers, flip graph, P1-bundles), written from
    O(r) facts: each critical value is printed once, each chamber's corners
    are indices into those strings, and each flip record is serialized once
    per (direction, level) and shared by every move at that level."""
    a = [_s(v) for v in flat.critical_values]
    pairs = ch.chamber_pairs(flat)
    node = {pair: list(pair) for pair in pairs}
    polygon = {pair: [[a[k], a[l]] for k, l in ch.chamber_corners(pair)] for pair in pairs}
    edges, obstructions, rows = [], [], {}
    for pair, target, direction, level, (centers, blocked) in md.flip_moves(flat, pairs):
        key = (direction, level)
        if key not in rows:
            rows[key] = list(blocked) or [
                {"component": c.component, "dim": c.dim,
                 "center_dim": c.center_dim, "flipped_dim": c.flipped_dim}
                for c in centers
            ]
        move = {"from": node[pair], "to": node[target], "direction": direction, "level": level}
        if blocked:
            move["components"] = rows[key]
            obstructions.append(move)
        else:
            move["centers"] = rows[key]
            edges.append(move)
    return {
        "chambers": [{"pair": node[pair], "polygon": polygon[pair]} for pair in pairs],
        "flip_graph": {"nodes": list(node.values()), "edges": edges, "obstructions": obstructions},
        "p1_bundles": [
            {
                "index": i,
                "base": f"GX({i},{i + 1})",
                "node": node[i, i + 1],
                "nef_polygon": polygon[i, i + 1],
            }
            for i in index_set
        ],
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
                [c.__dict__ for c in spec.components],
                spec.dim_x if spec.dim_x is not None else model.dim_x,
            )
            verification_failures = _compare_expected(model, expected)
        elif spec.dim_x is not None and spec.dim_x != model.dim_x:
            verification_failures = [f"dim_X: derived {model.dim_x}, expected {spec.dim_x}"]
    else:
        declared = True if spec.declared_equalized is None else spec.declared_equalized
        if spec.declared_equalized is None:
            notes.append("equalization assumed (no declared_equalized field, no lie block)")
        model = validate_action(
            [c.__dict__ for c in spec.components],
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
        **_chain_sections(flat, index_set),
    }
    return ReportBundle(data)
