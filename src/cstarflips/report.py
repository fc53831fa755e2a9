"""Pipeline orchestration and the canonical report bundle.

``run_pipeline`` takes a parsed spec, validates (or derives, for Lie input)
the action model, passes to the divisorial-extremes model, and assembles the
cone, chamber, flip-graph and quotient data into a :class:`ReportBundle`.
Every list is in a canonical order and the encoding is canonical (sorted
keys, no spaces, ASCII), so identical input produces byte-identical JSON
output.  The three O(r^2) sections are written from the flat model's
per-level facts, row by row over the chamber triangle, only when the JSON is.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

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
_encode_str = json.encoder.encode_basestring_ascii  # what _encode does with a str


class ReportBundle(NamedTuple):
    """A report: ``values`` holds the O(r) sections as JSON values, ``flat``
    the flat model they were computed from.  The three O(r^2) sections
    (chambers, flip graph, P1-bundles) are not kept: ``to_json`` writes them
    from ``flat``, and the text, DOT and SVG views read the same per-level
    facts.  ``bundle[key]`` reads a section of ``values``."""

    values: dict
    flat: ActionModel

    def __getitem__(self, key):
        return self.values[key]

    def to_json(self) -> bytes:
        sections = {key: _encode(value) for key, value in self.values.items()}
        sections.update(_chain_sections(self.flat, self.values["index_set"]))
        parts = ["{"]
        for key in sorted(sections):
            parts += (_encode(key), ":", sections[key], ",")
        parts[-1] = "}\n"  # in place of the last comma
        return "".join(parts).encode("ascii")


def _model_dict(model: ActionModel) -> dict:
    return {
        "dim_X": model.dim_x,
        "flat": model.flat,
        "equalized": model.equalized,
        "equalization_source": model.equalization_source,
        "weight_offset": str(model.weight_offset),
        "sink_origin_dim": model.sink_origin_dim,
        "source_origin_dim": model.source_origin_dim,
        "components": [
            {
                "name": c.name,
                "weight": str(c.weight),
                "dim": c.dim,
                "nu_minus": c.nu_minus,
                "nu_plus": c.nu_plus,
                "inner": c.inner,
            }
            for c in model.components
        ],
    }


def _flip_template(direction: str, level: int, centers, blocked) -> str:
    """A flip record of ``modifications.flip_moves`` as text, with ``%s``
    for the two nodes of a move; a ``%`` in an encoded name is doubled."""
    if blocked:
        rows = '{"components":[%s]' % ",".join([_encode_str(name) for name in blocked])
    else:
        rows = '{"centers":[%s]' % ",".join([
            '{"center_dim":%d,"component":%s,"dim":%d,"flipped_dim":%d}'
            % (c.center_dim, _encode_str(c.component), c.dim, c.flipped_dim)
            for c in centers
        ])
    return rows.replace("%", "%%") + (
        ',"direction":"%s","from":%%s,"level":%d,"to":%%s}' % (direction, level)
    )


def _chain_sections(flat: ActionModel, index_set: list[int]) -> dict[str, str]:
    """The canonical JSON text of the O(r^2) sections (chambers, flip graph,
    P1-bundles), written row by row over the chamber triangle from O(r)
    facts.  Each critical value, corner ``[a_k,a_l]`` and node ``[i,j]`` is
    written once; a chamber joins its corners as ``row_corners`` reads them
    from the table of corners, and each move fills its flip record's
    template.  Keys are in sorted order."""
    a = ['"%s"' % v for v in flat.critical_values]  # str(Fraction) is ASCII
    # corner[k][l] is the point (a_k, a_l); a chamber has k <= l
    corner = [[None] * k + ["[%s,%s]" % (ak, al) for al in a[k:]] for k, ak in enumerate(a)]
    rows = ch.chamber_rows(flat)
    nodes = ["[%d,%d]" % (i, j) for i, columns in enumerate(rows) for j in columns]
    polygons = [p for i, columns in enumerate(rows) for p in ch.row_corners(corner, i, columns)]
    records, moves = md.flip_moves(flat, rows)
    edges, obstructions = [], []
    # per flip record: its template, and the list its moves go to
    fills = [(_flip_template(*rec), (obstructions if rec[3] else edges).append) for rec in records]
    for n, p, q in moves:
        template, add = fills[n]
        add(template % (nodes[p], nodes[q]))
    return {
        "chambers": "[" + ",".join([
            '{"pair":%s,"polygon":[%s]}' % (node, ",".join(polygon))
            for node, polygon in zip(nodes, polygons)
        ]) + "]",
        "flip_graph": '{"edges":[%s],"nodes":[%s],"obstructions":[%s]}' % (
            ",".join(edges), ",".join(nodes), ",".join(obstructions)
        ),
        "p1_bundles": "[" + ",".join([
            '{"base":"GX(%d,%d)","index":%d,"nef_polygon":[%s],"node":[%d,%d]}'
            % (i, i + 1, i, ",".join(ch.row_corners(corner, i, range(i + 1, i + 2))[0]), i, i + 1)
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
        "bandwidth": str(flat.bandwidth),
        "criticality": flat.criticality,
        "index_set": index_set,
        "bordism": is_bordism(flat),
        "movable_cone": [[str(x), str(y)] for x, y in ch.movable_polygon(flat)],
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
        "chain_summary": summary._asdict(),
    }
    return ReportBundle(data, flat)
