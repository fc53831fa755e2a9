"""Pipeline orchestration and the canonical report bundle.

``run_pipeline`` takes a parsed spec, validates (or derives, for Lie input)
the action model and passes to the divisorial-extremes model; the
:class:`ReportBundle` it returns holds these facts, and ``to_json`` writes
the cone, chamber, flip-graph and quotient data from them into one fixed
skeleton.  Every list is in a canonical order and the encoding is canonical
(sorted keys, no spaces, ASCII), so identical input produces byte-identical
JSON output.  The three O(r^2) sections are written from the flat model's
per-level facts, row by row over the chamber triangle.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional, Tuple

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

# Every free string of the report is written as json.dumps(..., ensure_ascii=True) writes it.
_encode_str = json.encoder.encode_basestring_ascii
_BOOL = ("false", "true")  # indexed by a bool
_LABEL_NOTE = _encode_str(EXTREMAL_LABEL_NOTE)

# The report: its 19 sections in sorted key order, no spaces.
_SKELETON = (
    '{"bandwidth":"%s","bordism":%s,"case":"%s","chain_summary":{"blowdowns":%d,"blowups":%d,'
    '"chain_arrows":%d,"flips":%d,"left":"%s","right":"%s"},"chambers":%s,"criticality":%d,'
    '"flat_model":%s,"flip_graph":%s,"index_set":[%s],"lie":%s,"model":%s,"movable_cone":[%s],'
    '"name":%s,"p1_bundles":%s,"provenance":{"equalization_source":%s,"equalized":%s,'
    '"label_convention":%s,"notes":[%s]},"quotients":{"dashed_arrows":[%s],'
    '"diagonal_arrows":[%s],"fiber_note":"%s",'
    '"geometric":[%s],"semigeometric":[%s]},"schema":"cstarflips.report/1",'
    '"validation":{"ok":true,"violations":[]},"verification":{"checked":%s,"failures":[%s]}}\n'
)


class ReportBundle(NamedTuple):
    """A report as the facts it is written from: the spec's name, the model
    and the flat model, the sorted notes, the verification result and the
    Lie derivation (``None`` without a lie block).  ``to_json`` writes every
    section from these; the text, DOT and SVG views read the same facts."""

    name: str
    model: ActionModel
    flat: ActionModel
    notes: Tuple[str, ...]
    checked: bool  # a lie block with listed components was cross-checked
    failures: Tuple[str, ...]
    lie: Optional[tuple]  # lie.homogeneous.LieActionResult

    def to_json(self) -> bytes:
        model, flat = self.model, self.flat
        # the model and the flat model share their critical values, as the
        # blowup keeps the bandwidth and the inner levels: each is written once
        a = [str(v) for v in flat.critical_values]
        index_set = sorted(index_set_i(flat))
        chain = _chain_sections(flat, index_set, a)
        s, q = md.flip_chain_summary(flat), md.quotient_diagram(flat)
        return (_SKELETON % (
            a[-1], _BOOL[is_bordism(flat)], ch.extremal_case(flat),
            s.blowdowns, s.blowups, s.chain_arrows, s.flips, s.left, s.right,
            chain["chambers"], flat.criticality, _model_json(flat, a), chain["flip_graph"],
            ",".join(["%d" % i for i in index_set]), _lie_json(self.lie), _model_json(model, a),
            ",".join([f'["{a[k]}","{a[l]}"]' for k, l in ch.movable_corners(flat)]),
            _encode_str(self.name), chain["p1_bundles"], _encode_str(model.equalization_source),
            _BOOL[model.equalized], _LABEL_NOTE, ",".join(map(_encode_str, self.notes)),
            _arrows(q.dashed_arrows), _arrows(q.diagonal_arrows), q.fiber_note,
            ",".join(['{"dim":%d,"label":%s}' % (n.dim, _encode_str(n.label))
                      for n in q.geometric]),
            ",".join(['{"dim":%d,"identity":%s,"label":%s}' % (
                n.dim, "null" if n.identity is None else _encode_str(n.identity),
                _encode_str(n.label)) for n in q.semigeometric]),
            _BOOL[self.checked], ",".join(map(_encode_str, self.failures)),
        )).encode("ascii")


def _arrows(pairs) -> str:
    return ",".join(["[%s,%s]" % (_encode_str(a), _encode_str(b)) for a, b in pairs])


def _model_json(model: ActionModel, values: list[str]) -> str:
    """``model`` or ``flat_model``, with ``values`` the texts of its critical
    values: each is written for the components of its level."""
    components = ",".join([
        f'{{"dim":{c.dim},"inner":{_BOOL[c.inner]},"name":{_encode_str(c.name)},'
        f'"nu_minus":{c.nu_minus},"nu_plus":{c.nu_plus},"weight":"{weight}"}}'
        for weight, (_, level) in zip(values, model.levels) for c in level
    ])
    return (
        '{"components":[%s],"dim_X":%d,"equalization_source":%s,"equalized":%s,"flat":%s,'
        '"sink_origin_dim":%s,"source_origin_dim":%s,"weight_offset":"%s"}'
    ) % (components, model.dim_x, _encode_str(model.equalization_source),
         _BOOL[model.equalized], _BOOL[model.flat],
         *["null" if d is None else d for d in (model.sink_origin_dim, model.source_origin_dim)],
         model.weight_offset)


def _lie_json(lie) -> str:
    if lie is None:
        return "null"
    certificates = ",".join([
        "%s:[%s]" % (_encode_str(name), ",".join(["%d" % w for w in cert]))
        for name, cert in sorted(lie.tangent_certificates.items())
    ])
    return (
        '{"cocharacter":[%s],"fixed_points":%d,"is_short":%s,"space":%s,'
        '"tangent_certificates":{%s}}'
    ) % (",".join(["%d" % n for n in lie.cocharacter]), lie.fixed_point_count,
         _BOOL[lie.is_short], _encode_str(lie.space_label), certificates)


def _flip_parts(direction: str, level: int, centers, blocked) -> Tuple[str, str, str]:
    """A flip record of ``modifications.flip_moves`` as the JSON text around
    the two nodes of a move, written once per record: a move is its head,
    its from node, its middle, its to node and its tail."""
    if blocked:
        head = '{"components":[' + ",".join([_encode_str(name) for name in blocked])
    else:
        head = '{"centers":[' + ",".join([
            f'{{"center_dim":{c.center_dim},"component":{_encode_str(c.component)},'
            f'"dim":{c.dim},"flipped_dim":{c.flipped_dim}}}'
            for c in centers
        ])
    return f'{head}],"direction":"{direction}","from":', f',"level":{level},"to":', "}"


def _chain_sections(flat: ActionModel, index_set: list[int], values: list[str]) -> dict:
    """The canonical JSON text of the O(r^2) sections (chambers, flip graph,
    P1-bundles), written row by row over the chamber triangle from O(r)
    facts, with ``values`` the texts of the critical values.  Each corner
    ``[a_k,a_l]`` and node ``[i,j]`` is written once; a chamber joins its
    corners as ``row_corners`` reads them from the table of corners, and a
    move joins its two nodes with the text parts of its flip record
    (``_flip_parts``).  Every entry is built by
    concatenation, so no name is read as a format.  Keys are in sorted
    order."""
    a = ['"%s"' % v for v in values]  # str(Fraction) is ASCII
    # corner[k][l] is the point (a_k, a_l); a chamber has k <= l
    corner = [[None] * k + [f"[{ak},{al}]" for al in a[k:]] for k, ak in enumerate(a)]
    rows = ch.chamber_rows(flat)
    nodes = [f"[{i},{j}]" for i, columns in enumerate(rows) for j in columns]
    polygons = [p for i, columns in enumerate(rows) for p in ch.row_corners(corner, i, columns)]
    records, moves = md.flip_moves(flat, rows)
    edges, obstructions = [], []
    # per flip record: its text parts, and the list its moves go to
    parts = [rec and (*_flip_parts(*rec), (obstructions if rec[3] else edges).append)
             for rec in records]
    for n, p, q in moves:
        head, middle, tail, add = parts[n]
        add(f"{head}{nodes[p]}{middle}{nodes[q]}{tail}")
    chambers = ",".join([f'{{"pair":{node},"polygon":[{",".join(polygon)}]}}'
                         for node, polygon in zip(nodes, polygons)])
    p1_bundles = ",".join([
        f'{{"base":"GX({i},{i + 1})","index":{i},"nef_polygon":'
        f'[{",".join(ch.row_corners(corner, i, range(i + 1, i + 2))[0])}],"node":[{i},{i + 1}]}}'
        for i in index_set
    ])
    return {
        "chambers": f"[{chambers}]",
        "flip_graph": f'{{"edges":[{",".join(edges)}],"nodes":[{",".join(nodes)}],'
                      f'"obstructions":[{",".join(obstructions)}]}}',
        "p1_bundles": f"[{p1_bundles}]",
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
    """Validate or derive the model and pass to the flat model: the facts of the report.

    With a lie block, the model is recomputed from the root datum and any
    listed components are cross-checked; mismatches are collected in the
    bundle's verification section rather than raised.
    """
    notes: list[str] = []
    lie, failures = None, []
    if spec.lie is not None:
        from .lie.homogeneous import HomogeneousSpace, build_action
        from .lie.roots import build_root_system

        datum = build_root_system(spec.lie.dynkin_type, spec.lie.rank)
        lie = build_action(
            HomogeneousSpace(datum, spec.lie.node), spec.lie.cocharacter, max_cosets=max_cosets
        )
        model = lie.model
        notes.extend(lie.warnings)
        if spec.components is not None:
            expected = validate_action(
                spec.components, spec.dim_x if spec.dim_x is not None else model.dim_x
            )
            failures = _compare_expected(model, expected)
        elif spec.dim_x is not None and spec.dim_x != model.dim_x:
            failures = [f"dim_X: derived {model.dim_x}, expected {spec.dim_x}"]
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
    ch.movable_polygon(flat)  # refuses a model with no movable region, before any view is written

    checked = spec.lie is not None and spec.components is not None
    return ReportBundle(spec.name, model, flat, tuple(sorted(notes)), checked, tuple(failures), lie)
