"""Pipeline orchestration and the canonical report bundle.

``run_pipeline`` takes a parsed spec, validates (or derives, for Lie input)
the action model and passes to the divisorial-extremes model; the
:class:`ReportBundle` it returns holds these facts, and ``to_json`` writes
the cone, chamber, flip-graph and quotient data from them into one fixed
skeleton.  Every list is in a canonical order and the encoding is canonical
(sorted keys, no spaces, ASCII), so identical input produces byte-identical
JSON output.  The three O(r^2) sections are written from the flat model's
per-level facts in one loop over the rows of the chamber triangle.  The
rules they follow are not restated here: a chamber's shape is
``chambers.row_outlines``, which flips are moves is
``modifications.row_moves``, a flip's centers and obstruction are
``modifications.flip_at_level`` and the quotient diagram's nodes and arrows
are ``modifications.quotient_chain``, as for every other view.
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
        # the model and the flat model share their critical values and their
        # inner components, as the blowup keeps the bandwidth and the inner
        # levels: each is written once
        a = [str(v) for v in flat.critical_values]
        inner = _components_json(flat.levels[1:-1], a[1:-1])
        index_set = sorted(index_set_i(flat))
        chain = _chain_sections(flat, index_set, a)
        s = md.flip_chain_summary(flat)
        geometric, semigeometric, dashed, diagonal, fiber = md.quotient_chain(flat)
        return (_SKELETON % (
            a[-1], _BOOL[is_bordism(flat)], ch.extremal_case(flat),
            s.blowdowns, s.blowups, s.chain_arrows, s.flips, s.left, s.right,
            chain["chambers"], flat.criticality, _model_json(flat, a, inner),
            chain["flip_graph"], ",".join(["%d" % i for i in index_set]), _lie_json(self.lie),
            _model_json(model, a, inner),
            ",".join([f'["{a[k]}","{a[l]}"]' for k, l in ch.movable_corners(flat)]),
            _encode_str(self.name), chain["p1_bundles"], _encode_str(model.equalization_source),
            _BOOL[model.equalized], _LABEL_NOTE, ",".join(map(_encode_str, self.notes)),
            ",".join([f'["{g}","{h}"]' for g, h in dashed]),
            ",".join([f'["{g}","{h}"]' for g, h in diagonal]), fiber,
            ",".join([f'{{"dim":{d},"label":"{g}"}}' for d, g, _ in geometric]),
            ",".join(['{"dim":%d,"identity":%s,"label":"%s"}' % (
                d, "null" if y is None else f'"{y}"', g) for d, g, y in semigeometric]),
            _BOOL[self.checked], ",".join(map(_encode_str, self.failures)),
        )).encode("ascii")


def _components_json(levels, values) -> str:
    """The components of ``levels``, each at the text of its level's critical
    value in ``values``."""
    return ",".join([
        f'{{"dim":{c.dim},"inner":{_BOOL[c.inner]},"name":{_encode_str(c.name)},'
        f'"nu_minus":{c.nu_minus},"nu_plus":{c.nu_plus},"weight":"{weight}"}}'
        for weight, (_, level) in zip(values, levels) for c in level
    ])


def _model_json(model: ActionModel, values: list[str], inner: str) -> str:
    """``model`` or ``flat_model``, with ``values`` the texts of its critical
    values and ``inner`` the text of its inner components, which the two
    models share."""
    levels = model.levels
    components = ",".join(filter(None, (_components_json(levels[:1], values), inner,
                                        _components_json(levels[-1:], values[-1:]))))
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
        "%s:[%s]" % (_encode_str(name), ",".join(map(str, cert)))
        for name, cert in sorted(lie.tangent_certificates.items())
    ])
    return (
        '{"cocharacter":[%s],"fixed_points":%d,"is_short":%s,"space":%s,'
        '"tangent_certificates":{%s}}'
    ) % (",".join(map(str, lie.cocharacter)), lie.fixed_point_count,
         _BOOL[lie.is_short], _encode_str(lie.space_label), certificates)


def _center_json(c, center_dim: int, flipped_dim: int) -> str:
    return (f'{{"center_dim":{center_dim},"component":{_encode_str(c.name)},"dim":{c.dim},'
            f'"flipped_dim":{flipped_dim}}}')


def _flip_json(flat: ActionModel, direction: str, level: int, edges: list, obstructions: list):
    """The flip at ``level`` as the JSON text around the two nodes of a move,
    its head and its middle, and the list its moves go to: a move is the
    head, its from node, the middle, its to node and a closing brace."""
    centers, blocked = md.flip_at_level(flat, direction, level, _center_json)
    middle = f',"level":{level},"to":'
    if blocked:
        names = ",".join(map(_encode_str, blocked))
        return f'{{"components":[{names}],"direction":"{direction}","from":', middle, \
            obstructions.append
    return f'{{"centers":[{",".join(centers)}],"direction":"{direction}","from":', middle, \
        edges.append


def _chain_sections(flat: ActionModel, index_set: list[int], values: list[str]) -> dict:
    """The canonical JSON text of the O(r^2) sections (chambers, flip graph,
    P1-bundles), written in one loop over the rows of the chamber triangle,
    with ``values`` the texts of the critical values.  A chamber's polygon
    is its ``row_outlines`` text, with the corner (a_k, a_l) written
    ``[a_k,a_l]``; each node ``[i,j]`` is written once, a row ahead, as the
    plus flips of row i go to row i + 1; each flip's head and middle
    (``_flip_json``) are made when a move first uses its (direction, level),
    and a move is one f-string around its two node texts.  Every entry is
    built by concatenation, so no name is read as a format.  Keys are in
    sorted order."""
    x = [f'["{v}",' for v in values]  # str(Fraction) is ASCII
    y = [f'"{v}"]' for v in values]
    rows = ch.chamber_rows(flat)
    r = len(rows)
    ends = [f"{j}]" for j in range(r + 1)]  # the node [i,j] is "[i," + ends[j]
    chambers, nodes, edges, obstructions = [], [], [], []
    minus_flips = [None] * r  # by level, made on first use
    outlines = [None] * r  # by row
    below = ["[0," + ends[j] for j in rows[0]]
    for i, columns in enumerate(rows):
        row = below  # the node texts of row i
        start = f"[{i + 1},"
        below = [start + ends[j] for j in rows[i + 1]] if i + 1 < r else []
        nodes += row
        minus, plus = md.row_moves(rows, i)
        if plus:
            plus_head, plus_middle, plus_add = _flip_json(flat, md.PLUS, i + 1, edges,
                                                          obstructions)
            shift = rows[i + 1].start  # below[j - shift] is the node (i + 1, j)
        left = None  # the node (i, j - 1)
        outlines[i] = ch.row_outlines(x, y, ",", i, columns)
        for j, node, outline in zip(columns, row, outlines[i]):
            chambers.append(f'{{"pair":{node},"polygon":[{outline}]}}')
            if j in minus:
                flip = minus_flips[j - 1]
                if flip is None:
                    flip = minus_flips[j - 1] = _flip_json(flat, md.MINUS, j - 1, edges,
                                                           obstructions)
                head, middle, add = flip
                add(f"{head}{node}{middle}{left}}}")
            if j in plus:
                plus_add(f"{plus_head}{node}{plus_middle}{below[j - shift]}}}")
            left = node
    # the P1-bundle at i is the chamber (i, i + 1)
    p1_bundles = ",".join([
        f'{{"base":"GX({i},{i + 1})","index":{i},"nef_polygon":'
        f'[{outlines[i][i + 1 - rows[i].start]}],"node":[{i},{i + 1}]}}'
        for i in index_set
    ])
    return {
        "chambers": f"[{','.join(chambers)}]",
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
    ch.movable_corners(flat)  # refuses a model with no movable region, before any view is written

    checked = spec.lie is not None and spec.components is not None
    return ReportBundle(spec.name, model, flat, tuple(sorted(notes)), checked, tuple(failures), lie)
