"""The canonical JSON of a report, which ``ReportBundle.to_json`` writes.

``to_json`` writes the cone, chamber, flip-graph and quotient data of a
:class:`~cstarflips.report.ReportBundle` from its chain into one fixed
skeleton.  Every list is in a canonical order and the encoding is canonical
(sorted keys, no spaces, ASCII), so identical input produces byte-identical
JSON output.  The three O(r^2) sections are written from the chain's rows,
moves and flip records in one loop over the rows of the chamber triangle; a
chamber's shape is ``chain.row_outlines``, as for every other view.
``report`` imports this module on the first ``to_json`` call, so that a
command that writes no JSON does not compile it.
"""

from __future__ import annotations

import json

from . import chain as cn
from .actions import ActionModel
from .report import EXTREMAL_LABEL_NOTE, ReportBundle

# Every free string of the report is written as json.dumps(..., ensure_ascii=True) writes it.
_encode_str = json.encoder.encode_basestring_ascii
_BOOL = ("false", "true")  # indexed by a bool
_LABEL_NOTE = _encode_str(EXTREMAL_LABEL_NOTE)

# The report: its 19 sections in sorted key order, no spaces.
_SKELETON = (
    '{"bandwidth":"%s","bordism":%s,"case":"%s","chain_summary":{"blowdowns":%d,"blowups":%d,'
    '"chain_arrows":%d,"flips":%d,"left":"%s","right":"%s"},"chambers":%s,"criticality":%d,'
    '"flat_model":%s,"flip_graph":%s,"index_set":%s,"lie":%s,"model":%s,"movable_cone":[%s],'
    '"name":%s,"p1_bundles":%s,"provenance":{"equalization_source":%s,"equalized":%s,'
    '"label_convention":%s,"notes":[%s]},"quotients":{"dashed_arrows":[%s],'
    '"diagonal_arrows":[%s],"fiber_note":"%s",'
    '"geometric":[%s],"semigeometric":[%s]},"schema":"cstarflips.report/1",'
    '"validation":{"ok":true,"violations":[]},"verification":{"checked":%s,"failures":[%s]}}\n'
)


def to_json(bundle: ReportBundle) -> bytes:
    """The report of ``bundle``: the skeleton filled from its chain and models."""
    model, flat, chain = bundle.model, bundle.flat, bundle.chain
    # the model and the flat model share their critical values and their
    # inner components, as the blowup keeps the bandwidth and the inner
    # levels: each is written once
    a = chain.values
    inner = ",".join([_component_json(c, weight) for weight, (_, level)
                      in zip(a[1:-1], flat.levels[1:-1]) for c in level])
    chambers, flip_graph, p1_bundles = _chain_sections(chain)
    s = chain.summary
    geometric, semigeometric, dashed, diagonal, fiber = chain.quotients
    return (_SKELETON % (
        a[-1], _BOOL[not any(chain.isolated)], cn.CASES[chain.isolated],
        s.blowdowns, s.blowups, s.chain_arrows, s.flips, s.left, s.right,
        chambers, flat.criticality, _model_json(flat, a, inner), flip_graph,
        _int_list(chain.index_set), _lie_json(bundle.lie), _model_json(model, a, inner),
        ",".join([f'["{a[k]}","{a[l]}"]' for k, l in chain.corners]),
        _encode_str(bundle.name), p1_bundles, _encode_str(model.equalization_source),
        _BOOL[model.equalized], _LABEL_NOTE, ",".join(map(_encode_str, bundle.notes)),
        ",".join([f'["{g}","{h}"]' for g, h in dashed]),
        ",".join([f'["{g}","{h}"]' for g, h in diagonal]), fiber,
        ",".join([f'{{"dim":{d},"label":"{g}"}}' for d, g, _ in geometric]),
        ",".join(['{"dim":%d,"identity":%s,"label":"%s"}' % (
            d, "null" if y is None else f'"{y}"', g) for d, g, y in semigeometric]),
        _BOOL[bundle.checked], ",".join(map(_encode_str, bundle.failures)),
    )).encode("ascii")


def _int_list(values) -> str:
    """A JSON array of ints: the ``repr`` of their list, less its spaces."""
    return str(list(values)).replace(" ", "")


def _component_json(c, weight: str) -> str:
    """Component ``c`` at the text ``weight`` of its level's critical value."""
    return (f'{{"dim":{c.dim},"inner":{_BOOL[c.inner]},"name":{_encode_str(c.name)},'
            f'"nu_minus":{c.nu_minus},"nu_plus":{c.nu_plus},"weight":"{weight}"}}')


def _model_json(model: ActionModel, values: list[str], inner: str) -> str:
    """``model`` or ``flat_model``, with ``values`` the texts of its critical
    values and ``inner`` the text of its inner components, which the two
    models share: the extremal levels hold one component each."""
    (_, (sink,)), (_, (source,)) = model.levels[0], model.levels[-1]
    sink, source = _component_json(sink, values[0]), _component_json(source, values[-1])
    sink_dim, source_dim = model.sink_origin_dim, model.source_origin_dim
    return (
        '{"components":[%s%s%s],"dim_X":%d,"equalization_source":%s,"equalized":%s,"flat":%s,'
        '"sink_origin_dim":%s,"source_origin_dim":%s,"weight_offset":"%s"}'
    ) % (sink, f",{inner}," if inner else ",", source, model.dim_x,
         _encode_str(model.equalization_source), _BOOL[model.equalized], _BOOL[model.flat],
         "null" if sink_dim is None else sink_dim, "null" if source_dim is None else source_dim,
         model.weight_offset)


def _lie_json(lie) -> str:
    if lie is None:
        return "null"
    certificates = ",".join([f"{_encode_str(name)}:{_int_list(cert)}"
                             for name, cert in sorted(lie.tangent_certificates.items())])
    return (
        '{"cocharacter":%s,"fixed_points":%d,"is_short":%s,"space":%s,'
        '"tangent_certificates":{%s}}'
    ) % (_int_list(lie.cocharacter), lie.fixed_point_count,
         _BOOL[lie.is_short], _encode_str(lie.space_label), certificates)


def _flip_json(flip: tuple, edges: list, obstructions: list):
    """The flip record ``flip`` as the JSON text around the two nodes of a
    move, its head and its middle, and the list its moves go to: a move is
    the head, its from node, the middle, its to node and a closing brace."""
    direction, level, centers, blocked = flip
    middle = f',"level":{level},"to":'
    if blocked:
        names = ",".join(map(_encode_str, blocked))
        return f'{{"components":[{names}],"direction":"{direction}","from":', middle, \
            obstructions.append
    centers = ",".join([f'{{"center_dim":{center_dim},"component":{_encode_str(c.name)},'
                        f'"dim":{c.dim},"flipped_dim":{flipped_dim}}}'
                        for c, center_dim, flipped_dim in centers])
    return f'{{"centers":[{centers}],"direction":"{direction}","from":', middle, edges.append


def _chain_sections(chain: cn.Chain) -> tuple:
    """The canonical JSON texts of the O(r^2) sections, chambers, flip graph
    and P1-bundles, in one loop over the rows of the chamber triangle.  A
    chamber's polygon is its ``row_outlines`` text, the corner (a_k, a_l)
    written ``[a_k,a_l]``; each node ``[i,j]`` is written once, a row ahead,
    as the plus flips of row i go to row i + 1; a move is one f-string of
    its two node texts around its flip's head and middle (``_flip_json``),
    made once.  No name is read as a format.  Keys are in sorted order."""
    x = [f'["{v}",' for v in chain.values]  # str(Fraction) is ASCII
    y = [f'"{v}"]' for v in chain.values]
    rows = chain.rows
    r = len(rows)
    ends = [f"{j}]" for j in range(r + 1)]  # the node [i,j] is "[i," + ends[j]
    chambers, nodes, edges, obstructions = [], [], [], []
    minus_flips = [flip and _flip_json(flip, edges, obstructions) for flip in chain.minus]
    outlines = [None] * r  # by row
    below = ["[0," + ends[j] for j in rows[0]]
    for i, (columns, (minus, plus)) in enumerate(zip(rows, chain.moves)):
        row = below  # the node texts of row i
        start = f"[{i + 1},"
        below = [start + ends[j] for j in rows[i + 1]] if i + 1 < r else []
        nodes += row
        if plus:
            plus_head, plus_middle, plus_add = _flip_json(chain.plus[i + 1], edges, obstructions)
            shift = rows[i + 1].start  # below[j - shift] is the node (i + 1, j)
        left = None  # the node (i, j - 1)
        outlines[i] = cn.row_outlines(x, y, ",", i, columns)
        for j, node, outline in zip(columns, row, outlines[i]):
            chambers.append(f'{{"pair":{node},"polygon":[{outline}]}}')
            if j in minus:
                head, middle, add = minus_flips[j - 1]
                add(f"{head}{node}{middle}{left}}}")
            if j in plus:
                plus_add(f"{plus_head}{node}{plus_middle}{below[j - shift]}}}")
            left = node
    # the P1-bundle at i is the chamber (i, i + 1)
    p1_bundles = ",".join([
        f'{{"base":"GX({i},{i + 1})","index":{i},"nef_polygon":'
        f'[{outlines[i][i + 1 - rows[i].start]}],"node":[{i},{i + 1}]}}'
        for i in chain.index_set
    ])
    return (
        f"[{','.join(chambers)}]",
        f'{{"edges":[{",".join(edges)}],"nodes":[{",".join(nodes)}],'
        f'"obstructions":[{",".join(obstructions)}]}}',
        f"[{p1_bundles}]",
    )
