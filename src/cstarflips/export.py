"""Exporters: canonical JSON, DOT graphs, and the SVG chamber figure."""

from __future__ import annotations

from fractions import Fraction

from . import chambers as ch
from . import modifications as md
from .actions import ActionError
from .report import ReportBundle


class UnsupportedFormatError(ActionError):
    pass


def export(bundle: ReportBundle, fmt: str) -> bytes:
    if fmt == "json":
        return bundle.to_json()
    if fmt == "dot":
        return export_dot(bundle)
    if fmt == "svg":
        return export_svg(bundle)
    raise UnsupportedFormatError(f"unsupported format {fmt!r} (json, dot, svg)")


def export_dot(bundle: ReportBundle) -> bytes:
    """Two graphs: the flip graph and the quotient diagram."""
    lines = ["digraph flip_graph {", "  rankdir=LR;"]
    lines.extend([f'  "X({i},{j})";' for i, j in ch.chamber_pairs(bundle.flat)])
    for (i, j), (k, l), (direction, level, _, blocked) in md.flip_moves(bundle.flat):
        if not blocked:
            tag = "psi+" if direction == md.PLUS else "psi-"
            lines.append(f'  "X({i},{j})" -> "X({k},{l})" [label="{tag} @ level {level}"];')
    lines += ["}", "", "digraph quotient_diagram {", "  rankdir=LR;"]
    q = md.quotient_diagram(bundle.flat)
    for node in q.geometric + q.semigeometric:
        lines.append(f'  "{node.label}" [label="{node.label} (dim {node.dim})"];')
    for a, b in q.dashed_arrows:
        lines.append(f'  "{a}" -> "{b}" [style=dashed];')
    for a, b in q.diagonal_arrows:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


_SCALE = 120
_PAD = 70


# tau_minus rightward, tau_plus upward (flipped into SVG's y-down frame)
def _x(tau_minus: Fraction) -> float:
    return _PAD + float(tau_minus) * _SCALE


def _y(tau_plus: Fraction, delta: Fraction) -> float:
    return _PAD + float(delta - tau_plus) * _SCALE


# XML 1.0 has no character for the C0 controls but tab, LF and CR, nor for
# U+FFFE and U+FFFF: those are written as backslash escapes, as a lone
# surrogate is when the text is encoded.
_XML_TEXT = {c: "\\x%02x" % c for c in range(0x20) if chr(c) not in "\t\n\r"}
_XML_TEXT.update({0xFFFE: "\\ufffe", 0xFFFF: "\\uffff",
                  ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;"})


def _xml_text(text: str) -> str:
    return text.translate(_XML_TEXT)


def export_svg(bundle: ReportBundle) -> bytes:
    """The movable region and its chambers in the (tau-, tau+) plane.

    A corner (a_k, a_l) is drawn at x_k, y_l; a chamber's label sits at its
    centroid, which for a quad (i, j) is ((a_i + a_(i+1))/2, (a_(j-1) + a_j)/2)
    and for a triangle (i, i+1) depends on i alone, so each coordinate is
    written once per critical value."""
    a = bundle.flat.critical_values
    delta = bundle.flat.bandwidth
    mov = ch.movable_polygon(bundle.flat)
    side = 2 * _PAD + float(delta) * _SCALE
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side:.0f}" height="{side:.0f}" '
        f'viewBox="0 0 {side:.0f} {side:.0f}">',
        f'<title>{_xml_text(bundle.name)}: movable region and chambers</title>',
        '<style>text{font-family:sans-serif;font-size:13px;}</style>',
    ]
    xs = ["%.2f," % _x(v) for v in a]  # the corner (a_k, a_l) is xs[k] + ys[l]
    ys = ["%.2f" % _y(v, delta) for v in a]
    steps = list(zip(a, a[1:]))
    quad_x = ["%.2f" % (_x((u + v) / 2) - 18) for u, v in steps]
    quad_y = [None] + ["%.2f" % (_y((u + v) / 2, delta) + 4) for u, v in steps]
    triangle = ['x="%.2f" y="%.2f"' % (_x((2 * u + v) / 3) - 18, _y((u + 2 * v) / 3, delta) + 4)
                for u, v in steps]
    for i, columns in enumerate(ch.chamber_rows(bundle.flat)):
        for j, outline in zip(columns, ch.row_outlines(xs, ys, " ", i, columns)):
            out.append(f'<polygon points="{outline}" fill="#dfe7f5" stroke="#4a6ea9" '
                       'stroke-width="1"/>')
            # a triangle's outline has three corners
            at = triangle[i] if outline.count(" ") == 2 else f'x="{quad_x[i]}" y="{quad_y[j]}"'
            out.append(f'<text {at}>N_{{{i},{j}}}</text>')
    path = " ".join("%.2f,%.2f" % (_x(x), _y(y, delta)) for x, y in mov)
    out.append(f'<polygon points="{path}" fill="none" stroke="#1d2d50" stroke-width="2"/>')
    for p in mov:
        x, y = _x(p[0]), _y(p[1], delta)
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#1d2d50"/>')
        out.append(f'<text x="{x + 6:.2f}" y="{y - 6:.2f}">L({p[0]},{p[1]})</text>')
    out.append("</svg>")
    # a character UTF-8 cannot encode (a lone surrogate) is written escaped
    return ("\n".join(out) + "\n").encode("utf-8", "backslashreplace")
