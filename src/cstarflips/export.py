"""Exporters: canonical JSON, DOT graphs, and the SVG chamber figure."""

from __future__ import annotations

from fractions import Fraction

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


def _pair_name(pair) -> str:
    return f"X({pair[0]},{pair[1]})"


def export_dot(bundle: ReportBundle) -> bytes:
    """Two graphs: the flip graph and the quotient diagram."""
    lines = ["digraph flip_graph {", "  rankdir=LR;"]
    fg = bundle["flip_graph"]
    for pair in fg["nodes"]:
        lines.append(f'  "{_pair_name(pair)}";')
    for e in fg["edges"]:
        tag = "psi+" if e["direction"] == "plus" else "psi-"
        lines.append(
            f'  "{_pair_name(e["from"])}" -> "{_pair_name(e["to"])}" '
            f'[label="{tag} @ level {e["level"]}"];'
        )
    lines.append("}")
    lines.append("")
    lines.append("digraph quotient_diagram {")
    lines.append("  rankdir=LR;")
    q = bundle["quotients"]
    for node in q["geometric"] + q["semigeometric"]:
        lines.append(f'  "{node["label"]}" [label="{node["label"]} (dim {node["dim"]})"];')
    for a, b in q["dashed_arrows"]:
        lines.append(f'  "{a}" -> "{b}" [style=dashed];')
    for a, b in q["diagonal_arrows"]:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


_SCALE = 120
_PAD = 70


def _xy(tau_minus: Fraction, tau_plus: Fraction, delta: Fraction):
    # tau_minus rightward, tau_plus upward (flipped into SVG's y-down frame)
    x = _PAD + float(tau_minus) * _SCALE
    y = _PAD + float(delta - tau_plus) * _SCALE
    return x, y


def _xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def export_svg(bundle: ReportBundle) -> bytes:
    """The movable region and its chambers in the (tau-, tau+) plane."""
    delta = Fraction(bundle["bandwidth"])
    mov = [(Fraction(a), Fraction(b)) for a, b in bundle["movable_cone"]]
    side = 2 * _PAD + float(delta) * _SCALE
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side:.0f}" height="{side:.0f}" '
        f'viewBox="0 0 {side:.0f} {side:.0f}">',
        f'<title>{_xml_text(bundle["name"])}: movable region and chambers</title>',
        '<style>text{font-family:sans-serif;font-size:13px;}</style>',
    ]
    for c in bundle["chambers"]:
        pts = [(Fraction(a), Fraction(b)) for a, b in c["polygon"]]
        path = " ".join("%.2f,%.2f" % _xy(p[0], p[1], delta) for p in pts)
        out.append(f'<polygon points="{path}" fill="#dfe7f5" stroke="#4a6ea9" stroke-width="1"/>')
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        x, y = _xy(cx, cy, delta)
        i, j = c["pair"]
        out.append(f'<text x="{x - 18:.2f}" y="{y + 4:.2f}">N_{{{i},{j}}}</text>')
    path = " ".join("%.2f,%.2f" % _xy(p[0], p[1], delta) for p in mov)
    out.append(f'<polygon points="{path}" fill="none" stroke="#1d2d50" stroke-width="2"/>')
    for p in mov:
        x, y = _xy(p[0], p[1], delta)
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#1d2d50"/>')
        out.append(f'<text x="{x + 6:.2f}" y="{y - 6:.2f}">L({p[0]},{p[1]})</text>')
    out.append("</svg>")
    # a character UTF-8 cannot encode (a lone surrogate) is written escaped
    return ("\n".join(out) + "\n").encode("utf-8", "backslashreplace")
