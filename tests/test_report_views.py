"""The report's chain sections against the library's object views.

``ReportBundle.to_json`` writes the chambers, the flip graph and the
P1-bundles in one loop over the rows of the chamber triangle, from the
spec's chain (``chain.Chain``), its O(r) facts: the rows of
chambers, each row's chamber outlines written from the texts of the critical
values (``row_outlines``), the moves of each row (``row_moves``) and one
flip record per (direction, level) that a move uses (``flip_at_level``).
``chamber_decomposition``, ``build_flip_graph`` and ``p1_bundle_models``
build the same data as objects from the same rules.  The two must agree,
the report must be canonical JSON (the writer splices encoded names into
text by hand), and every command must compute each fact once.
"""

import collections
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import CASE_ISOLATED, action_models, model_from_rows, synthetic_case_model
from test_report_export import FORMAT_PIECES, ODD_NAME, canonical, report_values
from test_report_golden import CASES, _model_spec, rational_chain_spec

from cstarflips import chain as cn
from cstarflips import chambers as ch
from cstarflips import modifications as md
from cstarflips import report_json
from cstarflips.actions import ActionModel, blowup_extremal
from cstarflips.cli import main
from cstarflips.report import run_pipeline
from cstarflips.specfiles import parse_spec_dict


def _polygon(points) -> list:
    return [[str(x), str(y)] for x, y in points]


def _moves(moves, rows) -> list:
    return [
        {"from": list(m.from_pair), "to": list(m.to_pair), "direction": m.direction,
         "level": m.level, **rows(m)}
        for m in sorted(moves, key=lambda m: (m.from_pair, m.to_pair))
    ]


def _view_sections(flat) -> dict:
    """The report's chain sections, serialized from the object views."""
    graph = md.build_flip_graph(flat)
    return {
        "chambers": [
            {"pair": list(c.pair), "polygon": _polygon(c.polygon)}
            for c in ch.chamber_decomposition(flat)
        ],
        "flip_graph": {
            "nodes": [list(n.pair) for n in graph.nodes],
            "edges": _moves(graph.edges, lambda e: {"centers": [
                {"component": c.component, "dim": c.dim, "center_dim": c.center_dim,
                 "flipped_dim": c.flipped_dim}
                for c in e.centers
            ]}),
            "obstructions": _moves(graph.obstructions,
                                   lambda o: {"components": list(o.components)}),
        },
        "p1_bundles": [
            {"index": b.index, "base": b.base_label, "node": list(b.node_pair),
             "nef_polygon": _polygon(b.nef_polygon)}
            for b in md.p1_bundle_models(flat)
        ],
    }


def blocked_ends_model(case: str, r: int = 5):
    """A chain whose flips at levels 1 and r - 1 are blocked both ways, next
    to the extremes of ``case``: the minus flip at level 1 is no move when
    the sink is a point, nor the plus flip at level r - 1 when the source
    is, so a writer that made either would write an obstruction too many."""
    dim_x = 6
    sink_isolated, source_isolated = CASE_ISOLATED[case]
    sink_dim, source_dim = 0 if sink_isolated else 2, 0 if source_isolated else 2
    rows = [("Y0", 0, sink_dim, 0, dim_x - sink_dim),
            (f"Y{r}", r, source_dim, dim_x - source_dim, 0)]
    for level in range(1, r):
        if level in (1, r - 1):
            rows += [(f"Y{level}a", level, 2, 1, 3), (f"Y{level}b", level, 2, 3, 1)]
        else:
            rows.append((f"Y{level}a", level, 2, 2, 2))
    return model_from_rows(rows, dim_x)


@pytest.mark.parametrize("case", CASES)
@given(data=st.data())
@example(data=None)  # blocked_ends_model(case), with the characters of ODD_NAME
def test_report_agrees_with_the_views(case, data):
    """Same sections as the views, in canonical bytes, with names that need
    escaping drawn from the characters of ``ODD_NAME``, or names that a
    template would read as directives drawn from ``FORMAT_PIECES``.
    Criticality runs from 1 (2 with both extremes isolated, which has no
    movable region) to 24, so the rows and columns next to the removed
    corners are drawn at every length; about three draws in four block a
    flip at the level next to an isolated extreme, and the explicit example
    blocks both flips at levels 1 and r - 1."""
    if data is None:
        model, odd = blocked_ends_model(case), ODD_NAME
    else:
        model = data.draw(action_models(min_r=2 if case == "isolated-both" else 1, max_r=24,
                                        case=case))
        odd = data.draw(st.text(st.sampled_from(ODD_NAME), max_size=4)
                        | st.lists(st.sampled_from(FORMAT_PIECES), max_size=4).map("".join))
    model = model._replace(levels=tuple(
        [(a, tuple([c._replace(name=c.name + odd) for c in level])) for a, level in model.levels]
    ))
    bundle = run_pipeline(parse_spec_dict(_model_spec(case + odd, model)))
    views = _view_sections(blowup_extremal(model))
    payload = bundle.to_json()
    report = json.loads(payload)
    assert {key: report[key] for key in views} == views
    assert payload == canonical(payload)
    values = report_values(bundle)
    assert {key: report[key] for key in values} == values


# Every comparison and subtraction a Fraction can be asked for.
FRACTION_ARITHMETIC = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__sub__", "__rsub__")


# Every command that writes a spec's chain: the JSON report in process, and
# the text, DOT and SVG commands through ``main``.
CHAIN_COMMANDS = (None, ("analyze",), ("chambers",), ("flips",), ("quotients",),
                  ("export", "--format", "dot"), ("export", "--format", "svg"))


@pytest.mark.parametrize("case", CASES)
def test_each_fact_is_computed_once(case, tmp_path):
    """On r=40 chains, one with integer weights from zero and one with the
    shuffled rational weights of ``rational_chain_spec`` from below zero,
    every command that writes the chain (``to_json``, text ``analyze``,
    ``chambers``, ``flips``, ``quotients`` and ``export --format dot|svg``)
    builds one chain per spec, reads the origin dims and the
    isolated-extremes fact once, evaluates the chamber rows once, makes one
    flip record (``flip_at_level``) for each (direction, level) that a move
    uses, writes each critical value once (at most r + 3 ``Fraction``
    strings, with the two weight offsets of the JSON report), makes no
    ``quotient_diagram`` records and, where it draws the chambers, writes
    each chamber's outline once, by one ``row_outlines`` call per row.  The
    pipeline and every command but the SVG figure, which places its labels
    in floating point from Fraction sums, order and shift the weights in
    integer arithmetic, with no Fraction compared or subtracted."""
    r = 40
    for k, spec in enumerate((_model_spec(case, synthetic_case_model(case, r=r)),
                              rational_chain_spec(case, r))):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(spec))
        for command in CHAIN_COMMANDS:
            with pytest.MonkeyPatch.context() as monkeypatch:
                _check_computed_once(monkeypatch, case, r, spec, str(path), command)


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _check_computed_once(monkeypatch, case, r, spec, path, command):
    calls = collections.Counter()
    reads = collections.Counter()

    def counting(name, fn):
        return _counting(calls, name, fn)

    def reading(x, y, sep, i, columns, original=cn.row_outlines):
        calls["row_outlines"] += 1
        reads.update((i, j) for j in columns)
        return original(x, y, sep, i, columns)

    def chain_sections(*args, original=report_json._chain_sections):
        before = calls["str"]
        sections = original(*args)
        calls["str in chain sections"] = calls["str"] - before
        return sections

    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, counting("arithmetic", getattr(Fraction, name)))
    monkeypatch.setattr(cn, "build_chain", counting("build_chain", cn.build_chain))
    monkeypatch.setattr(cn, "chamber_rows", counting("chamber_rows", cn.chamber_rows))
    monkeypatch.setattr(cn, "flip_at_level", counting("flip_at_level", cn.flip_at_level))
    monkeypatch.setattr(md, "quotient_diagram", counting("quotient_diagram", md.quotient_diagram))
    monkeypatch.setattr(Fraction, "__str__", counting("str", Fraction.__str__))
    monkeypatch.setattr(cn, "row_outlines", reading)
    monkeypatch.setattr(report_json, "_chain_sections", chain_sections)
    for name in ("origin_dims", "isolated_extremes"):
        monkeypatch.setattr(ActionModel, name, counting(name, getattr(ActionModel, name)))

    if command is None:
        payload = run_pipeline(parse_spec_dict(spec)).to_json()
        written = json.loads(payload)
        assert written["criticality"] == r
        graph = written["flip_graph"]
        used = {(m["direction"], m["level"]) for m in graph["edges"] + graph["obstructions"]}
        assert len(used) == 2 * (r - 1) - sum(CASE_ISOLATED[case])
        # the chain sections share the texts of the chain's critical values
        assert calls["str in chain sections"] == 0
        pairs = [tuple(c["pair"]) for c in written["chambers"]]
        assert reads == collections.Counter(pairs)
        assert [b["nef_polygon"] for b in written["p1_bundles"]] == [
            c["polygon"] for c in written["chambers"] if c["pair"][1] == c["pair"][0] + 1]
    else:
        assert main([*command, path]) == 0
    assert calls["build_chain"] == calls["chamber_rows"] == 1
    assert calls["origin_dims"] == calls["isolated_extremes"] == 1
    assert calls["flip_at_level"] == 2 * (r - 1) - sum(CASE_ISOLATED[case])
    assert calls["quotient_diagram"] == 0
    # the r + 1 critical values, and the two weight offsets of the JSON report
    assert calls["str"] <= r + 3
    if command in (None, ("chambers",), ("export", "--format", "svg")):
        assert calls["row_outlines"] == r
        assert sorted(reads.values()) == [1] * sum(reads.values())
    else:
        assert calls["row_outlines"] == 0
    if command != ("export", "--format", "svg"):
        assert calls["arithmetic"] == 0


# The stdout of each view over the r=40 rational chains of the four cases,
# in one call.
VIEW_GOLDEN = {
    ("analyze",): "7dfaecf16575cb27fc5976860b6138c6a134fa2bb20dcdc17d8ab05430825766",
    ("chambers",): "15b6a62661ced5e52e3a3cb318c6902c659985a015150d513a4966875bdf56bb",
    ("flips",): "5e01c03430eb37b0a020bf62e48c259201e1fba284e3e8e16d226fad7ff5271f",
    ("export", "--format", "dot"):
        "0ca83847d52936335e8898f181a49719928884eca0e4452bb7dc1b62de00c53f",
    ("export", "--format", "svg"):
        "89e3f64e07318b52d93844885427e687b0caa7d604a307d706d084eff6dee526",
}


@pytest.mark.parametrize("command", sorted(VIEW_GOLDEN), ids=" ".join)
def test_views_write_no_chain_text(tmp_path, monkeypatch, capsysbinary, command):
    """The text, DOT and SVG views render from the flat model: with the JSON
    writer of the chain sections refused, each still exits 0 with its
    pinned bytes."""

    def refuse(*args):
        raise AssertionError("the chain sections were written as JSON")

    monkeypatch.setattr(report_json, "_chain_sections", refuse)
    monkeypatch.chdir(tmp_path)
    for case in CASES:
        (tmp_path / f"{case}.json").write_text(json.dumps(rational_chain_spec(case, 40)))
    assert main([*command, *[f"{case}.json" for case in CASES]]) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    assert hashlib.sha256(captured.out).hexdigest() == VIEW_GOLDEN[command]
