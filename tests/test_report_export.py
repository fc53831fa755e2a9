import json
import random
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, strategies as st

from cstarflips import chambers as ch
from cstarflips import modifications as md
from cstarflips.actions import index_set_i, is_bordism
from cstarflips.export import UnsupportedFormatError, export
from cstarflips.report import EXTREMAL_LABEL_NOTE, run_pipeline
from cstarflips.specfiles import parse_spec, parse_spec_dict
from cstarflips.cli import main
from conftest import CASE_ISOLATED, action_models

GR24_SPEC = {
    "name": "gr24-k2",
    "dim_X": 4,
    "lie": {"type": "A", "rank": 3, "node": 2, "cocharacter": [0, 1, 0]},
    "components": [
        {"name": "Y0", "weight": 0, "dim": 0, "nu_minus": 0, "nu_plus": 4},
        {"name": "Y1", "weight": 1, "dim": 2, "nu_minus": 1, "nu_plus": 1},
        {"name": "Y2", "weight": 2, "dim": 0, "nu_minus": 4, "nu_plus": 0},
    ],
}

BORDISM_SPEC = {
    "name": "bordism-r3",
    "dim_X": 8,
    "declared_equalized": True,
    "components": [
        {"name": "S", "weight": 0, "dim": 3, "nu_minus": 0, "nu_plus": 5},
        {"name": "M1", "weight": 1, "dim": 2, "nu_minus": 2, "nu_plus": 4},
        {"name": "M2", "weight": 2, "dim": 3, "nu_minus": 3, "nu_plus": 2},
        {"name": "T", "weight": 3, "dim": 4, "nu_minus": 4, "nu_plus": 0},
    ],
}


SPECS = Path(__file__).resolve().parent.parent / "specs"

# A quote, a backslash, a non-ASCII letter, a line separator and a lone
# surrogate: each must come out of the report escaped.
ODD_NAME = 'q"b\\\u00e9\u2028\ud800'
# The pieces of a name that a printf-style or str.format template would
# read as a directive; the report and the views must copy them as they are.
FORMAT_PIECES = ("%s", "%%", "%d", "{", "}")
FORMAT_NAME = "%s%%{}%d"

# (type, rank, marked node, node of the fundamental cocharacter), all equalized.
LIE_ITEMS = (("A", 4, 2, 2), ("C", 4, 4, 4), ("D", 5, 5, 5), ("E", 6, 1, 6))


def canonical(payload: bytes) -> bytes:
    """The canonical encoding of the JSON values in ``payload``."""
    values = json.loads(payload)
    return (json.dumps(values, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
            + "\n").encode("ascii")


def _model_values(model) -> dict:
    return {
        "dim_X": model.dim_x,
        "flat": model.flat,
        "equalized": model.equalized,
        "equalization_source": model.equalization_source,
        "weight_offset": str(model.weight_offset),
        "sink_origin_dim": model.sink_origin_dim,
        "source_origin_dim": model.source_origin_dim,
        "components": [
            {"name": c.name, "weight": str(c.weight), "dim": c.dim,
             "nu_minus": c.nu_minus, "nu_plus": c.nu_plus, "inner": c.inner}
            for c in model.components
        ],
    }


def report_values(bundle) -> dict:
    """The O(r) sections of the report as JSON values, built from the
    bundle's facts by the library's functions: an oracle for the text that
    ``to_json`` writes."""
    flat, lie = bundle.flat, bundle.lie
    diagram = md.quotient_diagram(flat)
    return {
        "schema": "cstarflips.report/1",
        "name": bundle.name,
        "validation": {"ok": True, "violations": []},
        "verification": {"checked": bundle.checked, "failures": list(bundle.failures)},
        "provenance": {
            "equalized": bundle.model.equalized,
            "equalization_source": bundle.model.equalization_source,
            "notes": sorted(bundle.notes),
            "label_convention": EXTREMAL_LABEL_NOTE,
        },
        "lie": None if lie is None else {
            "space": lie.space_label,
            "cocharacter": list(lie.cocharacter),
            "fixed_points": lie.fixed_point_count,
            "is_short": lie.is_short,
            "tangent_certificates": {
                name: list(cert) for name, cert in lie.tangent_certificates.items()
            },
        },
        "model": _model_values(bundle.model),
        "flat_model": _model_values(flat),
        "case": ch.extremal_case(flat),
        "bandwidth": str(flat.bandwidth),
        "criticality": flat.criticality,
        "index_set": sorted(index_set_i(flat)),
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
        "chain_summary": md.flip_chain_summary(flat)._asdict(),
    }


def reads_back(payload: bytes, bundle) -> bool:
    """Whether each O(r) section reads back from its JSON equal to the
    values of :func:`report_values`."""
    report = json.loads(payload)
    return all(report[key] == value for key, value in report_values(bundle).items())


def with_odd_names(spec: dict, suffix: str = ODD_NAME) -> dict:
    """``spec`` with ``suffix`` after its name and each component's name."""
    spec = json.loads(json.dumps(spec))
    spec["name"] += suffix
    for c in spec.get("components", []):
        c["name"] += suffix
    return spec


def random_spec(rng: random.Random) -> dict:
    r = rng.randint(2, 4)
    dim_x = rng.randint(4, 8)
    sink_dim = rng.randint(0, dim_x - 2)
    source_dim = rng.randint(0, dim_x - 2)
    comps = [
        {"name": "Y0", "weight": 0, "dim": sink_dim, "nu_minus": 0, "nu_plus": dim_x - sink_dim}
    ]
    for level in range(1, r):
        nm = rng.randint(1, dim_x - 2)
        np_ = rng.randint(1, dim_x - 1 - nm)
        comps.append(
            {
                "name": f"Y{level}",
                "weight": level,
                "dim": dim_x - nm - np_,
                "nu_minus": nm,
                "nu_plus": np_,
            }
        )
    comps.append(
        {
            "name": f"Y{r}",
            "weight": r,
            "dim": source_dim,
            "nu_minus": dim_x - source_dim,
            "nu_plus": 0,
        }
    )
    return {
        "name": f"random-{rng.randint(0, 10**6)}",
        "dim_X": dim_x,
        "declared_equalized": True,
        "components": comps,
    }


class TestPipeline:
    def test_gr24_bundle(self):
        report = json.loads(run_pipeline(parse_spec_dict(GR24_SPEC)).to_json())
        assert report["case"] == "isolated-both"
        assert [tuple(c["pair"]) for c in report["chambers"]] == [(0, 2)]
        assert report["flip_graph"]["edges"] == []
        assert report["verification"] == {"checked": True, "failures": []}
        assert report["movable_cone"] == [["0", "1"], ["1", "1"], ["1", "2"], ["0", "2"]]

    def test_bordism_bundle(self):
        report = json.loads(run_pipeline(parse_spec_dict(BORDISM_SPEC)).to_json())
        assert report["bordism"] is True
        assert len(report["chambers"]) == 6
        assert len(report["flip_graph"]["edges"]) == 6
        assert report["chain_summary"]["flips"] == 2

    def test_verification_mismatch(self):
        bad = json.loads(json.dumps(GR24_SPEC))
        bad["components"][1]["nu_plus"] = 2
        bad["components"][1]["dim"] = 1
        bundle = run_pipeline(parse_spec_dict(bad))
        assert bundle.checked
        assert bundle.failures

    def test_determinism(self):
        a = run_pipeline(parse_spec_dict(BORDISM_SPEC)).to_json()
        b = run_pipeline(parse_spec_dict(BORDISM_SPEC)).to_json()
        assert a == b

    def test_roundtrip(self):
        """Canonical bytes that read back to the same values and bytes, also
        for names the writer must escape, and for Lie specs."""
        specs = [BORDISM_SPEC, with_odd_names(BORDISM_SPEC), with_odd_names(GR24_SPEC)]
        specs += [json.loads(path.read_text()) for path in sorted(SPECS.glob("*.json"))]
        specs += [
            {"name": f"{t}{n}({node}){ODD_NAME}",
             "lie": {"type": t, "rank": n, "node": node,
                     "cocharacter": [int(k == cochar_node) for k in range(1, n + 1)]}}
            for t, n, node, cochar_node in LIE_ITEMS
        ]
        for spec in specs:
            bundle = run_pipeline(parse_spec_dict(spec))
            payload = bundle.to_json()
            assert payload == canonical(payload)
            assert reads_back(payload, bundle)

    def test_roundtrip_randomized(self):
        rng = random.Random(20240911)
        for _ in range(20):
            bundle = run_pipeline(parse_spec_dict(random_spec(rng)))
            payload = bundle.to_json()
            assert payload == canonical(payload)
            assert reads_back(payload, bundle)


# Characters of the names the writer escapes or keeps: a quote, a backslash,
# a percent sign (the escape of its own templates), control characters,
# non-ASCII text, a line separator, a lone surrogate and an astral character.
ESCAPED = '"\\%\x00\x08\t\n\x1f\x7f a\u00e9\u2028\ud800\U0001f600'
escaped_names = st.text(st.sampled_from(ESCAPED), max_size=5)


@pytest.mark.parametrize("case", sorted(CASE_ISOLATED))
@given(data=st.data())
def test_to_json_is_its_canonical_reencoding(case, data):
    """``to_json`` writes each string by hand into its templates: its bytes
    equal the ``json.dumps`` re-encoding of what they decode to, with names
    that need escaping in the spec and every component, and a sink that is
    already a divisor, whose note holds ``repr`` of its name."""
    model = data.draw(action_models(min_r=2 if case == "isolated-both" else 1, max_r=8,
                                    case=case))
    suffix = data.draw(escaped_names)
    components = [c._replace(name=c.name + suffix) for c in model.components]
    if not CASE_ISOLATED[case][0] and data.draw(st.booleans()):
        components[0] = components[0]._replace(dim=model.dim_x - 1, nu_plus=1)
    spec = {
        "name": data.draw(escaped_names),
        "dim_X": model.dim_x,
        "components": [
            {"name": c.name, "weight": str(c.weight), "dim": c.dim,
             "nu_minus": c.nu_minus, "nu_plus": c.nu_plus}
            for c in components
        ],
    }
    bundle = run_pipeline(parse_spec_dict(spec))
    payload = bundle.to_json()
    assert payload == canonical(payload)
    assert reads_back(payload, bundle)
    assert json.loads(payload)["name"] == spec["name"]


@given(item=st.sampled_from(LIE_ITEMS), name=escaped_names, mismatch=st.booleans())
def test_lie_to_json_is_its_canonical_reencoding(item, name, mismatch):
    """The same on Lie input, with an expected model whose mismatch writes
    verification failures."""
    t, n, node, cochar_node = item
    spec = {"name": name, "lie": {"type": t, "rank": n, "node": node,
                                  "cocharacter": [int(k == cochar_node) for k in range(1, n + 1)]}}
    if mismatch:
        spec = json.loads(json.dumps(GR24_SPEC))
        spec["name"] = name
        spec["components"][1].update(dim=1, nu_plus=2)
    bundle = run_pipeline(parse_spec_dict(spec))
    payload = bundle.to_json()
    assert payload == canonical(payload)
    assert reads_back(payload, bundle)
    assert bool(bundle.failures) == mismatch


# p/q with a denominator of 495 digits: with its numerator, about 990 of the
# 1000 digits a spec's rational may have.
_BIG = 10**495
big_rationals = st.builds(
    lambda p, q: (f"{p}/{q}", Fraction(p, q)),
    st.integers(-_BIG, _BIG),
    st.integers(_BIG // 10, _BIG - 1),
)


class TestLargeDenominators:
    @given(model=action_models(max_r=3), data=st.data())
    def test_round_trip(self, model, data):
        """Weights near the digit bound come out of the report exactly."""
        values = data.draw(st.lists(big_rationals, min_size=model.criticality + 1,
                                    max_size=model.criticality + 1,
                                    unique_by=lambda w: w[1]))
        values.sort(key=lambda w: w[1])
        level_of = {c.name: k for k, (_, comps) in enumerate(model.levels) for c in comps}
        spec = {
            "name": "large-denominators",
            "dim_X": model.dim_x,
            "declared_equalized": True,
            "components": [
                {"name": c.name, "weight": values[level_of[c.name]][0], "dim": c.dim,
                 "nu_minus": c.nu_minus, "nu_plus": c.nu_plus}
                for c in model.components
            ],
        }
        low, high = values[0][1], values[-1][1]
        bundle = run_pipeline(parse_spec_dict(spec))
        report = json.loads(bundle.to_json())
        assert {c["name"]: Fraction(c["weight"]) for c in report["model"]["components"]} == {
            c.name: values[level_of[c.name]][1] - low for c in model.components
        }
        assert Fraction(report["bandwidth"]) == high - low
        assert reads_back(bundle.to_json(), bundle)
        assert export(bundle, "svg").startswith(b"<svg")


class TestExport:
    def test_dot_two_graphs(self):
        payload = export(run_pipeline(parse_spec_dict(BORDISM_SPEC)), "dot").decode()
        assert payload.count("digraph") == 2
        assert '"X(0,3)" -> "X(1,3)"' in payload
        # quotient chain for r = 3: r - 1 dashed arrows, 2r diagonal ones
        quotient_part = payload.split("digraph quotient_diagram")[1]
        assert quotient_part.count("style=dashed") == 2
        assert quotient_part.count("->") - quotient_part.count("style=dashed") == 6

    def test_svg_chamber_labels(self):
        payload = export(run_pipeline(parse_spec_dict(BORDISM_SPEC)), "svg").decode()
        for i, j in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
            assert f"N_{{{i},{j}}}" in payload
        assert payload.count("<polygon") == 7  # 6 chambers + the movable outline

    def test_svg_title_escaped(self):
        spec = dict(BORDISM_SPEC, name="a<b & c")
        root = ElementTree.fromstring(export(run_pipeline(parse_spec_dict(spec)), "svg"))
        title = root.find("{http://www.w3.org/2000/svg}title")
        assert title.text == "a<b & c: movable region and chambers"

    @given(name=st.text(st.sampled_from("\x00\x01\x08\x0b\x0c\x1f\t\n\r\ufffe\uffff<&>a"
                                        "\ud800"), max_size=6))
    def test_svg_parses_for_any_name(self, name):
        """C0 controls other than tab, LF and CR, U+FFFE and U+FFFF, which XML
        1.0 forbids, and lone surrogates, which UTF-8 cannot encode, are
        written as backslash escapes, so the figure parses for any name."""
        spec = dict(BORDISM_SPEC, name=name)
        root = ElementTree.fromstring(export(run_pipeline(parse_spec_dict(spec)), "svg"))
        title = root.find("{http://www.w3.org/2000/svg}title").text
        escaped = "".join([
            "\\x%02x" % ord(c) if c < " " and c not in "\t\n\r"
            else "\\u%04x" % ord(c) if c in "\ufffe\uffff" or "\ud800" <= c <= "\udfff"
            else c for c in name
        ])
        # an XML parser reads a CR or a CR LF as one LF
        want = escaped.replace("\r\n", "\n").replace("\r", "\n")
        assert title == want + ": movable region and chambers"

    def test_unsupported(self):
        with pytest.raises(UnsupportedFormatError):
            export(run_pipeline(parse_spec_dict(GR24_SPEC)), "png")


class TestCli:
    def _write(self, tmp_path, obj, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", self._write(tmp_path, GR24_SPEC)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_parse_error_exit(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["validate", str(path)]) == 3

    def test_validation_failure_exit(self, tmp_path):
        bad = json.loads(json.dumps(BORDISM_SPEC))
        bad["components"][1]["dim"] = 7
        assert main(["validate", self._write(tmp_path, bad)]) == 2

    def test_verification_mismatch_exit(self, tmp_path):
        bad = json.loads(json.dumps(GR24_SPEC))
        bad["components"][1]["nu_plus"] = 2
        bad["components"][1]["dim"] = 1
        assert main(["validate", self._write(tmp_path, bad)]) == 4

    def test_analyze_json_out(self, tmp_path):
        out = tmp_path / "bundle.json"
        code = main(
            ["analyze", self._write(tmp_path, BORDISM_SPEC), "--format", "json", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["name"] == "bordism-r3"

    def test_export_svg(self, tmp_path):
        out = tmp_path / "fig.svg"
        code = main(
            ["export", self._write(tmp_path, BORDISM_SPEC), "--format", "svg", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("<svg")

    def test_strict_equalized(self, tmp_path):
        assert main(["validate", self._write(tmp_path, BORDISM_SPEC), "--strict-equalized"]) == 2
        assert main(["validate", self._write(tmp_path, GR24_SPEC), "--strict-equalized"]) == 0

    def test_dynkin(self, capsys):
        assert main(["dynkin", "A", "3", "--node", "2", "--cochar-node", "2"]) == 0
        out = capsys.readouterr().out
        assert "6 positive roots" in out
        assert "equalized: True" in out

    def test_catalog_listing(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "table 1" in out and "E_7(7)" in out
