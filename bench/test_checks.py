"""Tests of the benchmark's output checks.

    python3 -m pytest bench/test_checks.py

Each check must accept the program's real output and reject a tampered copy
of it, so that no check passes vacuously.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
from checks import CheckError  # noqa: E402
from cstarflips.export import export  # noqa: E402
from cstarflips.report import run_pipeline  # noqa: E402
from cstarflips.specfiles import parse_spec_dict  # noqa: E402


def pipeline(spec: dict):
    return run_pipeline(parse_spec_dict(spec))


def report_of(spec: dict) -> dict:
    return json.loads(pipeline(spec).to_json())


@pytest.fixture(scope="module")
def chain():
    """A criticality-6 chain with at least one obstruction."""
    rng = random.Random(7)
    for _ in range(50):
        spec = corpus.chain_spec(rng, "t", 6, "isolated-sink")
        report = report_of(spec)
        if report["flip_graph"]["obstructions"]:
            return spec, report
    raise AssertionError("no obstructed chain generated")


def chain_input(spec):
    return checks.ChainInput(spec["components"], spec["dim_X"])


def lie_spec(t, n, node, k, sign=1):
    cochar = [0] * n
    cochar[k - 1] = sign
    return {"name": f"{t}{n}", "lie": {"type": t, "rank": n, "node": node, "cocharacter": cochar}}


# -- the untampered outputs pass -------------------------------------------


def test_chain_passes(chain):
    spec, report = chain
    checks.check_chain(report, chain_input(spec), "chain")


@pytest.mark.parametrize("item", corpus.LIE_ITEMS[:9])
def test_lie_items_pass(item):
    plus, minus = (report_of(lie_spec(*item, sign)) for sign in (1, -1))
    for sign, report in ((1, plus), (-1, minus)):
        checks.check_lie(report, lie_spec(*item, sign)["lie"], "lie")
        checks.check_chain(report, checks.chain_from_report_model(report), "lie")
    checks.check_negation(plus, minus, "lie")


def test_cli_formats_pass(chain):
    spec, _ = chain
    bundle = pipeline(spec)
    checks.check_svg(export(bundle, "svg"), chain_input(spec), "svg")
    checks.check_dot(export(bundle, "dot"), chain_input(spec), "dot")


# -- tampered outputs are rejected -----------------------------------------


def _rejects(fn, *args):
    with pytest.raises(CheckError):
        fn(*args)


def test_dropped_chamber(chain):
    spec, report = chain
    bad = copy.deepcopy(report)
    del bad["chambers"][len(bad["chambers"]) // 2]
    _rejects(checks.check_chain, bad, chain_input(spec), "chain")


def test_moved_chamber_vertex(chain):
    spec, report = chain
    bad = copy.deepcopy(report)
    x, y = bad["chambers"][-1]["polygon"][0]
    bad["chambers"][-1]["polygon"][0] = [x, str(checks.Fraction(y) + 1)]
    _rejects(checks.check_chain, bad, chain_input(spec), "chain")


def test_swapped_nu_ranks_in_chain(chain):
    spec, report = chain
    bad = copy.deepcopy(report)
    comp = next(c for c in bad["model"]["components"] if c["nu_minus"] != c["nu_plus"])
    comp["nu_minus"], comp["nu_plus"] = comp["nu_plus"], comp["nu_minus"]
    _rejects(checks.check_chain, bad, chain_input(spec), "chain")


def test_swapped_nu_ranks_in_input_flips(chain):
    """Checking the report against swapped input ranks changes the flip
    inequality's verdict, so the edges no longer match."""
    spec, report = chain
    bad = copy.deepcopy(spec)
    for c in bad["components"]:
        c["nu_minus"], c["nu_plus"] = c["nu_plus"], c["nu_minus"]
    _rejects(checks.check_chain, report, chain_input(bad), "chain")


def test_removed_obstruction(chain):
    spec, report = chain
    bad = copy.deepcopy(report)
    bad["flip_graph"]["obstructions"].pop()
    _rejects(checks.check_chain, bad, chain_input(spec), "chain")


def test_obstruction_turned_into_edge(chain):
    spec, report = chain
    bad = copy.deepcopy(report)
    o = bad["flip_graph"]["obstructions"].pop()
    bad["flip_graph"]["edges"].append(
        {"from": o["from"], "to": o["to"], "direction": o["direction"], "level": o["level"],
         "centers": []}
    )
    _rejects(checks.check_chain, bad, chain_input(spec), "chain")


def test_wrong_center_dim(chain):
    spec, report = chain
    bad = copy.deepcopy(report)
    bad["flip_graph"]["edges"][0]["centers"][0]["flipped_dim"] += 1
    _rejects(checks.check_chain, bad, chain_input(spec), "chain")


def test_wrong_quotient_shape_and_flips(chain):
    spec, report = chain
    bad = copy.deepcopy(report)
    bad["quotients"]["dashed_arrows"].pop()
    _rejects(checks.check_chain, bad, chain_input(spec), "chain")
    bad = copy.deepcopy(report)
    bad["chain_summary"]["flips"] += 1
    _rejects(checks.check_chain, bad, chain_input(spec), "chain")


def test_wrong_fixed_point_count():
    spec = lie_spec("D", 5, 5, 5)
    bad = report_of(spec)
    bad["lie"]["fixed_points"] += 1
    _rejects(checks.check_lie, bad, spec["lie"], "lie")


def test_swapped_nu_ranks_grassmannian():
    spec = lie_spec("A", 5, 3, 3)
    bad = report_of(spec)
    comp = next(c for c in bad["model"]["components"] if c["nu_minus"] != c["nu_plus"])
    comp["nu_minus"], comp["nu_plus"] = comp["nu_plus"], comp["nu_minus"]
    _rejects(checks.check_lie, bad, spec["lie"], "lie")


def test_swapped_nu_ranks_break_negation():
    plus, minus = (report_of(lie_spec("C", 4, 4, 4, s)) for s in (1, -1))
    comp = next(c for c in minus["model"]["components"] if c["nu_minus"] != c["nu_plus"])
    comp["nu_minus"], comp["nu_plus"] = comp["nu_plus"], comp["nu_minus"]
    _rejects(checks.check_negation, plus, minus, "lie")


def test_wrong_dimension_and_shortness():
    spec = lie_spec("E", 6, 1, 6)
    bad = report_of(spec)
    bad["model"]["dim_X"] += 1
    _rejects(checks.check_lie, bad, spec["lie"], "lie")
    bad = report_of(spec)
    bad["lie"]["is_short"] = False
    _rejects(checks.check_lie, bad, spec["lie"], "lie")


def test_verification_failure_is_rejected():
    spec = lie_spec("A", 3, 2, 2)
    bad = report_of(spec)
    bad["verification"]["failures"] = ["level 1: mismatch"]
    _rejects(checks.check_lie, bad, spec["lie"], "lie")


def test_tampered_cli_outputs(chain):
    spec, _ = chain
    bundle = pipeline(spec)
    svg = export(bundle, "svg").decode()
    cut = svg.index("<polygon")
    bad_svg = svg[:cut] + svg[svg.index("\n", cut) + 1:]
    _rejects(checks.check_svg, bad_svg.encode(), chain_input(spec), "svg")
    dot = export(bundle, "dot").decode().splitlines()
    node = next(k for k, ln in enumerate(dot) if ln.startswith('  "X(') and "->" not in ln)
    bad_dot = "\n".join(dot[:node] + dot[node + 1:]).encode()
    _rejects(checks.check_dot, bad_dot, chain_input(spec), "dot")
    text = "== t ==\nchambers (1): (0,1)\nflip edges: 0  obstructions: 0\n+ 0 flip(s)\n"
    _rejects(checks.check_analyze_text, text, [chain_input(spec)], "text")


# -- the checkers' own formulas against textbook values --------------------


@pytest.mark.parametrize(
    "datum, points, dim",
    [
        (("A", 3, 2), 6, 4),
        (("B", 4, 1), 8, 7),
        (("C", 4, 4), 16, 10),
        (("D", 5, 5), 16, 10),
        (("D", 6, 3), 160, 21),
        (("E", 6, 1), 27, 16),
        (("E", 7, 7), 56, 27),
        (("E", 7, 1), 126, 33),
        (("E", 8, 8), 240, 57),
        (("F", 4, 1), 24, 15),
        (("G", 2, 1), 6, 5),
    ],
)
def test_flag_data(datum, points, dim):
    assert checks.flag_data(*datum) == (points, dim)


def test_grassmannian_closed_form_counts_points():
    """The closed form's components are products of Grassmannians whose
    Euler characteristics add up to binomial(n+1, i)."""
    from math import comb

    for n in range(1, 8):
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                rows = checks.grassmannian_levels(n, i, k, 1)
                assert all(d + dn + up == i * (n + 1 - i) for _, d, dn, up in rows)
                lo = max(0, i - k)
                total = sum(comb(k, i - j) * comb(n + 1 - k, j) for j in range(lo, lo + len(rows)))
                assert total == comb(n + 1, i)
