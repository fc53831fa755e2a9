"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every expected value is exact; the only tolerances are the
stated runtime budgets.
"""

import functools
import json
import random
import time
from fractions import Fraction

from hypothesis import given, settings

from cstarflips.actions import blowup_extremal
from cstarflips.chambers import (
    DivisorClass,
    chamber_decomposition,
    chamber_pairs,
    chamber_polygon,
    movable_cone,
    movable_polygon,
    stable_base_locus,
)
from cstarflips.chain import MINUS
from cstarflips.modifications import build_flip_graph, flip_chain_summary, induced_action
from cstarflips.report import run_pipeline
from cstarflips.specfiles import parse_spec_dict
from conftest import (
    BORDISM_R2_ROWS,
    GR24_ROWS,
    action_models,
    model_from_rows,
    synthetic_case_model,
)


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d}: FAIL — {title}")
                raise
            print(f"criterion {number:2d}: PASS — {title}")
            return result

        return wrapper

    return deco


def _f(x):
    return Fraction(x)


@criterion(1, "movable-cone generator lists in all four extremal cases, < 1 ms each")
def test_criterion_1_movable_cone_cases():
    expectations = {
        "bordism": lambda a: [(0, 0), (a[-1], a[-1]), (0, a[-1])],
        "isolated-sink": lambda a: [(0, a[1]), (a[1], a[1]), (a[-1], a[-1]), (0, a[-1])],
        "isolated-source": lambda a: [(0, 0), (a[-2], a[-2]), (a[-2], a[-1]), (0, a[-1])],
        "isolated-both": lambda a: [
            (0, a[1]),
            (a[1], a[1]),
            (a[-2], a[-2]),
            (a[-2], a[-1]),
            (0, a[-1]),
        ],
    }
    for case, expect in expectations.items():
        flat = blowup_extremal(synthetic_case_model(case, r=3))
        a = flat.critical_values
        want = [DivisorClass(_f(x), _f(y)) for x, y in expect(a)]
        best = min(
            _timed(lambda: movable_cone(flat))[1] for _ in range(5)
        )
        assert movable_cone(flat) == want, case
        assert best < 0.001, f"{case}: {best * 1000:.3f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


@criterion(2, "undivided quadrilateral for the balanced Grassmannian; r=2 bordism slice")
def test_criterion_2_figure_five():
    quad = blowup_extremal(model_from_rows(GR24_ROWS, 4))
    assert movable_polygon(quad) == ((0, 1), (1, 1), (1, 2), (0, 2))
    assert chamber_pairs(quad) == [(0, 2)]
    assert chamber_polygon(quad, (0, 2)) == ((0, 1), (1, 1), (1, 2), (0, 2))

    adjoint = blowup_extremal(model_from_rows(BORDISM_R2_ROWS, 6))
    assert sorted(chamber_pairs(adjoint)) == [(0, 1), (0, 2), (1, 2)]
    assert movable_polygon(adjoint) == ((0, 0), (2, 2), (0, 2))
    graph = build_flip_graph(adjoint)
    nef = graph.node((0, 2)).nef_polygon
    assert nef == chamber_polygon(adjoint, (0, 2)) == ((0, 1), (1, 1), (1, 2), (0, 2))
    assert chamber_polygon(adjoint, (0, 1)) == ((0, 0), (1, 1), (0, 1))
    assert chamber_polygon(adjoint, (1, 2)) == ((1, 1), (2, 2), (1, 2))


@criterion(3, "chamber counts for r <= 6, all four cases, vs denominator-12 grid oracle, < 1 s")
def test_criterion_3_chamber_counts():
    t0 = time.perf_counter()
    bordism_r3 = blowup_extremal(synthetic_case_model("bordism", r=3))
    assert sorted(chamber_pairs(bordism_r3)) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]
    for r in range(2, 7):
        for case in ("bordism", "isolated-sink", "isolated-source", "isolated-both"):
            flat = blowup_extremal(synthetic_case_model(case, r=r))
            a = flat.critical_values
            delta = int(a[-1])
            expected = r * (r + 1) // 2
            sink_pt = case in ("isolated-sink", "isolated-both")
            source_pt = case in ("isolated-source", "isolated-both")
            expected -= int(sink_pt) + int(source_pt)
            signatures = set()
            for p in range(1, 12 * delta):
                if p % 12 == 0:
                    continue
                x = Fraction(p, 12)
                if sink_pt and x < a[1]:
                    lo = 12 * int(a[1])
                else:
                    lo = p
                for q in range(lo + 1, 12 * delta):
                    if q % 12 == 0:
                        continue
                    y = Fraction(q, 12)
                    if sink_pt and y < a[1]:
                        continue
                    if source_pt and x > a[-2]:
                        continue
                    b = stable_base_locus(flat, x, y)
                    signatures.add((b.plus_levels, b.minus_levels))
            assert len(signatures) == expected == len(chamber_decomposition(flat)), (r, case)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"{elapsed:.2f} s"


@criterion(4, "stable base locus constant on chamber interiors, changing across walls")
def test_criterion_4_sbl_equals_mori():
    rng = random.Random(1729)
    for case, r in (("bordism", 3), ("isolated-both", 4)):
        flat = blowup_extremal(synthetic_case_model(case, r=r))
        a = flat.critical_values
        for (i, j) in chamber_pairs(flat):
            baseline = None
            for _ in range(1000):
                den = rng.randint(2, 97)
                x = a[i] + Fraction(rng.randint(1, den - 1), den)
                hi, lo = a[j], a[j - 1]
                y = lo + Fraction(rng.randint(1, den - 1), den) * (hi - lo)
                if not x < y:
                    x, y = min(x, y), max(x, y)
                    if x == y or x <= a[i] or x >= a[i + 1] or y <= a[j - 1] or y >= a[j]:
                        continue
                b = stable_base_locus(flat, x, y)
                key = (b.plus_levels, b.minus_levels)
                if baseline is None:
                    baseline = key
                assert key == baseline, (i, j)
        # every wall between adjacent chambers changes the locus
        pairs = set(chamber_pairs(flat))
        eps = Fraction(1, 24)
        for (i, j) in pairs:
            if (i + 1, j) in pairs:
                left = stable_base_locus(flat, a[i + 1] - eps, a[j] - eps)
                right = stable_base_locus(flat, a[i + 1] + eps, a[j] - eps)
                assert (left.plus_levels, left.minus_levels) != (
                    right.plus_levels,
                    right.minus_levels,
                )
            if (i, j - 1) in pairs:
                below = stable_base_locus(flat, a[i] + eps, a[j - 1] - eps)
                above = stable_base_locus(flat, a[i] + eps, a[j - 1] + eps)
                assert (below.plus_levels, below.minus_levels) != (
                    above.plus_levels,
                    above.minus_levels,
                )


@settings(max_examples=200, deadline=None)
@given(action_models(max_r=5))
def _flip_bookkeeping_body(model):
    flat = blowup_extremal(model)
    graph = build_flip_graph(flat)
    models = {n.pair: induced_action(flat, n.pair) for n in graph.nodes}
    for e in graph.edges:
        assert models[e.to_pair].criticality == models[e.from_pair].criticality - 1
        lo, hi = max(e.from_pair[0], e.to_pair[0]), min(e.from_pair[1], e.to_pair[1])
        surviving = {c.name: c for c in models[e.to_pair].inner_components}
        for k in range(lo + 1, hi):
            for c in flat.level_components(k):
                kept = surviving[c.name]
                assert (kept.dim, kept.nu_minus, kept.nu_plus) == (c.dim, c.nu_minus, c.nu_plus)
        for center in e.centers:
            comp = next(c for c in flat.level_components(e.level) if c.name == center.component)
            if e.direction == MINUS:
                assert center.center_dim == comp.dim + comp.nu_plus
                assert center.flipped_dim == comp.dim + comp.nu_minus - 1
            else:
                assert center.center_dim == comp.dim + comp.nu_minus
                assert center.flipped_dim == comp.dim + comp.nu_plus - 1


@criterion(5, "flip bookkeeping (criticality, inner components, center/flipped dims), 200 random models")
def test_criterion_5_flip_bookkeeping():
    _flip_bookkeeping_body()


@criterion(6, "catalog rows of the bandwidth-2 and bandwidth-3 tables, non-exceptional types < 30 s")
def test_criterion_6_catalog_rows():
    from cstarflips.lie.catalog import table2_rows, table3_rows, verify_row

    by_family = {row.family: row for row in table2_rows() + table3_rows()}
    t0 = time.perf_counter()
    classical = []
    classical += [by_family["B_m(2)"].instantiate(m) for m in range(3, 7)]
    classical += [by_family["D_m(2) [node 1]"].instantiate(m) for m in range(4, 7)]
    classical += [by_family["D_m(2) [nodes m-1, m]"].instantiate(m) for m in range(4, 7)]
    classical += [
        by_family["A_5(3)"].instantiate(),
        by_family["C_3(3)"].instantiate(),
        by_family["D_6(6)"].instantiate(),
    ]
    for inst in classical:
        v = verify_row(inst)
        assert v.ok, (inst.family, inst.rank, v.failures)
        assert v.signatures_equal in (None, True)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.1f} s"
    # E-type rows, gated by the coset cap rather than the time budget
    for family in ("E_6(2)", "E_7(1)", "E_7(7)"):
        v = verify_row(by_family[family].instantiate(), max_cosets=100_000)
        assert v.ok, (family, v.failures)


@criterion(7, "closed-form Grassmannian data equals coset enumeration for all n <= 7")
def test_criterion_7_grassmannian_closed_form():
    from conftest import grassmannian_action, grassmannian_model

    checked = 0
    for n in range(1, 8):
        for k in range(1, (n + 1) // 2 + 1):
            for i in range(1, k + 1):
                ref = grassmannian_model(n, i, k)
                enum = grassmannian_action(n, i, k).model
                assert ref.dim_x == enum.dim_x
                assert [
                    (c.weight, c.dim, c.nu_minus, c.nu_plus) for c in ref.components
                ] == [(c.weight, c.dim, c.nu_minus, c.nu_plus) for c in enum.components], (n, i, k)
                checked += 1
    assert checked == sum(
        k for n in range(1, 8) for k in range(1, (n + 1) // 2 + 1)
    )


@criterion(8, "short grading implies equalized, exhaustively on types A-D of rank <= 6")
def test_criterion_8_short_implies_equalized():
    from cstarflips.lie.homogeneous import HomogeneousSpace, build_action
    from cstarflips.lie.roots import build_root_system, fundamental_cocharacter, grading

    ranks = {"A": range(1, 7), "B": range(2, 7), "C": range(2, 7), "D": range(3, 7)}
    checked = 0
    for dynkin_type, rr in ranks.items():
        for n in rr:
            datum = build_root_system(dynkin_type, n)
            for k in range(1, n + 1):
                if not grading(datum, fundamental_cocharacter(n, k)).is_short:
                    continue
                for node in range(1, n + 1):
                    res = build_action(
                        HomogeneousSpace(datum, node), fundamental_cocharacter(n, k)
                    )
                    assert res.equalized, (dynkin_type, n, k, node)
                    checked += 1
    assert checked > 100


@criterion(9, "negating the cocharacter reverses levels and swaps the nu ranks")
def test_criterion_9_inversion_symmetry():
    from cstarflips.lie.catalog import table2_rows, table3_rows
    from cstarflips.lie.homogeneous import HomogeneousSpace, build_action
    from cstarflips.lie.roots import build_root_system, fundamental_cocharacter
    from conftest import grassmannian_action

    corpus = []
    for n in range(2, 6):
        for k in range(1, (n + 1) // 2 + 1):
            for i in range(1, k + 1):
                datum = build_root_system("A", n)
                corpus.append((HomogeneousSpace(datum, i), fundamental_cocharacter(n, k)))
    for row in table2_rows() + table3_rows():
        if row.family.startswith("E"):
            continue
        inst = row.instantiate(row.min_rank if row.parameter else None)
        datum = build_root_system(inst.dynkin_type, inst.rank)
        for g in inst.grading_nodes:
            corpus.append(
                (HomogeneousSpace(datum, inst.marked_node), fundamental_cocharacter(inst.rank, g))
            )
    for space, cochar in corpus:
        plus = build_action(space, cochar).model
        minus = build_action(space, tuple(-x for x in cochar)).model
        delta = plus.bandwidth
        fwd = sorted((c.weight, c.dim, c.nu_minus, c.nu_plus) for c in plus.components)
        mirrored = sorted(
            (delta - c.weight, c.dim, c.nu_plus, c.nu_minus) for c in minus.components
        )
        assert fwd == mirrored, space.label


@criterion(10, "balanced Grassmannian chain: blowup + (n+1)/2 - 2 flips + blowdown")
def test_criterion_10_factorization_counts():
    from conftest import grassmannian_action

    for n in (3, 5, 7):
        k = (n + 1) // 2
        flat = blowup_extremal(grassmannian_action(n, k, k).model)
        summary = flip_chain_summary(flat)
        r = flat.criticality
        assert r == k
        assert summary.chain_arrows == r - 1
        assert summary.left == summary.right == "divisorial"
        assert (summary.blowups, summary.blowdowns) == (1, 1)
        assert summary.flips == (n + 1) // 2 - 2


@criterion(11, "byte-identical exports and export/parse round trips on 50 randomized bundles")
def test_criterion_11_determinism_roundtrip():
    from test_report_export import canonical, random_spec, reads_back

    rng = random.Random(424242)
    for _ in range(50):
        obj = random_spec(rng)
        first = run_pipeline(parse_spec_dict(obj))
        second = run_pipeline(parse_spec_dict(json.loads(json.dumps(obj))))
        assert first.to_json() == second.to_json()
        payload = first.to_json()
        assert payload == canonical(payload)
        assert reads_back(payload, first)
