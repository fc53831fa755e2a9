import collections
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cstarflips import chambers, modifications
from cstarflips.actions import (
    ActionModel, blowup_extremal, index_set_i, is_bordism, level_signature)
from cstarflips.chambers import (
    DivisorClass,
    chamber_decomposition,
    chamber_pairs,
    chamber_polygon,
    locate_chamber,
    relevant_curves,
)
from cstarflips.chain import MINUS, PLUS
from cstarflips.modifications import (
    NotAChamberError,
    build_flip_graph,
    flip_chain_summary,
    induced_action,
    p1_bundle_models,
    quotient_diagram,
)
from cstarflips.report import run_pipeline
from cstarflips.specfiles import parse_spec_dict
from conftest import CASE_ISOLATED, action_models, model_from_rows, synthetic_case_model
from test_report_golden import _model_spec


class TestInducedAction:
    @given(data=st.data())
    def test_identity_pair(self, data):
        """Wherever (0, r) is a chamber, X(0, r) is the flat model with its
        extremes renamed and weight offset 0: components, origin dims and
        equalization fields all agree, in every extremal case."""
        for case in sorted(CASE_ISOLATED):
            model = data.draw(action_models(min_r=1, case=case), label=case)._replace(
                equalized=data.draw(st.booleans()),
                equalization_source=data.draw(st.sampled_from(["declared", "tangent-weights"])),
                weight_offset=data.draw(st.fractions(-3, 3)),
            )
            flat = blowup_extremal(model)
            carried = ("equalized", "equalization_source", "weight_offset")
            assert [getattr(flat, f) for f in carried] == [getattr(model, f) for f in carried]
            r = flat.criticality
            if (0, r) not in chamber_pairs(flat):
                continue
            renamed = (
                (flat.critical_values[0], (flat.sink._replace(name="GX(0,1)"),)),
                *flat.levels[1:-1],
                (flat.bandwidth, (flat.source._replace(name=f"GX({r - 1},{r})"),)),
            )
            assert induced_action(flat, (0, r)) == flat._replace(
                levels=renamed, weight_offset=0
            )

    def test_r2_bordism_corner(self, bordism_r2_flat):
        m = induced_action(bordism_r2_flat, (1, 2))
        assert m.criticality == 1
        assert m.inner_components == ()
        assert m.sink.name == "GX(1,2)"

    def test_weight_shift(self, bordism_r3_flat):
        m = induced_action(bordism_r3_flat, (1, 3))
        assert m.criticality == 2
        inner = m.inner_components
        assert [c.name for c in inner] == ["M2"]
        assert inner[0].weight == 1  # a_2 - a_1
        orig = bordism_r3_flat.level_components(2)[0]
        assert (inner[0].dim, inner[0].nu_minus, inner[0].nu_plus) == (
            orig.dim,
            orig.nu_minus,
            orig.nu_plus,
        )

    def test_not_a_chamber(self, a42_flat):
        with pytest.raises(NotAChamberError):
            induced_action(a42_flat, (0, 1))

    def test_listed_pair(self):
        flat = blowup_extremal(synthetic_case_model("isolated-sink", r=3))
        assert induced_action(flat, [0, 2]) == induced_action(flat, (0, 2))

    def test_origin_dims(self, a42_flat):
        assert induced_action(a42_flat, (0, 2)).origin_dims() == (0, 2)
        assert induced_action(a42_flat, (1, 2)).origin_dims() == (5, 2)

    @pytest.mark.parametrize("case", sorted(CASE_ISOLATED))
    @given(data=st.data())
    def test_sub_rectangle(self, case, data):
        """X(i, j) goes back through the pipeline: its chambers, index set and
        semigeometric quotients are those of the flat model inside [i, j],
        shifted by i."""
        flat = blowup_extremal(data.draw(action_models(max_r=7, case=case)))
        r = flat.criticality
        sink_point, source_point = flat.isolated_extremes()
        chambers = chamber_pairs(flat)
        semi_dims = [q.dim for q in quotient_diagram(flat).semigeometric]
        for i, j in chambers:
            sub = induced_action(flat, (i, j))
            assert [(p + i, q + i) for p, q in chamber_pairs(sub)] == [
                (p, q) for p, q in chambers if i <= p and q <= j
            ]
            assert {k + i for k in index_set_i(sub)} == {
                k for k in index_set_i(flat) if i <= k < j
            }
            assert [q.dim for q in quotient_diagram(sub).semigeometric] == semi_dims[i : j + 1]
            assert sub.isolated_extremes() == (i == 0 and sink_point, j == r and source_point)
            assert is_bordism(sub) == (not any(sub.isolated_extremes()))

    @pytest.mark.parametrize("case", sorted(CASE_ISOLATED))
    @given(data=st.data())
    def test_flip_graph_self_similar(self, case, data):
        """The flip graph of X(i, j), shifted by i, is the flat model's inside
        [i, j]: the same edges with the same centers, the same obstructions."""
        flat = blowup_extremal(data.draw(action_models(max_r=7, case=case)))
        graph = build_flip_graph(flat)

        def inside(moves, i, j):
            return [m for m in moves if i <= m.from_pair[0] and m.from_pair[1] <= j
                    and i <= m.to_pair[0] and m.to_pair[1] <= j]

        def shifted(moves, i):
            return [m._replace(from_pair=(m.from_pair[0] + i, m.from_pair[1] + i),
                               to_pair=(m.to_pair[0] + i, m.to_pair[1] + i), level=m.level + i)
                    for m in moves]

        for i, j in chamber_pairs(flat):
            sub = build_flip_graph(induced_action(flat, (i, j)))
            assert shifted(sub.edges, i) == inside(graph.edges, i, j)
            assert shifted(sub.obstructions, i) == inside(graph.obstructions, i, j)

    def test_bordism_verdict_ignores_inner_ranks(self):
        """With origin dims recorded, X(i, j) of a bordism counts as a bordism
        even where an inner component has nu_minus = 1; the same components
        without origin dims do not (is_bordism then reads the inner ranks)."""
        rows = [("S", 0, 3, 0, 5), ("M1", 1, 2, 2, 4), ("M2", 2, 3, 1, 4), ("T", 3, 4, 4, 0)]
        flat = blowup_extremal(model_from_rows(rows, 8))
        for pair in ((0, 3), (1, 3)):
            sub = induced_action(flat, pair)
            assert is_bordism(sub)
            assert not is_bordism(sub._replace(sink_origin_dim=None, source_origin_dim=None))


class TestFlipGraph:
    def test_bordism_r3_grid(self, bordism_r3_flat):
        g = build_flip_graph(bordism_r3_flat)
        assert sorted(n.pair for n in g.nodes) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        edges = sorted((e.from_pair, e.to_pair) for e in g.edges)
        assert edges == [
            ((0, 2), (0, 1)),
            ((0, 2), (1, 2)),
            ((0, 3), (0, 2)),
            ((0, 3), (1, 3)),
            ((1, 3), (1, 2)),
            ((1, 3), (2, 3)),
        ]
        assert g.obstructions == ()
        # edges connect chambers sharing a wall
        for e in g.edges:
            shared = set(chamber_polygon(bordism_r3_flat, e.from_pair)) & set(
                chamber_polygon(bordism_r3_flat, e.to_pair)
            )
            assert len(shared) == 2

    def test_gr24_single_node(self, gr24_flat):
        g = build_flip_graph(gr24_flat)
        assert [n.pair for n in g.nodes] == [(0, 2)]
        assert g.edges == ()

    def test_r2_bordism_two_edges(self, bordism_r2_flat):
        g = build_flip_graph(bordism_r2_flat)
        assert sorted(n.pair for n in g.nodes) == [(0, 1), (0, 2), (1, 2)]
        assert sorted((e.from_pair, e.to_pair) for e in g.edges) == [
            ((0, 2), (0, 1)),
            ((0, 2), (1, 2)),
        ]

    def test_a42_gate(self, a42_flat):
        """The step toward (1,2) is legal; (0,1) is not even a chamber."""
        g = build_flip_graph(a42_flat)
        assert [(e.from_pair, e.to_pair, e.direction) for e in g.edges] == [
            ((0, 2), (1, 2), PLUS)
        ]
        (edge,) = g.edges
        (center,) = edge.centers
        # level 1: dim 3, nu_minus 1, nu_plus 2
        assert center.center_dim == 4 and center.flipped_dim == 4

    def test_node_lookup(self, a42_flat):
        g = build_flip_graph(a42_flat)
        assert g.node((0, 2)).pair == (0, 2)
        for pair in ((0, 1), (2, 3), (1, 1), (0, 3), (-1, 2), (0, 2, 3), "02"):
            with pytest.raises(NotAChamberError):
                g.node(pair)

    def test_node_of_a_listed_pair(self):
        flat = blowup_extremal(synthetic_case_model("isolated-sink", r=3))
        g = build_flip_graph(flat)
        assert g.node([0, 2]) == g.node((0, 2)) == g.nodes[0]

    @pytest.mark.parametrize("case", sorted(CASE_ISOLATED))
    def test_edges_of_one_flip_share_its_centers(self, case):
        """Every edge at one (direction, level) holds the same tuple of
        centers, equal to the one built from the level's components."""
        flat = blowup_extremal(synthetic_case_model(case, r=6))
        by_flip = collections.defaultdict(list)
        for e in build_flip_graph(flat).edges:
            by_flip[e.direction, e.level].append(e.centers)
        assert max(map(len, by_flip.values())) > 1
        for (direction, level), centers in by_flip.items():
            nu = "nu_minus" if direction == PLUS else "nu_plus"
            other = "nu_plus" if direction == PLUS else "nu_minus"
            assert centers[0] == tuple(
                (c.name, c.dim, c.dim + getattr(c, nu), c.dim + getattr(c, other) - 1)
                for c in flat.level_components(level))
            assert all(c is centers[0] for c in centers)

    def test_nef_attachment(self, bordism_r3_flat):
        g = build_flip_graph(bordism_r3_flat)
        for node in g.nodes:
            assert node.nef_polygon == chamber_polygon(bordism_r3_flat, node.pair)

    @given(action_models())
    def test_flip_bookkeeping(self, model):
        """Criticality drops by one, inner components are copied bit-exactly,
        and center/flipped dims follow the nu bookkeeping on every edge."""
        flat = blowup_extremal(model)
        g = build_flip_graph(flat)
        models = {n.pair: induced_action(flat, n.pair) for n in g.nodes}
        for e in g.edges:
            src, dst = models[e.from_pair], models[e.to_pair]
            assert dst.criticality == src.criticality - 1
            lo = max(e.from_pair[0], e.to_pair[0])
            hi = min(e.from_pair[1], e.to_pair[1])
            kept = tuple(
                c
                for k in range(lo + 1, hi)
                for c in flat.level_components(k)
            )
            surviving = {c.name: c for c in dst.inner_components}
            for c in kept:
                target = surviving[c.name]
                assert (target.dim, target.nu_minus, target.nu_plus) == (
                    c.dim,
                    c.nu_minus,
                    c.nu_plus,
                )
            for center in e.centers:
                comp = next(
                    c for c in flat.level_components(e.level) if c.name == center.component
                )
                if e.direction == MINUS:
                    assert center.center_dim == comp.dim + comp.nu_plus
                    assert center.flipped_dim == comp.dim + comp.nu_minus - 1
                    assert comp.nu_minus > 1
                else:
                    assert center.center_dim == comp.dim + comp.nu_minus
                    assert center.flipped_dim == comp.dim + comp.nu_plus - 1
                    assert comp.nu_plus > 1
                # exceptional divisor of the resolving blowup: the fiber
                # product of center and flipped locus over Y has dim X - 1
                assert center.center_dim + center.flipped_dim - comp.dim == flat.dim_x - 1

    @given(action_models())
    def test_commutation(self, model):
        """Both orders of a plus and a minus step reach the same node: flipping
        X(i, j) plus then minus, or minus then plus, gives X(i+1, j-1)."""
        flat = blowup_extremal(model)
        pairs = set(chamber_pairs(flat))
        g = build_flip_graph(flat)
        legal = {(e.from_pair, e.to_pair) for e in g.edges}
        for (i, j) in pairs:
            corner = (i + 1, j - 1)
            via_plus = ((i, j), (i + 1, j)) in legal and ((i + 1, j), corner) in legal
            via_minus = ((i, j), (i, j - 1)) in legal and ((i, j - 1), corner) in legal
            if via_plus and via_minus:
                x, n = induced_action(flat, (i, j)), j - i
                path_a = induced_action(induced_action(x, (1, n)), (0, n - 2))
                path_b = induced_action(induced_action(x, (0, n - 1)), (1, n - 1))
                direct = induced_action(flat, corner)
                for m in (path_a, path_b):
                    assert level_signature(m) == level_signature(direct)
                    assert m.inner_components == direct.inner_components
                    assert m.origin_dims() == direct.origin_dims()

    @given(action_models())
    def test_node_count_formula(self, model):
        flat = blowup_extremal(model)
        g = build_flip_graph(flat)
        r = flat.criticality
        expected = r * (r + 1) // 2 - (model.sink.dim == 0) - (model.source.dim == 0)
        assert len(g.nodes) == expected


def _chain_report(case, r):
    return run_pipeline(parse_spec_dict(_model_spec(f"{case}-r{r}", synthetic_case_model(case, r))))


class TestLongChains:
    """The report reads the chamber pairs and the levels of the flat model
    only; it builds no X(i, j), so its cost follows its size."""

    @pytest.mark.parametrize("case", sorted(CASE_ISOLATED))
    def test_report_builds_no_node_model(self, case, monkeypatch):
        expected = _chain_report(case, 8).to_json()

        def refuse(model, pair):
            raise AssertionError(f"X{pair} built")

        monkeypatch.setattr(modifications, "induced_action", refuse)
        assert _chain_report(case, 8).to_json() == expected

    @pytest.mark.parametrize("case", sorted(CASE_ISOLATED))
    def test_criticality_160(self, case):
        r = 160
        report = json.loads(_chain_report(case, r).to_json())
        chambers = [tuple(c["pair"]) for c in report["chambers"]]
        assert len(chambers) == r * (r + 1) // 2 - sum(CASE_ISOLATED[case])
        nodes = [tuple(n) for n in report["flip_graph"]["nodes"]]
        assert sorted(nodes) == sorted(chambers) and len(set(nodes)) == len(nodes)
        pairs = set(chambers)
        moves = sum(((i + 1, j) in pairs) + ((i, j - 1) in pairs) for i, j in pairs)
        fg = report["flip_graph"]
        assert len(fg["edges"]) + len(fg["obstructions"]) == moves

    @pytest.mark.parametrize("case", sorted(CASE_ISOLATED))
    def test_views_read_the_rows_once(self, case, monkeypatch):
        """On the r = 160 chain, the views that list the chambers read the
        critical values at most once a call, not once a chamber (12,880
        times), and ``induced_action`` and ``locate_chamber`` check a pair
        against its row without listing the chamber pairs."""
        flat = blowup_extremal(synthetic_case_model(case, r=160))
        reads = collections.Counter()

        def counted(model, original=ActionModel.critical_values.fget):
            reads["critical_values"] += 1
            return original(model)

        def refuse(model):
            raise AssertionError("chamber_pairs listed")

        monkeypatch.setattr(ActionModel, "critical_values", property(counted))
        for module in (chambers, modifications):
            monkeypatch.setattr(module, "chamber_pairs", refuse)
        for view in (chamber_decomposition, build_flip_graph, p1_bundle_models):
            reads.clear()
            view(flat)
            assert reads["critical_values"] <= 1, view.__name__
        assert induced_action(flat, (40, 120)).criticality == 80
        for x, y in ((Fraction(81, 2), Fraction(241, 2)), (40, Fraction(241, 2)), (40, 120)):
            assert locate_chamber(flat, DivisorClass(x, y)).chambers

    @pytest.mark.parametrize("case", sorted(CASE_ISOLATED))
    def test_flip_records_where_moves_use_them(self, case):
        """The chain holds a flip record at a level just where a move of
        its direction shifts that level: minus at j - 1 for a minus move out
        of (i, j), plus at i + 1 for a plus move out of row i."""
        for r in range(1 + (case == "isolated-both"), 40):
            chain = _chain_report(case, r).chain
            minus_levels = {j - 1 for minus, _ in chain.moves for j in minus}
            plus_levels = {i + 1 for i, (_, plus) in enumerate(chain.moves) if plus}
            assert {k for k, flip in enumerate(chain.minus) if flip} == minus_levels
            assert {k for k, flip in enumerate(chain.plus) if flip} == plus_levels


class TestReducibleLevels:
    """Product of a line with a quadric fourfold: bandwidth three, both inner
    levels a disjoint union of a point and a surface quadric."""

    @pytest.fixture
    def product_flat(self):
        from conftest import model_from_rows

        rows = [
            ("oo", 0, 0, 0, 5),
            ("pt1", 1, 0, 1, 4),
            ("q1", 1, 2, 1, 2),
            ("pt2", 2, 0, 4, 1),
            ("q2", 2, 2, 2, 1),
            ("top", 3, 0, 5, 0),
        ]
        return blowup_extremal(model_from_rows(rows, 5))

    def test_chambers(self, product_flat):
        assert sorted(chamber_pairs(product_flat)) == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_edges_gate_every_component(self, product_flat):
        g = build_flip_graph(product_flat)
        assert sorted((e.from_pair, e.to_pair) for e in g.edges) == [
            ((0, 2), (1, 2)),
            ((0, 3), (0, 2)),
            ((0, 3), (1, 3)),
            ((1, 3), (1, 2)),
        ]
        assert g.obstructions == ()
        edge = next(e for e in g.edges if (e.from_pair, e.to_pair) == ((0, 3), (1, 3)))
        assert {c.component for c in edge.centers} == {"pt1", "q1"}
        by_name = {c.component: c for c in edge.centers}
        # plus step removes downward closures: dim + nu_minus per component
        assert (by_name["pt1"].center_dim, by_name["pt1"].flipped_dim) == (1, 3)
        assert (by_name["q1"].center_dim, by_name["q1"].flipped_dim) == (3, 3)

    def test_induced_keeps_both_components(self, product_flat):
        m = induced_action(product_flat, (1, 3))
        assert sorted(c.name for c in m.inner_components) == ["pt2", "q2"]


class TestQuotientDiagram:
    def test_r2_counts(self, bordism_r2_flat):
        d = quotient_diagram(bordism_r2_flat)
        assert len(d.geometric) == 2
        assert len(d.semigeometric) == 3
        assert len(d.dashed_arrows) == 1
        assert len(d.diagonal_arrows) == 4

    def test_extremal_identities(self, bordism_r3_flat):
        d = quotient_diagram(bordism_r3_flat)
        assert d.semigeometric[0].identity == "Y_0"
        assert d.semigeometric[0].dim == 3
        assert d.semigeometric[-1].identity == "Y_3"
        assert d.semigeometric[-1].dim == 4

    def test_geometric_dims(self, bordism_r3_flat):
        d = quotient_diagram(bordism_r3_flat)
        assert all(q.dim == bordism_r3_flat.dim_x - 1 for q in d.geometric)

    def test_fiber_note(self, bordism_r3_flat):
        assert quotient_diagram(bordism_r3_flat).fiber_note == "projective spaces"


class TestP1Bundles:
    def test_bordism_r2(self, bordism_r2_flat):
        models = p1_bundle_models(bordism_r2_flat)
        assert [b.index for b in models] == [0, 1]
        assert models[0].nef_polygon == chamber_polygon(bordism_r2_flat, (0, 1))

    def test_a42_only_one(self, a42_flat):
        models = p1_bundle_models(a42_flat)
        assert [b.index for b in models] == [1]
        assert models[0].base_label == "GX(1,2)"

    def test_gr24_empty(self, gr24_flat):
        assert p1_bundle_models(gr24_flat) == []

    @given(action_models())
    def test_indices_match_index_set(self, model):
        flat = blowup_extremal(model)
        assert [b.index for b in p1_bundle_models(flat)] == sorted(index_set_i(flat))


class TestLieGeneratedGraphs:
    """On models coming from an actual variety of Picard number one, every
    chamber-adjacent flip is legal: the graph has one edge per wall between
    chambers and no obstructions."""

    def _check(self, model):
        flat = blowup_extremal(model)
        g = build_flip_graph(flat)
        assert g.obstructions == ()
        pairs = set(chamber_pairs(flat))
        expected = set()
        for (i, j) in pairs:
            if (i + 1, j) in pairs:
                expected.add(((i, j), (i + 1, j)))
            if (i, j - 1) in pairs:
                expected.add(((i, j), (i, j - 1)))
        assert {(e.from_pair, e.to_pair) for e in g.edges} == expected

    def test_grassmannian_family(self):
        from conftest import grassmannian_action

        for n in range(2, 8):
            for k in range(1, (n + 1) // 2 + 1):
                for i in range(1, k + 1):
                    self._check(grassmannian_action(n, i, k).model)

    def test_catalog_rows(self):
        from cstarflips.lie.catalog import table2_rows, table3_rows
        from cstarflips.lie.homogeneous import HomogeneousSpace, build_action
        from cstarflips.lie.roots import build_root_system, fundamental_cocharacter

        for row in table2_rows() + table3_rows():
            if row.family.startswith("E"):
                continue
            inst = row.instantiate(row.min_rank if row.parameter else None)
            datum = build_root_system(inst.dynkin_type, inst.rank)
            for node in inst.grading_nodes:
                res = build_action(
                    HomogeneousSpace(datum, inst.marked_node),
                    fundamental_cocharacter(inst.rank, node),
                )
                self._check(res.model)


class TestEndpoints:
    def test_bordism_fibrations(self, bordism_r3_flat):
        assert flip_chain_summary(bordism_r3_flat).left == "fibration"
        assert flip_chain_summary(bordism_r3_flat).right == "fibration"

    def test_point_sink(self, a42_flat):
        assert flip_chain_summary(a42_flat).left == "divisorial"
        assert flip_chain_summary(a42_flat).right == "fibration"

    def test_gr24_both(self, gr24_flat):
        assert flip_chain_summary(gr24_flat).left == "divisorial"
        assert flip_chain_summary(gr24_flat).right == "divisorial"


class TestChainSummary:
    def test_bordism_r3(self, bordism_r3_flat):
        s = flip_chain_summary(bordism_r3_flat)
        assert (s.chain_arrows, s.flips) == (2, 2)
        assert s.left == s.right == "fibration"
        assert s.blowups == s.blowdowns == 0

    def test_r1_no_flips(self):
        from conftest import model_from_rows

        flat = blowup_extremal(
            model_from_rows([("A", 0, 2, 0, 3), ("B", 1, 2, 3, 0)], 5)
        )
        s = flip_chain_summary(flat)
        assert s.chain_arrows == 0 and s.flips == 0

    def test_isolated_both(self, gr24_flat):
        s = flip_chain_summary(gr24_flat)
        assert (s.blowups, s.flips, s.blowdowns) == (1, 0, 1)


class TestIsolatedExtremes:
    @given(action_models())
    def test_every_consumer_reads_one_fact(self, model):
        """With k the number of isolated extremes of the original model, an
        isolated extreme removes one chamber and one index, adds one curve and
        turns one end of the quotient chain into a blowup or a blowdown."""
        k = (model.sink.dim == 0) + (model.source.dim == 0)
        flat = blowup_extremal(model)
        r = flat.criticality
        summary = flip_chain_summary(flat)
        assert len(chamber_pairs(flat)) == r * (r + 1) // 2 - k
        assert len(index_set_i(flat)) == r - k
        assert len(relevant_curves(flat)) == 3 + k
        assert summary.blowups + summary.blowdowns == k
