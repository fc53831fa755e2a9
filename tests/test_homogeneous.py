import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cstarflips.lie.homogeneous import (
    CosetLimitError,
    HomogeneousSpace,
    IllegalRangeError,
    build_action,
    enumerate_fixed_points,
    homogeneous_dim,
)
from cstarflips.lie.roots import build_root_system, fundamental_cocharacter, grading
from conftest import (
    TYPES_TO_RANK_8,
    grassmannian_action,
    grassmannian_model,
    grassmannian_reference,
)


def level_data(model):
    return [
        (str(c.weight), c.dim, c.nu_minus, c.nu_plus) for c in model.components
    ]


class TestFixedPoints:
    def test_gr24_count(self):
        space = HomogeneousSpace(build_root_system("A", 3), 2)
        assert len(enumerate_fixed_points(space)) == 6
        assert space.dim == 4

    def test_spinor_count(self):
        space = HomogeneousSpace(build_root_system("D", 5), 5)
        assert len(enumerate_fixed_points(space)) == 16

    def test_coset_limit(self):
        space = HomogeneousSpace(build_root_system("A", 5), 3)
        with pytest.raises(CosetLimitError):
            enumerate_fixed_points(space, max_cosets=10)

    def test_bad_node(self):
        with pytest.raises(IllegalRangeError):
            HomogeneousSpace(build_root_system("A", 3), 4)


class TestBuildAction:
    def test_gr24_levels(self):
        res = grassmannian_action(3, 2, 2)
        assert level_data(res.model) == [("0", 0, 0, 4), ("1", 2, 1, 1), ("2", 0, 4, 0)]
        assert res.equalized and res.is_short
        assert res.model.equalization_source == "tangent-weights"

    def test_gr24_certificates(self):
        res = grassmannian_action(3, 2, 2)
        assert res.tangent_certificates["Y0"] == (1, 1, 1, 1)
        assert res.tangent_certificates["Y1"] == (-1, 0, 0, 1)
        assert res.tangent_certificates["Y2"] == (-1, -1, -1, -1)

    def test_a42_levels(self):
        res = grassmannian_action(4, 2, 2)
        assert level_data(res.model) == [("0", 0, 0, 6), ("1", 3, 1, 2), ("2", 2, 4, 0)]

    def test_e7_adjoint_row(self):
        datum = build_root_system("E", 7)
        res = build_action(HomogeneousSpace(datum, 1), fundamental_cocharacter(7, 7))
        assert level_data(res.model) == [
            ("0", 16, 0, 17),
            ("1", 21, 6, 6),
            ("2", 16, 17, 0),
        ]
        assert res.fixed_point_count == 126

    def test_not_short_warning(self):
        datum = build_root_system("A", 2)
        res = build_action(HomogeneousSpace(datum, 1), (2, 0))
        assert not res.is_short
        assert any("GradingNotShort" in w for w in res.warnings)
        assert not res.equalized

    def test_reducible_level_grouping(self):
        """A generic cocharacter splits levels into several components."""
        datum = build_root_system("A", 3)
        res = build_action(HomogeneousSpace(datum, 2), (1, 0, 1))
        level1 = [c for c in res.model.components if c.weight == 1]
        assert len(level1) == 2
        assert {c.name for c in level1} == {"Y1a", "Y1b"}
        for c in res.model.components:
            assert c.dim + c.nu_minus + c.nu_plus == res.model.dim_x

    def test_names_past_26_components(self):
        """E6(4) with a regular cocharacter has levels of more than 26
        components: names stay distinct ASCII letters, and sorting them by
        level index and then by letters gives the model order."""
        datum = build_root_system("E", 6)
        res = build_action(HomogeneousSpace(datum, 4), (1,) * 6)
        names = [c.name for c in res.model.components]
        parsed = [re.fullmatch(r"Y([0-9]+)([a-z]*)", name) for name in names]
        assert all(parsed)
        assert len(set(names)) == len(names) == res.fixed_point_count == 720
        assert max(Counter(m.group(1) for m in parsed).values()) > 26
        assert {len(m.group(2)) for m in parsed} == {0, 1, 2}
        keys = [(int(m.group(1)), m.group(2)) for m in parsed]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("dynkin_type,rank,node,cochar_node", [
        ("B", 3, 2, 1),
        ("C", 3, 3, 3),
        ("D", 4, 1, 1),
        ("D", 5, 5, 5),
    ])
    def test_dim_invariant(self, dynkin_type, rank, node, cochar_node):
        datum = build_root_system(dynkin_type, rank)
        space = HomogeneousSpace(datum, node)
        res = build_action(space, fundamental_cocharacter(rank, cochar_node))
        assert res.model.dim_x == space.dim
        for c in res.model.components:
            assert c.dim + c.nu_minus + c.nu_plus == space.dim

    def test_inversion_symmetry(self):
        """Negating the cocharacter reverses levels and swaps the nu ranks."""
        datum = build_root_system("A", 4)
        space = HomogeneousSpace(datum, 2)
        plus = build_action(space, fundamental_cocharacter(4, 2))
        minus = build_action(space, tuple(-x for x in fundamental_cocharacter(4, 2)))
        delta = plus.model.bandwidth
        fwd = {(c.weight, c.dim, c.nu_minus, c.nu_plus) for c in plus.model.components}
        mirrored = {
            (delta - c.weight, c.dim, c.nu_plus, c.nu_minus)
            for c in minus.model.components
        }
        assert fwd == mirrored


class TestGrassmannianReference:
    def test_gr24(self):
        levels = grassmannian_reference(3, 2, 2)
        assert [(l.label, l.weight, l.dim, l.nu_minus, l.nu_plus) for l in levels] == [
            ("pt", 0, 0, 0, 4),
            ("A_1(1) x A_1(1)", 1, 2, 1, 1),
            ("pt", 2, 0, 4, 0),
        ]

    def test_sink_has_no_down_rank(self):
        for n, i, k in [(5, 2, 3), (6, 3, 3), (7, 4, 4)]:
            levels = grassmannian_reference(n, i, k)
            assert levels[0].nu_minus == 0
            assert levels[-1].nu_plus == 0

    def test_a42_level2(self):
        levels = grassmannian_reference(4, 2, 2)
        assert [l.dim for l in levels] == [0, 3, 2]
        assert levels[2].nu_minus == 4

    def test_illegal_range(self):
        with pytest.raises(IllegalRangeError):
            grassmannian_reference(4, 3, 2)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_enumeration(self, n):
        for k in range(1, (n + 1) // 2 + 1):
            for i in range(1, k + 1):
                ref = grassmannian_model(n, i, k)
                via_cosets = grassmannian_action(n, i, k).model
                assert level_data(ref) == level_data(via_cosets)


class TestHomogeneousDim:
    @pytest.mark.parametrize(
        "dynkin_type,rank,nodes,dim",
        [
            ("A", 3, (2,), 4),
            ("A", 3, (1, 3), 5),
            ("B", 3, (1,), 5),
            ("D", 5, (5,), 10),
            ("E", 6, (2,), 21),
            ("E", 6, (1,), 16),
            ("C", 3, (3,), 6),
        ],
    )
    def test_known_dims(self, dynkin_type, rank, nodes, dim):
        assert homogeneous_dim(build_root_system(dynkin_type, rank), nodes) == dim

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(TYPES_TO_RANK_8), st.data())
    def test_columns_agree_with_coords(self, space, data):
        """Read off the columns by node, the dimension is the number of
        positive roots with a nonzero coordinate at a marked node."""
        dynkin_type, rank = space
        datum = build_root_system(dynkin_type, rank)
        nodes = data.draw(st.lists(st.integers(1, rank), max_size=rank))
        assert homogeneous_dim(datum, nodes) == sum(
            1 for c in datum.coords if any(c[n - 1] for n in nodes))

    def test_short_implies_equalized_sample(self):
        for t, n in [("A", 4), ("B", 4), ("C", 4), ("D", 4)]:
            datum = build_root_system(t, n)
            for k in range(1, n + 1):
                if not grading(datum, fundamental_cocharacter(n, k)).is_short:
                    continue
                for node in range(1, n + 1):
                    res = build_action(
                        HomogeneousSpace(datum, node), fundamental_cocharacter(n, k)
                    )
                    assert res.equalized
