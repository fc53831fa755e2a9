import pytest
from hypothesis import given

from cstarflips.actions import (
    DIMENSION_MISMATCH,
    DUPLICATE_NAME,
    EMPTY_SPEC,
    NON_EXTREMAL_ZERO_NU,
    AlreadyFlatError,
    InvalidActionError,
    MissingOriginDimsError,
    blowup_extremal,
    check_action,
    index_set_i,
    is_bordism,
    is_btype,
    is_equalized,
)
from conftest import action_models, components, model_from_rows


class TestValidation:
    def test_gr24_valid(self, gr24):
        assert gr24.dim_x == 4
        assert gr24.criticality == 2
        assert gr24.bandwidth == 2
        assert [c.inner for c in gr24.components] == [False, True, False]

    def test_dimension_mismatch(self):
        rows = [("Y0", 0, 0, 0, 4), ("Y1", 1, 2, 1, 2), ("Y2", 2, 0, 4, 0)]
        with pytest.raises(InvalidActionError) as exc:
            model_from_rows(rows, 4)
        assert any(v.code == DIMENSION_MISMATCH for v in exc.value.violations)

    def test_weight_renormalization(self):
        rows = [("A", 3, 0, 0, 4), ("B", 4, 2, 1, 1), ("C", 5, 0, 4, 0)]
        m = model_from_rows(rows, 4)
        assert m.critical_values == (0, 1, 2)
        assert m.weight_offset == 3

    def test_empty_spec(self):
        assert check_action([], 4)[0].code == EMPTY_SPEC

    def test_duplicate_name(self):
        rows = [("Y0", 0, 0, 0, 4), ("Y0", 1, 2, 1, 1), ("Y2", 2, 0, 4, 0)]
        codes = {v.code for v in check_action(components(rows), 4)}
        assert DUPLICATE_NAME in codes

    def test_inner_zero_nu(self):
        rows = [("Y0", 0, 0, 0, 4), ("Y1", 1, 3, 0, 1), ("Y2", 2, 0, 4, 0)]
        codes = {v.code for v in check_action(components(rows), 4)}
        assert NON_EXTREMAL_ZERO_NU in codes

    def test_rational_weights(self):
        rows = [("A", "1/2", 0, 0, 4), ("B", "3/2", 2, 1, 1), ("C", "5/2", 0, 4, 0)]
        m = model_from_rows(rows, 4)
        assert m.critical_values == (0, 1, 2)

    @given(action_models())
    def test_dim_sum_invariant(self, model):
        for c in model.components:
            assert c.dim + c.nu_minus + c.nu_plus == model.dim_x


class TestLevelIndex:
    def test_computed_once(self, gr24):
        assert gr24.levels is gr24.levels
        assert gr24.critical_values is gr24.critical_values

    def test_replace_starts_a_fresh_index(self, gr24):
        from dataclasses import replace

        assert len(gr24.levels) == 3
        shorter = replace(gr24, components=gr24.components[:2])
        assert shorter.critical_values == gr24.critical_values[:2]
        assert len(shorter.levels) == 2

    @given(action_models())
    def test_level_components_match_filter(self, model):
        for m in (model, blowup_extremal(model)):
            for k, a in enumerate(m.critical_values):
                assert m.level_components(k) == tuple(c for c in m.components if c.weight == a)


class TestBandwidthCriticality:
    def test_gr24(self, gr24):
        assert (gr24.bandwidth, gr24.criticality) == (2, 2)

    def test_trivial_rejected(self):
        with pytest.raises(InvalidActionError):
            model_from_rows([("Y0", 0, 4, 0, 0)], 4)

    def test_grassmannian_family(self):
        from cstarflips.lie.homogeneous import grassmannian_model

        for n, i, k in [(4, 2, 2), (5, 3, 3), (6, 2, 3)]:
            m = grassmannian_model(n, i, k)
            assert (m.bandwidth, m.criticality) == (i, i)


class TestEqualization:
    def test_tangent_data_true(self, gr24):
        data = {"Y0": [1, 1, 1, 1], "Y1": [-1, 0, 0, 1], "Y2": [-1, -1, -1, -1]}
        assert is_equalized(gr24, data) is True

    def test_tangent_data_false(self, gr24):
        data = {"Y0": [1, 1, 1, 2], "Y1": [-1, 0, 0, 1], "Y2": [-1, -1, -1, -1]}
        assert is_equalized(gr24, data) is False

    def test_declared_fallback(self, gr24):
        assert is_equalized(gr24) is True
        assert gr24.equalization_source == "declared"


class TestBtypeBordism:
    def test_gr24_flat(self, gr24, gr24_flat):
        assert not is_btype(gr24)
        assert is_btype(gr24_flat)
        assert not is_bordism(gr24_flat)  # inner nu = 1 and point extremes

    def test_bordism_r3(self, bordism_r3_flat):
        assert is_bordism(bordism_r3_flat)

    def test_lie_adjoint_bordism(self):
        from cstarflips.lie.homogeneous import HomogeneousSpace, build_action
        from cstarflips.lie.roots import build_root_system, fundamental_cocharacter

        res = build_action(
            HomogeneousSpace(build_root_system("B", 4), 2), fundamental_cocharacter(4, 1)
        )
        flat = blowup_extremal(res.model)
        assert is_bordism(flat)
        assert all(c.nu_minus >= 2 and c.nu_plus >= 2 for c in flat.inner_components)


class TestBlowup:
    def test_gr24(self, gr24_flat):
        assert gr24_flat.flat
        assert gr24_flat.sink.dim == 3 and gr24_flat.source.dim == 3
        assert (gr24_flat.sink.nu_minus, gr24_flat.sink.nu_plus) == (0, 1)
        assert (gr24_flat.source.nu_minus, gr24_flat.source.nu_plus) == (1, 0)
        assert (gr24_flat.sink_origin_dim, gr24_flat.source_origin_dim) == (0, 0)

    def test_a42_extremal_dims(self, a42_flat):
        assert a42_flat.sink.dim == 5 and a42_flat.source.dim == 5

    def test_btype_is_its_own_blowup(self):
        rows = [("S", 0, 5, 0, 1), ("M", 1, 2, 2, 2), ("T", 2, 5, 1, 0)]
        model = model_from_rows(rows, 6)
        flat = blowup_extremal(model)
        assert flat.flat
        assert flat.components == model.components
        assert (flat.sink_origin_dim, flat.source_origin_dim) == (5, 5)
        assert flat.isolated_extremes() == (False, False)

    def test_already_flat(self, gr24_flat):
        with pytest.raises(AlreadyFlatError):
            blowup_extremal(gr24_flat)

    @given(action_models())
    def test_inner_preserved_bit_exact(self, model):
        flat = blowup_extremal(model)
        assert flat.inner_components == model.inner_components
        assert flat.critical_values == model.critical_values


class TestIndexSet:
    def test_gr24_empty(self, gr24_flat):
        assert index_set_i(gr24_flat) == frozenset()

    def test_a42(self, a42_flat):
        assert index_set_i(a42_flat) == frozenset({1})

    def test_bordism_full(self, bordism_r3_flat):
        assert index_set_i(bordism_r3_flat) == frozenset({0, 1, 2})

    def test_missing_origins(self, gr24_flat):
        from dataclasses import replace

        stripped = replace(gr24_flat, sink_origin_dim=None)
        with pytest.raises(MissingOriginDimsError):
            index_set_i(stripped)

    @given(action_models())
    def test_subset_and_fullness(self, model):
        flat = blowup_extremal(model)
        idx = index_set_i(flat)
        r = flat.criticality
        assert idx <= set(range(r))
        assert (idx == set(range(r))) == (model.sink.dim > 0 and model.source.dim > 0)
