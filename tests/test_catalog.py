import pytest

from cstarflips.lie.catalog import (
    Factor,
    catalog,
    label_dim,
    label_text,
    table2_rows,
    table3_rows,
    verify_row,
)


class TestCatalogShape:
    def test_row_counts(self):
        cat = catalog()
        assert len(cat.table1) == 8
        assert len(cat.table2) == 5
        assert len(cat.table3) == 4

    def test_table1_spot_checks(self):
        cat = catalog()
        first = cat.table1[0]
        assert (first.sink_label, first.source_label, first.variety) == (
            "A_n(1)",
            "A_n(n)",
            "D_{n+1}(1)",
        )
        assert sum(1 for row in cat.table1 if row.variety == "not homogeneous") == 5

    def test_table2_d_row_labels(self):
        row = next(r for r in catalog().table2 if r.family == "D_m(2) [nodes m-1, m]")
        inst = row.instantiate(5)
        assert inst.grading_nodes == (4, 5)
        assert label_text(inst.extremal_factors) == "A_4(2)"
        assert label_text(inst.inner_factors) == "A_4(1,4)"

    def test_table3_families(self):
        families = [r.family for r in catalog().table3]
        assert families == ["C_3(3)", "A_5(3)", "D_6(6)", "E_7(7)"]
        a53 = catalog().table3[1].instantiate()
        assert "A_3(3)" in a53.note
        assert label_dim(a53.inner_factors) == 4

    def test_label_dims(self):
        assert Factor("D", 5, (5,)).dim() == 10
        assert Factor("E", 6, (2,)).dim() == 21
        assert Factor("E", 6, (1,)).dim() == 16
        assert Factor("A", 2, (1,), veronese=True).dim() == 2
        assert label_dim((Factor("A", 2, (1,)), Factor("A", 2, (2,)))) == 4

    def test_parametric_bounds(self):
        row = next(r for r in catalog().table2 if r.family == "B_m(2)")
        with pytest.raises(ValueError):
            row.instantiate(2)


class TestVerification:
    @pytest.mark.parametrize("family,rank", [
        ("B_m(2)", 3),
        ("B_m(2)", 4),
        ("D_m(2) [node 1]", 4),
        ("D_m(2) [nodes m-1, m]", 4),
    ])
    def test_table2_rows(self, family, rank):
        row = next(r for r in table2_rows() if r.family == family)
        v = verify_row(row.instantiate(rank))
        assert v.ok, v.failures

    def test_dual_grading_signatures(self):
        row = next(r for r in table2_rows() if r.family == "D_m(2) [nodes m-1, m]")
        v = verify_row(row.instantiate(4))
        assert v.signatures_equal is True

    @pytest.mark.parametrize("family", ["C_3(3)", "A_5(3)"])
    def test_table3_rows(self, family):
        row = next(r for r in table3_rows() if r.family == family)
        v = verify_row(row.instantiate())
        assert v.ok, v.failures
        assert v.instance.expected_weights == (0, 1, 2, 3)

    def test_bad_expectation_reported(self):
        row = next(r for r in table2_rows() if r.family == "B_m(2)")
        inst = row.instantiate(3)._replace(inner_factors=(Factor("A", 4, (1,)),))
        v = verify_row(inst)
        assert not v.ok
        assert any("inner level" in f for f in v.failures)
