import random
from fractions import Fraction

import pytest
from hypothesis import given

from cstarflips.actions import blowup_extremal
from cstarflips.chambers import OutOfRangeError, chamber_pairs, chamber_polygon, movable_polygon
from cstarflips.locate import (
    CurveClass,
    DivisorClass,
    OutOfSliceError,
    intersection_number,
    locate_chamber,
    movable_cone,
    relevant_curves,
    stable_base_locus,
    tau_indices,
)
from conftest import action_models, synthetic_case_model


class TestTauIndices:
    # critical values {0, 1, 2}
    def test_interior(self, gr24_flat):
        assert tau_indices(gr24_flat, Fraction(1, 2)) == (0, 1)

    def test_at_critical(self, gr24_flat):
        assert tau_indices(gr24_flat, 1) == (0, 2)

    def test_at_zero(self, gr24_flat):
        assert tau_indices(gr24_flat, 0) == (-1, 1)

    def test_out_of_range(self, gr24_flat):
        with pytest.raises(OutOfRangeError):
            tau_indices(gr24_flat, 3)


class TestStableBaseLocus:
    def test_nef_range(self, gr24_flat):
        b = stable_base_locus(gr24_flat, 0, 2)
        assert b.is_empty
        raw = stable_base_locus(gr24_flat, 0, 2, flat=False)
        assert (sorted(raw.plus_levels), sorted(raw.minus_levels)) == ([0], [2])

    def test_interior(self, gr24_flat):
        b = stable_base_locus(gr24_flat, Fraction(1, 2), Fraction(3, 2), flat=False)
        assert sorted(b.plus_levels) == [0]
        assert sorted(b.minus_levels) == [2]

    def test_wall_hit(self, gr24_flat):
        b = stable_base_locus(gr24_flat, 1, 1, flat=False)
        assert sorted(b.plus_levels) == [0, 1]
        assert sorted(b.minus_levels) == [1, 2]

    def test_monotone(self, bordism_r3_flat):
        random.seed(7)
        delta = bordism_r3_flat.bandwidth
        for _ in range(200):
            xs = sorted(Fraction(random.randint(0, 24), 8) for _ in range(2))
            ys = sorted(Fraction(random.randint(0, 24), 8) for _ in range(2))
            if not (xs[1] <= ys[0] and ys[1] <= delta):
                continue
            wide = stable_base_locus(bordism_r3_flat, xs[0], ys[1])
            narrow = stable_base_locus(bordism_r3_flat, xs[1], ys[0])
            assert wide.plus_levels <= narrow.plus_levels
            assert wide.minus_levels <= narrow.minus_levels


class TestMovableCone:
    def test_bordism_triangle(self, bordism_r3_flat):
        delta = bordism_r3_flat.bandwidth
        assert movable_cone(bordism_r3_flat) == [
            DivisorClass(0, 0),
            DivisorClass(delta, delta),
            DivisorClass(0, delta),
        ]

    def test_isolated_sink(self, a42_flat):
        assert movable_cone(a42_flat) == [
            DivisorClass(0, 1),
            DivisorClass(1, 1),
            DivisorClass(2, 2),
            DivisorClass(0, 2),
        ]

    def test_isolated_source(self):
        flat = blowup_extremal(synthetic_case_model("isolated-source", r=3))
        assert movable_polygon(flat) == ((0, 0), (2, 2), (2, 3), (0, 3))

    def test_isolated_both_quadrilateral(self, gr24_flat):
        assert movable_polygon(gr24_flat) == ((0, 1), (1, 1), (1, 2), (0, 2))

    def test_isolated_both_pentagon(self):
        flat = blowup_extremal(synthetic_case_model("isolated-both", r=3))
        assert movable_polygon(flat) == ((0, 1), (1, 1), (2, 2), (2, 3), (0, 3))

    def test_r1_degenerate_segment(self):
        from conftest import model_from_rows

        # blowup of a point in projective space: the region is a segment
        flat = blowup_extremal(model_from_rows([("P", 0, 0, 0, 3), ("H", 1, 2, 1, 0)], 3))
        assert movable_polygon(flat) == ((0, 1), (1, 1))
        assert chamber_pairs(flat) == []
        both = blowup_extremal(model_from_rows([("P", 0, 0, 0, 1), ("Q", 1, 0, 1, 0)], 1))
        with pytest.raises(OutOfRangeError):
            movable_polygon(both)


class TestChamberDecomposition:
    def test_bordism_r3(self, bordism_r3_flat):
        pairs = chamber_pairs(bordism_r3_flat)
        assert sorted(pairs) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_gr24_single(self, gr24_flat):
        assert chamber_pairs(gr24_flat) == [(0, 2)]

    def test_both_points_r3(self):
        flat = blowup_extremal(synthetic_case_model("isolated-both", r=3))
        assert sorted(chamber_pairs(flat)) == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_polygon_shapes(self, bordism_r3_flat):
        assert chamber_polygon(bordism_r3_flat, (0, 1)) == ((0, 0), (1, 1), (0, 1))
        assert chamber_polygon(bordism_r3_flat, (1, 3)) == ((1, 2), (2, 2), (2, 3), (1, 3))

    @given(action_models())
    def test_partition_by_grid(self, model):
        """Interior grid points lie in exactly one chamber; the chamber count
        matches the closed formula."""
        flat = blowup_extremal(model)
        pairs = set(chamber_pairs(flat))
        r = flat.criticality
        expected = r * (r + 1) // 2
        if model.sink.dim == 0:
            expected -= 1
        if model.source.dim == 0 and r >= 2:
            expected -= 1
        assert len(pairs) == expected
        a = flat.critical_values
        hit = set()
        # The quarter points inside each step [a_k, a_k+1]: with critical
        # values 0..r, the quarter grid off the integers.
        grid = [a[k] + (a[k + 1] - a[k]) * Fraction(t, 4) for k in range(r) for t in (1, 2, 3)]
        for p, x in enumerate(grid):
            for y in grid[p + 1:]:
                loc = locate_chamber(flat, DivisorClass(x, y))
                # the corners cut off by an isolated sink or source
                if (model.sink.dim == 0 and y < a[1]) or (model.source.dim == 0 and x > a[-2]):
                    assert loc.kind == "outside-movable"
                    continue
                assert loc.kind == "interior"
                assert len(loc.chambers) == 1
                hit.add(loc.chambers[0])
        assert hit == pairs


class TestLocateChamber:
    def test_interior(self, bordism_r2_flat):
        loc = locate_chamber(bordism_r2_flat, DivisorClass(Fraction(1, 2), Fraction(3, 2)))
        assert loc.kind == "interior" and loc.chambers == ((0, 2),)

    def test_wall(self, bordism_r2_flat):
        loc = locate_chamber(bordism_r2_flat, DivisorClass(1, Fraction(3, 2)))
        assert loc.kind == "wall"
        assert set(loc.chambers) == {(0, 2), (1, 2)}
        assert loc.tight == ("tau_minus=a_1",)

    def test_vertex(self, bordism_r3_flat):
        loc = locate_chamber(bordism_r3_flat, DivisorClass(1, 2))
        assert loc.kind == "vertex"
        assert set(loc.chambers) == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_outside_movable(self, a42_flat):
        loc = locate_chamber(a42_flat, DivisorClass(Fraction(1, 2), Fraction(1, 2)))
        assert loc.kind == "outside-movable"
        assert loc.fixed_divisor == "closure of X^-(Y_1)"

    def test_outside_movable_source(self):
        flat = blowup_extremal(synthetic_case_model("isolated-source", r=3))
        loc = locate_chamber(flat, DivisorClass(Fraction(5, 2), Fraction(11, 4)))
        assert loc.kind == "outside-movable"
        assert loc.fixed_divisor == "closure of X^+(Y_{2})"

    def test_out_of_slice(self, gr24_flat):
        with pytest.raises(OutOfSliceError):
            locate_chamber(gr24_flat, DivisorClass(Fraction(3, 2), Fraction(1, 2)))


class TestIntersectionNumbers:
    def test_generic_orbit_degree(self, bordism_r3_flat):
        delta = bordism_r3_flat.bandwidth
        assert intersection_number(DivisorClass(0, delta), CurveClass.GEN, bordism_r3_flat) == delta

    def test_quotient_classes_kill_orbit(self, bordism_r3_flat):
        for tau in (0, 1, Fraction(3, 2)):
            d = DivisorClass(tau, tau)
            assert intersection_number(d, CurveClass.GEN, bordism_r3_flat) == 0

    def test_sink_fiber(self, bordism_r3_flat):
        assert intersection_number(DivisorClass(0, 0), CurveClass.C0, bordism_r3_flat) == 0
        assert intersection_number(DivisorClass(2, 3), CurveClass.C0, bordism_r3_flat) == 2

    def test_extra_classes(self, a42_flat):
        d = DivisorClass(Fraction(1, 2), Fraction(3, 2))
        assert intersection_number(d, CurveClass.C1R, a42_flat) == Fraction(1, 2)
        assert intersection_number(d, CurveClass.C0RM1, a42_flat) == Fraction(1, 2)

    def test_duality(self):
        """Generators pair nonnegatively with the relevant curves and each
        annihilates at least two of them."""
        for case in ("bordism", "isolated-sink", "isolated-source", "isolated-both"):
            flat = blowup_extremal(synthetic_case_model(case, r=3))
            curves = relevant_curves(flat)
            for gen in movable_cone(flat):
                values = [intersection_number(gen, c, flat) for c in curves]
                assert all(v >= 0 for v in values)
                assert sum(1 for v in values if v == 0) >= 2


class TestQuotientNefSegment:
    def test_matches_chamber_diagonal(self, bordism_r3_flat):
        """The nef slice of the i-th geometric quotient is the diagonal side
        of the (i, i+1) chamber, the triangle below it."""
        a = bordism_r3_flat.critical_values
        for i in range(bordism_r3_flat.criticality):
            poly = chamber_polygon(bordism_r3_flat, (i, i + 1))
            assert poly == ((a[i], a[i]), (a[i + 1], a[i + 1]), (a[i], a[i + 1]))


class TestDivisorClass:
    def test_scale_canonicalization(self):
        for a, b in (
            (DivisorClass(0, 1, m=2), DivisorClass(0, 1, m=1)),
            (DivisorClass(0, 1, m=0), DivisorClass(1, 2, m=0)),
        ):
            assert a == b
            assert not a != b
            assert hash(a) == hash(b)
        assert DivisorClass(0, 1) != DivisorClass(0, 2)

    def test_negative_scale(self):
        with pytest.raises(OutOfSliceError):
            DivisorClass(0, 1, m=-1)

    def test_scaled_intersection(self, gr24_flat):
        d = DivisorClass(0, 2, m=3)
        assert intersection_number(d, CurveClass.GEN, gr24_flat) == 6
