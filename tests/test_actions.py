import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import cstarflips
from cstarflips.actions import (
    DIMENSION_MISMATCH,
    DUPLICATE_NAME,
    EMPTY_SPEC,
    EXTREMAL_NONZERO_NU,
    NEGATIVE_FIELD,
    NON_POSITIVE_DIM,
    NON_EXTREMAL_ZERO_NU,
    REDUCIBLE_EXTREMAL_LEVEL,
    TRIVIAL_ACTION,
    ActionModel,
    AlreadyFlatError,
    FixedComponent,
    InvalidActionError,
    MissingOriginDimsError,
    Violation,
    blowup_extremal,
    check_action,
    index_set_i,
    is_bordism,
    is_btype,
    shown,
    unit_weights,
    validate_action,
)
from cstarflips.chambers import chamber_pairs
from cstarflips.modifications import induced_action
from conftest import action_models, components, model_from_rows, one_loop_validate


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


class TestRecords:
    def test_fields_are_read_only_and_weights_exact(self, gr24):
        c = FixedComponent("a", "1/2", 0, 0, 1)
        assert c.weight == Fraction(1, 2)
        assert type(c.weight) is Fraction
        for record, field in ((c, "weight"), (gr24, "dim_x"), (gr24, "components")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)


def _oracle_violations(comps, dim_x):
    """check_action by Fraction comparisons: one pass for the fields, then
    the sorted set of weights, then one pass comparing each weight with the
    least and the greatest."""
    if not comps:
        return [Violation(EMPTY_SPEC, "no fixed components given")]
    out, seen = [], set()
    if dim_x <= 0:
        out.append(Violation(NON_POSITIVE_DIM, f"dim_X = {shown(str(dim_x))} is not positive"))
    for c in comps:
        if c.name in seen:
            out.append(Violation(DUPLICATE_NAME, f"component name {c.name!r} repeated", c.name))
        seen.add(c.name)
        if c.dim < 0 or c.nu_minus < 0 or c.nu_plus < 0:
            out.append(Violation(NEGATIVE_FIELD, f"negative field on {c.name!r}", c.name))
            continue
        total = c.dim + c.nu_minus + c.nu_plus
        if dim_x > 0 and total != dim_x:
            out.append(Violation(
                DIMENSION_MISMATCH,
                f"{c.name!r}: dim + nu_minus + nu_plus = {shown(str(total))} "
                f"!= dim_x = {shown(str(dim_x))}", c.name,
            ))
    weights = sorted({c.weight for c in comps})
    if len(weights) < 2:
        return out + [Violation(TRIVIAL_ACTION, "action has a single critical value")]
    count = {"sink": 0, "source": 0}
    for c in comps:
        if c.weight == weights[0]:
            count["sink"] += 1
            if c.nu_minus != 0:
                out.append(Violation(
                    EXTREMAL_NONZERO_NU, f"sink component {c.name!r} has nu_minus != 0", c.name))
        elif c.weight == weights[-1]:
            count["source"] += 1
            if c.nu_plus != 0:
                out.append(Violation(
                    EXTREMAL_NONZERO_NU, f"source component {c.name!r} has nu_plus != 0", c.name))
        elif c.nu_minus == 0 or c.nu_plus == 0:
            out.append(Violation(
                NON_EXTREMAL_ZERO_NU,
                f"inner component {c.name!r} has nu_minus or nu_plus equal to 0", c.name,
            ))
    for label, n in count.items():
        if n != 1:
            out.append(Violation(
                REDUCIBLE_EXTREMAL_LEVEL, f"{label} level has more than one component"))
    return out


def _oracle_model(comps):
    """validate_action's model by a (weight, name) sort of every component,
    then ``groupby`` on the weights."""
    comps = sorted(comps, key=lambda c: (c.weight, c.name))
    offset, top = comps[0].weight, comps[-1].weight
    normalized = tuple([
        FixedComponent(c.name, c.weight - offset, c.dim, c.nu_minus, c.nu_plus,
                       inner=c.weight != offset and c.weight != top)
        for c in comps
    ])
    levels = tuple([(a, tuple(run)) for a, run in groupby(normalized, key=lambda c: c.weight)])
    return normalized, levels, offset


# A denominator of 1000 digits.
HUGE = 10**999 + 7


@st.composite
def _spelled_weights(draw):
    """A rational in one of its spellings: a Fraction, an int, ``"p/q"``, an
    unreduced ``"2p/2q"`` or a decimal; denominators up to 1000 digits."""
    num = draw(st.integers(-6, 6))
    den = draw(st.sampled_from((1, 2, 4, 3, HUGE, 2 * HUGE)))
    w = Fraction(num, den)
    spellings = [w, str(w), f"{2 * w.numerator}/{2 * w.denominator}"]
    if w.denominator == 1:
        spellings.append(w.numerator)
    if w.denominator in (2, 4):
        spellings.append(repr(w.numerator / w.denominator))  # "0.5", "-0.75": exact
    return draw(st.sampled_from(spellings))


@st.composite
def _component_lists(draw):
    """Components that are often invalid: repeated names, a shared weight in
    several spellings, negative or mismatched fields, crowded extremes."""
    dim_x = draw(st.integers(-1, 5))
    weights = draw(st.lists(_spelled_weights(), min_size=1, max_size=4))
    n = draw(st.integers(0, 8))
    small = st.integers(-1, 5)
    return [
        FixedComponent(draw(st.sampled_from("ABCDEFGH")), draw(st.sampled_from(weights)),
                       draw(small), draw(small), draw(small))
        for _ in range(n)
    ], dim_x


class TestAgainstTheSortingOracle:
    """check_action and validate_action group the components by exact weight
    and sort only the critical values; the oracle sorts every component by
    (weight, name) and groups the runs.  They must agree on everything the
    CLI and the report read."""

    @given(_component_lists())
    def test_violations_in_order(self, drawn):
        comps, dim_x = drawn
        want = _oracle_violations(comps, dim_x)
        assert check_action(comps, dim_x) == want
        if not want:
            self._assert_model(comps, dim_x)

    @given(action_models(), st.randoms(use_true_random=False), st.data())
    def test_valid_models(self, model, rng, data):
        """A valid model, respelled and shuffled, and shifted by a weight of
        up to 1000 digits, comes back as the oracle builds it."""
        shift = data.draw(st.sampled_from((Fraction(0), Fraction(-7, 2), Fraction(1, HUGE))))
        comps = [c._replace(weight=str(c.weight + shift)) for c in model.components]
        rng.shuffle(comps)
        assert check_action(comps, model.dim_x) == []
        self._assert_model(comps, model.dim_x)

    @staticmethod
    def _assert_model(comps, dim_x):
        got = validate_action(comps, dim_x)
        normalized, levels, offset = _oracle_model(comps)
        assert got.components == normalized  # ``inner`` included
        assert got.levels == levels
        assert got.weight_offset == offset
        flat = blowup_extremal(got)
        assert flat.components == tuple(sorted(flat.components, key=lambda c: (c.weight, c.name)))


@st.composite
def _wide_chains(draw):
    """Valid components at 2 to 30 distinct weights in [-10^6, 10^6] with
    denominators up to 10^6, spelled as Fractions or ``"p/q"`` strings, a
    second component on some inner levels spelled unreduced, in shuffled
    order; with the weights in increasing order."""
    weights = sorted(draw(st.lists(
        st.fractions(-10**6, 10**6, max_denominator=10**6), min_size=2, max_size=30, unique=True,
    )))
    dim_x = 6
    comps = [FixedComponent("S", weights[0], 1, 0, 5),
             FixedComponent("T", str(weights[-1]), 1, 5, 0)]
    for k, w in enumerate(weights[1:-1], 1):
        comps.append(FixedComponent(f"P{k}", w if k % 2 else str(w), 2, 2, 2))
        if draw(st.booleans()):
            comps.append(FixedComponent(f"Q{k}", f"{3 * w.numerator}/{3 * w.denominator}",
                                        3, 1, 2))
    return draw(st.permutations(comps)), dim_x, weights


# Each way to break a valid model, with the violation code it must raise.
DEFECTS = {
    "duplicate name": DUPLICATE_NAME,
    "negative field": NEGATIVE_FIELD,
    "dim mismatch": DIMENSION_MISMATCH,
    "single level": TRIVIAL_ACTION,
    "extremal nu": EXTREMAL_NONZERO_NU,
    "inner zero nu": NON_EXTREMAL_ZERO_NU,
    "reducible extreme": REDUCIBLE_EXTREMAL_LEVEL,
    "dim_X not positive": NON_POSITIVE_DIM,
    "no components": EMPTY_SPEC,
}


@st.composite
def _broken_models(draw, defects):
    """The components of a random valid model, their weights shifted, with
    the ``defects`` made in them, in shuffled order, and dim X."""
    model = draw(action_models())
    shift = draw(st.fractions(-3, 3, max_denominator=6))
    comps = [c._replace(weight=c.weight + shift) for c in model.components]
    dim_x = model.dim_x
    pick = st.integers(0, len(comps) - 1)
    sink, source = comps[0], comps[-1]
    for defect in sorted(defects):
        if defect == "duplicate name":
            i, j = draw(st.lists(pick, min_size=2, max_size=2, unique=True))
            comps[j] = comps[j]._replace(name=comps[i].name)
        elif defect == "negative field":
            field = draw(st.sampled_from(("dim", "nu_minus", "nu_plus")))
            i = draw(pick)
            comps[i] = comps[i]._replace(**{field: -draw(st.integers(1, 3))})
        elif defect == "dim mismatch":
            i = draw(pick)
            comps[i] = comps[i]._replace(dim=comps[i].dim + draw(st.integers(1, 3)))
        elif defect == "single level":
            comps = [c._replace(weight=sink.weight) for c in comps]
        elif defect == "extremal nu":
            k = draw(st.integers(1, 2))
            end = draw(st.sampled_from((0, -1)))
            field = "nu_minus" if end == 0 else "nu_plus"
            comps[end] = comps[end]._replace(**{field: k})
        elif defect == "inner zero nu":
            field = draw(st.sampled_from(("nu_minus", "nu_plus")))
            i = draw(st.integers(1, len(comps) - 2))
            comps[i] = comps[i]._replace(**{field: 0})
        elif defect == "reducible extreme":
            end = draw(st.sampled_from((sink, source)))
            comps.append(end._replace(name=end.name + "'"))
        elif defect == "dim_X not positive":
            dim_x = draw(st.integers(-2, 0))
        elif defect == "no components":
            comps = []
    return draw(st.permutations(comps)), dim_x


def _outcome(validate, comps, dim_x):
    try:
        return validate(comps, dim_x, equalized=False, equalization_source="tangent-weights")
    except InvalidActionError as exc:
        return exc.violations


class TestAgainstTheOneLoopCheck:
    """Grouping and checking are separate steps; the oracle is the one loop
    that did both (``conftest.one_loop_validate``).  Over valid models and
    every kind of defect, with others made beside it, validate_action
    raises the oracle's violations, with their codes, messages and order,
    or returns the oracle's model."""

    @pytest.mark.parametrize("defect", [None, *DEFECTS])
    @given(data=st.data())
    def test_same_violations_or_model(self, defect, data):
        others = data.draw(st.sets(st.sampled_from(sorted(DEFECTS)), max_size=3))
        defects = others | ({defect} if defect else set())
        comps, dim_x = data.draw(_broken_models(defects))
        want = _outcome(one_loop_validate, comps, dim_x)
        assert _outcome(validate_action, comps, dim_x) == want
        violations = [] if isinstance(want, ActionModel) else list(want)
        assert check_action(comps, dim_x) == violations
        if not defects:
            assert violations == []
        elif defect and not others:
            assert DEFECTS[defect] in [v.code for v in violations]


class TestOrderAndShift:
    """The levels are ordered by the cross-products of their weights' keys
    and shifted by numerator and denominator arithmetic: the same levels,
    critical values and offset as plain ``Fraction`` arithmetic gives."""

    @given(_wide_chains())
    def test_levels_match_fraction_arithmetic(self, drawn):
        comps, dim_x, weights = drawn
        model = validate_action(comps, dim_x)
        base = weights[0]
        assert model.weight_offset == base
        assert model.critical_values == tuple([w - base for w in weights])
        _, levels, _ = _oracle_model(comps)
        assert model.levels == levels
        assert all(type(a) is Fraction for a in model.critical_values)

    @given(_wide_chains(), st.data())
    def test_induced_action_shifts_match_fraction_arithmetic(self, drawn, data):
        comps, dim_x, weights = drawn
        flat = blowup_extremal(validate_action(comps, dim_x))
        i, j = data.draw(st.sampled_from(chamber_pairs(flat)))
        a = flat.critical_values
        induced = induced_action(flat, (i, j))
        assert induced.critical_values == tuple([a_k - a[i] for a_k in a[i:j + 1]])
        assert induced.weight_offset == 0

    def test_hostile_denominators(self, tmp_path):
        """499 levels at k / (10^900 + k): no common denominator of 1.49
        million bits is built, so a cold ``validate`` ends in under 1 s."""
        big = 10**900
        comps = [{"name": f"P{k}", "weight": f"{k}/{big + k}", "dim": 0,
                  "nu_minus": 2, "nu_plus": 2} for k in range(1, 500)]
        comps[0].update(dim=2, nu_minus=0)
        comps[-1].update(dim=2, nu_plus=0)
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps({"name": "hostile", "dim_X": 4, "components": comps}))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(cstarflips.__file__).resolve().parents[1]),
                          os.environ.get("PYTHONPATH")]))}
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cstarflips", "validate", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"{path}: ok (hostile, criticality 498)\n"
        assert elapsed < 1.0


def with_chambers(model):
    """``model``, its blowup and the X(i, j) of every chamber of the blowup."""
    flat = blowup_extremal(model)
    return [model, flat, *[induced_action(flat, pair) for pair in chamber_pairs(flat)]]


class TestLevelIndex:
    """A model is its levels: every other view of its components is read
    from them, on validated models, their blowups and every X(i, j)."""

    @given(action_models())
    def test_critical_values_increase_from_zero(self, model):
        for m in with_chambers(model):
            a = m.critical_values
            assert a[0] == 0
            assert all(x < y for x, y in zip(a, a[1:]))

    @given(action_models())
    def test_each_level_carries_its_weight_sorted_by_name(self, model):
        for m in with_chambers(model):
            r = m.criticality
            for k, (a, level) in enumerate(m.levels):
                assert level
                assert all(c.weight == a and c.inner == (0 < k < r) for c in level)
                names = [c.name for c in level]
                assert names == sorted(names)

    @given(action_models())
    def test_views_agree_with_the_levels(self, model):
        for m in with_chambers(model):
            levels = m.levels
            assert m.components == tuple(c for _, level in levels for c in level)
            assert m.critical_values == tuple(a for a, _ in levels)
            assert m.criticality == len(levels) - 1
            assert m.bandwidth == levels[-1][0]
            assert ((m.sink,), (m.source,)) == (levels[0][1], levels[-1][1])
            assert m.inner_components == tuple(c for _, level in levels[1:-1] for c in level)

    @given(action_models())
    def test_level_components_match_filter(self, model):
        for m in (model, blowup_extremal(model)):
            for k, a in enumerate(m.critical_values):
                assert m.level_components(k) == tuple(c for c in m.components if c.weight == a)

    @given(action_models())
    def test_no_attribute_can_be_assigned(self, model):
        derived = ("components", "critical_values", "criticality", "bandwidth", "sink",
                   "source", "inner_components", "cache")
        for m in with_chambers(model):
            for name in m._fields + derived:
                with pytest.raises(AttributeError):
                    setattr(m, name, None)


class TestBandwidthCriticality:
    def test_gr24(self, gr24):
        assert (gr24.bandwidth, gr24.criticality) == (2, 2)

    def test_trivial_rejected(self):
        with pytest.raises(InvalidActionError):
            model_from_rows([("Y0", 0, 4, 0, 0)], 4)

    def test_grassmannian_family(self):
        from conftest import grassmannian_model

        for n, i, k in [(4, 2, 2), (5, 3, 3), (6, 2, 3)]:
            m = grassmannian_model(n, i, k)
            assert (m.bandwidth, m.criticality) == (i, i)


class TestEqualization:
    """The rule ``build_action`` applies to the tangent weights of each
    component, ``unit_weights``: the action is equalized when every weight
    is -1, 0 or 1."""

    @staticmethod
    def equalized(model, tangent_weights) -> bool:
        return all(unit_weights(tangent_weights[c.name]) for c in model.components)

    def test_tangent_data_true(self, gr24):
        data = {"Y0": [1, 1, 1, 1], "Y1": [-1, 0, 0, 1], "Y2": [-1, -1, -1, -1]}
        assert self.equalized(gr24, data) is True

    def test_tangent_data_false(self, gr24):
        data = {"Y0": [1, 1, 1, 2], "Y1": [-1, 0, 0, 1], "Y2": [-1, -1, -1, -1]}
        assert self.equalized(gr24, data) is False

    def test_declared_fallback(self, gr24):
        assert gr24.equalized is True
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
        stripped = gr24_flat._replace(sink_origin_dim=None)
        with pytest.raises(MissingOriginDimsError):
            index_set_i(stripped)

    @given(action_models())
    def test_subset_and_fullness(self, model):
        flat = blowup_extremal(model)
        idx = index_set_i(flat)
        r = flat.criticality
        assert idx <= set(range(r))
        assert (idx == set(range(r))) == (model.sink.dim > 0 and model.source.dim > 0)
