"""The integer Lie engine against a Euclidean ``Fraction`` oracle, plus
properties of the derived actions over random cocharacters.

The oracle below is the earlier engine: weights and roots as ``Fraction``
vectors in the Bourbaki realization (``conftest.EuclideanRootSystem``, which
shares no code with ``cstarflips.lie.roots``), reflected by the Euclidean
formula.  It lives here only, as a reference for small ranks.
"""

import functools
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TYPES_TO_RANK_8, EuclideanRootSystem, classified_weyl_order, dot
from cstarflips.actions import ActionError, FixedComponent, validate_action
from cstarflips.lie import homogeneous
from cstarflips.lie.homogeneous import (
    CosetLimitError,
    HomogeneousSpace,
    _Levi,
    build_action,
    enumerate_fixed_points,
)
from cstarflips.report import run_pipeline
from cstarflips.specfiles import parse_spec
from cstarflips.lie.roots import (
    IllegalTypeError,
    build_root_system,
    dominant_cocharacter,
    fundamental_cocharacter,
    grading,
    weyl_order,
)


# --------------------------------------------------------------------------
# Fraction oracle
# --------------------------------------------------------------------------


def _coroot(alpha):
    norm = dot(alpha, alpha)
    return tuple(2 * a / norm for a in alpha)


def _reflect(v, alpha, coroot):
    coeff = dot(v, coroot)
    return tuple(a - coeff * b for a, b in zip(v, alpha))


def oracle_points(datum, node):
    """Weyl orbit of the fundamental weight: {weight: tangent roots}."""
    base = datum.fundamental_weights[node - 1]
    tangents = tuple(a for a in datum.positive_roots if datum.coords(a)[node - 1] > 0)
    simple = [(alpha, _coroot(alpha)) for alpha in datum.simple_roots]
    seen = {base: tangents}
    frontier = [base]
    while frontier:
        new = []
        for weight in frontier:
            for alpha, coroot in simple:
                w = _reflect(weight, alpha, coroot)
                if w in seen:
                    continue
                seen[w] = tuple(_reflect(t, alpha, coroot) for t in seen[weight])
                new.append(w)
        frontier = new
    return {w: seen[w] for w in sorted(seen)}


class Oracle:
    """The earlier ``build_action`` on one variety.  The orbit is enumerated
    once and shared by every cocharacter tried; points and roots are then
    referred to by their position, so that the many lookups do not hash
    ``Fraction`` vectors."""

    def __init__(self, datum, node):
        self.datum, self.node = datum, node
        orbit = oracle_points(datum, node)
        self.weights = list(orbit)
        self.roots = sorted({t for ts in orbit.values() for t in ts})
        self.coroots = [_coroot(t) for t in self.roots]
        root_index = {t: r for r, t in enumerate(self.roots)}
        self.tangents = [tuple(root_index[t] for t in orbit[w]) for w in self.weights]
        self.position = {w: p for p, w in enumerate(self.weights)}
        self.reflected = {}  # (point, root) -> point
        # simple-root coordinates, for the pairings with a cocharacter
        self.weight_coords = [datum.coords(w) for w in self.weights]
        self.root_coords = [datum.coords(t) for t in self.roots]
        self.positive_coords = [datum.coords(a) for a in datum.positive_roots]

    def reflect(self, p, r):
        if (p, r) not in self.reflected:
            w = _reflect(self.weights[p], self.roots[r], self.coroots[r])
            self.reflected[p, r] = self.position[w]
        return self.reflected[p, r]

    def pairing(self, coords, cocharacter):
        return sum((c * n for c, n in zip(coords, cocharacter) if n), Fraction(0))

    def records(self, cocharacter):
        """Per component: (level, dim, nu_plus, nu_minus, certificate, points),
        the components grouped by a union along zero-weight tangent roots."""
        l_raw = [-self.pairing(c, cocharacter) for c in self.weight_coords]
        root_pairing = [self.pairing(c, cocharacter) for c in self.root_coords]
        pairings = [tuple(root_pairing[r] for r in ts) for ts in self.tangents]
        parent = list(range(len(self.weights)))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for p, ts in enumerate(self.tangents):
            for r, m in zip(ts, pairings[p]):
                if m == 0:
                    a, b = find(p), find(self.reflect(p, r))
                    parent[max(a, b)] = min(a, b)
        groups = {}
        for p in range(len(self.weights)):
            groups.setdefault(find(p), []).append(p)
        offset = min(l_raw)
        records = []
        for members in groups.values():
            weights = {l_raw[p] for p in members}
            sigs = {
                (sum(m == 0 for m in pairings[p]), sum(m > 0 for m in pairings[p]),
                 sum(m < 0 for m in pairings[p]))
                for p in members
            }
            assert len(weights) == 1 and len(sigs) == 1
            zeros, pos, neg = next(iter(sigs))
            cert = tuple(sorted(int(m) for m in pairings[members[0]]))
            records.append((next(iter(weights)) - offset, zeros, pos, neg, cert, len(members)))
        return records

    def action(self, cocharacter):
        """Model, certificates, equalization, shortness and point count."""
        datum = self.datum
        records = self.records(cocharacter)
        records.sort()
        values = sorted({rec[0] for rec in records})
        components, certificates = [], {}
        for value in values:
            at_level = [rec for rec in records if rec[0] == value]
            for idx, (w, zeros, pos, neg, cert, _) in enumerate(at_level):
                suffix = chr(ord("a") + idx) if len(at_level) > 1 else ""
                name = f"Y{values.index(value)}{suffix}"
                components.append(FixedComponent(name, w, zeros, nu_minus=neg, nu_plus=pos))
                certificates[name] = cert
        root_pairing = [self.pairing(c, cocharacter) for c in self.root_coords]
        equalized = all(root_pairing[r] in (-1, 0, 1) for ts in self.tangents for r in ts)
        short = all(abs(self.pairing(c, cocharacter)) <= 1 for c in self.positive_coords)
        model = validate_action(
            components,
            dim_x=len(self.tangents[self.position[datum.fundamental_weights[self.node - 1]]]),
            equalized=equalized,
            equalization_source="tangent-weights",
        )
        return model, certificates, equalized, short, len(self.weights)


def outcome(fn):
    """A comparable summary of a derivation, or of the error it raised."""
    try:
        model, certificates, equalized, short, count = fn()
    except ActionError as exc:
        return ("error", type(exc).__name__, str(exc))
    comps = [(c.name, c.weight, c.dim, c.nu_minus, c.nu_plus, c.inner) for c in model.components]
    return (comps, model.dim_x, certificates, equalized, short, count)


def engine_outcome(space, cochar):
    def run():
        res = build_action(space, cochar)
        return res.model, res.tangent_certificates, res.equalized, res.is_short, \
            res.fixed_point_count
    return outcome(run)


@functools.lru_cache(maxsize=None)
def oracle(dynkin_type, rank, node):
    return Oracle(EuclideanRootSystem(dynkin_type, rank), node)


def oracle_outcome(datum, node, cochar):
    return outcome(lambda: oracle(datum.dynkin_type, datum.rank, node).action(cochar))


# --------------------------------------------------------------------------
# Equivalence on the grid
# --------------------------------------------------------------------------

SMALL = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
         ("C", 2), ("C", 3), ("C", 4), ("D", 4)]
FUNDAMENTAL_ONLY = [("A", 5), ("D", 5), ("F", 4), ("G", 2), ("E", 6)]


@pytest.mark.parametrize("dynkin_type,rank", SMALL + FUNDAMENTAL_ONLY)
def test_fixed_points_match_oracle(dynkin_type, rank):
    """Same orbit, same tangent roots at every point, in the other coordinates."""
    datum = build_root_system(dynkin_type, rank)
    n = datum.n_positive

    def root(t):  # index t >= n names the negative of positive root t - n
        return datum.coords[t] if t < n else tuple(-c for c in datum.coords[t - n])

    for node in range(1, rank + 1):
        ref = oracle(dynkin_type, rank, node)
        expected = {
            tuple(int(ref.datum.coroot_pairing(w, j)) for j in range(1, rank + 1)):
                frozenset(tuple(int(c) for c in ref.datum.coords(ref.roots[r])) for r in ts)
            for w, ts in zip(ref.weights, ref.tangents)
        }
        got = {
            p.weight: frozenset(root(t) for t in p.tangent_roots)
            for p in enumerate_fixed_points(HomogeneousSpace(datum, node))
        }
        assert got == expected


@pytest.mark.parametrize("dynkin_type,rank", SMALL)
def test_all_small_cocharacters_match_oracle(dynkin_type, rank):
    """Every cocharacter in {-1, 0, 1, 2}^rank at every node."""
    datum = build_root_system(dynkin_type, rank)
    for node in range(1, rank + 1):
        space = HomogeneousSpace(datum, node)
        for cochar in itertools.product((-1, 0, 1, 2), repeat=rank):
            assert engine_outcome(space, cochar) == oracle_outcome(datum, node, cochar), \
                (dynkin_type, rank, node, cochar)


@pytest.mark.parametrize("dynkin_type,rank", SMALL + FUNDAMENTAL_ONLY)
def test_fundamental_cocharacters_match_oracle(dynkin_type, rank):
    datum = build_root_system(dynkin_type, rank)
    for node in range(1, rank + 1):
        space = HomogeneousSpace(datum, node)
        for k in range(1, rank + 1):
            for sign in (1, -1):
                cochar = tuple(sign * x for x in fundamental_cocharacter(rank, k))
                assert engine_outcome(space, cochar) == oracle_outcome(datum, node, cochar), \
                    (dynkin_type, rank, node, cochar)


def test_source_found_off_the_dominant_chamber():
    """A_2, node 1, cocharacter (0, 1): stepping components only from their
    Levi-dominant members loses the source."""
    datum = build_root_system("A", 2)
    res = build_action(HomogeneousSpace(datum, 1), (0, 1))
    assert [(c.name, c.weight, c.dim, c.nu_minus, c.nu_plus) for c in res.model.components] == [
        ("Y0", 0, 1, 0, 1),
        ("Y1", 1, 0, 2, 0),
    ]
    assert engine_outcome(HomogeneousSpace(datum, 1), (0, 1)) == oracle_outcome(datum, 1, (0, 1))


# --------------------------------------------------------------------------
# Properties over random cocharacters
# --------------------------------------------------------------------------


SPACES = [("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 6)] \
    + [("C", n) for n in range(2, 6)] + [("D", n) for n in range(4, 7)] \
    + [("E", 6), ("F", 4), ("G", 2)]


@st.composite
def actions(draw):
    dynkin_type, rank = draw(st.sampled_from(SPACES))
    node = draw(st.integers(1, rank))
    cochar = tuple(draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)))
    return dynkin_type, rank, node, cochar


def signature(res):
    """Level structure of a derivation, without component names."""
    return sorted(
        (c.weight, c.dim, c.nu_minus, c.nu_plus, res.tangent_certificates[c.name])
        for c in res.model.components
    )


def derive(space, cochar):
    try:
        return build_action(space, cochar)
    except ActionError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(actions())
def test_fixed_point_count_is_weyl_index(case):
    dynkin_type, rank, node, _ = case
    datum = build_root_system(dynkin_type, rank)
    others = [k for k in range(rank) if k != node - 1]
    cartan = EuclideanRootSystem(dynkin_type, rank).cartan_matrix
    expected = classified_weyl_order(cartan, range(rank)) // classified_weyl_order(cartan, others)
    assert len(enumerate_fixed_points(HomogeneousSpace(datum, node))) == expected


@settings(max_examples=60, deadline=None)
@given(actions())
def test_inversion_symmetry(case):
    """Negating the cocharacter reverses the levels and swaps nu_minus with
    nu_plus; a model that fails validation fails for both signs."""
    dynkin_type, rank, node, cochar = case
    space = HomogeneousSpace(build_root_system(dynkin_type, rank), node)
    plus, minus = derive(space, cochar), derive(space, tuple(-n for n in cochar))
    if isinstance(plus, type) or isinstance(minus, type):
        assert plus == minus
        return
    delta = plus.model.bandwidth
    assert signature(plus) == sorted(
        (delta - w, dim, up, down, tuple(sorted(-m for m in cert)))
        for w, dim, down, up, cert in signature(minus)
    )
    assert plus.fixed_point_count == minus.fixed_point_count
    assert plus.equalized == minus.equalized and plus.is_short == minus.is_short


@settings(max_examples=60, deadline=None)
@given(actions(), st.lists(st.integers(0, 7), max_size=6))
def test_weyl_conjugation_invariance(case, word):
    """Conjugating the cocharacter by a Weyl group element gives the same
    level signatures: s_k(n)_i = n_i - n_k * <alpha_i, alpha_k^vee>."""
    dynkin_type, rank, node, cochar = case
    datum = build_root_system(dynkin_type, rank)
    space = HomogeneousSpace(datum, node)
    moved = list(cochar)
    for k in (k % rank for k in word):
        n_k = moved[k]
        moved = [n - n_k * datum.cartan_matrix[k][i] for i, n in enumerate(moved)]
    before, after = derive(space, cochar), derive(space, tuple(moved))
    if isinstance(before, type) or isinstance(after, type):
        assert before == after
        return
    assert signature(before) == signature(after)
    assert grading(datum, cochar).graded_dims == grading(datum, tuple(moved)).graded_dims


# --------------------------------------------------------------------------
# The coset cap
# --------------------------------------------------------------------------


@pytest.mark.parametrize("dynkin_type,rank,node,count", [
    ("A", 5, 3, 20),
    ("D", 5, 5, 16),
    ("E", 6, 2, 72),
])
def test_coset_cap_is_exact(dynkin_type, rank, node, count):
    space = HomogeneousSpace(build_root_system(dynkin_type, rank), node)
    assert len(enumerate_fixed_points(space, max_cosets=count)) == count
    assert build_action(space, fundamental_cocharacter(rank, 1), max_cosets=count) \
        .fixed_point_count == count
    with pytest.raises(CosetLimitError) as exc:
        enumerate_fixed_points(space, max_cosets=count - 1)
    assert str(exc.value) == (
        f"{space.label}: more than {count - 1} fixed points; raise max_cosets to enumerate"
    )


# --------------------------------------------------------------------------
# Weyl group orders and the Levi subgroup
# --------------------------------------------------------------------------


@pytest.mark.parametrize("dynkin_type,rank,order", [
    ("A", 1, 2), ("A", 2, 6), ("A", 5, 720), ("A", 8, math.factorial(9)),
    ("B", 2, 8), ("B", 3, 48), ("B", 6, 2 ** 6 * math.factorial(6)),
    ("C", 3, 48), ("C", 6, 2 ** 6 * math.factorial(6)),
    ("D", 3, 24), ("D", 4, 192), ("D", 8, 2 ** 7 * math.factorial(8)),
    ("E", 6, 51_840), ("E", 7, 2_903_040), ("E", 8, 696_729_600),
    ("F", 4, 1152), ("G", 2, 12),
])
def test_weyl_order_textbook(dynkin_type, rank, order):
    datum = build_root_system(dynkin_type, rank)
    assert weyl_order(datum, tuple(range(rank))) == order
    assert weyl_order(datum, ()) == 1


@pytest.mark.parametrize("dynkin_type,rank", SPACES + [("E", 7), ("E", 8)])
def test_weyl_order_of_every_node_subset(dynkin_type, rank):
    """The product over root heights equals the order that the
    classification of the subdiagram's connected pieces gives, read off the
    Euclidean realization's Cartan matrix, on every subset of nodes."""
    datum = build_root_system(dynkin_type, rank)
    cartan = EuclideanRootSystem(dynkin_type, rank).cartan_matrix
    for size in range(rank + 1):
        for nodes in itertools.combinations(range(rank), size):
            assert weyl_order(datum, nodes) == classified_weyl_order(cartan, nodes), nodes


@st.composite
def gradings(draw):
    dynkin_type, rank = draw(st.sampled_from(SPACES + [("E", 7), ("E", 8)]))
    return dynkin_type, rank, tuple(draw(st.lists(st.integers(-2, 2), min_size=rank,
                                                  max_size=rank)))


@settings(max_examples=80, deadline=None)
@given(gradings())
def test_dominant_cocharacter(case):
    """The dominant cocharacter has no negative coefficient, is its own
    dominant cocharacter, grades the Lie algebra the same way, and its
    weight-zero positive roots are those supported on its zero nodes."""
    dynkin_type, rank, cochar = case
    datum = build_root_system(dynkin_type, rank)
    dominant = dominant_cocharacter(datum, cochar)
    assert min(dominant) >= 0
    assert dominant_cocharacter(datum, dominant) == dominant
    if min(cochar) >= 0:
        assert dominant == cochar
    assert grading(datum, dominant).graded_dims == grading(datum, cochar).graded_dims
    zero_nodes = [k for k, n in enumerate(dominant) if n == 0]
    assert [r for r, m in enumerate(datum.pairings(dominant)) if m == 0] == [
        r for r, c in enumerate(datum.coords) if all(c[k] == 0 or k in zero_nodes
                                                     for k in range(rank))
    ]


@pytest.mark.parametrize("cochar", [(1, 0, 0, 0), (0, -1, 0, -1), (-1, 0)])
def test_cocharacter_of_the_wrong_length(cochar):
    """Refused before it is moved into the dominant chamber, where a longer
    one would lose its last entries."""
    space = HomogeneousSpace(build_root_system("A", 3), 2)
    with pytest.raises(IllegalTypeError) as exc:
        build_action(space, cochar)
    assert str(exc.value) == f"cocharacter has {len(cochar)} entries, rank is 3"


# --------------------------------------------------------------------------
# Equalized exactly when short
# --------------------------------------------------------------------------

# Cap on the fixed points of the varieties below, which leaves out the E8
# varieties of more than 20,000 points.
EQUALIZED_CAP = 20_000


def assert_equalized_iff_short(dynkin_type, rank, node, cochar):
    """The action on the variety marked at ``node`` is equalized just when
    the grading is short.  The highest root and the highest short root lie
    in the unipotent radical of P, so the Weyl group moves the tangent roots
    at the fixed points onto every root: every root pairing is a tangent
    weight somewhere.  A variety above the cap is left out."""
    datum = build_root_system(dynkin_type, rank)
    try:
        res = build_action(HomogeneousSpace(datum, node), cochar, max_cosets=EQUALIZED_CAP)
    except CosetLimitError:
        return
    assert res.equalized == grading(datum, cochar).is_short, (dynkin_type, rank, node, cochar)


@pytest.mark.parametrize("dynkin_type,rank", SPACES + [("E", 7), ("E", 8)])
def test_equalized_exactly_when_short_at_fundamental_cocharacters(dynkin_type, rank):
    for node in range(1, rank + 1):
        for k in range(1, rank + 1):
            assert_equalized_iff_short(dynkin_type, rank, node, fundamental_cocharacter(rank, k))


@settings(max_examples=80, deadline=None)
@given(gradings(), st.integers(1, 8))
def test_equalized_exactly_when_short(case, node):
    """Over cocharacters with entries in [-2, 2]; the zero one gives no
    action."""
    dynkin_type, rank, cochar = case
    if any(cochar):
        assert_equalized_iff_short(dynkin_type, rank, 1 + (node - 1) % rank, cochar)


# --------------------------------------------------------------------------
# The component walk
# --------------------------------------------------------------------------


def walk_records(datum, node, cochar):
    """(level, certificate, points) per component, from the walk at the
    dominant cocharacter of ``cochar``."""
    dominant = dominant_cocharacter(datum, cochar)
    levi = _Levi(datum, dominant)
    pairings = levi.root_pairings
    walk = levi.walk(node, HomogeneousSpace(datum, node).fixed_point_count)
    lowest = min(level for _, level, _, _ in walk)
    return sorted(
        (level - lowest,
         tuple(sorted(m if p > 0 else -m for p, m in zip(acc, pairings) if p)),
         points)
        for _, level, acc, points in walk
    )


@settings(max_examples=40, deadline=None)
@given(actions())
def test_component_points_match_oracle(case):
    """Each component holds |W_L| / |W_{L,mu}| points: the size of the
    oracle's group, and the sizes add up to |W/W_P|."""
    dynkin_type, rank, node, cochar = case
    datum = build_root_system(dynkin_type, rank)
    got = walk_records(datum, node, cochar)
    want = sorted((rec[0], rec[4], rec[5]) for rec in oracle(dynkin_type, rank, node).records(cochar))
    assert got == want
    assert sum(points for *_, points in got) == HomogeneousSpace(datum, node).fixed_point_count


def test_point_count_breaks_a_naming_tie():
    """B_5(3) with cocharacter (0, 1, 0, 0, 0): level 2 holds two components
    with the same dimension, normal ranks and certificate, of 8 and 12
    points.  The walk counts their points, and they are named Y2a and Y2b
    (their report entries agree, so the names cannot swap anything)."""
    datum = build_root_system("B", 5)
    space = HomogeneousSpace(datum, 3)
    cochar = (0, 1, 0, 0, 0)
    res = build_action(space, cochar)
    assert [points for level, _, points in walk_records(datum, 3, cochar) if level == 2] == [8, 12]
    level2 = [(c.name, c.weight, c.dim, c.nu_minus, c.nu_plus, res.tangent_certificates[c.name])
              for c in res.model.components if c.weight == 2]
    cert = (-1,) * 6 + (0,) * 6 + (1,) * 6
    assert level2 == [("Y2a", 2, 6, 6, 6, cert), ("Y2b", 2, 6, 6, 6, cert)]
    ref = oracle("B", 5, 3)
    assert sorted(rec[5] for rec in ref.records(cochar) if rec[0] == 2) == [8, 12]
    assert engine_outcome(space, cochar) == oracle_outcome(datum, 3, cochar)


def dominant_calls(monkeypatch, space, cochar, **kwargs):
    """The derived action and the number of ``_Levi.dominant`` calls made."""
    calls = []
    dominant = _Levi.dominant

    def counting(self, mu):
        calls.append(mu)
        return dominant(self, mu)

    monkeypatch.setattr(_Levi, "dominant", counting)
    res = build_action(space, cochar, **kwargs)
    monkeypatch.undo()
    return res, len(calls)


SPECS = Path(__file__).resolve().parent.parent / "specs"


def test_pipeline_never_walks_points(monkeypatch):
    """The pipeline derives Lie specs from the component walk alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_fixed_points called")

    monkeypatch.setattr(homogeneous, "enumerate_fixed_points", refuse)
    lie_specs = [spec for spec in map(parse_spec, sorted(SPECS.glob("*.json"))) if spec.lie]
    assert lie_specs
    for spec in lie_specs:
        datum = build_root_system(spec.lie.dynkin_type, spec.lie.rank)
        build_action(HomogeneousSpace(datum, spec.lie.node), spec.lie.cocharacter)
        run_pipeline(spec).to_json()


@pytest.mark.parametrize("node,k,points,components", [
    (4, 8, 483_840, 15),
    (5, 1, 241_920, 35),
])
def test_e8_components(node, k, points, components):
    """E_8 varieties far past the default cap: the walk visits one weight
    per component."""
    datum = build_root_system("E", 8)
    space = HomogeneousSpace(datum, node)
    cochar = fundamental_cocharacter(8, k)
    plus = build_action(space, cochar, max_cosets=500_000)
    minus = build_action(space, tuple(-n for n in cochar), max_cosets=500_000)
    assert plus.fixed_point_count == minus.fixed_point_count == points
    assert len(plus.model.components) == len(minus.model.components) == components
    for res in (plus, minus):
        for c in res.model.components:
            assert c.dim + c.nu_minus + c.nu_plus == res.model.dim_x
    delta = plus.model.bandwidth
    assert signature(plus) == sorted(
        (delta - w, dim, up, down, tuple(sorted(-m for m in cert)))
        for w, dim, down, up, cert in signature(minus)
    )
    assert sum(count for *_, count in walk_records(datum, node, cochar)) == points


def test_walk_stops_at_the_last_component(monkeypatch):
    """The walk stops once the point counts of the components found add up
    to |W/W_P|: E_8(4) at cocharacter omega_4 has 1,437 components, and
    walking every step from each of them makes 136,390 ``dominant`` calls."""
    space = HomogeneousSpace(build_root_system("E", 8), 4)
    res, calls = dominant_calls(monkeypatch, space, fundamental_cocharacter(8, 4),
                                max_cosets=500_000)
    assert len(res.model.components) == 1437
    assert calls < 40_000


def test_walk_steps_per_component_on_shipped_specs(monkeypatch):
    lie_specs = [spec for spec in map(parse_spec, sorted(SPECS.glob("*.json"))) if spec.lie]
    assert lie_specs
    for spec in lie_specs:
        space = HomogeneousSpace(build_root_system(spec.lie.dynkin_type, spec.lie.rank),
                                 spec.lie.node)
        res, calls = dominant_calls(monkeypatch, space, spec.lie.cocharacter)
        assert calls <= 2 * len(res.model.components), spec.name


@pytest.mark.parametrize("dynkin_type,rank,node,cochar,components,bound", [
    ("E", 8, 4, fundamental_cocharacter(8, 4), 1437, 15_000),
    ("C", 32, 16, tuple([int(k in (8, 32)) for k in range(1, 33)]), 525, 4_000),
])
def test_steps_into_found_components_are_pruned(monkeypatch, dynkin_type, rank, node, cochar,
                                                components, bound):
    """From a component with a step that reached a component already found,
    the walk steps only in the J-dominant tangent roots: E_8(4) at omega_4
    made 18,416 ``dominant`` calls without that rule and C_32(16) at
    omega_8 + omega_32 65,385."""
    space = HomogeneousSpace(build_root_system(dynkin_type, rank), node)
    res, calls = dominant_calls(monkeypatch, space, cochar, max_cosets=10**14)
    assert len(res.model.components) == components
    assert calls <= bound


# Every type up to rank 6, and E_6, E_7 and F_4, on varieties of at most
# PRUNED_CAP fixed points: the walk below steps from every component in
# every tangent root.
PRUNED_SPACES = [(t, n) for t, n in TYPES_TO_RANK_8 if n <= 6] + [("E", 7), ("F", 4)]
PRUNED_CAP = 2_000


def unpruned_walk(levi, node):
    """(mu, level, points) per component, from every step out of every
    component found, with no stabilizer filter and no stop at the last
    component."""
    datum, pairings = levi.datum, levi.root_pairings
    start = tuple(int(i == node - 1) for i in range(datum.rank))
    levels, stack = {start: 0}, [start]
    while stack:
        mu = stack.pop()
        for r, (labels, coroot) in enumerate(zip(datum.labels, datum.coroots)):
            p = sum(m * c for m, c in zip(mu, coroot))  # <mu, beta_r^vee>
            if p and pairings[r]:
                w = levi.dominant([a - p * b for a, b in zip(mu, labels)])
                if w not in levels:
                    levels[w] = levels[mu] + p * pairings[r]
                    stack.append(w)
    order = weyl_order(datum, tuple(levi.simple))
    return {(mu, level, order // weyl_order(datum, tuple(j for j in levi.simple if not mu[j])))
            for mu, level in levels.items()}


@st.composite
def pruned_actions(draw):
    dynkin_type, rank = draw(st.sampled_from(PRUNED_SPACES))
    node = draw(st.integers(1, rank))
    cochar = tuple(draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)))
    return dynkin_type, rank, node, cochar


@settings(max_examples=120, deadline=None)
@given(pruned_actions())
def test_pruned_walk_finds_every_component(case):
    """The walk's steps only in J-dominant tangent roots, once a component
    has stepped into one already found, reach the same components, at the
    same levels and with the same point counts, as every step from every
    component."""
    dynkin_type, rank, node, cochar = case
    datum = build_root_system(dynkin_type, rank)
    space = HomogeneousSpace(datum, node)
    if space.fixed_point_count > PRUNED_CAP:
        return
    levi = _Levi(datum, dominant_cocharacter(datum, cochar))
    walk = levi.walk(node, space.fixed_point_count)
    assert {(mu, level, points) for mu, level, _, points in walk} == unpruned_walk(levi, node)
    assert len(walk) == len({mu for mu, *_ in walk})
