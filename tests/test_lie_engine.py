"""The integer Lie engine against a Euclidean ``Fraction`` oracle, plus
properties of the derived actions over random cocharacters.

The oracle below is the earlier engine: weights and roots as ``Fraction``
vectors in the Bourbaki realization, reflected by the Euclidean formula.  It
lives here only, as a reference for small ranks.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarflips.actions import ActionError, validate_action
from cstarflips.lie.homogeneous import (
    CosetLimitError,
    HomogeneousSpace,
    build_action,
    enumerate_fixed_points,
)
from cstarflips.lie.roots import build_root_system, fundamental_cocharacter, grading


# --------------------------------------------------------------------------
# Fraction oracle
# --------------------------------------------------------------------------


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _coroot(alpha):
    norm = _dot(alpha, alpha)
    return tuple(2 * a / norm for a in alpha)


def _reflect(v, alpha, coroot):
    coeff = _dot(v, coroot)
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

    def action(self, cocharacter):
        """Model, certificates, equalization, shortness and point count."""
        datum = self.datum

        def pairing(coords):
            return sum((c * n for c, n in zip(coords, cocharacter) if n), Fraction(0))

        l_raw = [-pairing(c) for c in self.weight_coords]
        root_pairing = [pairing(c) for c in self.root_coords]
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
        records.sort()
        values = sorted({rec[0] for rec in records})
        components, certificates = [], {}
        for value in values:
            at_level = [rec for rec in records if rec[0] == value]
            for idx, (w, zeros, pos, neg, cert, _) in enumerate(at_level):
                suffix = chr(ord("a") + idx) if len(at_level) > 1 else ""
                name = f"Y{values.index(value)}{suffix}"
                components.append(
                    {"name": name, "weight": w, "dim": zeros, "nu_minus": neg, "nu_plus": pos}
                )
                certificates[name] = cert
        equalized = all(m in (-1, 0, 1) for ms in pairings for m in ms)
        short = all(abs(pairing(c)) <= 1 for c in self.positive_coords)
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
    return Oracle(build_root_system(dynkin_type, rank), node)


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
    table = datum.table
    for node in range(1, rank + 1):
        ref = oracle(dynkin_type, rank, node)
        expected = {
            tuple(int(datum.coroot_pairing(w, j)) for j in range(1, rank + 1)):
                frozenset(tuple(int(c) for c in datum.coords(ref.roots[r])) for r in ts)
            for w, ts in zip(ref.weights, ref.tangents)
        }
        got = {
            p.weight: frozenset(table.coords[t] for t in p.tangent_roots)
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


def weyl_order(cartan, nodes):
    """Order of the Weyl group of the subdiagram on ``nodes``, from the
    classification of its connected pieces."""
    nodes = set(nodes)
    order = 1
    while nodes:
        comp, stack = set(), [nodes.pop()]
        while stack:
            v = stack.pop()
            comp.add(v)
            for u in list(nodes):
                if cartan[v][u]:
                    nodes.discard(u)
                    stack.append(u)
        m = len(comp)
        bonds = {cartan[i][j] * cartan[j][i] for i in comp for j in comp if i != j}
        degree = {v: sum(1 for u in comp if u != v and cartan[v][u]) for v in comp}
        if 3 in bonds:
            order *= 12
        elif 2 in bonds:
            ends = [v for v in comp if any(cartan[v][u] * cartan[u][v] == 2 for u in comp)]
            middle = m == 4 and all(degree[v] == 2 for v in ends)
            order *= 1152 if middle else 2 ** m * math.factorial(m)
        elif max(degree.values(), default=0) < 3:
            order *= math.factorial(m + 1)
        else:
            branch = next(v for v in comp if degree[v] == 3)
            arms = sorted(
                len(weyl_arm(cartan, comp - {branch}, u))
                for u in comp if u != branch and cartan[branch][u]
            )
            if arms[:2] == [1, 1]:
                order *= 2 ** (m - 1) * math.factorial(m)
            else:
                order *= {(1, 2, 2): 51840, (1, 2, 3): 2903040, (1, 2, 4): 696729600}[tuple(arms)]
    return order


def weyl_arm(cartan, nodes, start):
    arm, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for u in nodes:
            if u not in arm and cartan[v][u]:
                arm.add(u)
                stack.append(u)
    return arm


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
    expected = weyl_order(datum.cartan_matrix, range(rank)) // weyl_order(datum.cartan_matrix, others)
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
