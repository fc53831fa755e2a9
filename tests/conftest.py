import functools
import math
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

import pytest
from hypothesis import settings, strategies as st

from cstarflips import actions
from cstarflips.actions import (
    ActionModel,
    FixedComponent,
    InvalidActionError,
    Violation,
    blowup_extremal,
    exact_component,
    shown,
    validate_action,
)
from cstarflips.lie.homogeneous import HomogeneousSpace, IllegalRangeError, build_action
from cstarflips.lie.roots import build_root_system

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


def components(rows) -> list[FixedComponent]:
    return [
        FixedComponent(name, w, d, nu_minus=nm, nu_plus=np_) for (name, w, d, nm, np_) in rows
    ]


def model_from_rows(rows, dim_x) -> ActionModel:
    return validate_action(components(rows), dim_x)


# Gr(2,4) with the balanced splitting: isolated sink and source, r = 2.
GR24_ROWS = [
    ("Y0", 0, 0, 0, 4),
    ("Y1", 1, 2, 1, 1),
    ("Y2", 2, 0, 4, 0),
]

# Gr(2,5): isolated sink, 2-dimensional source, r = 2.
A42_ROWS = [
    ("Y0", 0, 0, 0, 6),
    ("Y1", 1, 3, 1, 2),
    ("Y2", 2, 2, 4, 0),
]

# Synthetic bordism with r = 3 (positive-dimensional extremes, inner nu >= 2).
BORDISM_R3_ROWS = [
    ("S", 0, 3, 0, 5),
    ("M1", 1, 2, 2, 4),
    ("M2", 2, 3, 3, 2),
    ("T", 3, 4, 4, 0),
]

# Adjoint-style bordism with r = 2.
BORDISM_R2_ROWS = [
    ("S", 0, 2, 0, 4),
    ("M", 1, 2, 2, 2),
    ("T", 2, 2, 4, 0),
]


@pytest.fixture
def gr24():
    return model_from_rows(GR24_ROWS, 4)


@pytest.fixture
def gr24_flat(gr24):
    return blowup_extremal(gr24)


@pytest.fixture
def a42():
    return model_from_rows(A42_ROWS, 6)


@pytest.fixture
def a42_flat(a42):
    return blowup_extremal(a42)


@pytest.fixture
def bordism_r3():
    return model_from_rows(BORDISM_R3_ROWS, 8)


@pytest.fixture
def bordism_r3_flat(bordism_r3):
    return blowup_extremal(bordism_r3)


@pytest.fixture
def bordism_r2_flat():
    return blowup_extremal(model_from_rows(BORDISM_R2_ROWS, 6))


# Whether the sink and the source are points, per extremal case.
CASE_ISOLATED = {
    "bordism": (False, False),
    "isolated-sink": (True, False),
    "isolated-source": (False, True),
    "isolated-both": (True, True),
}


def critical_values(r: int):
    """r + 1 increasing rationals: a start in [-3, 3] and steps in
    [1/12, 4], each with a denominator of at most 12."""
    start = st.fractions(-3, 3, max_denominator=12)
    steps = st.lists(st.fractions(Fraction(1, 12), 4, max_denominator=12), min_size=r, max_size=r)

    def chain(drawn):
        values = [drawn[0]]
        for step in drawn[1]:
            values.append(values[-1] + step)
        return values

    return st.tuples(start, steps).map(chain)


@st.composite
def action_models(draw, min_r=2, max_r=5, case=None):
    """Random valid non-flat models: rational critical values (see
    :func:`critical_values`), one or two components per inner level,
    extremes of any dimension, or points exactly where the extremal ``case``
    says."""
    r = draw(st.integers(min_r, max_r))
    dim_x = draw(st.integers(4, 9))
    a = draw(critical_values(r))
    rows = []

    def extreme_dim(isolated):
        if isolated is None:
            return draw(st.integers(0, dim_x - 2))
        return 0 if isolated else draw(st.integers(1, dim_x - 2))

    sink_isolated, source_isolated = CASE_ISOLATED[case] if case else (None, None)
    sink_dim = extreme_dim(sink_isolated)
    source_dim = extreme_dim(source_isolated)
    rows.append(("Y0", a[0], sink_dim, 0, dim_x - sink_dim))
    rows.append((f"Y{r}", a[r], source_dim, dim_x - source_dim, 0))
    for level in range(1, r):
        n_comps = draw(st.integers(1, 2))
        for idx in range(n_comps):
            nu_minus = draw(st.integers(1, dim_x - 2))
            nu_plus = draw(st.integers(1, dim_x - 1 - nu_minus))
            dim = dim_x - nu_minus - nu_plus
            rows.append((f"Y{level}{'ab'[idx]}", a[level], dim, nu_minus, nu_plus))
    return model_from_rows(rows, dim_x)


def synthetic_case_model(case: str, r: int = 3) -> ActionModel:
    """A valid non-flat model with the requested extremal-dimension case."""
    dim_x = 8
    sink_dim = 0 if case in ("isolated-sink", "isolated-both") else 3
    source_dim = 0 if case in ("isolated-source", "isolated-both") else 3
    rows = [("Y0", 0, sink_dim, 0, dim_x - sink_dim)]
    for level in range(1, r):
        rows.append((f"Y{level}", level, 2, 2 + (level % 2), dim_x - 4 - (level % 2)))
    rows.append((f"Y{r}", r, source_dim, dim_x - source_dim, 0))
    return model_from_rows(rows, dim_x)


# --------------------------------------------------------------------------
# Validation in one loop: an oracle for the grouping and the check
# --------------------------------------------------------------------------

# The order of two weight keys (numerator, denominator), by cross-product.
_BY_WEIGHT_KEY = functools.cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])


def _one_loop_check(comps: list, dim_x: int):
    """The violations and the (key, components) levels, as validation found
    them when one loop grouped the components and checked them: the
    violations in their codes, messages and order, the levels in increasing
    weight, each level's components in input order."""
    if not comps:
        return [Violation(actions.EMPTY_SPEC, "no fixed components given")], []
    violations = []
    if dim_x <= 0:
        message = f"dim_X = {shown(str(dim_x))} is not positive"
        violations.append(Violation(actions.NON_POSITIVE_DIM, message))
    seen = set()
    groups = {}
    level_of = []
    for c in comps:
        if c.name in seen:
            message = f"component name {shown(repr(c.name))} repeated"
            violations.append(Violation(actions.DUPLICATE_NAME, message, c.name))
        seen.add(c.name)
        level = groups.setdefault(c.weight.as_integer_ratio(), [])
        level.append(c)
        level_of.append(level)
        if c.dim < 0 or c.nu_minus < 0 or c.nu_plus < 0:
            message = f"negative field on {shown(repr(c.name))}"
            violations.append(Violation(actions.NEGATIVE_FIELD, message, c.name))
            continue
        total = c.dim + c.nu_minus + c.nu_plus
        if total != dim_x and dim_x > 0:
            message = (f"{shown(repr(c.name))}: dim + nu_minus + nu_plus = {shown(str(total))} "
                       f"!= dim_x = {shown(str(dim_x))}")
            violations.append(Violation(actions.DIMENSION_MISMATCH, message, c.name))

    levels = [(key, groups[key]) for key in sorted(groups, key=_BY_WEIGHT_KEY)]
    if len(levels) < 2:
        violations.append(Violation(actions.TRIVIAL_ACTION, "action has a single critical value"))
        return violations, levels

    sink, source = levels[0][1], levels[-1][1]
    for c, level in zip(comps, level_of):
        if level is sink:
            if c.nu_minus != 0:
                message = f"sink component {shown(repr(c.name))} has nu_minus != 0"
                violations.append(Violation(actions.EXTREMAL_NONZERO_NU, message, c.name))
        elif level is source:
            if c.nu_plus != 0:
                message = f"source component {shown(repr(c.name))} has nu_plus != 0"
                violations.append(Violation(actions.EXTREMAL_NONZERO_NU, message, c.name))
        elif c.nu_minus == 0 or c.nu_plus == 0:
            message = f"inner component {shown(repr(c.name))} has nu_minus or nu_plus equal to 0"
            violations.append(Violation(actions.NON_EXTREMAL_ZERO_NU, message, c.name))
    for label, level in (("sink", sink), ("source", source)):
        if len(level) != 1:
            message = f"{label} level has more than one component"
            violations.append(Violation(actions.REDUCIBLE_EXTREMAL_LEVEL, message))
    return violations, levels


def one_loop_validate(components, dim_x: int, **fields) -> ActionModel:
    """``validate_action`` as it was with :func:`_one_loop_check`: raises its
    violations, else builds the model from its levels, each level shifted
    by the sink's weight, sorted by name and flagged inner between the
    extremes."""
    violations, groups = _one_loop_check(list(components), dim_x)
    if violations:
        raise InvalidActionError(violations)
    (base_n, base_d), sink = groups[0]
    r = len(groups) - 1
    levels = []
    for k, ((n, d), group) in enumerate(groups):
        weight = Fraction(n * base_d - base_n * d, d * base_d)
        levels.append((weight, tuple([
            exact_component((c.name, weight, c.dim, c.nu_minus, c.nu_plus, 0 < k < r))
            for c in sorted(group, key=attrgetter("name"))
        ])))
    return ActionModel(dim_x, tuple(levels), weight_offset=Fraction(sink[0].weight), **fields)


# --------------------------------------------------------------------------
# Euclidean realization of the root systems
# --------------------------------------------------------------------------


def dot(u, v):
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def _invert(matrix):
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def euclidean_simple_roots(dynkin_type, rank):
    """Simple roots in the standard realizations of Bourbaki's plates, as
    ``Fraction`` vectors."""
    t, n = dynkin_type, rank
    half = Fraction(1, 2)

    def e(dim, *terms):  # sum of c * e_k over the (k, c) in terms, 0-based
        v = [Fraction(0)] * dim
        for k, c in terms:
            v[k] += c
        return tuple(v)

    if t == "A":
        return [e(n + 1, (i, 1), (i + 1, -1)) for i in range(n)]
    chain = [e(n, (i, 1), (i + 1, -1)) for i in range(n - 1)]
    if t == "B":
        return chain + [e(n, (n - 1, 1))]
    if t == "C":
        return chain + [e(n, (n - 1, 2))]
    if t == "D":
        return chain + [e(n, (n - 2, 1), (n - 1, 1))]
    if t == "E":
        alpha1 = tuple(half if k in (0, 7) else -half for k in range(8))
        return [alpha1, e(8, (0, 1), (1, 1))] + [e(8, (i + 1, 1), (i, -1)) for i in range(n - 2)]
    if t == "F":
        return [e(4, (1, 1), (2, -1)), e(4, (2, 1), (3, -1)), e(4, (3, 1)), (half, -half, -half, -half)]
    if t == "G":
        return [e(3, (0, 1), (1, -1)), e(3, (0, -2), (1, 1), (2, 1))]
    raise ValueError(f"unknown Dynkin type {dynkin_type!r}")


class EuclideanRootSystem:
    """A root system in its Euclidean realization, derived from the simple
    roots alone: the Cartan matrix and root norms from their inner products,
    every root as the closure of the simple roots under their reflections,
    the fundamental weights, and coordinates in the simple roots.  It shares
    no code with ``cstarflips.lie.roots``, whose hand-written Cartan matrices
    and integer root tables it checks."""

    def __init__(self, dynkin_type, rank):
        self.dynkin_type, self.rank = dynkin_type, rank
        self.simple_roots = euclidean_simple_roots(dynkin_type, rank)
        self.gram = [[dot(a, b) for b in self.simple_roots] for a in self.simple_roots]
        self.norms = tuple(self.gram[i][i] for i in range(rank))
        self.cartan_matrix = tuple(
            tuple(2 * self.gram[i][j] / self.gram[i][i] for j in range(rank)) for i in range(rank)
        )
        self._coords = {}

    @functools.cached_property
    def gram_inverse(self):
        return _invert(self.gram)

    def combine(self, coefficients):
        """The vector sum_k coefficients[k] * (k-th simple root)."""
        return tuple(
            sum((c * a[axis] for c, a in zip(coefficients, self.simple_roots)), Fraction(0))
            for axis in range(len(self.simple_roots[0]))
        )

    def coords(self, v):
        """Coordinates of v, in the span of the roots, in the simple roots."""
        if v not in self._coords:
            rhs = [dot(v, a) for a in self.simple_roots]
            self._coords[v] = tuple(dot(row, rhs) for row in self.gram_inverse)
        return self._coords[v]

    def coroot_pairing(self, v, j):
        """Pairing of v with the coroot of the j-th simple root (1-based)."""
        return 2 * dot(v, self.simple_roots[j - 1]) / self.norms[j - 1]

    def pairing(self, v, cocharacter):
        """Pairing of v with sum_k cocharacter[k] * (k-th fundamental coweight)."""
        return dot(self.coords(v), cocharacter)

    def coroot(self, beta):
        """beta^vee = 2 beta / (beta, beta) in simple-coroot coordinates:
        its pairings with the fundamental weights."""
        return tuple(2 * dot(w, beta) / dot(beta, beta) for w in self.fundamental_weights)

    @functools.cached_property
    def roots(self):
        """Every root, positive and negative."""
        seen = set(self.simple_roots)
        frontier = list(seen)
        while frontier:
            new = []
            for v in frontier:
                for j, alpha in enumerate(self.simple_roots, 1):
                    c = self.coroot_pairing(v, j)
                    w = tuple(x - c * y for x, y in zip(v, alpha))
                    if w not in seen:
                        seen.add(w)
                        new.append(w)
            frontier = new
        return tuple(sorted(seen))

    @functools.cached_property
    def positive_roots(self):
        """The roots with nonnegative coordinates, by height."""
        coords = {a: self.coords(a) for a in self.roots}
        positive = [a for a in self.roots if min(coords[a]) >= 0]
        return tuple(sorted(positive, key=lambda a: (sum(coords[a]), a)))

    @functools.cached_property
    def fundamental_weights(self):
        """omega_k with (omega_k, alpha_i) = delta_ik (alpha_k, alpha_k) / 2."""
        return tuple(
            self.combine([self.norms[k] / 2 * row[k] for row in self.gram_inverse])
            for k in range(self.rank)
        )

# Weyl group orders from the classification of connected Dynkin diagrams,
# an oracle for the engine's product over root heights.
_E_ORDERS = {6: 51_840, 7: 2_903_040, 8: 696_729_600}


def classified_weyl_order(cartan, nodes) -> int:
    """Order of the Weyl group of the subdiagram on ``nodes`` (0-based): the
    product of the textbook orders of its connected pieces, each told apart
    by its bonds.  ``cartan[i][j] = <alpha_j, alpha_i^vee>``."""
    rest = set(nodes)
    order = 1
    while rest:
        piece = [rest.pop()]
        bonds = []  # (v, u, <alpha_u, alpha_v^vee> <alpha_v, alpha_u^vee>)
        for v in piece:  # the piece grows while it is scanned
            near = [u for u in rest if cartan[v][u]]
            rest.difference_update(near)
            piece += near
            bonds += [(v, u, cartan[v][u] * cartan[u][v]) for u in near]
        order *= _irreducible_order(len(piece), bonds)
    return order


def _irreducible_order(m: int, bonds: list) -> int:
    """|W| of a connected Dynkin diagram on ``m`` nodes with these bonds."""
    if m == 1:  # A_1
        return 2
    ends = [v for v, _, _ in bonds] + [u for _, u, _ in bonds]  # a node once per bond
    products = [product for _, _, product in bonds]
    if 3 in products:  # G_2
        return 12
    if 2 in products:  # B_m or C_m, or F_4 with its double bond in the middle
        v, u, _ = bonds[products.index(2)]
        middle = m == 4 and ends.count(v) == ends.count(u) == 2
        return 1152 if middle else 2 ** m * math.factorial(m)
    branch = [v for v in ends if ends.count(v) == 3]
    if not branch:  # A_m
        return math.factorial(m + 1)
    # D_m has two arms of length one at its branch node, E_m only one
    b = branch[0]
    arms = [u if v == b else v for v, u, _ in bonds if b in (v, u)]
    short_arms = sum(1 for x in arms if ends.count(x) == 1)
    return 2 ** (m - 1) * math.factorial(m) if short_arms >= 2 else _E_ORDERS[m]


def dominant_at_minimum(vector, matrix, nodes=None) -> tuple:
    """The dominant vector in the Weyl orbit of ``vector``, found by
    reflecting at its least entry, rescanned after every reflection:
    ``s_k(v)_i = v_i - v_k * matrix[k][i]``.  With the Cartan matrix this
    moves a cocharacter, with its transpose a weight in Dynkin labels; an
    oracle for the engine's one reflection loop over the sparse tables.
    Given ``nodes``, it reflects at those only, for the Weyl group of a
    Levi subgroup, and the result is dominant at those nodes."""
    v = list(vector)
    nodes = range(len(v)) if nodes is None else nodes
    while nodes and min([v[k] for k in nodes]) < 0:
        k = min(nodes, key=v.__getitem__)
        v = [a - v[k] * c for a, c in zip(v, matrix[k])]
    return tuple(v)


# Every legal type up to rank 8, and the exceptional ones.
TYPES_TO_RANK_8 = [(t, n) for t, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                   for n in range(low, 9)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


# The Grassmannian closed form, an oracle that shares no code with the Lie
# engine it checks.
def _grass_part(rank: int, index: int) -> str:
    if index == 0 or index == rank + 1:
        return "pt"
    return f"A_{rank}({index})"


class GrassmannianLevel(NamedTuple):
    label: str
    weight: int
    dim: int
    nu_minus: int
    nu_plus: int


def grassmannian_reference(n: int, i: int, k: int) -> list[GrassmannianLevel]:
    """Closed-form fixed-point data for the Grassmannian of i-planes in n+1
    space, split by a k-dimensional coordinate subspace.

    Level j (weight j) is the product of the i-j planes in the first factor
    with the j planes in the second: dimension (i-j)(k-i+j) + j(n+1-k-j),
    downward rank j(k-i+j), upward rank (i-j)(n+1-k-j).
    """
    if not (1 <= i <= k <= n + 1 - k):
        raise IllegalRangeError(f"need 1 <= i <= k <= n+1-k, got (n, i, k) = ({n}, {i}, {k})")
    out = []
    for j in range(i + 1):
        parts = [p for p in (_grass_part(k - 1, i - j), _grass_part(n - k, j)) if p != "pt"]
        label = " x ".join(parts) if parts else "pt"
        out.append(
            GrassmannianLevel(
                label=label,
                weight=j,
                dim=(i - j) * (k - i + j) + j * (n + 1 - k - j),
                nu_minus=j * (k - i + j),
                nu_plus=(i - j) * (n + 1 - k - j),
            )
        )
    return out


def grassmannian_model(n: int, i: int, k: int) -> ActionModel:
    """ActionModel assembled from the closed-form reference data."""
    comps = [
        FixedComponent(
            f"Y{lv.weight}", lv.weight, lv.dim, nu_minus=lv.nu_minus, nu_plus=lv.nu_plus
        )
        for lv in grassmannian_reference(n, i, k)
    ]
    return validate_action(
        comps, dim_x=i * (n + 1 - i), equalized=True, equalization_source="tangent-weights"
    )


def grassmannian_action(n: int, i: int, k: int):
    """The same action computed by the Lie engine."""
    datum = build_root_system("A", n)
    cochar = tuple([1 if idx == k - 1 else 0 for idx in range(n)])
    return build_action(HomogeneousSpace(datum, i), cochar)
