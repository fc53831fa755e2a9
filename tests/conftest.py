import functools
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

from cstarflips.actions import ActionModel, FixedComponent, blowup_extremal, validate_action

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


@st.composite
def action_models(draw, min_r=2, max_r=5, case=None):
    """Random valid non-flat models: integer critical values 0..r, one or two
    components per inner level, extremes of any dimension, or points exactly
    where the extremal ``case`` says."""
    r = draw(st.integers(min_r, max_r))
    dim_x = draw(st.integers(4, 9))
    rows = []

    def extreme_dim(isolated):
        if isolated is None:
            return draw(st.integers(0, dim_x - 2))
        return 0 if isolated else draw(st.integers(1, dim_x - 2))

    sink_isolated, source_isolated = CASE_ISOLATED[case] if case else (None, None)
    sink_dim = extreme_dim(sink_isolated)
    source_dim = extreme_dim(source_isolated)
    rows.append(("Y0", 0, sink_dim, 0, dim_x - sink_dim))
    rows.append((f"Y{r}", r, source_dim, dim_x - source_dim, 0))
    for level in range(1, r):
        n_comps = draw(st.integers(1, 2))
        for idx in range(n_comps):
            nu_minus = draw(st.integers(1, dim_x - 2))
            nu_plus = draw(st.integers(1, dim_x - 1 - nu_minus))
            dim = dim_x - nu_minus - nu_plus
            rows.append((f"Y{level}{'ab'[idx]}", level, dim, nu_minus, nu_plus))
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
