"""Root systems of the simple Lie types, in exact integer arithmetic.

Simple roots are given in their standard Euclidean realizations (Bourbaki
numbering), which fix the integer Cartan matrix.  The full root system is
generated from the Cartan matrix alone, by closing the simple roots under the
simple reflections in simple-root coordinates, and kept as a ``RootTable``.
Everything downstream only needs two integer pairings:

* the pairing of a weight, written in Dynkin labels, with a coroot, and
* the pairing of a root with an integral cocharacter written in the basis
  of fundamental coweights, which is just the cocharacter-weighted sum of
  its simple-root coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence, Tuple

from ..actions import ActionError

Vector = Tuple[Fraction, ...]

POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": {6: 36, 7: 63, 8: 120},
    "F": {4: 24},
    "G": {2: 6},
}

# Largest rank accepted.  The root table costs O(rank^2) per root: about a
# second for B_32, C_32 and D_32, minutes for A_150.
MAX_RANK = 32

_LEGAL_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


class IllegalTypeError(ActionError):
    pass


def _vec(entries) -> Vector:
    return tuple(Fraction(e) for e in entries)


def _unit(i: int, dim: int) -> Vector:
    return _vec([1 if k == i else 0 for k in range(dim)])


def _sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def _add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _scale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def _dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _invert(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _simple_roots(dynkin_type: str, rank: int) -> list[Vector]:
    t, n = dynkin_type, rank
    if t == "A":
        return [_sub(_unit(i, n + 1), _unit(i + 1, n + 1)) for i in range(n)]
    if t == "B":
        roots = [_sub(_unit(i, n), _unit(i + 1, n)) for i in range(n - 1)]
        roots.append(_unit(n - 1, n))
        return roots
    if t == "C":
        roots = [_sub(_unit(i, n), _unit(i + 1, n)) for i in range(n - 1)]
        roots.append(_scale(Fraction(2), _unit(n - 1, n)))
        return roots
    if t == "D":
        roots = [_sub(_unit(i, n), _unit(i + 1, n)) for i in range(n - 1)]
        roots.append(_add(_unit(n - 2, n), _unit(n - 1, n)))
        return roots
    if t == "E":
        half = Fraction(1, 2)
        alpha1 = tuple(
            half if k in (0, 7) else -half for k in range(8)
        )
        full = [
            alpha1,
            _add(_unit(0, 8), _unit(1, 8)),
            _sub(_unit(1, 8), _unit(0, 8)),
            _sub(_unit(2, 8), _unit(1, 8)),
            _sub(_unit(3, 8), _unit(2, 8)),
            _sub(_unit(4, 8), _unit(3, 8)),
            _sub(_unit(5, 8), _unit(4, 8)),
            _sub(_unit(6, 8), _unit(5, 8)),
        ]
        return full[:n]
    if t == "F":
        half = Fraction(1, 2)
        return [
            _sub(_unit(1, 4), _unit(2, 4)),
            _sub(_unit(2, 4), _unit(3, 4)),
            _unit(3, 4),
            (half, -half, -half, -half),
        ]
    if t == "G":
        return [
            _sub(_unit(0, 3), _unit(1, 3)),
            (Fraction(-2), Fraction(1), Fraction(1)),
        ]
    raise IllegalTypeError(f"unknown Dynkin type {dynkin_type!r}")


@dataclass(frozen=True)
class RootTable:
    """Every root of one root system as integer data, by index.

    Indices ``0 .. n_positive - 1`` are the positive roots by height, the
    simple root ``alpha_k`` at index ``k``; index ``r + n_positive`` is the
    negative of root ``r``.  For each root the table holds its simple-root
    coordinates, its Dynkin labels ``<beta, alpha_i^vee>``, its coroot in
    simple-coroot coordinates, and per node ``k`` the index of its image
    under the simple reflection ``s_k``.  Weights are written as Dynkin
    labels too, so every pairing below is an integer sum.
    """

    coords: Tuple[Tuple[int, ...], ...]
    labels: Tuple[Tuple[int, ...], ...]
    coroots: Tuple[Tuple[int, ...], ...]
    reflections: Tuple[Tuple[int, ...], ...]  # reflections[k][r] = index of s_k(root r)

    @property
    def n_positive(self) -> int:
        return len(self.coords) // 2

    def pairings(self, cocharacter: Sequence[int]) -> Tuple[int, ...]:
        """Pairing of every root with sum_k cocharacter[k] * (k-th
        fundamental coweight): the cocharacter-weighted sum of its
        coordinates."""
        rank = len(self.reflections)
        if len(cocharacter) != rank:
            raise IllegalTypeError(
                f"cocharacter has {len(cocharacter)} entries, rank is {rank}"
            )
        positive = tuple(sum(map(mul, row, cocharacter)) for row in self.coords[: self.n_positive])
        return positive + tuple(-m for m in positive)


def _root_table(cartan: Sequence[Sequence[int]], half_norms: Sequence[int]) -> RootTable:
    """Close the simple roots under the simple reflections, in integers.

    ``cartan[i][j] = <alpha_j, alpha_i^vee>``; ``half_norms[i]`` is
    ``(alpha_i, alpha_i) / 2`` up to a common factor, so that
    ``(alpha_i, alpha_j) = half_norms[i] * cartan[i][j]``.  A positive root
    with a negative label at ``k`` reflects to the higher positive root
    ``beta - label_k * alpha_k``, and every positive root arises this way
    from a simple one.
    """
    n = len(cartan)

    def labels(c):
        return tuple(sum(c[j] * cartan[i][j] for j in range(n)) for i in range(n))

    simple = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    seen = set(simple)
    frontier = simple
    while frontier:
        new = []
        for c in frontier:
            for k, lab in enumerate(labels(c)):
                if lab < 0:
                    up = c[:k] + (c[k] - lab,) + c[k + 1:]
                    if up not in seen:
                        seen.add(up)
                        new.append(up)
        frontier = new
    positive = sorted(seen, key=lambda c: (sum(c), tuple(-x for x in c)))
    coords = positive + [tuple(-x for x in c) for c in positive]
    all_labels = [labels(c) for c in coords]

    def coroot(c):
        norm = sum(c[i] * c[j] * half_norms[i] * cartan[i][j] for i in range(n) for j in range(n))
        return tuple(2 * c[j] * half_norms[j] // norm for j in range(n))

    index = {c: r for r, c in enumerate(coords)}
    reflections = tuple(
        tuple(index[c[:k] + (c[k] - lab[k],) + c[k + 1:]] for c, lab in zip(coords, all_labels))
        for k in range(n)
    )
    return RootTable(
        coords=tuple(coords),
        labels=tuple(all_labels),
        coroots=tuple(coroot(c) for c in coords),
        reflections=reflections,
    )


@dataclass(frozen=True)
class RootSystem:
    """A root system: its integer ``table`` and its Euclidean realization.

    The derivation of actions reads only ``table``.  The Euclidean vectors
    beyond the simple roots are kept for inspection and built on first use."""

    dynkin_type: str
    rank: int
    simple_roots: Tuple[Vector, ...]
    cartan_matrix: Tuple[Tuple[int, ...], ...]  # cartan_matrix[i][j] = <alpha_j, alpha_i^vee>
    gram: Tuple[Tuple[Fraction, ...], ...]  # bilinear form on the simple roots
    table: RootTable = field(compare=False, repr=False)
    _coords_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def name(self) -> str:
        return f"{self.dynkin_type}_{self.rank}"

    @property
    def dim_lie_algebra(self) -> int:
        return self.rank + 2 * self.table.n_positive

    def _combine(self, coefficients) -> Vector:
        """The vector sum_k coefficients[k] * (k-th simple root)."""
        return tuple(
            sum((c * a[axis] for c, a in zip(coefficients, self.simple_roots)), Fraction(0))
            for axis in range(len(self.simple_roots[0]))
        )

    @functools.cached_property
    def positive_roots(self) -> Tuple[Vector, ...]:
        table = self.table
        return tuple(
            v for _, v in sorted(
                (sum(c), self._combine(c)) for c in table.coords[: table.n_positive]
            )
        )

    @functools.cached_property
    def fundamental_weights(self) -> Tuple[Vector, ...]:
        inverse = _invert([[Fraction(x) for x in row] for row in self.cartan_matrix])
        return tuple(
            self._combine([inverse[j][k] for j in range(self.rank)]) for k in range(self.rank)
        )

    @functools.cached_property
    def gram_inverse(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return tuple(tuple(row) for row in _invert(self.gram))

    def coords(self, v: Vector) -> Tuple[Fraction, ...]:
        """Coordinates of v in the simple-root basis."""
        cached = self._coords_cache.get(v)
        if cached is not None:
            return cached
        rhs = [_dot(v, a) for a in self.simple_roots]
        out = tuple(
            sum((self.gram_inverse[i][j] * rhs[j] for j in range(self.rank)), Fraction(0))
            for i in range(self.rank)
        )
        self._coords_cache[v] = out
        return out

    def coroot_pairing(self, v: Vector, j: int) -> Fraction:
        """Pairing of v with the coroot of the j-th simple root (1-based)."""
        alpha = self.simple_roots[j - 1]
        return Fraction(2) * _dot(v, alpha) / _dot(alpha, alpha)

    def pairing(self, v: Vector, cocharacter: Sequence[int]) -> Fraction:
        """Pairing of v with sum_k cocharacter[k] * (k-th fundamental coweight)."""
        if len(cocharacter) != self.rank:
            raise IllegalTypeError(
                f"cocharacter has {len(cocharacter)} entries, rank is {self.rank}"
            )
        c = self.coords(v)
        return sum((Fraction(n) * c[k] for k, n in enumerate(cocharacter)), Fraction(0))

    def root_norms(self) -> set[Fraction]:
        return {_dot(a, a) for a in self.positive_roots}


@functools.lru_cache(maxsize=None)
def build_root_system(dynkin_type: str, rank: int) -> RootSystem:
    """Construct the exact root datum, checking the classical root count."""
    t = dynkin_type.upper()
    if rank > MAX_RANK:
        raise IllegalTypeError(f"illegal Dynkin datum {dynkin_type}_{rank}: rank above {MAX_RANK}")
    if t not in _LEGAL_RANKS or not _LEGAL_RANKS[t](rank):
        raise IllegalTypeError(f"illegal Dynkin datum {dynkin_type}_{rank}")
    simples = _simple_roots(t, rank)
    gram = [[_dot(a, b) for b in simples] for a in simples]
    cartan = tuple(
        tuple(int(2 * gram[i][j] / gram[i][i]) for j in range(rank)) for i in range(rank)
    )
    shortest = min(gram[i][i] for i in range(rank))
    table = _root_table(cartan, [int(gram[i][i] / shortest) for i in range(rank)])

    expected = POSITIVE_ROOT_COUNTS[t]
    expected_n = expected[rank] if isinstance(expected, dict) else expected(rank)
    if table.n_positive != expected_n:  # pragma: no cover
        raise IllegalTypeError(
            f"{t}_{rank}: generated {table.n_positive} positive roots, expected {expected_n}"
        )

    return RootSystem(
        dynkin_type=t,
        rank=rank,
        simple_roots=tuple(simples),
        cartan_matrix=cartan,
        gram=tuple(tuple(row) for row in gram),
        table=table,
    )


def weyl_order(cartan: Sequence[Sequence[int]], nodes) -> int:
    """Order of the Weyl group of the subdiagram on ``nodes`` (0-based), from
    the classification of its connected pieces.  ``cartan`` is any Cartan
    matrix, ``cartan[i][j] = <alpha_j, alpha_i^vee>``."""
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
        if 3 in bonds:  # G_2
            order *= 12
        elif 2 in bonds:  # B_m or C_m, or F_4 with its double bond in the middle
            ends = [v for v in comp if any(cartan[v][u] * cartan[u][v] == 2 for u in comp)]
            middle = m == 4 and all(degree[v] == 2 for v in ends)
            order *= 1152 if middle else 2 ** m * math.factorial(m)
        elif max(degree.values(), default=0) < 3:  # A_m
            order *= math.factorial(m + 1)
        else:  # D_m or E_m, told apart by the arm lengths at the branch node
            branch = next(v for v in comp if degree[v] == 3)
            arms = sorted(
                len(_arm(cartan, comp - {branch}, u))
                for u in comp if u != branch and cartan[branch][u]
            )
            if arms[:2] == [1, 1]:
                order *= 2 ** (m - 1) * math.factorial(m)
            else:
                order *= {(1, 2, 2): 51840, (1, 2, 3): 2903040, (1, 2, 4): 696729600}[tuple(arms)]
    return order


def _arm(cartan, nodes, start) -> set:
    arm, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for u in nodes:
            if u not in arm and cartan[v][u]:
                arm.add(u)
                stack.append(u)
    return arm


def fundamental_cocharacter(rank: int, node: int) -> Tuple[int, ...]:
    """The cocharacter dual to the simple root at ``node`` (1-based)."""
    if not 1 <= node <= rank:
        raise IllegalTypeError(f"node {node} outside 1..{rank}")
    return tuple(1 if k == node - 1 else 0 for k in range(rank))


@dataclass(frozen=True)
class GradingSpec:
    """Dimensions of the graded pieces induced by a cocharacter."""

    cocharacter: Tuple[int, ...]
    graded_dims: Tuple[Tuple[int, int], ...]  # (degree, dimension), sorted

    @property
    def is_short(self) -> bool:
        return all(abs(m) <= 1 for m, _ in self.graded_dims)

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(m for m, _ in self.graded_dims)

    def dim(self, m: int) -> int:
        for degree, d in self.graded_dims:
            if degree == m:
                return d
        return 0


def grading(datum: RootSystem, cocharacter: Sequence[int]) -> GradingSpec:
    """Grade the Lie algebra by pairing every root with the cocharacter."""
    counts: dict[int, int] = {0: datum.rank}
    for m in datum.table.pairings(cocharacter):
        counts[m] = counts.get(m, 0) + 1
    dims = tuple(sorted(counts.items()))
    return GradingSpec(cocharacter=tuple(int(n) for n in cocharacter), graded_dims=dims)
