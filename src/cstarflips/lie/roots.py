"""Root systems of the simple Lie types, in exact integer arithmetic.

Each type's Cartan matrix is written from its Dynkin diagram (Bourbaki
numbering), and the relative root lengths follow from it by symmetrizing.
The positive roots are generated from the matrix alone, by closing the
simple roots under the simple reflections in simple-root coordinates, and
kept in the ``RootSystem``; a negative root is the negation of a positive
one and is not stored.  Everything downstream only needs two integer
pairings:

* the pairing of a weight, written in Dynkin labels, with a coroot, and
* the pairing of a root with an integral cocharacter written in the basis
  of fundamental coweights, which is just the cocharacter-weighted sum of
  its simple-root coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Sequence, Tuple

from ..actions import ActionError

POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": {6: 36, 7: 63, 8: 120},
    "F": {4: 24},
    "G": {2: 6},
}

# Largest rank accepted.  The positive roots cost O(rank) each: 13-14 ms for
# B_32, C_32 and D_32 in a cold process on a 2-core Xeon VM.
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


def _cartan_matrix(dynkin_type: str, rank: int) -> Tuple[Tuple[int, ...], ...]:
    """The Cartan matrix ``cartan[i][j] = <alpha_j, alpha_i^vee>`` of a legal
    type, read off its Dynkin diagram in Bourbaki numbering."""
    t, n = dynkin_type, rank
    # bonds (i, j, m), 1-based: cartan[i][j] = -m and cartan[j][i] = -1, so
    # that m > 1 makes alpha_i the shorter root of a multiple bond
    bonds = [(k, k + 1, 1) for k in range(1, n)]
    if t == "B":
        bonds[-1] = (n, n - 1, 2)
    elif t == "C":
        bonds[-1] = (n - 1, n, 2)
    elif t == "D":
        bonds[-1] = (n - 2, n, 1)
    elif t == "E":
        bonds = [(1, 3, 1), (2, 4, 1)] + bonds[2:]
    elif t == "F":
        bonds = [(1, 2, 1), (3, 2, 2), (3, 4, 1)]
    elif t == "G":
        bonds = [(1, 2, 3)]
    cartan = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j, m in bonds:
        cartan[i - 1][j - 1], cartan[j - 1][i - 1] = -m, -1
    return tuple(map(tuple, cartan))


def _half_norms(cartan: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """``(alpha_i, alpha_i) / 2`` up to a common factor, the coprime integers
    ``d`` with ``d_i * cartan[i][j] = d_j * cartan[j][i]``, walked along the
    connected diagram from node 0."""
    n = len(cartan)
    d = [1] + [0] * (n - 1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j != i and cartan[i][j] and not d[j]:
                if d[i] * cartan[i][j] % cartan[j][i]:
                    d = [x * -cartan[j][i] for x in d]
                d[j] = d[i] * cartan[i][j] // cartan[j][i]
                stack.append(j)
    g = math.gcd(*d)
    return tuple([x // g for x in d])


def _root_table(cartan: Sequence[Sequence[int]], n_positive: int) -> tuple:
    """The positive roots by height, simple root ``alpha_k`` at index ``k``:
    their simple-root coordinates, Dynkin labels and coroots.

    ``cartan[i][j] = <alpha_j, alpha_i^vee>``, and with the half norms
    derived from it ``(alpha_i, alpha_j) = half_norms[i] * cartan[i][j]`` up
    to a common factor, which fixes every coroot.  A positive root
    with a negative label at ``k`` reflects to the higher positive root
    ``beta - label_k * alpha_k``, whose labels are its own minus ``label_k``
    times column ``k`` of the matrix, and every positive root arises this
    way from a simple one.  The closure of a matrix not of finite type never
    ends, so it stops with ``IllegalTypeError`` as soon as it passes the
    expected ``n_positive`` roots.
    """
    n = len(cartan)
    half_norms = _half_norms(cartan)
    columns = list(zip(*cartan))
    seen = {tuple([int(i == k) for i in range(n)]): columns[k] for k in range(n)}
    frontier = list(seen.items())
    while frontier:
        new = []
        for c, labels in frontier:
            for k, lab in enumerate(labels):
                if lab < 0:
                    up = c[:k] + (c[k] - lab,) + c[k + 1:]
                    if up not in seen:
                        seen[up] = tuple([x - lab * y for x, y in zip(labels, columns[k])])
                        new.append((up, seen[up]))
                        if len(seen) > n_positive:
                            raise IllegalTypeError(
                                f"more than {n_positive} positive roots: "
                                "the Cartan matrix is not of finite type"
                            )
        frontier = new
    coords = sorted(seen, key=lambda c: (sum(c), tuple([-x for x in c])))
    labels = [seen[c] for c in coords]
    coroots = []
    for c, lab in zip(coords, labels):
        # (beta, beta) up to the common factor: sum_i c_i half_norms[i] label_i
        dc = [x * d for x, d in zip(c, half_norms)]
        norm = sum(map(mul, dc, lab))
        coroots.append(tuple([2 * x // norm for x in dc]))
    return tuple(coords), tuple(labels), tuple(coroots)


@dataclass(frozen=True)
class RootSystem:
    """A root system: its type, its Cartan matrix and its positive roots,
    generated from that matrix.

    The roots are integer data by index: ``0 .. n_positive - 1`` are the
    positive roots by height, the simple root ``alpha_k`` at index ``k``.
    For each, ``coords`` holds its simple-root coordinates, ``labels`` its
    Dynkin labels ``<beta, alpha_i^vee>`` and ``coroots`` its coroot in
    simple-coroot coordinates.  A negative root is the negation of a
    positive one in all three and has no entry of its own.  Weights are
    written as Dynkin labels too, so every pairing is an integer sum.
    """

    dynkin_type: str
    rank: int
    cartan_matrix: Tuple[Tuple[int, ...], ...]  # cartan_matrix[i][j] = <alpha_j, alpha_i^vee>
    coords: Tuple[Tuple[int, ...], ...] = field(compare=False, repr=False)
    labels: Tuple[Tuple[int, ...], ...] = field(compare=False, repr=False)
    coroots: Tuple[Tuple[int, ...], ...] = field(compare=False, repr=False)

    @property
    def name(self) -> str:
        return f"{self.dynkin_type}_{self.rank}"

    @property
    def n_positive(self) -> int:
        return len(self.coords)

    @property
    def dim_lie_algebra(self) -> int:
        return self.rank + 2 * self.n_positive

    @functools.cached_property
    def coroot_columns(self) -> Tuple[Tuple[int, ...], ...]:
        """``coroot_columns[i][r]``: the i-th coordinate of the coroot of
        positive root ``r``."""
        return tuple(zip(*self.coroots))

    def pairings(self, cocharacter: Sequence[int]) -> list[int]:
        """Pairing of every positive root with sum_k cocharacter[k] * (k-th
        fundamental coweight): the cocharacter-weighted sum of its
        coordinates.  A negative root pairs to the negation."""
        if len(cocharacter) != self.rank:
            raise IllegalTypeError(
                f"cocharacter has {len(cocharacter)} entries, rank is {self.rank}"
            )
        return [sum(map(mul, row, cocharacter)) for row in self.coords]


@functools.lru_cache(maxsize=None)
def build_root_system(dynkin_type: str, rank: int) -> RootSystem:
    """Construct the exact root datum, checking the classical root count."""
    t = dynkin_type.upper()
    if rank > MAX_RANK:
        raise IllegalTypeError(f"illegal Dynkin datum {dynkin_type}_{rank}: rank above {MAX_RANK}")
    if t not in _LEGAL_RANKS or not _LEGAL_RANKS[t](rank):
        raise IllegalTypeError(f"illegal Dynkin datum {dynkin_type}_{rank}")
    cartan = _cartan_matrix(t, rank)
    expected = POSITIVE_ROOT_COUNTS[t]
    expected_n = expected[rank] if isinstance(expected, dict) else expected(rank)
    coords, labels, coroots = _root_table(cartan, expected_n)
    if len(coords) != expected_n:  # pragma: no cover
        raise IllegalTypeError(
            f"{t}_{rank}: generated {len(coords)} positive roots, expected {expected_n}"
        )
    return RootSystem(t, rank, cartan, coords=coords, labels=labels, coroots=coroots)


# |W(E_m)| by rank
_E_ORDERS = {6: 51_840, 7: 2_903_040, 8: 696_729_600}


def weyl_order(cartan: Sequence[Sequence[int]], nodes) -> int:
    """Order of the Weyl group of the subdiagram on ``nodes`` (0-based), from
    the classification of its connected pieces.  ``cartan`` is any Cartan
    matrix of finite type, ``cartan[i][j] = <alpha_j, alpha_i^vee>``.  Its
    diagram is a forest, so one search per piece meets each bond once."""
    rest = set(nodes)
    order = 1
    while rest:
        piece = [rest.pop()]
        bonds = []  # (v, u, <alpha_u, alpha_v^vee> <alpha_v, alpha_u^vee>)
        for v in piece:  # the piece grows while it is scanned
            row = cartan[v]
            near = [u for u in rest if row[u]]
            if near:
                rest.difference_update(near)
                piece += near
                bonds += [(v, u, row[u] * cartan[u][v]) for u in near]
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


def fundamental_cocharacter(rank: int, node: int) -> Tuple[int, ...]:
    """The cocharacter dual to the simple root at ``node`` (1-based)."""
    if not 1 <= node <= rank:
        raise IllegalTypeError(f"node {node} outside 1..{rank}")
    return tuple([1 if k == node - 1 else 0 for k in range(rank)])


def is_short_grading(degrees: Iterable[int]) -> bool:
    """A grading is short when every degree it takes is -1, 0 or 1."""
    return max(map(abs, degrees), default=0) <= 1


@dataclass(frozen=True)
class GradingSpec:
    """Dimensions of the graded pieces induced by a cocharacter."""

    cocharacter: Tuple[int, ...]
    graded_dims: Tuple[Tuple[int, int], ...]  # (degree, dimension), sorted

    @property
    def is_short(self) -> bool:
        return is_short_grading([m for m, _ in self.graded_dims])

    def dim(self, m: int) -> int:
        for degree, d in self.graded_dims:
            if degree == m:
                return d
        return 0


def grading(datum: RootSystem, cocharacter: Sequence[int]) -> GradingSpec:
    """Grade the Lie algebra by pairing every root with the cocharacter: a
    positive root of degree ``m`` and its negative count at ``m`` and ``-m``,
    the Cartan subalgebra at 0."""
    counts: dict[int, int] = {0: datum.rank}
    for m in datum.pairings(cocharacter):
        counts[m] = counts.get(m, 0) + 1
        counts[-m] = counts.get(-m, 0) + 1
    dims = tuple(sorted(counts.items()))
    return GradingSpec(cocharacter=tuple([int(n) for n in cocharacter]), graded_dims=dims)
