"""Root systems of the simple Lie types, in exact integer arithmetic.

Each type's Cartan matrix is written from its Dynkin diagram (Bourbaki
numbering), and the relative root lengths follow from it by symmetrizing.
The positive roots are generated from the matrix alone, by closing the
simple roots under the simple reflections in simple-root coordinates, and
kept in the ``RootSystem``, a named tuple that ``build_root_system`` makes
once per type and rank with every table derived from them, its columns
included; a negative root is the negation of a positive one and is not
stored.  Everything downstream only needs two integer pairings:

* the pairing of a weight, written in Dynkin labels, with a coroot, and
* the pairing of a root with an integral cocharacter written in the basis
  of fundamental coweights, which is just the cocharacter-weighted sum of
  its simple-root coordinates.

Each is a sum of columns by node over every positive root at once.  One
reflection loop makes a cocharacter dominant through the rows of the Cartan
matrix, and a weight through its columns.  The order of the Weyl group of
any subdiagram is a product over the heights of the roots supported on it.
"""

from __future__ import annotations

import functools
import math
from operator import add, mul, sub
from typing import NamedTuple, Sequence, Tuple

from ..actions import ActionError, shown, unit_weights

# Per type, the number of positive roots at each rank, and None at the ranks
# that the type does not take: one table for the legal data and their counts.
POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2 if n >= 1 else None,
    "B": lambda n: n * n if n >= 2 else None,
    "C": lambda n: n * n if n >= 2 else None,
    "D": lambda n: n * (n - 1) if n >= 3 else None,
    "E": {6: 36, 7: 63, 8: 120}.get,
    "F": {4: 24}.get,
    "G": {2: 6}.get,
}

# Largest rank accepted.  The positive roots cost O(rank) each: 13-14 ms for
# B_32, C_32 and D_32 in a cold process on a 2-core Xeon VM.
MAX_RANK = 32


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


class RootSystem(NamedTuple):
    """A root system: its type, its Cartan matrix and its positive roots,
    generated from that matrix.  Only :func:`build_root_system` makes one,
    once per type and rank.

    The roots are integer data by index: ``0 .. n_positive - 1`` are the
    positive roots by height, the simple root ``alpha_k`` at index ``k``.
    For each, ``coords`` holds its simple-root coordinates, ``labels`` its
    Dynkin labels ``<beta, alpha_i^vee>`` and ``coroots`` its coroot in
    simple-coroot coordinates.  A negative root is the negation of a
    positive one in all three and has no entry of its own.  Weights are
    written as Dynkin labels too, so every pairing is an integer sum.

    It hashes by identity, in C: there is one per type and rank, which fix
    every table, and a copy or a pickle of it is that one.
    """

    dynkin_type: str
    rank: int
    cartan_matrix: Tuple[Tuple[int, ...], ...]  # cartan_matrix[i][j] = <alpha_j, alpha_i^vee>
    coords: Tuple[Tuple[int, ...], ...]
    labels: Tuple[Tuple[int, ...], ...]
    coroots: Tuple[Tuple[int, ...], ...]
    # coord_columns[i][r], coroot_columns[i][r]: coordinate i of positive root r, of its coroot
    coord_columns: Tuple[Tuple[int, ...], ...]
    coroot_columns: Tuple[Tuple[int, ...], ...]
    # row i and column j of the Cartan matrix as its nonzero (j, c) and (i, c)
    cartan_rows: Tuple[Tuple[Tuple[int, int], ...], ...]
    cartan_columns: Tuple[Tuple[Tuple[int, int], ...], ...]
    # per positive root, its height and its support: the bitmask of the nodes
    # where its simple-root coordinates are nonzero
    supports: Tuple[Tuple[int, int], ...]
    # per positive root beta, the bitmasks of the nodes where beta and -beta have a negative label
    negative_labels: Tuple[Tuple[int, int], ...]

    __hash__ = object.__hash__

    def __reduce__(self):
        return build_root_system, (self.dynkin_type, self.rank)

    def __repr__(self):
        return f"build_root_system({self.dynkin_type!r}, {self.rank})"

    @property
    def name(self) -> str:
        return f"{self.dynkin_type}_{self.rank}"

    @property
    def n_positive(self) -> int:
        return len(self.coords)

    @property
    def dim_lie_algebra(self) -> int:
        return self.rank + 2 * self.n_positive

    def _check_cocharacter(self, cocharacter: Sequence[int]) -> None:
        if len(cocharacter) != self.rank:
            raise IllegalTypeError(
                f"cocharacter has {len(cocharacter)} entries, rank is {self.rank}"
            )

    def pairings(self, cocharacter: Sequence[int]) -> list[int]:
        """Pairing of every positive root with sum_k cocharacter[k] * (k-th
        fundamental coweight): the cocharacter-weighted sum of its
        coordinates.  A negative root pairs to the negation."""
        self._check_cocharacter(cocharacter)
        return column_sum(cocharacter, self.coord_columns)


def column_sum(coefficients: Sequence[int], columns) -> list[int]:
    """``sum_k coefficients[k] * columns[k]`` entry by entry, over the nonzero
    coefficients: the first column copied, and at 1 or -1, nearly every
    coefficient on a fundamental weight's orbit, no multiplication."""
    acc = None
    for m, column in zip(coefficients, columns):
        if not m:
            continue
        if acc is None:
            acc = list(column) if m == 1 else [m * c for c in column]
        elif m == 1 or m == -1:
            acc = list(map(add if m == 1 else sub, acc, column))
        else:
            acc = [a + m * c for a, c in zip(acc, column)]
    return [0] * len(columns[0]) if acc is None else acc


@functools.lru_cache(maxsize=None)
def build_root_system(dynkin_type: str, rank: int) -> RootSystem:
    """Construct the exact root datum, checking the classical root count."""
    t = dynkin_type.upper()
    datum = f"{shown(dynkin_type)}_{shown(str(rank))}"
    if rank > MAX_RANK:
        raise IllegalTypeError(f"illegal Dynkin datum {datum}: rank above {MAX_RANK}")
    expected = POSITIVE_ROOT_COUNTS[t](rank) if t in POSITIVE_ROOT_COUNTS else None
    if expected is None:
        raise IllegalTypeError(f"illegal Dynkin datum {datum}")
    cartan = _cartan_matrix(t, rank)
    coords, labels, coroots = _root_table(cartan, expected)
    if len(coords) != expected:  # pragma: no cover
        raise IllegalTypeError(
            f"{t}_{rank}: generated {len(coords)} positive roots, expected {expected}"
        )
    return RootSystem(
        t, rank, cartan, coords, labels, coroots,
        coord_columns=tuple(zip(*coords)),
        coroot_columns=tuple(zip(*coroots)),
        cartan_rows=tuple([tuple([(j, x) for j, x in enumerate(row) if x]) for row in cartan]),
        cartan_columns=tuple([
            tuple([(i, row[j]) for i, row in enumerate(cartan) if row[j]]) for j in range(rank)
        ]),
        supports=tuple([(sum(c), sum([1 << k for k, x in enumerate(c) if x])) for c in coords]),
        negative_labels=tuple([tuple([sum([1 << k for k, x in enumerate(lab) if sign * x < 0])
                                      for sign in (1, -1)]) for lab in labels]),
    )


@functools.lru_cache(maxsize=None)
def weyl_order(datum: RootSystem, nodes: Tuple[int, ...]) -> int:
    """Order of the Weyl group of the subdiagram on ``nodes``, a tuple of
    0-based nodes: the product of ``(ht + 1) / ht`` over the positive roots
    supported on those nodes (Kostant, Macdonald 1972).  Memoized per root
    system and node subset, which repeat across components and actions."""
    inside = sum([1 << k for k in nodes])
    num = den = 1
    for height, support in datum.supports:
        if support | inside == inside:
            num, den = num * (height + 1), den * height
    return num // den


def fundamental_cocharacter(rank: int, node: int) -> Tuple[int, ...]:
    """The cocharacter dual to the simple root at ``node`` (1-based)."""
    if not 1 <= node <= rank:
        raise IllegalTypeError(f"node {shown(str(node))} outside 1..{rank}")
    return tuple([1 if k == node - 1 else 0 for k in range(rank)])


def reflect_to_dominant(vector: Sequence[int], table, active: Sequence[bool]) -> Tuple[int, ...]:
    """The one vector with no negative entry at an ``active`` node in the
    orbit of ``vector`` under the reflections at those nodes: while ``v_k``
    is negative at an active node, ``v_i -= v_k * c`` over the pairs
    ``(i, c)`` of ``table[k]``.  A stack holds the nodes that went negative,
    so no reflection rescans the vector."""
    v = list(vector)
    stack = [k for k, x in enumerate(v) if x < 0 and active[k]]
    while stack:
        k = stack.pop()
        x = v[k]
        if x < 0:  # else a later reflection turned it
            for i, c in table[k]:
                v[i] -= x * c
                if v[i] < 0 and active[i]:
                    stack.append(i)
    return tuple(v)


def dominant_cocharacter(datum: RootSystem, cocharacter: Sequence[int]) -> Tuple[int, ...]:
    """The dominant cocharacter, with no coefficient negative, in the Weyl
    orbit of ``cocharacter``: ``s_k(n)_i = n_i - n_k <alpha_i, alpha_k^vee>``
    reads row ``k`` of the Cartan matrix."""
    datum._check_cocharacter(cocharacter)
    return reflect_to_dominant(cocharacter, datum.cartan_rows, [True] * datum.rank)


class GradingSpec(NamedTuple):
    """Dimensions of the graded pieces induced by a cocharacter."""

    cocharacter: Tuple[int, ...]
    graded_dims: Tuple[Tuple[int, int], ...]  # (degree, dimension), sorted

    @property
    def is_short(self) -> bool:
        return unit_weights([m for m, _ in self.graded_dims])

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
