"""Actions on rational homogeneous varieties from cocharacter gradings.

A variety is a Dynkin diagram with one marked node, embedded by the
corresponding fundamental weight.  Its torus-fixed points are the Weyl orbit
of that weight; at the base point the tangent directions are the positive
roots supported on the marked node, and they travel along the orbit by
reflection.  Pairing with an integral cocharacter gives, at every fixed
point, the linearization weight (the weight on the hyperplane-bundle fiber,
i.e. minus the pairing of the translated fundamental weight, normalized so
the minimum is zero) and the multiset of tangent weights.

Fixed points connected through zero-weight tangent directions belong to one
fixed component of the circle action; per component the number of zero /
positive / negative tangent weights gives its dimension and the normal ranks
``nu_plus`` / ``nu_minus`` toward higher and lower critical values.

Weights are kept as Dynkin labels and roots as indices into the root
system's integer ``RootTable``, so the whole derivation is integer sums and
table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..actions import ActionModel, ActionError, unit_tangent_weights, validate_action
from .roots import RootSystem, RootTable, build_root_system

DEFAULT_MAX_COSETS = 100_000


class IllegalRangeError(ActionError):
    pass


class CosetLimitError(ActionError):
    pass


@dataclass(frozen=True)
class HomogeneousSpace:
    datum: RootSystem
    node: int  # 1-based marked node

    def __post_init__(self):
        if not 1 <= self.node <= self.datum.rank:
            raise IllegalRangeError(f"node {self.node} outside 1..{self.datum.rank}")

    @property
    def label(self) -> str:
        return f"{self.datum.name}({self.node})"

    @property
    def base_tangent_roots(self) -> Tuple[int, ...]:
        """Positive roots supported on the marked node, as root-table indices."""
        k = self.node - 1
        table = self.datum.table
        return tuple(r for r in range(table.n_positive) if table.coords[r][k] > 0)

    @property
    def dim(self) -> int:
        return len(self.base_tangent_roots)


def homogeneous_dim(datum: RootSystem, nodes: Sequence[int]) -> int:
    """Dimension of the flag variety marked at the given (1-based) nodes."""
    idx = [n - 1 for n in nodes]
    for n in nodes:
        if not 1 <= n <= datum.rank:
            raise IllegalRangeError(f"node {n} outside 1..{datum.rank}")
    table = datum.table
    return sum(1 for c in table.coords[: table.n_positive] if any(c[k] > 0 for k in idx))


@dataclass(frozen=True)
class FixedPoint:
    weight: Tuple[int, ...]  # Dynkin labels of the translated fundamental weight
    depth: Tuple[int, ...]  # fundamental weight minus this weight, in simple-root coordinates
    tangent_roots: Tuple[int, ...]  # root-table indices


def enumerate_fixed_points(
    space: HomogeneousSpace, max_cosets: int = DEFAULT_MAX_COSETS
) -> Tuple[FixedPoint, ...]:
    """Weyl orbit of the marked fundamental weight with translated tangents.

    A simple reflection moves a weight by ``s_k(mu) = mu - mu_k * alpha_k``,
    so it lowers the weight by ``mu_k`` in the ``k``-th simple-root
    coordinate; tangent roots move along by the table's reflection rows.
    The tangent roots at ``mu`` are the roots ``beta`` with
    ``<mu, beta^vee> > 0``, so they do not depend on the path taken.
    Points come in breadth-first order from the fundamental weight.
    """
    datum = space.datum
    table = datum.table
    rank = datum.rank
    base = FixedPoint(
        weight=tuple(int(i == space.node - 1) for i in range(rank)),
        depth=(0,) * rank,
        tangent_roots=space.base_tangent_roots,
    )
    seen: Dict[Tuple[int, ...], FixedPoint] = {base.weight: base}
    frontier = [base]
    while frontier:
        new: list[FixedPoint] = []
        for point in frontier:
            mu = point.weight
            for k in range(rank):
                m = mu[k]
                if m == 0:
                    continue
                w = tuple(a - m * b for a, b in zip(mu, table.labels[k]))
                if w in seen:
                    continue
                if len(seen) >= max_cosets:
                    raise CosetLimitError(
                        f"{space.label}: more than {max_cosets} fixed points; "
                        "raise max_cosets to enumerate"
                    )
                row = table.reflections[k]
                depth = point.depth
                moved = FixedPoint(
                    weight=w,
                    depth=depth[:k] + (depth[k] + m,) + depth[k + 1:],
                    tangent_roots=tuple(row[t] for t in point.tangent_roots),
                )
                seen[w] = moved
                new.append(moved)
        frontier = new
    return tuple(seen.values())


def _levi_simple_roots(table: RootTable, root_pairings: Sequence[int]) -> list[int]:
    """Simple roots of the positive roots of weight zero: those that are not
    the sum of two others."""
    levi = [table.coords[r] for r in range(table.n_positive) if root_pairings[r] == 0]
    sums = {tuple(a + b for a, b in zip(u, v)) for u in levi for v in levi}
    return [r for r in range(table.n_positive)
            if root_pairings[r] == 0 and table.coords[r] not in sums]


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


@dataclass
class LieActionResult:
    """Validated model plus the tangent-weight certificates behind it."""

    model: ActionModel
    space_label: str
    cocharacter: Tuple[int, ...]
    fixed_point_count: int
    tangent_certificates: Dict[str, Tuple[int, ...]]
    is_short: bool
    equalized: bool
    warnings: Tuple[str, ...]


def build_action(
    space: HomogeneousSpace,
    cocharacter: Sequence[int],
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> LieActionResult:
    """Compute the circle action induced by a cocharacter on the variety.

    A non-short grading only warns; the equalization verdict is then derived
    from the tangent pairings themselves.
    """
    from .roots import grading

    table = space.datum.table
    points = enumerate_fixed_points(space, max_cosets=max_cosets)
    root_pairings = table.pairings(cocharacter)
    # linearization level, up to a constant: l(s_k mu) = l(mu) + mu_k * n_k
    levels = [sum(n * d for n, d in zip(cocharacter, p.depth)) for p in points]
    pairings = [tuple(root_pairings[t] for t in p.tangent_roots) for p in points]

    # fixed points joined by a zero-weight tangent direction lie in one
    # component: the components are the orbits of the Levi subgroup's Weyl
    # group, generated by the reflections in the simple roots of its roots
    position = {p.weight: idx for idx, p in enumerate(points)}
    uf = _UnionFind(range(len(points)))
    for r in _levi_simple_roots(table, root_pairings):
        for idx, p in enumerate(points):
            uf.union(idx, position[table.reflect_weight(p.weight, r)])

    groups: Dict[int, list[int]] = {}
    for idx in range(len(points)):
        groups.setdefault(uf.find(idx), []).append(idx)

    offset = min(levels)
    records = []
    for members in groups.values():
        weights = {levels[idx] for idx in members}
        sigs = {
            (
                sum(1 for m in pairings[idx] if m == 0),
                sum(1 for m in pairings[idx] if m > 0),
                sum(1 for m in pairings[idx] if m < 0),
            )
            for idx in members
        }
        if len(weights) != 1 or len(sigs) != 1:  # pragma: no cover
            raise ActionError("inconsistent component grouping")
        zeros, pos, neg = next(iter(sigs))
        cert = tuple(sorted(pairings[members[0]]))
        records.append((next(iter(weights)) - offset, zeros, pos, neg, cert, len(members)))

    # deterministic names: level index, then a letter when a level is reducible
    records.sort(key=lambda rec: (rec[0], rec[1:]))
    level_values = sorted({rec[0] for rec in records})
    components = []
    certificates: Dict[str, Tuple[int, ...]] = {}
    for value in level_values:
        at_level = [rec for rec in records if rec[0] == value]
        for idx, (w, zeros, pos, neg, cert, _count) in enumerate(at_level):
            suffix = chr(ord("a") + idx) if len(at_level) > 1 else ""
            name = f"Y{level_values.index(value)}{suffix}"
            components.append(
                {"name": name, "weight": w, "dim": zeros, "nu_minus": neg, "nu_plus": pos}
            )
            certificates[name] = cert

    # the Levi Weyl group fixes the cocharacter, so one point per component
    # carries all of its tangent weights
    equalized = all(unit_tangent_weights(cert) for cert in certificates.values())
    short = grading(space.datum, cocharacter).is_short
    warnings = [] if short else ["GradingNotShort: grading support exceeds {-1, 0, 1}"]
    model = validate_action(
        components,
        dim_x=space.dim,
        equalized=equalized,
        equalization_source="tangent-weights",
    )
    return LieActionResult(
        model=model,
        space_label=space.label,
        cocharacter=tuple(int(n) for n in cocharacter),
        fixed_point_count=len(points),
        tangent_certificates=certificates,
        is_short=short,
        equalized=equalized,
        warnings=tuple(warnings),
    )


def _grass_part(rank: int, index: int) -> str:
    if index == 0 or index == rank + 1:
        return "pt"
    return f"A_{rank}({index})"


@dataclass(frozen=True)
class GrassmannianLevel:
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
    levels = grassmannian_reference(n, i, k)
    comps = [
        {
            "name": f"Y{lv.weight}",
            "weight": lv.weight,
            "dim": lv.dim,
            "nu_minus": lv.nu_minus,
            "nu_plus": lv.nu_plus,
        }
        for lv in levels
    ]
    return validate_action(
        comps, dim_x=i * (n + 1 - i), equalized=True, equalization_source="tangent-weights"
    )


def grassmannian_action(n: int, i: int, k: int, max_cosets: int = DEFAULT_MAX_COSETS) -> LieActionResult:
    """The same action computed independently by coset enumeration."""
    datum = build_root_system("A", n)
    cochar = tuple(1 if idx == k - 1 else 0 for idx in range(n))
    return build_action(HomogeneousSpace(datum, i), cochar, max_cosets=max_cosets)
