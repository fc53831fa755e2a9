"""Actions on rational homogeneous varieties from cocharacter gradings.

A variety is a Dynkin diagram with one marked node, embedded by the
corresponding fundamental weight.  Its torus-fixed points are the Weyl orbit
of that weight; at a fixed point ``mu`` the tangent directions are the roots
``beta`` with ``<mu, beta^vee> > 0``.  Pairing with an integral cocharacter
gives, at every fixed point, the linearization weight (the weight on the
hyperplane-bundle fiber, i.e. minus the pairing of the translated fundamental
weight, normalized so the minimum is zero) and the multiset of tangent
weights.

The fixed components of the circle action are the orbits of the Weyl group
W_L of the Levi subgroup L, whose roots are those of cocharacter weight zero
(Bialynicki-Birula).  Each orbit holds exactly one L-dominant weight, so the
derivation walks those weights only, one per component; the number of zero /
positive / negative tangent weights there gives the component's dimension and
the normal ranks ``nu_plus`` / ``nu_minus`` toward higher and lower critical
values.  The walk is depth first and stops at the last component: the steps
between components are symmetric under W_L, so they reach every component,
and each component's point count |W_L| / |W_{L,mu}| is exact, so the counts
add up to |W/W_P| just when every component is found.

Weights are kept as Dynkin labels and roots as indices into the root
system's positive roots, a negative root as its positive one and a sign, so
the whole derivation is integer sums and lookups.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter, mul
from typing import Dict, Sequence, Tuple

from ..actions import (
    DEFAULT_MAX_COSETS,
    ActionModel,
    ActionError,
    FixedComponent,
    unit_tangent_weights,
    validate_action,
)
from .roots import RootSystem, build_root_system, is_short_grading, weyl_order


class IllegalRangeError(ActionError):
    pass


class CosetLimitError(ActionError):
    pass


@functools.lru_cache(maxsize=None)
def _coset_count(cartan: Tuple[Tuple[int, ...], ...], node: int) -> int:
    rank = len(cartan)
    return weyl_order(cartan, range(rank)) // weyl_order(
        cartan, [k for k in range(rank) if k != node - 1]
    )


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
    def dim(self) -> int:
        return homogeneous_dim(self.datum, (self.node,))

    @property
    def fixed_point_count(self) -> int:
        """|W / W_P|, the number of torus-fixed points."""
        return _coset_count(self.datum.cartan_matrix, self.node)

    def check_cap(self, max_cosets: int) -> None:
        """Refuse a variety with more than ``max_cosets`` fixed points."""
        if self.fixed_point_count > max_cosets:
            raise CosetLimitError(
                f"{self.label}: more than {max_cosets} fixed points; "
                "raise max_cosets to enumerate"
            )


def homogeneous_dim(datum: RootSystem, nodes: Sequence[int]) -> int:
    """Dimension of the flag variety marked at the given (1-based) nodes: the
    number of positive roots with a nonzero coordinate at a marked node."""
    for n in nodes:
        if not 1 <= n <= datum.rank:
            raise IllegalRangeError(f"node {n} outside 1..{datum.rank}")
    # column by column, since this runs once per derived action
    return sum(map(any, zip(*([c[n - 1] for c in datum.coords] for n in nodes))))


def _levi_simple_roots(datum: RootSystem, root_pairings: Sequence[int]) -> list[int]:
    """Simple roots of the positive roots of weight zero.

    The roots are scanned by height.  A weight-zero positive root ``beta`` is
    simple unless ``beta - alpha`` is a positive root for a simple root
    ``alpha`` found before it, and for roots ``beta != alpha`` that holds
    exactly when ``<beta, alpha^vee> > 0``.
    """
    simple: list[int] = []
    coroots: list[Tuple[int, ...]] = []
    for r in range(datum.n_positive):
        if not root_pairings[r]:
            labels = datum.labels[r]
            for c in coroots:
                if sum(map(mul, labels, c)) > 0:
                    break
            else:
                simple.append(r)
                coroots.append(datum.coroots[r])
    return simple


class _Levi:
    """The Levi subgroup L of a cocharacter: the roots of weight zero, with
    simple roots ``simple``, Cartan matrix ``cartan`` and Weyl group order
    ``order``."""

    def __init__(self, datum: RootSystem, root_pairings: Sequence[int]):
        self.datum = datum
        self.root_pairings = root_pairings
        self.simple = _levi_simple_roots(datum, root_pairings)
        self.coroots = [datum.coroots[a] for a in self.simple]
        labels = [datum.labels[b] for b in self.simple]
        self.cartan = tuple([
            tuple([sum(map(mul, b, c)) for b in labels]) for c in self.coroots
        ])
        self.order = weyl_order(self.cartan, range(len(self.simple)))
        # per simple root j, the (i, <alpha_j, alpha_i^vee>) with a nonzero entry
        self._cartan_columns = [
            [(i, row[j]) for i, row in enumerate(self.cartan) if row[j]]
            for j in range(len(self.simple))
        ]

    def dominant(self, mu: Tuple[int, ...]) -> Tuple[Tuple[int, ...], list[int], list[int]]:
        """The L-dominant weight ``w`` in the W_L-orbit of ``mu``, reached by
        reflecting in simple roots of L that pair negatively; also the
        multiple ``t[j]`` of each simple root ``alpha_j`` added on the way,
        and the pairings ``q[j] = <w, alpha_j^vee>``."""
        q = [sum(map(mul, mu, c)) for c in self.coroots]
        t = [0] * len(q)
        stack = [j for j, x in enumerate(q) if x < 0]
        while stack:
            j = stack.pop()
            x = q[j]
            if x >= 0:
                continue
            t[j] -= x  # s_j(mu) = mu - <mu, alpha_j^vee> alpha_j
            for i, c in self._cartan_columns[j]:
                q[i] -= x * c
                if q[i] < 0:
                    stack.append(i)
        labels = self.datum.labels
        for tj, a in zip(t, self.simple):
            if tj:
                mu = tuple([m + tj * b for m, b in zip(mu, labels[a])])
        return mu, t, q

    def walk(self, node: int, total: int) -> list[tuple]:
        """One weight per fixed component of the variety marked at ``node``,
        whose ``total`` fixed points are |W/W_P|.

        The walk is depth first from the fundamental weight.  It takes its
        next step from the component found last: that component's
        L-dominant weight ``mu`` is reflected in the next positive root
        ``gamma`` outside L with ``<mu, gamma^vee> != 0`` and made
        L-dominant again.  A component with no such root left is dropped.
        The order of the steps only decides how soon the last component
        turns up.
        The steps are symmetric under W_L: if ``y = u x`` with ``u`` in
        W_L, then ``W_L s_i x = W_L s_{u(alpha_i)} y``, so stepping from one
        weight per component reaches every component.  Each component holds
        |W_L| / |W_{L,mu}| points, the stabilizer generated by the simple
        roots of L orthogonal to ``mu`` (Chevalley), and holds only one
        L-dominant weight.  So the sum of these counts over the components
        found is exact, and it reaches ``total`` just when every component
        is found; the walk stops there.

        Returns ``(mu, depth, scan, points)`` per component, in the order
        found: ``depth`` is the fundamental weight minus ``mu`` in
        simple-root coordinates, ``scan`` the pairs ``(r, <mu, beta_r^vee>)``
        over the positive roots ``beta_r`` that pair nonzero with ``mu``, so
        that ``beta_r`` (``p > 0``) or its negative (``p < 0``) is a tangent
        root at ``mu``, and ``points`` the component's number of points.
        """
        datum = self.datum
        pairings = self.root_pairings
        labels, coords, columns = datum.labels, datum.coords, datum.coroot_columns
        n = datum.n_positive

        def component(mu, depth, q) -> tuple:
            acc = [0] * n
            for m, col in zip(mu, columns):
                if m:
                    acc = [a + m * c for a, c in zip(acc, col)]
            # steps away from the fundamental weight first, lowest root
            # first, then steps back toward it, highest root first
            scan = [(r, p) for r, p in enumerate(acc) if p > 0]
            scan += [(r, acc[r]) for r in range(n - 1, -1, -1) if acc[r] < 0]
            stabilizer = [j for j, x in enumerate(q) if not x]
            return mu, depth, scan, self.order // weyl_order(self.cartan, stabilizer)

        # the fundamental weight is dominant, so L-dominant, and pairs with
        # a coroot as the coroot's coordinate at the node
        rank = datum.rank
        start = tuple([int(i == node - 1) for i in range(rank)])
        out = [component(start, (0,) * rank, [c[node - 1] for c in self.coroots])]
        seen = {start}
        count = out[0][3]
        stack = [[out[0], 0]]  # a component and the next position in its scan
        while count < total:
            frame = stack[-1]
            (mu, depth, scan, _), k = frame
            while k < len(scan) and not pairings[scan[k][0]]:  # a root of L
                k += 1
            if k == len(scan):
                stack.pop()
                continue
            frame[1] = k + 1
            r, p = scan[k]
            w, t, q = self.dominant(tuple([a - p * b for a, b in zip(mu, labels[r])]))
            if w in seen:
                continue
            seen.add(w)
            moved = [d + p * c for d, c in zip(depth, coords[r])]
            for tj, a in zip(t, self.simple):
                if tj:
                    moved = [d - tj * c for d, c in zip(moved, coords[a])]
            out.append(component(w, tuple(moved), q))
            count += out[-1][3]
            stack.append([out[-1], 0])
        return out


@dataclass(frozen=True)
class FixedPoint:
    """A torus-fixed point.  Its tangent roots are named by index: ``r`` for
    the positive root ``r`` of the root system and ``r + n_positive`` for
    the negative of that root."""

    weight: Tuple[int, ...]  # Dynkin labels of the translated fundamental weight
    depth: Tuple[int, ...]  # fundamental weight minus this weight, in simple-root coordinates
    tangent_roots: Tuple[int, ...]


def enumerate_fixed_points(
    space: HomogeneousSpace, max_cosets: int = DEFAULT_MAX_COSETS
) -> Tuple[FixedPoint, ...]:
    """Every torus-fixed point, with its tangent roots as indices.

    Off the pipeline path: ``build_action`` visits one weight per fixed
    component.  This is the same walk for the regular cocharacter
    (1, ..., 1), whose Levi subgroup is the torus, so that every component is
    a single point: the walk goes depth first from the fundamental weight
    and stops at the |W/W_P|-th point.
    """
    space.check_cap(max_cosets)
    datum = space.datum
    n = datum.n_positive
    levi = _Levi(datum, datum.pairings((1,) * datum.rank))
    return tuple([
        FixedPoint(
            weight=mu,
            depth=depth,
            tangent_roots=tuple(sorted([r if p > 0 else r + n for r, p in scan])),
        )
        for mu, depth, scan, _ in levi.walk(space.node, space.fixed_point_count)
    ])


def _suffix(idx: int, count: int) -> str:
    """Letters naming the ``idx``-th of ``count`` components of a level: none
    for a lone one, one letter for up to 26, else a fixed width of letters
    (``aa``, ``ab``, ...), so that names stay ASCII and sort in record order."""
    width = 0 if count == 1 else 1
    while 26 ** width < count:
        width += 1
    letters = ""
    for _ in range(width):
        idx, digit = divmod(idx, 26)
        letters = chr(ord("a") + digit) + letters
    return letters


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
    space.check_cap(max_cosets)
    root_pairings = space.datum.pairings(cocharacter)
    levi = _Levi(space.datum, root_pairings)
    walk = levi.walk(space.node, space.fixed_point_count)
    # linearization level, up to a constant: the cocharacter paired with the depth
    levels = [sum(map(mul, cocharacter, depth)) for _, depth, _, _ in walk]
    offset = min(levels)
    records = []
    for level, (_, _, scan, points) in zip(levels, walk):
        # the Levi Weyl group fixes the cocharacter, so one point per
        # component carries all of its tangent weights
        cert = tuple(sorted([root_pairings[r] if p > 0 else -root_pairings[r] for r, p in scan]))
        neg, pos = bisect_left(cert, 0), len(cert) - bisect_right(cert, 0)
        records.append((level - offset, len(cert) - neg - pos, pos, neg, cert, points))

    # deterministic names: level index, then letters when a level is
    # reducible; the point count breaks ties
    records.sort()
    components = []
    certificates: Dict[str, Tuple[int, ...]] = {}
    for k, (_, group) in enumerate(groupby(records, key=itemgetter(0))):
        at_level = list(group)
        for idx, (w, zeros, pos, neg, cert, _points) in enumerate(at_level):
            name = f"Y{k}{_suffix(idx, len(at_level))}"
            components.append(FixedComponent(name, w, zeros, nu_minus=neg, nu_plus=pos))
            certificates[name] = cert

    equalized = all(unit_tangent_weights(cert) for cert in certificates.values())
    short = is_short_grading(root_pairings)
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
        cocharacter=tuple([int(n) for n in cocharacter]),
        fixed_point_count=space.fixed_point_count,
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
    comps = [
        FixedComponent(
            f"Y{lv.weight}", lv.weight, lv.dim, nu_minus=lv.nu_minus, nu_plus=lv.nu_plus
        )
        for lv in grassmannian_reference(n, i, k)
    ]
    return validate_action(
        comps, dim_x=i * (n + 1 - i), equalized=True, equalization_source="tangent-weights"
    )


def grassmannian_action(n: int, i: int, k: int, max_cosets: int = DEFAULT_MAX_COSETS) -> LieActionResult:
    """The same action computed independently by coset enumeration."""
    datum = build_root_system("A", n)
    cochar = tuple([1 if idx == k - 1 else 0 for idx in range(n)])
    return build_action(HomogeneousSpace(datum, i), cochar, max_cosets=max_cosets)
