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
(Bialynicki-Birula).  A Weyl-conjugate cocharacter gives an isomorphic
action, so the derivation first moves the cocharacter into the dominant
chamber, where L is a standard Levi subgroup: its simple roots are those at
the nodes where the cocharacter is zero.  Each orbit holds exactly one
L-dominant weight, so the derivation walks those weights only, one per
component; the number of zero / positive / negative tangent weights there
gives the component's dimension and the normal ranks ``nu_plus`` /
``nu_minus`` toward higher and lower critical values.  The walk is depth
first and stops at the last component: the steps between components are
symmetric under W_L, so they reach every component, and each component's
point count |W_L| / |W_{L,mu}| is exact, so the counts add up to |W/W_P| just
when every component is found.  Every Weyl group order here is a product
over root heights (``weyl_order``).  Each step moves the level by an
integer read off the root stepped in, so the walk carries each component's
level as one integer.

Weights are kept as Dynkin labels and roots as indices into the root
system's positive roots, a negative root as its positive one and a sign, so
the whole derivation is integer sums and lookups.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Dict, NamedTuple, Sequence, Tuple

from ..actions import (
    DEFAULT_MAX_COSETS,
    ActionModel,
    ActionError,
    exact_component,
    shown,
    unit_weights,
    validate_action,
)
from .roots import RootSystem, column_sum, dominant_cocharacter, reflect_to_dominant, weyl_order


class IllegalRangeError(ActionError):
    pass


class CosetLimitError(ActionError):
    pass


class _HomogeneousSpace(NamedTuple):
    datum: RootSystem
    node: int  # 1-based marked node


class HomogeneousSpace(_HomogeneousSpace):
    """The flag variety G/P of a root system, P maximal at a marked node."""

    __slots__ = ()

    def __new__(cls, datum, node):
        if not 1 <= node <= datum.rank:
            raise IllegalRangeError(f"node {shown(str(node))} outside 1..{datum.rank}")
        return super().__new__(cls, datum, node)

    @classmethod
    def _make(cls, fields):
        # ``_replace`` builds through here: check the node again
        return cls(*fields)

    @property
    def label(self) -> str:
        return f"{self.datum.name}({self.node})"

    @property
    def dim(self) -> int:
        return homogeneous_dim(self.datum, (self.node,))

    @property
    def fixed_point_count(self) -> int:
        """|W / W_P|, the number of torus-fixed points."""
        nodes = tuple(range(self.datum.rank))
        others = nodes[:self.node - 1] + nodes[self.node:]
        return weyl_order(self.datum, nodes) // weyl_order(self.datum, others)

    def check_cap(self, max_cosets: int) -> int:
        """The number of fixed points; refuses a variety with more than
        ``max_cosets``."""
        total = self.fixed_point_count
        if total > max_cosets:
            raise CosetLimitError(
                f"{self.label}: more than {max_cosets} fixed points; "
                "raise max_cosets to enumerate"
            )
        return total


def homogeneous_dim(datum: RootSystem, nodes: Sequence[int]) -> int:
    """Dimension of the flag variety marked at the given (1-based) nodes: the
    number of positive roots with a nonzero coordinate at a marked node,
    none of which is negative: the nonzero entries of those columns' sum."""
    marked = [0] * datum.rank
    for n in nodes:
        if not 1 <= n <= datum.rank:
            raise IllegalRangeError(f"node {shown(str(n))} outside 1..{datum.rank}")
        marked[n - 1] = 1
    return datum.n_positive - column_sum(marked, datum.coord_columns).count(0)


class _Levi:
    """The Levi subgroup L of a dominant cocharacter: the roots of weight
    zero.  Its simple roots are the simple roots ``alpha_j`` at the nodes
    ``j`` in ``simple``, where the cocharacter is zero, so its Cartan matrix
    is that of the root system on those nodes, and a weight pairs with the
    coroot of ``alpha_j`` as its Dynkin label ``mu_j``."""

    def __init__(self, datum: RootSystem, cocharacter: Sequence[int]):
        self.datum = datum
        self.root_pairings = datum.pairings(cocharacter)
        self.simple = [j for j, n in enumerate(cocharacter) if not n]
        self.order = weyl_order(datum, tuple(self.simple))
        self._in_levi = [not n for n in cocharacter]

    def dominant(self, mu: Sequence[int]) -> Tuple[int, ...]:
        """The L-dominant weight in the W_L-orbit of ``mu``, reached by
        reflecting in simple roots ``alpha_j`` of L with ``mu_j < 0``:
        ``s_j(mu) = mu - mu_j alpha_j`` reads column ``j``."""
        return reflect_to_dominant(mu, self.datum.cartan_columns, self._in_levi)

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
        A step in ``gamma`` moves the level by ``<mu, gamma^vee> <gamma, n>``
        for the cocharacter ``n``.  The L-dominance reflections that follow
        are in roots of L, which pair to zero with ``n``, so they leave the
        level as it is.

        Returns ``(mu, level, scan, points)`` per component, in the order
        found: ``level`` is the linearization weight at ``mu`` less that at
        the fundamental weight, ``scan`` the pairs ``(r, <mu, beta_r^vee>)``
        over the positive roots ``beta_r`` that pair nonzero with ``mu``, so
        that ``beta_r`` (``p > 0``) or its negative (``p < 0``) is a tangent
        root at ``mu``, and ``points`` the component's number of points.
        """
        datum = self.datum
        pairings = self.root_pairings
        labels, columns = datum.labels, datum.coroot_columns
        n = datum.n_positive

        def component(mu, level) -> tuple:
            acc = column_sum(mu, columns)
            # steps away from the fundamental weight first, lowest root
            # first, then steps back toward it, highest root first
            scan = [(r, p) for r, p in enumerate(acc) if p > 0]
            scan += [(r, acc[r]) for r in range(n - 1, -1, -1) if acc[r] < 0]
            stabilizer = tuple([j for j in self.simple if not mu[j]])
            return mu, level, scan, self.order // weyl_order(datum, stabilizer)

        # the fundamental weight is dominant, so L-dominant
        rank = datum.rank
        start = tuple([int(i == node - 1) for i in range(rank)])
        out = [component(start, 0)]
        seen = {start}
        count = out[0][3]
        stack = [[out[0], 0]]  # a component and the next position in its scan
        while count < total:
            frame = stack[-1]
            (mu, level, scan, _), k = frame
            while k < len(scan) and not pairings[scan[k][0]]:  # a root of L
                k += 1
            if k == len(scan):
                stack.pop()
                continue
            frame[1] = k + 1
            r, p = scan[k]
            w = self.dominant([a - p * b for a, b in zip(mu, labels[r])])
            if w in seen:
                continue
            seen.add(w)
            out.append(component(w, level + p * pairings[r]))
            count += out[-1][3]
            stack.append([out[-1], 0])
        return out


class FixedPoint(NamedTuple):
    """A torus-fixed point.  Its tangent roots are named by index: ``r`` for
    the positive root ``r`` of the root system and ``r + n_positive`` for
    the negative of that root."""

    weight: Tuple[int, ...]  # Dynkin labels of the translated fundamental weight
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
    total = space.check_cap(max_cosets)
    datum = space.datum
    n = datum.n_positive
    levi = _Levi(datum, (1,) * datum.rank)
    return tuple([
        FixedPoint(weight=mu, tangent_roots=tuple(sorted([r if p > 0 else r + n for r, p in scan])))
        for mu, _, scan, _ in levi.walk(space.node, total)
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


class LieActionResult(NamedTuple):
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

    The components are derived at the dominant cocharacter in the Weyl orbit
    of ``cocharacter``, which gives the same action up to isomorphism; the
    result names ``cocharacter`` itself.  A non-short grading only warns;
    the equalization verdict is then derived from the tangent pairings
    themselves.
    """
    total = space.check_cap(max_cosets)
    levi = _Levi(space.datum, dominant_cocharacter(space.datum, cocharacter))
    root_pairings = levi.root_pairings
    walk = levi.walk(space.node, total)
    offset = min([level for _, level, _, _ in walk])
    records = []
    for _, level, scan, points in walk:
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
    for k, (w, group) in enumerate(groupby(records, key=itemgetter(0))):
        at_level, weight = list(group), Fraction(w)
        for idx, (_, zeros, pos, neg, cert, _points) in enumerate(at_level):
            name = f"Y{k}{_suffix(idx, len(at_level))}"
            components.append(exact_component((name, weight, zeros, neg, pos, False)))
            certificates[name] = cert

    equalized = all(unit_weights(cert) for cert in certificates.values())
    short = unit_weights(root_pairings)
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
        fixed_point_count=total,
        tangent_certificates=certificates,
        is_short=short,
        equalized=equalized,
        warnings=tuple(warnings),
    )

