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

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Sequence, Tuple

from ..actions import (  # validate_action stays a name here: bench/spans.py wraps it
    DEFAULT_MAX_COSETS,
    ActionError,
    checked_model,
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


class HomogeneousSpace(namedtuple("HomogeneousSpace", "datum node")):
    """The flag variety G/P of a root system, P maximal at a marked node
    (``node``, 1-based)."""

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
        The simple roots J of L orthogonal to ``mu`` generate W_J, which
        fixes ``mu``, so ``s_{u gamma}(mu) = u s_gamma(mu)`` for ``u`` in W_J:
        only the steps in the J-dominant tangent roots, one per W_J-orbit,
        are needed.  A component tests this (``RootSystem.negative_labels``)
        once a step from it has reached a component already found.
        A step in ``gamma`` moves the level by ``<mu, gamma^vee> <gamma, n>``
        for the cocharacter ``n``.  The L-dominance reflections that follow
        are in roots of L, which pair to zero with ``n``, so they leave the
        level as it is.

        Returns ``(mu, level, acc, points)`` per component, in the order
        found: ``level`` is the linearization weight at ``mu`` less that at
        the fundamental weight, ``acc`` the pairings ``<mu, beta_r^vee>``
        with every positive root ``beta_r``, so that ``beta_r`` (``p > 0``)
        or its negative (``p < 0``) is a tangent root at ``mu``, and
        ``points`` the component's number of points.
        """
        datum = self.datum
        pairings = self.root_pairings
        labels, columns, signs = datum.labels, datum.coroot_columns, datum.negative_labels
        outside = [r for r, m in enumerate(pairings) if m]  # the positive roots not in L
        inward = outside[::-1]

        def component(mu, level) -> tuple:
            stabilizer = tuple([j for j in self.simple if not mu[j]])
            return mu, level, column_sum(mu, columns), self.order // weyl_order(datum, stabilizer)

        def steps(acc):
            # the tangent roots outside L, as the walk needs them: away from the fundamental
            # weight first, lowest root first, then back toward it, highest root first
            for r in outside:
                if acc[r] > 0:
                    yield r
            for r in inward:
                if acc[r] < 0:
                    yield r

        # the fundamental weight is dominant, so L-dominant
        start = tuple([int(i == node - 1) for i in range(datum.rank)])
        out = [component(start, 0)]
        seen = {start}
        count = out[0][3]
        # a component, its steps left, and once a step from it has reached
        # a component already found, the bitmask of its J
        stack = [[out[0], steps(out[0][2]), 0]]
        while count < total:
            frame = stack[-1]
            (mu, level, acc, _), left, fixed = frame
            r = next(left, None)
            if r is None:
                stack.pop()
                continue
            p = acc[r]
            if fixed and fixed & signs[r][p < 0]:  # the tangent root is not J-dominant
                continue
            w = self.dominant(column_sum((1, -p), (mu, labels[r])))  # mu - p labels[r]
            if w in seen:
                if not fixed:
                    frame[2] = sum([1 << j for j in self.simple if not mu[j]])
                continue
            seen.add(w)
            out.append(component(w, level + p * pairings[r]))
            count += out[-1][3]
            stack.append([out[-1], steps(out[-1][2]), 0])
        return out


class FixedPoint(namedtuple("FixedPoint", "weight tangent_roots")):
    """A torus-fixed point: its weight, the Dynkin labels of the translated
    fundamental weight, and its tangent roots, named by index: ``r`` for
    the positive root ``r`` of the root system and ``r + n_positive`` for
    the negative of that root."""

    __slots__ = ()


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
        FixedPoint(weight=mu,
                   tangent_roots=tuple(sorted([r if p > 0 else r + n for r, p in enumerate(acc) if p])))
        for mu, _, acc, _ in levi.walk(space.node, total)
    ])


def _suffix(idx: int, count: int) -> str:
    """Letters naming the ``idx``-th of ``count > 1`` components of a level:
    one letter for up to 26, else a fixed width of letters (``aa``, ``ab``,
    ...), so that names stay ASCII and sort in record order."""
    width = 1
    while 26 ** width < count:
        width += 1
    letters = ""
    for _ in range(width):
        idx, digit = divmod(idx, 26)
        letters = chr(ord("a") + digit) + letters
    return letters


class LieActionResult(namedtuple("LieActionResult", (
        "model space_label cocharacter fixed_point_count tangent_certificates is_short "
        "equalized warnings"))):
    """Validated model plus the tangent-weight certificates behind it, a
    dict from component name to its tangent weights."""

    __slots__ = ()


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
    pairings = levi.root_pairings
    walk = levi.walk(space.node, total)
    offset = min([level for _, level, _, _ in walk])
    records = []
    for _, level, acc, points in walk:
        # the Levi Weyl group fixes the cocharacter, so one point per
        # component carries all of its tangent weights
        cert = sorted([m if p > 0 else -m for p, m in zip(acc, pairings) if p])
        neg, zeros = bisect_left(cert, 0), cert.count(0)
        records.append((level - offset, zeros, len(cert) - neg - zeros, neg, tuple(cert), points))

    # deterministic names: level index, then letters when a level is
    # reducible; the point count breaks ties.  Each component is made once,
    # with its level's weight and inner flag: the sink's level is 0.
    records.sort()
    top = records[-1][0]
    levels = []
    certificates: dict[str, Tuple[int, ...]] = {}
    for k, (w, group) in enumerate(groupby(records, key=itemgetter(0))):
        at_level = list(group)
        weight, inner = Fraction(w), 0 < w < top
        level = []
        for idx, (_, zeros, pos, neg, cert, _points) in enumerate(at_level):
            name = f"Y{k}" if len(at_level) == 1 else f"Y{k}{_suffix(idx, len(at_level))}"
            level.append(exact_component((name, weight, zeros, neg, pos, inner)))
            certificates[name] = cert
        levels.append((weight, tuple(level)))

    equalized = all(unit_weights(cert) for cert in certificates.values())
    short = unit_weights(pairings)
    warnings = () if short else ("GradingNotShort: grading support exceeds {-1, 0, 1}",)
    model = checked_model(levels, space.dim, equalized=equalized,
                          equalization_source="tangent-weights")
    return LieActionResult(model, space.label, tuple([int(n) for n in cocharacter]), total,
                           certificates, short, equalized, warnings)


def unequalized_witness(result: LieActionResult, datum: RootSystem) -> str:
    """Why ``result`` is not equalized, for a one-line message: the first
    component in the model's order with a tangent weight outside {-1, 0, 1},
    and its tangent weight of largest size; and that ``datum`` has no short
    grading when no coefficient of its highest root is 1 (E_8, F_4, G_2)."""
    certificates = result.tangent_certificates
    name = next(c.name for c in result.model.components if not unit_weights(certificates[c.name]))
    text = f"component {shown(name)} has tangent weight {max(certificates[name], key=abs)}"
    return text if 1 in datum.coords[-1] else f"{text}; {datum.name} has no short grading"
