"""Small modifications of the flat model: flip graph and quotient diagram.

Each chamber pair (i, j) carries a small modification X(i, j) of the flat
model, again with a divisorial-extremes action: sink GX(i, i+1), source
GX(j-1, j), and the original inner components between critical values i and j
copied bit-exactly (weights renormalized to start at zero).  X(i, j) is built
on demand by :func:`induced_action`; a flip-graph node carries only its pair
and nef polygon.  Moving to (i+1, j) or (i, j-1) is a flip removing the cell
closures attached to the shifting level:

* the plus flip (i, j) -> (i+1, j) removes the downward closures of level
  i+1; per component Y the removed center has dimension dim Y + nu_minus(Y)
  and is replaced by a locus of dimension dim Y + nu_plus(Y) - 1, legal when
  nu_plus(Y) > 1 on every component of the level;
* the minus flip (i, j) -> (i, j-1) mirrors this at level j-1, with center
  dimension dim Y + nu_plus(Y), flipped dimension dim Y + nu_minus(Y) - 1,
  legal when nu_minus(Y) > 1.

Either way, since dim Y + nu_minus(Y) + nu_plus(Y) = dim X, the center and
flipped dimensions add up to dim X - 1 + dim Y, and the criticality drops by
one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Tuple

from .actions import ActionError, ActionModel, flat_model, index_set_i
from .chambers import Point, chamber_pairs, chamber_polygon

PLUS = "plus"
MINUS = "minus"


class NotAChamberError(ActionError):
    pass


@dataclass(frozen=True)
class FlipCenter:
    """Per-component bookkeeping of one flip at the shifting level."""

    component: str
    dim: int
    center_dim: int
    flipped_dim: int


@dataclass(frozen=True)
class FlipEdge:
    from_pair: Tuple[int, int]
    to_pair: Tuple[int, int]
    direction: str  # PLUS or MINUS
    level: int  # shifting level, in the numbering of the flat model
    centers: Tuple[FlipCenter, ...]


@dataclass(frozen=True)
class FlipObstruction:
    from_pair: Tuple[int, int]
    to_pair: Tuple[int, int]
    direction: str
    level: int
    components: Tuple[str, ...]


@dataclass(frozen=True)
class GraphNode:
    pair: Tuple[int, int]
    nef_polygon: Tuple[Point, ...]


@dataclass(frozen=True)
class FlipGraph:
    nodes: Tuple[GraphNode, ...]
    edges: Tuple[FlipEdge, ...]
    obstructions: Tuple[FlipObstruction, ...]

    def node(self, pair: Tuple[int, int]) -> GraphNode:
        for n in self.nodes:
            if n.pair == pair:
                return n
        raise NotAChamberError(f"{pair} is not a chamber of this model")


def induced_action(model: ActionModel, pair: Tuple[int, int]) -> ActionModel:
    """X(i, j): inner levels i+1 .. j-1 of the flat model at weights a_k - a_i,
    between divisorial extremes GX(i, i+1) and GX(j-1, j); an end at i = 0 or
    j = r keeps the flat model's origin dim, any other is its own blowup."""
    if pair not in chamber_pairs(model):
        raise NotAChamberError(f"{pair} is not a chamber of this model")
    i, j = pair
    a = model.critical_values
    base = a[i]
    inner = tuple(
        replace(c, weight=c.weight - base)
        for k in range(i + 1, j)
        for c in model.level_components(k)
    )
    sink_dim, source_dim = model.origin_dims()
    divisor = model.dim_x - 1
    return flat_model(
        model,
        (f"GX({i},{i + 1})", f"GX({j - 1},{j})"),
        inner,
        a[j] - base,
        (sink_dim if i == 0 else divisor, source_dim if j == model.criticality else divisor),
        Fraction(0),
    )


def _flip_records(direction: str, comps) -> Tuple[Tuple[FlipCenter, ...], Tuple[str, ...]]:
    centers = []
    blocked = []
    for c in comps:
        if direction == PLUS:
            legal = c.nu_plus > 1
            center_dim = c.dim + c.nu_minus
            flipped_dim = c.dim + c.nu_plus - 1
        else:
            legal = c.nu_minus > 1
            center_dim = c.dim + c.nu_plus
            flipped_dim = c.dim + c.nu_minus - 1
        if not legal:
            blocked.append(c.name)
        centers.append(FlipCenter(c.name, c.dim, center_dim, flipped_dim))
    return tuple(centers), tuple(blocked)


def flip_moves(model: ActionModel, pairs):
    """Every candidate flip between the chambers ``pairs``, as
    (from, to, direction, level, (centers, blocked)); legal when ``blocked``
    is empty.  The record (centers, blocked) depends only on the direction
    and the shifting level, so each is made once and shared.  The minus flip
    of a pair comes first, so sorted pairs give moves in (from, to) order.
    """
    chambers = set(pairs)
    records: dict = {}
    for pair in pairs:
        i, j = pair
        for direction, target, level in ((MINUS, (i, j - 1), j - 1), (PLUS, (i + 1, j), i + 1)):
            if target not in chambers:
                continue
            if (direction, level) not in records:
                records[direction, level] = _flip_records(direction, model.level_components(level))
            yield pair, target, direction, level, records[direction, level]


def build_flip_graph(model: ActionModel) -> FlipGraph:
    """Graph of all small modifications X(i, j) with their connecting flips.

    Nodes are the chambers; a candidate edge is emitted only when its target
    is again a chamber and every component of the shifting level satisfies the
    flip inequality, otherwise the obstruction is recorded and the edge
    omitted.
    """
    pairs = chamber_pairs(model)
    nodes = tuple(GraphNode(pair, chamber_polygon(model, pair)) for pair in pairs)
    edges: list[FlipEdge] = []
    obstructions: list[FlipObstruction] = []
    for pair, target, direction, level, (centers, blocked) in flip_moves(model, pairs):
        if blocked:
            obstructions.append(FlipObstruction(pair, target, direction, level, blocked))
        else:
            edges.append(FlipEdge(pair, target, direction, level, centers))
    return FlipGraph(nodes, tuple(edges), tuple(obstructions))


@dataclass(frozen=True)
class QuotientNode:
    kind: str  # "geometric" | "semigeometric"
    indices: Tuple[int, int]
    dim: int
    label: str
    identity: str | None = None  # extremal semigeometric nodes are the fixed components


@dataclass(frozen=True)
class QuotientDiagram:
    geometric: Tuple[QuotientNode, ...]
    semigeometric: Tuple[QuotientNode, ...]
    dashed_arrows: Tuple[Tuple[str, str], ...]
    diagonal_arrows: Tuple[Tuple[str, str], ...]
    fiber_note: str


def quotient_diagram(model: ActionModel) -> QuotientDiagram:
    """The chain of geometric quotients over the semigeometric ones.

    r geometric nodes GX(i, i+1) of dimension dim X - 1 linked by r - 1 dashed
    arrows; r + 1 semigeometric nodes GX(i, i) each receiving the diagonal
    contractions from its neighbours (2r arrows).  The two outermost
    semigeometric nodes are the extremal fixed components themselves.
    """
    r = model.criticality
    sink_dim, source_dim = model.origin_dims()
    geometric = tuple(
        QuotientNode("geometric", (i, i + 1), model.dim_x - 1, f"GX({i},{i + 1})")
        for i in range(r)
    )
    semi: list[QuotientNode] = []
    for i in range(r + 1):
        if i == 0:
            semi.append(QuotientNode("semigeometric", (0, 0), sink_dim, "GX(0,0)", identity="Y_0"))
        elif i == r:
            semi.append(
                QuotientNode("semigeometric", (r, r), source_dim, f"GX({r},{r})", identity=f"Y_{r}")
            )
        else:
            semi.append(QuotientNode("semigeometric", (i, i), model.dim_x - 1, f"GX({i},{i})"))
    dashed = tuple((geometric[i].label, geometric[i + 1].label) for i in range(r - 1))
    diagonal = []
    for i in range(r + 1):
        if i >= 1:
            diagonal.append((geometric[i - 1].label, semi[i].label))
        if i <= r - 1:
            diagonal.append((geometric[i].label, semi[i].label))
    fiber = "projective spaces" if model.equalized else "weighted projective spaces"
    return QuotientDiagram(geometric, tuple(semi), dashed, tuple(diagonal), fiber)


@dataclass(frozen=True)
class P1BundleModel:
    index: int
    base_label: str
    node_pair: Tuple[int, int]
    nef_polygon: Tuple[Point, ...]


def p1_bundle_models(model: ActionModel) -> list[P1BundleModel]:
    """The small modifications that are P1-bundles over geometric quotients,
    one for every admissible index."""
    return [
        P1BundleModel(
            index=i,
            base_label=f"GX({i},{i + 1})",
            node_pair=(i, i + 1),
            nef_polygon=chamber_polygon(model, (i, i + 1)),
        )
        for i in sorted(index_set_i(model))
    ]


def extremal_ray_type(model: ActionModel, end: str) -> str:
    """Contraction type at an endpoint of the quotient chain: the projective
    bundle over a positive-dimensional extremal component, or divisorial when
    that component is a point."""
    ends = dict(zip(("left", "right"), model.isolated_extremes()))
    if end not in ends:
        raise ValueError(f"end must be 'left' or 'right', got {end!r}")
    return "divisorial" if ends[end] else "fibration"


@dataclass(frozen=True)
class ChainSummary:
    chain_arrows: int
    left: str
    right: str
    blowups: int
    blowdowns: int
    flips: int


def flip_chain_summary(model: ActionModel) -> ChainSummary:
    """Counts for the quotient chain: r - 1 dashed arrows plus an endpoint
    classification.  A divisorial endpoint reclassifies the adjacent step as a
    blowup (left) or blowdown (right); the small contractions of the two end
    arrows then pair up, leaving r - 2 genuine flips, against r - 1 when both
    endpoints are fibrations."""
    r = model.criticality
    left = extremal_ray_type(model, "left")
    right = extremal_ray_type(model, "right")
    blowups = 1 if left == "divisorial" else 0
    blowdowns = 1 if right == "divisorial" else 0
    if blowups + blowdowns == 0:
        flips = r - 1
    else:
        flips = max(r - 2, 0)
    return ChainSummary(
        chain_arrows=r - 1,
        left=left,
        right=right,
        blowups=blowups,
        blowdowns=blowdowns,
        flips=flips,
    )
