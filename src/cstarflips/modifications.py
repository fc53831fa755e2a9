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

The flip rule is written once, in :func:`flip_at_level`, per (direction,
level), and which flips are moves between chambers once, in
:func:`row_moves`, per row of the chamber triangle.  The report's JSON
writer calls both in its own row loop; :func:`flip_moves` walks the same
rows for the object view (:func:`build_flip_graph`) and the text and DOT
views.  The quotient diagram's nodes and arrows are written once, in
:func:`quotient_chain`, which the JSON writer reads directly and the other
views through :func:`quotient_diagram`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Tuple

from .actions import ActionError, ActionModel, flat_model, index_set_i, shifted
from .chambers import Point, chamber_pairs, chamber_polygon, chamber_rows

PLUS = "plus"
MINUS = "minus"


class NotAChamberError(ActionError):
    pass


class FlipCenter(NamedTuple):
    """Per-component bookkeeping of one flip at the shifting level."""

    component: str
    dim: int
    center_dim: int
    flipped_dim: int


class FlipEdge(NamedTuple):
    from_pair: Tuple[int, int]
    to_pair: Tuple[int, int]
    direction: str  # PLUS or MINUS
    level: int  # shifting level, in the numbering of the flat model
    centers: Tuple[FlipCenter, ...]


class FlipObstruction(NamedTuple):
    from_pair: Tuple[int, int]
    to_pair: Tuple[int, int]
    direction: str
    level: int
    components: Tuple[str, ...]


class GraphNode(NamedTuple):
    pair: Tuple[int, int]
    nef_polygon: Tuple[Point, ...]


class FlipGraph(NamedTuple):
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
    base = a[i].as_integer_ratio()
    inner = []
    for a_k, comps in model.levels[i + 1:j]:
        weight = shifted(a_k.as_integer_ratio(), base)
        inner.append((weight, tuple([c._replace(weight=weight) for c in comps])))
    sink_dim, source_dim = model.origin_dims()
    divisor = model.dim_x - 1
    return flat_model(
        model,
        (f"GX({i},{i + 1})", f"GX({j - 1},{j})"),
        tuple(inner),
        shifted(a[j].as_integer_ratio(), base),
        (sink_dim if i == 0 else divisor, source_dim if j == model.criticality else divisor),
        Fraction(0),
    )


def flip_at_level(model: ActionModel, direction: str, level: int, center):
    """The flip in ``direction`` at ``level``, in one pass over the level's
    components Y: with (nu, nu') = (nu_minus, nu_plus) for the plus flip and
    (nu_plus, nu_minus) for the minus flip, the center in Y has dimension
    dim Y + nu and the flipped locus dim Y + nu' - 1, and a Y with nu' <= 1
    blocks the flip.  Returns the list of ``center(Y, center_dim,
    flipped_dim)``, one per component, and the names of the blocking
    components."""
    centers, blocked = [], []
    plus = direction == PLUS
    for c in model.levels[level][1]:
        nu, flipped = (c.nu_minus, c.nu_plus) if plus else (c.nu_plus, c.nu_minus)
        if flipped <= 1:  # the flip inequality fails
            blocked.append(c.name)
        centers.append(center(c, c.dim + nu, c.dim + flipped - 1))
    return centers, blocked


def row_moves(rows: list[range], i: int) -> Tuple[range, range]:
    """The flips out of row i of ``chamber_rows``: the columns j whose chamber
    (i, j) has a minus flip, to (i, j - 1) at level j - 1, and those with a
    plus flip, to (i + 1, j) at level i + 1.  A flip is a move only where its
    target is a chamber too."""
    columns = rows[i]
    below = rows[i + 1] if i + 1 < len(rows) else range(0)
    return columns[1:], range(max(columns.start, below.start), min(columns.stop, below.stop))


def _no_center(c, center_dim: int, flipped_dim: int) -> None:
    return None


def flip_moves(model: ActionModel, center=_no_center):
    """The moves between the chambers row by row, in (from, to) order, as
    (from pair, to pair, record): the record (direction, level, centers,
    blocked), the two tuples from ``flip_at_level`` with ``center``, is made
    once per (direction, level) that a move uses.  By default the centers
    are ``None``, for a writer that only needs the blocked names."""
    rows = chamber_rows(model)
    records = {}

    def record(direction, level):
        if (direction, level) not in records:
            centers, blocked = flip_at_level(model, direction, level, center)
            records[direction, level] = (direction, level, tuple(centers), tuple(blocked))
        return records[direction, level]

    for i in range(len(rows)):
        minus, plus = row_moves(rows, i)
        for j in rows[i]:
            if j in minus:
                yield (i, j), (i, j - 1), record(MINUS, j - 1)
            if j in plus:
                yield (i, j), (i + 1, j), record(PLUS, i + 1)


def build_flip_graph(model: ActionModel) -> FlipGraph:
    """Graph of all small modifications X(i, j) with their connecting flips.

    Nodes are the chambers; a candidate edge is emitted only when its target
    is again a chamber and every component of the shifting level satisfies the
    flip inequality, otherwise the obstruction is recorded and the edge
    omitted.
    """
    nodes = tuple([GraphNode(pair, chamber_polygon(model, pair)) for pair in chamber_pairs(model)])
    edges, obstructions = [], []
    for p, q, (direction, level, centers, blocked) in flip_moves(model, _flip_center):
        if blocked:
            obstructions.append(FlipObstruction(p, q, direction, level, blocked))
        else:
            edges.append(FlipEdge(p, q, direction, level, centers))
    return FlipGraph(nodes, tuple(edges), tuple(obstructions))


def _flip_center(c, center_dim: int, flipped_dim: int) -> FlipCenter:
    return FlipCenter(c.name, c.dim, center_dim, flipped_dim)


class QuotientNode(NamedTuple):
    dim: int
    label: str
    identity: str | None = None  # extremal semigeometric nodes are the fixed components


class QuotientDiagram(NamedTuple):
    geometric: Tuple[QuotientNode, ...]
    semigeometric: Tuple[QuotientNode, ...]
    dashed_arrows: Tuple[Tuple[str, str], ...]
    diagonal_arrows: Tuple[Tuple[str, str], ...]
    fiber_note: str


def quotient_chain(model: ActionModel) -> tuple:
    """The chain of geometric quotients over the semigeometric ones: the
    nodes as (dim, label, identity), the arrows as label pairs, the fibers.
    The r geometric nodes GX(i, i+1) and the r + 1 semigeometric GX(i, i)
    have dimension dim X - 1 but the outermost two, the extremal components
    Y_0 and Y_r at the origin dims.  A dashed arrow joins each geometric
    node to the next; each contracts onto its neighbours, GX(i, i) first."""
    r, d = model.criticality, model.dim_x - 1
    sink_dim, source_dim = model.origin_dims()
    geometric = [f"GX({i},{i + 1})" for i in range(r)]
    semi = [f"GX({i},{i})" for i in range(r + 1)]
    return (
        [(d, g, None) for g in geometric],
        [(sink_dim, semi[0], "Y_0"), *[(d, s, None) for s in semi[1:-1]],
         (source_dim, semi[-1], f"Y_{r}")],
        list(zip(geometric, geometric[1:])),
        [(g, s) for i, g in enumerate(geometric) for s in semi[i:i + 2]],
        "projective spaces" if model.equalized else "weighted projective spaces",
    )


def quotient_diagram(model: ActionModel) -> QuotientDiagram:
    """The quotient diagram of :func:`quotient_chain` as records."""
    *nodes, dashed, diagonal, fiber = quotient_chain(model)
    return QuotientDiagram(*[tuple([QuotientNode(*n) for n in ns]) for ns in nodes],
                           tuple(dashed), tuple(diagonal), fiber)


class P1BundleModel(NamedTuple):
    index: int
    base_label: str
    node_pair: Tuple[int, int]
    nef_polygon: Tuple[Point, ...]


def p1_bundle_models(model: ActionModel) -> list[P1BundleModel]:
    """The small modifications that are P1-bundles over geometric quotients,
    one for every admissible index."""
    return [
        P1BundleModel(i, f"GX({i},{i + 1})", (i, i + 1), chamber_polygon(model, (i, i + 1)))
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


class ChainSummary(NamedTuple):
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
    flips = r - 1 if blowups + blowdowns == 0 else max(r - 2, 0)
    return ChainSummary(r - 1, left, right, blowups, blowdowns, flips)
