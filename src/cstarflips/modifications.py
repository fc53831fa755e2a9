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

from fractions import Fraction
from itertools import chain
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


def _flip_record(direction: str, level: int, comps):
    centers, blocked = [], []
    for c in comps:
        # the center has dim Y + center, the flipped locus dim Y + flipped - 1
        center, flipped = (c.nu_minus, c.nu_plus) if direction == PLUS else (c.nu_plus, c.nu_minus)
        if flipped <= 1:  # the flip inequality fails
            blocked.append(c.name)
        centers.append(FlipCenter(c.name, c.dim, c.dim + center, c.dim + flipped - 1))
    return direction, level, tuple(centers), tuple(blocked)


def flip_moves(model: ActionModel, rows: list[range]):
    """The candidate flips between the chambers of ``chamber_rows``: from
    (i, j) the minus flip to (i, j - 1) at level j - 1 and the plus flip to
    (i + 1, j) at level i + 1, where the target is a chamber too.  Returns
    (records, moves).  A record (direction, level, centers, blocked),
    legal when ``blocked`` is empty, is made once per direction and level
    that a move uses: every one but the minus flip at level 1 when the
    original sink is a point, as (0, 1) is gone, and the plus flip at level
    r - 1 when the source is, as (r - 1, r) is; those two are ``None``.
    ``moves`` yields the flips row by row, in (from, to) order: a move (n, a, b)
    flips the chamber at position a of ``chamber_pairs`` to the one at b,
    with record n.
    """
    r = len(rows)
    unused = dict(zip(((MINUS, 1), (PLUS, r - 1)), model.isolated_extremes()))
    # records[level - 1] is the minus flip at a level, records[r - 2 + level] the plus flip
    records = [None if unused.get((direction, level)) else
               _flip_record(direction, level, model.level_components(level))
               for direction in (MINUS, PLUS) for level in range(1, r)]
    return records, chain.from_iterable(_moves_by_row(rows))


def _moves_by_row(rows: list[range]):
    r, a = len(rows), 0
    for i, (columns, below) in enumerate(zip(rows, rows[1:] + [range(0)])):
        down = len(columns) + columns.start - below.start  # position of (i + 1, j) less (i, j)
        moves = []
        for j in columns:
            if j - 1 in columns:
                moves.append((j - 2, a, a - 1))
            if j in below:
                moves.append((r - 1 + i, a, a + down))
            a += 1
        yield moves


def build_flip_graph(model: ActionModel) -> FlipGraph:
    """Graph of all small modifications X(i, j) with their connecting flips.

    Nodes are the chambers; a candidate edge is emitted only when its target
    is again a chamber and every component of the shifting level satisfies the
    flip inequality, otherwise the obstruction is recorded and the edge
    omitted.
    """
    pairs = chamber_pairs(model)
    nodes = tuple([GraphNode(pair, chamber_polygon(model, pair)) for pair in pairs])
    edges, obstructions = [], []
    records, moves = flip_moves(model, chamber_rows(model))
    for n, a, b in moves:
        direction, level, centers, blocked = records[n]
        if blocked:
            obstructions.append(FlipObstruction(pairs[a], pairs[b], direction, level, blocked))
        else:
            edges.append(FlipEdge(pairs[a], pairs[b], direction, level, centers))
    return FlipGraph(nodes, tuple(edges), tuple(obstructions))


class QuotientNode(NamedTuple):
    kind: str  # "geometric" | "semigeometric"
    indices: Tuple[int, int]
    dim: int
    label: str
    identity: str | None = None  # extremal semigeometric nodes are the fixed components


class QuotientDiagram(NamedTuple):
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
    geometric = tuple([
        QuotientNode("geometric", (i, i + 1), model.dim_x - 1, f"GX({i},{i + 1})")
        for i in range(r)
    ])
    semi = (
        QuotientNode("semigeometric", (0, 0), sink_dim, "GX(0,0)", identity="Y_0"),
        *[QuotientNode("semigeometric", (i, i), model.dim_x - 1, f"GX({i},{i})")
          for i in range(1, r)],
        QuotientNode("semigeometric", (r, r), source_dim, f"GX({r},{r})", identity=f"Y_{r}"),
    )
    dashed = tuple([(geometric[i].label, geometric[i + 1].label) for i in range(r - 1)])
    diagonal = []
    for i in range(r + 1):
        if i >= 1:
            diagonal.append((geometric[i - 1].label, semi[i].label))
        if i <= r - 1:
            diagonal.append((geometric[i].label, semi[i].label))
    fiber = "projective spaces" if model.equalized else "weighted projective spaces"
    return QuotientDiagram(geometric, semi, dashed, tuple(diagonal), fiber)


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
