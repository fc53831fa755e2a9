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
:func:`row_moves`, per row of the chamber triangle.  A report is written
from the :class:`Chain` of its flat model, which :func:`build_chain` makes
once per spec; the JSON, DOT, SVG and text writers read it, and
:func:`flip_moves` walks its moves.  The object views
(:func:`build_flip_graph`, :func:`quotient_diagram` and the others) take a
model and follow the same rules.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Tuple

from .actions import ActionError, ActionModel, flat_model, index_range, index_set_i, shifted
from .chambers import chamber_pairs, chamber_polygon, chamber_rows, movable_corners

PLUS = "plus"
MINUS = "minus"


class NotAChamberError(ActionError):
    pass


class FlipCenter(namedtuple("FlipCenter", "component dim center_dim flipped_dim")):
    """Per-component bookkeeping of one flip at the shifting level."""

    __slots__ = ()


# A flip between two chambers: its direction is PLUS or MINUS and its level
# the shifting level, in the numbering of the flat model.
FlipEdge = namedtuple("FlipEdge", "from_pair to_pair direction level centers")
FlipObstruction = namedtuple("FlipObstruction", "from_pair to_pair direction level components")
GraphNode = namedtuple("GraphNode", "pair nef_polygon")


class FlipGraph(namedtuple("FlipGraph", "nodes edges obstructions")):
    __slots__ = ()

    def node(self, pair: Tuple[int, int]) -> GraphNode:
        for n in self.nodes:
            if n.pair == pair:
                return n
        raise NotAChamberError(f"{pair} is not a chamber of this model")


# The O(r) facts that a flat model's report is written from, each computed
# once: the texts of the critical values; the rows of the chamber triangle
# and the (minus, plus) moves out of each (``row_moves``); the record of the
# flip at each level in either direction (``flip_at_level``), ``None`` where
# no move uses it; the isolated-extremes fact, the index set and the movable
# corners; the ``chain_summary`` and the ``quotient_chain``.
Chain = namedtuple("Chain", "values rows moves minus plus isolated index_set corners "
                   "summary quotients")


def build_chain(flat: ActionModel) -> Chain:
    """The chain of the flat model ``flat``, in one pass over its levels.
    The isolated-extremes fact is read once, and through it the origin dims,
    recorded in the flat model; a model with no movable region is refused
    (``movable_corners``)."""
    isolated = flat.isolated_extremes()
    r = flat.criticality
    corners = movable_corners(r, isolated)
    rows = chamber_rows(r, isolated)
    moves = [row_moves(rows, i) for i in range(r)]
    minus_levels = {j - 1 for minus, _ in moves for j in minus}  # (i, j) -> (i, j - 1)
    values, minus, plus = [], [None] * r, [None] * r
    for k, (a, _) in enumerate(flat.levels):
        values.append(str(a))
        if k in minus_levels:
            minus[k] = flip_at_level(flat, MINUS, k)
        if 0 < k < r and moves[k - 1][1]:  # (k - 1, j) -> (k, j)
            plus[k] = flip_at_level(flat, PLUS, k)
    return Chain(values, rows, moves, minus, plus, isolated, index_range(r, isolated), corners,
                 chain_summary(r, isolated),
                 quotient_chain(flat, (flat.sink_origin_dim, flat.source_origin_dim)))


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


def flip_at_level(model: ActionModel, direction: str, level: int) -> tuple:
    """The flip in ``direction`` at ``level``, in one pass over the level's
    components Y: with (nu, nu') = (nu_minus, nu_plus) for the plus flip and
    (nu_plus, nu_minus) for the minus flip, the center in Y has dimension
    dim Y + nu and the flipped locus dim Y + nu' - 1, and a Y with nu' <= 1
    blocks the flip.  Returns the record (direction, level, centers,
    blocked): the (Y, center dim, flipped dim) of each component and the
    names of the blocking ones."""
    centers, blocked = [], []
    plus = direction == PLUS
    for c in model.levels[level][1]:
        nu, flipped = (c.nu_minus, c.nu_plus) if plus else (c.nu_plus, c.nu_minus)
        if flipped <= 1:  # the flip inequality fails
            blocked.append(c.name)
        centers.append((c, c.dim + nu, c.dim + flipped - 1))
    return direction, level, tuple(centers), tuple(blocked)


def row_moves(rows: list[range], i: int) -> Tuple[range, range]:
    """The flips out of row i of ``chamber_rows``: the columns j whose chamber
    (i, j) has a minus flip, to (i, j - 1) at level j - 1, and those with a
    plus flip, to (i + 1, j) at level i + 1.  A flip is a move only where its
    target is a chamber too."""
    columns = rows[i]
    below = rows[i + 1] if i + 1 < len(rows) else range(0)
    return columns[1:], range(max(columns.start, below.start), min(columns.stop, below.stop))


def flip_moves(chain: Chain):
    """The moves between the chambers of ``chain`` row by row, in (from, to)
    order, as (from pair, to pair, the flip's record)."""
    for i, (columns, (minus, plus)) in enumerate(zip(chain.rows, chain.moves)):
        for j in columns:
            if j in minus:
                yield (i, j), (i, j - 1), chain.minus[j - 1]
            if j in plus:
                yield (i, j), (i + 1, j), chain.plus[i + 1]


def build_flip_graph(model: ActionModel) -> FlipGraph:
    """Graph of all small modifications X(i, j) of the flat model ``model``
    with their connecting flips.

    Nodes are the chambers; a candidate edge is emitted only when its target
    is again a chamber and every component of the shifting level satisfies the
    flip inequality, otherwise the obstruction is recorded and the edge
    omitted.
    """
    nodes = tuple([GraphNode(pair, chamber_polygon(model, pair)) for pair in chamber_pairs(model)])
    edges, obstructions = [], []
    for p, q, (direction, level, centers, blocked) in flip_moves(build_chain(model)):
        if blocked:
            obstructions.append(FlipObstruction(p, q, direction, level, blocked))
        else:
            edges.append(FlipEdge(p, q, direction, level, tuple([
                FlipCenter(c.name, c.dim, center_dim, flipped_dim)
                for c, center_dim, flipped_dim in centers])))
    return FlipGraph(nodes, tuple(edges), tuple(obstructions))


# The identity of an extremal semigeometric node is its fixed component.
QuotientNode = namedtuple("QuotientNode", "dim label identity", defaults=(None,))
QuotientDiagram = namedtuple(
    "QuotientDiagram", "geometric semigeometric dashed_arrows diagonal_arrows fiber_note")


def quotient_chain(model: ActionModel, dims: Tuple[int, int]) -> tuple:
    """The chain of geometric quotients over the semigeometric ones: the
    nodes as (dim, label, identity), the arrows as label pairs, the fibers.
    The r geometric nodes GX(i, i+1) and the r + 1 semigeometric GX(i, i)
    have dimension dim X - 1 but the outermost two, the extremal components
    Y_0 and Y_r at the origin dims ``dims``.  A dashed arrow joins each
    geometric node to the next; each contracts onto its neighbours, GX(i, i)
    first."""
    r, d = model.criticality, model.dim_x - 1
    sink_dim, source_dim = dims
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
    *nodes, dashed, diagonal, fiber = quotient_chain(model, model.origin_dims())
    return QuotientDiagram(*[tuple([QuotientNode(*n) for n in ns]) for ns in nodes],
                           tuple(dashed), tuple(diagonal), fiber)


P1BundleModel = namedtuple("P1BundleModel", "index base_label node_pair nef_polygon")


def p1_bundle_models(model: ActionModel) -> list[P1BundleModel]:
    """The small modifications that are P1-bundles over geometric quotients,
    one for every admissible index."""
    return [
        P1BundleModel(i, f"GX({i},{i + 1})", (i, i + 1), chamber_polygon(model, (i, i + 1)))
        for i in sorted(index_set_i(model))
    ]


def extremal_ray_type(model: ActionModel, end: str | None = None) -> str | Tuple[str, str]:
    """Contraction type at the ``end`` of the quotient chain, "left" or
    "right" (:func:`chain_summary`), or at both ends as a pair."""
    if end not in (None, "left", "right"):
        raise ValueError(f"end must be 'left' or 'right', got {end!r}")
    s = flip_chain_summary(model)
    return (s.left, s.right) if end is None else getattr(s, end)


ChainSummary = namedtuple("ChainSummary", "chain_arrows left right blowups blowdowns flips")


def flip_chain_summary(model: ActionModel) -> ChainSummary:
    """The :func:`chain_summary` of ``model``."""
    return chain_summary(model.criticality, model.isolated_extremes())


def chain_summary(r: int, isolated: Tuple[bool, bool]) -> ChainSummary:
    """Counts for the quotient chain of criticality ``r``: r - 1 dashed
    arrows plus an endpoint classification.  An endpoint contracts as the
    projective bundle over a positive-dimensional extremal component, or
    divisorially when that component is a point (``isolated``).  A
    divisorial endpoint reclassifies the adjacent step as a blowup (left)
    or blowdown (right); the small contractions of the two end arrows then
    pair up, leaving r - 2 genuine flips, against r - 1 when both endpoints
    are fibrations."""
    left, right = ["divisorial" if point else "fibration" for point in isolated]
    blowups, blowdowns = int(left == "divisorial"), int(right == "divisorial")
    flips = r - 1 if blowups + blowdowns == 0 else max(r - 2, 0)
    return ChainSummary(r - 1, left, right, blowups, blowdowns, flips)
