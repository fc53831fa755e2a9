"""Small modifications of the flat model as objects: the flip graph, the
quotient diagram and the models X(i, j), kept for the API and for the
benchmark's tracer.

Each chamber pair (i, j) carries a small modification X(i, j) of the flat
model, again with a divisorial-extremes action: sink GX(i, i+1), source
GX(j-1, j), and the original inner components between critical values i and j
copied bit-exactly (weights renormalized to start at zero).  X(i, j) is built
on demand by :func:`induced_action`; a flip-graph node carries only its pair
and nef polygon.  The flips between the chambers, and the chain of
quotients, follow the rules in ``chain``, which the commands read; no
command loads this module.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from operator import index, itemgetter
from typing import Tuple

from .actions import ActionModel, flat_model, index_range, shifted
from .chain import (
    ChainSummary, build_chain, chain_summary, chamber_rows, flip_moves, quotient_chain)
# chamber_pairs and chamber_polygon stay names here: bench/spans.py wraps them
from .chambers import NotAChamberError, chamber_pairs, chamber_polygon, checked_pair, row_polygons


# Per-component bookkeeping of one flip at the shifting level.
FlipCenter = namedtuple("FlipCenter", "component dim center_dim flipped_dim")


# A flip between two chambers: its direction is PLUS or MINUS and its level
# the shifting level, in the numbering of the flat model.
FlipEdge = namedtuple("FlipEdge", "from_pair to_pair direction level centers")
FlipObstruction = namedtuple("FlipObstruction", "from_pair to_pair direction level components")
GraphNode = namedtuple("GraphNode", "pair nef_polygon")


class FlipGraph(namedtuple("FlipGraph", "nodes edges obstructions")):
    __slots__ = ()

    def node(self, pair: Tuple[int, int]) -> GraphNode:
        """The node of chamber ``pair``, by bisection of the sorted nodes."""
        try:
            key = tuple(map(index, pair))
            k = bisect_left(self.nodes, key, key=itemgetter(0))
            if self.nodes[k].pair == key:
                return self.nodes[k]
        except (IndexError, TypeError):
            pass
        raise NotAChamberError(f"{pair} is not a chamber of this model")


def induced_action(model: ActionModel, pair: Tuple[int, int]) -> ActionModel:
    """X(i, j): inner levels i+1 .. j-1 of the flat model at weights a_k - a_i,
    between divisorial extremes GX(i, i+1) and GX(j-1, j); an end at i = 0 or
    j = r keeps the flat model's origin dim, any other is its own blowup."""
    i, j = checked_pair(chamber_rows(model.criticality, model.isolated_extremes()), pair)
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


def build_flip_graph(model: ActionModel) -> FlipGraph:
    """Graph of all small modifications X(i, j) of the flat model ``model``
    with their connecting flips.

    Nodes are the chambers; a candidate edge is emitted only when its target
    is again a chamber and every component of the shifting level satisfies the
    flip inequality, otherwise the obstruction is recorded and the edge
    omitted.
    """
    chain = build_chain(model)
    nodes = tuple(map(GraphNode._make, row_polygons(model.critical_values, enumerate(chain.rows))))
    # one tuple of centers per flip record, which every edge at its
    # (direction, level) shares
    shared = {(direction, level): tuple([FlipCenter(c.name, c.dim, center_dim, flipped_dim)
                                         for c, center_dim, flipped_dim in centers])
              for direction, level, centers, blocked in filter(None, chain.minus + chain.plus)
              if not blocked}
    edges, obstructions = [], []
    for p, q, (direction, level, _, blocked) in flip_moves(chain):
        if blocked:
            obstructions.append(FlipObstruction(p, q, direction, level, blocked))
        else:
            edges.append(FlipEdge(p, q, direction, level, shared[direction, level]))
    return FlipGraph(nodes, tuple(edges), tuple(obstructions))


# The identity of an extremal semigeometric node is its fixed component.
QuotientNode = namedtuple("QuotientNode", "dim label identity", defaults=(None,))
QuotientDiagram = namedtuple(
    "QuotientDiagram", "geometric semigeometric dashed_arrows diagonal_arrows fiber_note")


def quotient_diagram(model: ActionModel) -> QuotientDiagram:
    """The quotient diagram of :func:`quotient_chain` as records."""
    *nodes, dashed, diagonal, fiber = quotient_chain(model, model.origin_dims())
    return QuotientDiagram(*[tuple([QuotientNode(*n) for n in ns]) for ns in nodes],
                           tuple(dashed), tuple(diagonal), fiber)


P1BundleModel = namedtuple("P1BundleModel", "index base_label node_pair nef_polygon")


def p1_bundle_models(model: ActionModel) -> list[P1BundleModel]:
    """The small modifications that are P1-bundles over geometric quotients,
    one for every admissible index: chamber (i, i + 1), the first of row i."""
    rows = [(i, range(i + 1, i + 2))
            for i in index_range(model.criticality, model.isolated_extremes())]
    return [P1BundleModel(i, f"GX({i},{j})", (i, j), polygon)
            for (i, j), polygon in row_polygons(model.critical_values, rows)]


def flip_chain_summary(model: ActionModel) -> ChainSummary:
    """The :func:`chain_summary` of ``model``."""
    return chain_summary(model.criticality, model.isolated_extremes())
