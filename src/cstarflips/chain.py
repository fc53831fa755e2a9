"""The rules of a flat model's chain, which every report and view is written
from: the chambers, the flips between the small modifications X(i, j) and
the chain of GIT quotients.

Chamber (i, j) sits in row i of a triangle, i < j <= r (``chamber_rows``).
An isolated original sink removes (0, 1) from row 0 and an isolated source
(r-1, r) from row r - 1; no other pair depends on the extremal components.
The rows and the movable corners are rules of r and that fact, which
:func:`build_chain` reads once per report.  A chamber's shape, a box of the
critical values cut by the diagonal, is written in one place,
``row_outlines``: every writer reads the corners from there, texts for a
whole row at a time.

Moving from chamber (i, j) to (i+1, j) or (i, j-1) is a flip removing the
cell closures attached to the shifting level:

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
:func:`flip_moves` walks its moves.  The object views in ``chambers`` and
``modifications`` take a model and follow the same rules.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Tuple

from .actions import ActionError, ActionModel, index_range


class OutOfRangeError(ActionError):
    pass


# The label of each isolated-extremes case, by (sink is a point, source is a point).
CASES = {(False, False): "bordism", (True, False): "isolated-sink",
         (False, True): "isolated-source", (True, True): "isolated-both"}


def movable_corners(r: int, isolated: Tuple[bool, bool]) -> Tuple[Tuple[int, int], ...]:
    """The vertices of the movable region of a flat model of criticality
    ``r`` as index pairs: (k, l) is the point (a_k, a_l).  The critical
    values increase strictly, so two vertices coincide just when their
    indices do, and no weight is compared.

    The triangle 0 <= tau_minus <= tau_plus <= bandwidth loses the corner
    tau_plus < a_1 when the original sink is a point and the corner
    tau_minus > a_{r-1} when the original source is (``isolated``).  For
    criticality one with a single isolated extreme the region degenerates to
    a segment (the blowup has no small modifications); with both extremes
    isolated there is nothing to describe and the call is rejected.
    """
    sink_point, source_point = isolated
    if r == 1 and sink_point and source_point:
        raise OutOfRangeError(
            "criticality-one action with isolated sink and source has no movable region"
        )
    low = [(0, 1), (1, 1)] if sink_point else [(0, 0)]
    high = [(r - 1, r - 1), (r - 1, r)] if source_point else [(r, r)]
    out: list[Tuple[int, int]] = []
    for p in low + high + [(0, r)]:
        if not out or out[-1] != p:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


def chamber_rows(r: int, isolated: Tuple[bool, bool]) -> list[range]:
    """Row i of the chamber triangle of criticality ``r``: the columns j of
    the chambers (i, j), i < j <= r, less (0, 1) when the original sink is a
    point and (r - 1, r) when the source is (``isolated``)."""
    sink_point, source_point = isolated
    rows = [range(i + 1, r + 1) for i in range(r)]
    rows[0] = rows[0][sink_point:]  # a True drops the first column
    rows[-1] = rows[-1][:len(rows[-1]) - source_point]
    return rows


def row_outlines(x, y, sep: str, i: int, columns: range) -> list[str]:
    """The outlines of the chambers (i, j), j in ``columns``, with the corner
    (a_k, a_l) written ``x[k] + y[l]`` and the corners joined by ``sep``.
    Chamber (i, j) is the box [a_i, a_(i+1)] x [a_(j-1), a_j] above the
    diagonal, its corners (a_i, a_(j-1)), (a_(i+1), a_(j-1)), (a_(i+1), a_j),
    (a_i, a_j) in turn; at j = i + 1 the corner (a_(i+1), a_i) is cut off and
    the chamber is a triangle.  Each outline is one f-string over the texts
    of rows i and i + 1 and columns j - 1 and j."""
    low, high = x[i], x[i + 1]
    return [f"{low}{y[j - 1]}{sep}{high}{y[j]}{sep}{low}{y[j]}" if j == i + 1
            else f"{low}{y[j - 1]}{sep}{high}{y[j - 1]}{sep}{high}{y[j]}{sep}{low}{y[j]}"
            for j in columns]


PLUS = "plus"
MINUS = "minus"


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
    # (i, j) -> (i, j - 1) at level j - 1: every row's minus columns end at
    # column r, and the first row that has any starts lowest
    minus_levels = range(next((minus.start for minus, _ in moves if minus), r + 1) - 1, r)
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


ChainSummary = namedtuple("ChainSummary", "chain_arrows left right blowups blowdowns flips")


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
