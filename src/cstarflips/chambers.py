"""Exact geometry in the two-parameter divisor slice of a flat model: the
movable region and its chambers, as the pipeline uses them.

Divisor classes are written ``m * L(tau_minus, tau_plus)`` and identified with
points of the (tau_minus, tau_plus) plane; all chamber bookkeeping happens in
that plane with exact rationals.  Chambers are indexed by pairs (i, j) with
``tau_minus`` between the i-th and (i+1)-st critical values and ``tau_plus``
between the (j-1)-st and j-th, intersected with ``tau_minus <= tau_plus``.
Divisor classes themselves, and where one sits in the slice, are in
``locate``.

Chamber (i, j) sits in row i of a triangle, i < j <= r (``chamber_rows``).
An isolated original sink removes (0, 1) from row 0 and an isolated source
(r-1, r) from row r - 1; no other pair depends on the extremal components.
Its shape, a box of the critical values cut by the diagonal, is written in
one place, ``row_outlines``: every writer and ``chamber_polygon`` read the
corners from there, texts for a whole row at a time.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Tuple

from .actions import ActionModel, ActionError

Point = Tuple[Fraction, Fraction]


class OutOfRangeError(ActionError):
    pass


Chamber = namedtuple("Chamber", "pair polygon")


# The label of each isolated-extremes case, by (sink is a point, source is a point).
_CASES = {(False, False): "bordism", (True, False): "isolated-sink",
          (False, True): "isolated-source", (True, True): "isolated-both"}


def extremal_case(model: ActionModel, isolated: Tuple[bool, bool] | None = None) -> str:
    """The label of the isolated-extremes case, as the report prints it."""
    return _CASES[isolated or model.isolated_extremes()]


def movable_corners(model: ActionModel, isolated: Tuple[bool, bool] | None = None
                    ) -> Tuple[Tuple[int, int], ...]:
    """The vertices of the movable region as index pairs: (k, l) is the
    point (a_k, a_l).  The critical values increase strictly, so two
    vertices coincide just when their indices do, and no weight is compared.

    The triangle 0 <= tau_minus <= tau_plus <= bandwidth loses the corner
    tau_plus < a_1 when the original sink is a point and the corner
    tau_minus > a_{r-1} when the original source is.  For criticality one
    with a single isolated extreme the region degenerates to a segment (the
    blowup has no small modifications); with both extremes isolated there is
    nothing to describe and the call is rejected.
    """
    r = model.criticality
    sink_point, source_point = isolated or model.isolated_extremes()
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


def movable_polygon(model: ActionModel, isolated: Tuple[bool, bool] | None = None
                    ) -> Tuple[Point, ...]:
    """Vertices of the movable region in the (tau_minus, tau_plus) plane:
    the points of :func:`movable_corners`."""
    a = model.critical_values
    return tuple([(a[k], a[l]) for k, l in movable_corners(model, isolated)])


def chamber_rows(model: ActionModel, isolated: Tuple[bool, bool] | None = None) -> list[range]:
    """Row i of the chamber triangle: the columns j of the chambers (i, j), i < j <= r,
    less (0, 1) when the original sink is a point and (r - 1, r) when the source is."""
    r = model.criticality
    sink_point, source_point = isolated or model.isolated_extremes()
    rows = [range(i + 1, r + 1) for i in range(r)]
    rows[0] = rows[0][sink_point:]  # a True drops the first column
    rows[-1] = rows[-1][:len(rows[-1]) - source_point]
    return rows


def chamber_pairs(model: ActionModel, isolated: Tuple[bool, bool] | None = None
                  ) -> list[Tuple[int, int]]:
    """The index pairs whose chamber lies inside the movable cone."""
    return [(i, j) for i, columns in enumerate(chamber_rows(model, isolated)) for j in columns]


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


def chamber_polygon(model: ActionModel, pair: Tuple[int, int]) -> Tuple[Point, ...]:
    """The corners of chamber ``pair`` as points: its outline written in the
    indices of the critical values, read back."""
    a = model.critical_values
    i, j = pair
    texts = {k: f"{k} " for k in (i, i + 1, j - 1, j)}
    indices = [int(k) for k in row_outlines(texts, texts, "", i, range(j, j + 1))[0].split()]
    return tuple([(a[k], a[l]) for k, l in zip(indices[::2], indices[1::2])])


def chamber_decomposition(model: ActionModel) -> list[Chamber]:
    return [Chamber(pair, chamber_polygon(model, pair)) for pair in chamber_pairs(model)]
