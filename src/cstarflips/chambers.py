"""Exact geometry in the two-parameter divisor slice of a flat model: the
movable region and its chambers as objects, kept for the API and for the
benchmark's tracer.

Divisor classes are written ``m * L(tau_minus, tau_plus)`` and identified with
points of the (tau_minus, tau_plus) plane; all chamber bookkeeping happens in
that plane with exact rationals.  Chambers are indexed by pairs (i, j) with
``tau_minus`` between the i-th and (i+1)-st critical values and ``tau_plus``
between the (j-1)-st and j-th, intersected with ``tau_minus <= tau_plus``.
Divisor classes themselves, and where one sits in the slice, are in
``locate``.  The rules these views follow, the rows of the chamber triangle,
the movable corners and a chamber's outline, are in ``chain``, which the
commands read; no command loads this module.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Tuple

from .actions import ActionModel
from .chain import CASES, chamber_rows, movable_corners, row_outlines

Point = Tuple[Fraction, Fraction]


Chamber = namedtuple("Chamber", "pair polygon")


def extremal_case(model: ActionModel) -> str:
    """The label of the isolated-extremes case, as the report prints it."""
    return CASES[model.isolated_extremes()]


def movable_polygon(model: ActionModel) -> Tuple[Point, ...]:
    """Vertices of the movable region in the (tau_minus, tau_plus) plane:
    the points of :func:`movable_corners`."""
    a = model.critical_values
    return tuple([(a[k], a[l])
                  for k, l in movable_corners(model.criticality, model.isolated_extremes())])


def chamber_pairs(model: ActionModel) -> list[Tuple[int, int]]:
    """The index pairs whose chamber lies inside the movable cone."""
    rows = chamber_rows(model.criticality, model.isolated_extremes())
    return [(i, j) for i, columns in enumerate(rows) for j in columns]


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
