"""Exact geometry in the two-parameter divisor slice of a flat model, as
objects kept for the API and for the benchmark's tracer: the movable region,
its chambers, and where a divisor class sits among them.

A class ``m * L(tau_minus, tau_plus)`` (``DivisorClass``) is a point of the
(tau_minus, tau_plus) plane, in exact rationals.  Chamber (i, j) has
``tau_minus`` between the i-th and (i+1)-st critical values and ``tau_plus``
between the (j-1)-st and j-th, above the diagonal.  ``locate_chamber``
places a class in a chamber's interior, on a wall or at a vertex, or outside
the movable cone with the divisor in the fixed part of its linear system;
``stable_base_locus`` gives its stable base locus as level sets, and
``intersection_number`` its degree on the curves of ``relevant_curves``,
which span the dual of the movable cone.  The rules these views follow are
in ``chain``, which the commands read; no command loads this module.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from operator import index
from typing import Tuple

from .actions import ActionError, ActionModel, as_rational
from .chain import CASES, OutOfRangeError, chamber_rows, movable_corners, row_outlines

Point = Tuple[Fraction, Fraction]


class NotAChamberError(ActionError):
    pass


class OutOfSliceError(ActionError):
    pass


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


def checked_pair(rows: list[range], pair) -> Tuple[int, int]:
    """``pair``, two ints in a tuple or a list, as the chamber (i, j) of
    ``rows`` (``chamber_rows``); :class:`NotAChamberError` if it is none."""
    try:
        i, j = map(index, pair)
        if 0 <= i < len(rows) and j in rows[i]:
            return i, j
    except (TypeError, ValueError):
        pass
    raise NotAChamberError(f"{pair} is not a chamber of this model")


def row_polygons(a, rows):
    """The chambers (i, j), j in ``columns``, of each (i, columns) in ``rows``
    as (pair, polygon) over the critical values ``a``: the outlines of a row
    written in the indices by ``row_outlines``, read back."""
    for i, columns in rows:
        texts = {k: f"{k} " for k in (i, i + 1, *range(columns.start - 1, columns.stop))}
        for j, outline in zip(columns, row_outlines(texts, texts, "", i, columns)):
            k = [int(t) for t in outline.split()]
            yield (i, j), tuple([(a[x], a[y]) for x, y in zip(k[::2], k[1::2])])


def chamber_polygon(model: ActionModel, pair: Tuple[int, int]) -> Tuple[Point, ...]:
    """The corners of chamber ``pair`` as points."""
    i, j = checked_pair(chamber_rows(model.criticality, model.isolated_extremes()), pair)
    ((_, polygon),) = row_polygons(model.critical_values, [(i, range(j, j + 1))])
    return polygon


def chamber_decomposition(model: ActionModel) -> list[Chamber]:
    rows = chamber_rows(model.criticality, model.isolated_extremes())
    return list(map(Chamber._make, row_polygons(model.critical_values, enumerate(rows))))


class DivisorClass(namedtuple("DivisorClass", "tau_minus tau_plus m",
                              defaults=(Fraction(1),))):
    """The class m * (pullback of L - tau_minus * sink divisor - (bandwidth - tau_plus) * source divisor).

    Equality is tested on (m, tau_minus, tau_plus) after canonicalizing the
    scale to 1 whenever it is positive; the zero class compares equal for any
    slice coordinates.
    """

    __slots__ = ()

    def __new__(cls, tau_minus, tau_plus, m=Fraction(1)):
        self = super().__new__(cls, as_rational(tau_minus), as_rational(tau_plus), as_rational(m))
        if self.m < 0:
            raise OutOfSliceError("negative scale")
        return self

    @classmethod
    def _make(cls, fields):
        # ``_replace`` builds through here: check the scale again
        return cls(*fields)

    def _key(self):
        if self.m == 0:
            return (Fraction(0), Fraction(0), Fraction(0))
        return (Fraction(1), self.tau_minus, self.tau_plus)

    def __eq__(self, other):
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other):
        # the inherited tuple.__ne__ would compare the raw fields
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self._key())


class CurveClass(enum.Enum):
    """Numerical curve classes spanning the dual side of the movable cone."""

    GEN = "C_gen"
    C0 = "C_0"
    CR = "C_r"
    C1R = "C_{1,r}"
    C0RM1 = "C_{0,r-1}"


class BaseLocusDescription(namedtuple("BaseLocusDescription", "plus_levels minus_levels flat",
                                      defaults=(True,))):
    """Stable base locus as level sets: downward cell closures of the
    ``plus_levels`` union upward cell closures of the ``minus_levels``."""

    __slots__ = ()

    @property
    def is_empty(self) -> bool:
        return not self.plus_levels and not self.minus_levels


# Where ``locate_chamber`` places a divisor class: its ``kind`` is
# "interior", "wall", "vertex" or "outside-movable".
SliceLocation = namedtuple("SliceLocation", "kind chambers tight fixed_divisor",
                           defaults=((), (), None))


def tau_indices(model: ActionModel, tau: Fraction) -> Tuple[int, int]:
    """Indices (min{i : a_i >= tau} - 1, max{j : a_j <= tau} + 1)."""
    tau = as_rational(tau)
    a = model.critical_values
    if tau < 0 or tau > a[-1]:
        raise OutOfRangeError(f"tau = {tau} outside [0, {a[-1]}]")
    return _tau_indices(a, tau)


def _tau_indices(a, tau: Fraction) -> Tuple[int, int]:
    # the critical values increase strictly: j - i is 2 at a critical value, else 1
    return bisect_left(a, tau) - 1, bisect_right(a, tau)


def stable_base_locus(
    model: ActionModel, tau_minus: Fraction, tau_plus: Fraction, flat: bool = True
) -> BaseLocusDescription:
    """Level sets of the stable base locus of m * L(tau_minus, tau_plus).

    ``plus_levels`` collects the levels with critical value <= tau_minus,
    ``minus_levels`` those with critical value >= tau_plus.  In the flat
    version the purely extremal contributions (the sink at level 0, the source
    at level r) disappear under the blowup and are stripped.
    """
    tm, tp = as_rational(tau_minus), as_rational(tau_plus)
    a = model.critical_values
    if not (0 <= tm <= tp <= a[-1]):
        raise OutOfRangeError(f"need 0 <= {tm} <= {tp} <= {a[-1]}")
    return BaseLocusDescription(frozenset(range(flat, bisect_right(a, tm))),
                                frozenset(range(bisect_left(a, tp), len(a) - flat)), flat=flat)


def movable_cone(model: ActionModel) -> list[DivisorClass]:
    """Generators of the movable cone, one per polygon vertex."""
    return [DivisorClass(x, y) for (x, y) in movable_polygon(model)]


def locate_chamber(model: ActionModel, d: DivisorClass) -> SliceLocation:
    """Place a divisor class: chamber interior, wall or vertex, or outside.

    Classes in the two corner triangles cut off the movable cone (present
    exactly when the corresponding extremal component of the original variety
    is a point) are reported as outside-movable together with the divisor
    supporting the fixed part of their linear systems.  A chamber (p, q) of
    ``chamber_rows`` holds the class in its closure when a_p <= tau_minus <=
    a_(p+1) and a_(q-1) <= tau_plus <= a_q (:func:`tau_indices`).
    """
    x, y = d.tau_minus, d.tau_plus
    a = model.critical_values
    r = model.criticality
    if not (0 <= x <= y <= a[-1]):
        raise OutOfSliceError(f"({x}, {y}) outside the slice region 0 <= tau- <= tau+ <= {a[-1]}")
    isolated = model.isolated_extremes()
    sink_point, source_point = isolated
    if sink_point and y < a[1]:
        return SliceLocation(kind="outside-movable", fixed_divisor="closure of X^-(Y_1)")
    if source_point and x > a[-2]:
        return SliceLocation(kind="outside-movable",
                             fixed_divisor=f"closure of X^+(Y_{{{r - 1}}})")

    i, j = _tau_indices(a, x)
    k, l = _tau_indices(a, y)
    tight = []
    if j - i == 2:
        tight.append(f"tau_minus=a_{i + 1}")
    if l - k == 2:
        tight.append(f"tau_plus=a_{k + 1}")
    if x == y:
        tight.append("tau_minus=tau_plus")

    rows = chamber_rows(r, isolated)
    incident = [(p, q) for p in range(max(i, 0), min(j, r)) for q in range(k + 1, l + 1)
                if q in rows[p]]
    if not incident:
        # boundary of a removed corner with no chamber on the movable side
        return SliceLocation(kind="outside-movable", tight=tuple(tight))
    kind = {0: "interior", 1: "wall"}.get(len(tight), "vertex")
    return SliceLocation(kind=kind, chambers=tuple(incident), tight=tuple(tight))


def intersection_number(d: DivisorClass, curve: CurveClass, model: ActionModel) -> Fraction:
    """Intersection of m * L(tau_minus, tau_plus) with the given curve class."""
    a = model.critical_values
    delta = a[-1]
    x, y = d.tau_minus, d.tau_plus
    if curve is CurveClass.GEN:
        val = y - x
    elif curve is CurveClass.C0:
        val = x
    elif curve is CurveClass.CR:
        val = delta - y
    elif curve is CurveClass.C1R:
        val = y - a[1]
    elif curve is CurveClass.C0RM1:
        val = a[-2] - x
    else:  # pragma: no cover
        raise ValueError(curve)
    return d.m * val


def relevant_curves(model: ActionModel) -> list[CurveClass]:
    """Curve classes generating the dual of the movable cone in this case."""
    extra = zip((CurveClass.C1R, CurveClass.C0RM1), model.isolated_extremes())
    return [CurveClass.GEN, CurveClass.C0, CurveClass.CR] + [c for c, isolated in extra if isolated]
