"""Where a divisor class sits in the two-parameter slice of a flat model.

A class ``m * L(tau_minus, tau_plus)`` is a point of the (tau_minus,
tau_plus) plane (``DivisorClass``).  ``locate_chamber`` places it in the
chamber decomposition of ``chambers``: in a chamber's interior, on a wall or
at a vertex, or outside the movable cone together with the divisor in the
fixed part of its linear system.  ``stable_base_locus`` gives its stable
base locus as level sets, and ``intersection_number`` its degree on the
curve classes of ``relevant_curves``, which span the dual of the movable
cone.  The pipeline does not use this module.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from typing import Tuple

from .actions import ActionModel, ActionError, as_rational
from .chambers import OutOfRangeError, chamber_pairs, movable_polygon


class OutOfSliceError(ActionError):
    pass


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


class SliceLocation(namedtuple("SliceLocation", "kind chambers tight fixed_divisor",
                               defaults=((), (), None))):
    """Result of locating a divisor class in the chamber decomposition, of
    the ``kind`` "interior", "wall", "vertex" or "outside-movable"."""

    __slots__ = ()


def tau_indices(model: ActionModel, tau: Fraction) -> Tuple[int, int]:
    """Indices (min{i : a_i >= tau} - 1, max{j : a_j <= tau} + 1)."""
    tau = as_rational(tau)
    a = model.critical_values
    if tau < 0 or tau > a[-1]:
        raise OutOfRangeError(f"tau = {tau} outside [0, {a[-1]}]")
    i = min(k for k, v in enumerate(a) if v >= tau) - 1
    j = max(k for k, v in enumerate(a) if v <= tau) + 1
    return (i, j)


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
    plus = {k for k, v in enumerate(a) if v <= tm}
    minus = {k for k, v in enumerate(a) if v >= tp}
    if flat:
        plus.discard(0)
        minus.discard(len(a) - 1)
    return BaseLocusDescription(frozenset(plus), frozenset(minus), flat=flat)


def movable_cone(model: ActionModel) -> list[DivisorClass]:
    """Generators of the movable cone, one per polygon vertex."""
    return [DivisorClass(x, y) for (x, y) in movable_polygon(model)]


def locate_chamber(model: ActionModel, d: DivisorClass) -> SliceLocation:
    """Place a divisor class: chamber interior, wall or vertex, or outside.

    Classes in the two corner triangles cut off the movable cone (present
    exactly when the corresponding extremal component of the original variety
    is a point) are reported as outside-movable together with the divisor
    supporting the fixed part of their linear systems.
    """
    x, y = d.tau_minus, d.tau_plus
    a = model.critical_values
    r = model.criticality
    if not (0 <= x <= y <= a[-1]):
        raise OutOfSliceError(f"({x}, {y}) outside the slice region 0 <= tau- <= tau+ <= {a[-1]}")
    sink_point, source_point = model.isolated_extremes()
    if sink_point and y < a[1]:
        return SliceLocation(kind="outside-movable", fixed_divisor="closure of X^-(Y_1)")
    if source_point and x > a[-2]:
        return SliceLocation(
            kind="outside-movable", fixed_divisor=f"closure of X^+(Y_{{{r - 1}}})"
        )

    tight: list[str] = []
    for k, v in enumerate(a):
        if x == v:
            tight.append(f"tau_minus=a_{k}")
        if y == v:
            tight.append(f"tau_plus=a_{k}")
    if x == y:
        tight.append("tau_minus=tau_plus")

    incident = [(i, j) for i, j in chamber_pairs(model)
                if a[i] <= x <= a[i + 1] and a[j - 1] <= y <= a[j]]
    if not incident:
        # boundary of a removed corner with no chamber on the movable side
        return SliceLocation(kind="outside-movable", tight=tuple(tight))
    kinds = {0: "interior", 1: "wall"}
    kind = kinds.get(len(tight), "vertex")
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
