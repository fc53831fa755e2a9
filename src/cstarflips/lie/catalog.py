"""Catalog of the small-bandwidth families, with verification recipes.

Three tables of varieties with equalized circle actions of Picard number one:

* criticality one (horospherical pairs), stored as data only;
* adjoint varieties of bandwidth two, each with its short grading nodes and
  the labels of the extremal and inner fixed components;
* bandwidth three with isolated extremal fixed points, inner components the
  Severi varieties.

Rows of the last two tables carry enough Lie data for the fixed-point engine
to recompute the level structure.  A row (``GradedRow``) states its table,
family, type, marked node and note once, and a function of the rank gives
the rest: the grading nodes and the extremal and inner factors.  Its
``RowInstance`` at a rank expects the weights ``0, 1, ..., table``, one per
level; ``verify_row`` compares level counts, weights and component
dimensions against the label dimensions.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional, Tuple

from ..actions import level_signature
from .homogeneous import (
    DEFAULT_MAX_COSETS,
    HomogeneousSpace,
    build_action,
    homogeneous_dim,
)
from .roots import build_root_system, fundamental_cocharacter


class Factor(namedtuple("Factor", "dynkin_type rank nodes veronese", defaults=(False,))):
    """One factor of a fixed-component label: a flag variety of the given
    type, marked at ``nodes``, possibly re-embedded by a quadric Veronese."""

    __slots__ = ()

    @property
    def text(self) -> str:
        inner = ",".join(str(n) for n in self.nodes)
        base = f"{self.dynkin_type}_{self.rank}({inner})"
        return f"v2({base})" if self.veronese else base

    def dim(self) -> int:
        return homogeneous_dim(build_root_system(self.dynkin_type, self.rank), self.nodes)


def label_text(factors: Tuple[Factor, ...]) -> str:
    return " x ".join(f.text for f in factors) if factors else "pt"


def label_dim(factors: Tuple[Factor, ...]) -> int:
    return sum(f.dim() for f in factors)


class HorosphericalRow(namedtuple("HorosphericalRow",
                                  "sink_label source_label conditions variety")):
    """Criticality-one pair and the variety it glues to (data only)."""

    __slots__ = ()


RowInstance = namedtuple("RowInstance", (
    "table family dynkin_type rank marked_node grading_nodes extremal_factors inner_factors "
    "expected_weights note"), defaults=("",))


class GradedRow(namedtuple("GradedRow", "table family dynkin_type marked_node parameter "
                           "min_rank make note", defaults=("",))):
    """A table row; parametric families instantiate at a chosen rank, fixed
    ones at ``min_rank``.  ``make`` maps a rank to the grading nodes and the
    extremal and inner factors."""

    __slots__ = ()

    def instantiate(self, rank: Optional[int] = None) -> RowInstance:
        if self.parameter is None:
            rank = self.min_rank
        elif rank is None or rank < self.min_rank:
            raise ValueError(f"{self.family}: rank must be >= {self.min_rank}")
        nodes, extremal, inner = self.make(rank)
        return RowInstance(
            self.table, self.family, self.dynkin_type, rank, self.marked_node, nodes,
            extremal, inner, tuple(range(self.table + 1)), self.note,
        )


def table1_rows() -> Tuple[HorosphericalRow, ...]:
    return (
        HorosphericalRow("A_n(1)", "A_n(n)", "n >= 2", "D_{n+1}(1)"),
        HorosphericalRow("A_n(i)", "A_n(i+1)", "n >= 3, i < n", "A_{n+1}(i+1)"),
        HorosphericalRow("B_n(n-1)", "B_n(n)", "n >= 3", "not homogeneous"),
        HorosphericalRow("B_3(1)", "B_3(3)", "", "not homogeneous"),
        HorosphericalRow("C_n(i+1)", "C_n(i)", "n >= 2, i < n", "not homogeneous"),
        HorosphericalRow("D_n(n-1)", "D_n(n)", "n >= 4", "B_n(n)"),
        HorosphericalRow("F_4(2)", "F_4(3)", "", "not homogeneous"),
        HorosphericalRow("G_2(2)", "G_2(1)", "", "not homogeneous"),
    )


def table2_rows() -> Tuple[GradedRow, ...]:
    """Adjoint varieties with an equalized action of bandwidth two."""
    return (
        GradedRow(2, "B_m(2)", "B", 2, "m", 3, lambda m: (
            (1,), (Factor("B", m - 1, (1,)),), (Factor("B", m - 1, (2,)),),
        )),
        # at m = 4 the inner component is the adjoint variety of D_3 = A_3,
        # i.e. the flag A_3(1,3); the D_{m-1}(2) label only applies for m >= 5
        GradedRow(2, "D_m(2) [node 1]", "D", 2, "m", 4, lambda m: (
            (1,), (Factor("D", m - 1, (1,)),),
            (Factor("A", 3, (1, 3)),) if m == 4 else (Factor("D", m - 1, (2,)),),
        )),
        GradedRow(2, "D_m(2) [nodes m-1, m]", "D", 2, "m", 4, lambda m: (
            (m - 1, m), (Factor("A", m - 1, (2,)),), (Factor("A", m - 1, (1, m - 1)),),
        )),
        GradedRow(2, "E_6(2)", "E", 2, None, 6, lambda m: (
            (1, 6), (Factor("D", 5, (5,)),), (Factor("D", 5, (2,)),),
        )),
        GradedRow(2, "E_7(1)", "E", 1, None, 7, lambda m: (
            (7,), (Factor("E", 6, (1,)),), (Factor("E", 6, (2,)),),
        )),
    )


def table3_rows() -> Tuple[GradedRow, ...]:
    """Bandwidth three with isolated extremal fixed points; inner components
    are the Severi varieties."""
    return (
        GradedRow(3, "C_3(3)", "C", 3, None, 3, lambda m: (
            (3,), (), (Factor("A", 2, (1,), veronese=True),),
        )),
        GradedRow(3, "A_5(3)", "A", 3, None, 5, lambda m: (
            (3,), (), (Factor("A", 2, (1,)), Factor("A", 2, (2,))),
        ), note="printed as A_3(3) in the source table"),
        GradedRow(3, "D_6(6)", "D", 6, None, 6, lambda m: ((6,), (), (Factor("A", 5, (2,)),))),
        GradedRow(3, "E_7(7)", "E", 7, None, 7, lambda m: ((7,), (), (Factor("E", 6, (1,)),))),
    )


Catalog = namedtuple("Catalog", "table1 table2 table3")


def catalog() -> Catalog:
    return Catalog(table1_rows(), table2_rows(), table3_rows())


# signatures_equal is None but for rows with two grading nodes.
RowVerification = namedtuple("RowVerification", "instance ok failures signatures_equal")


def verify_row(instance: RowInstance, max_cosets: int = DEFAULT_MAX_COSETS) -> RowVerification:
    """Recompute the row's action and compare against the label data.

    Checks level count, normalized weights, extremal and inner component
    dimensions, and the equalization verdict; for rows carrying two grading
    nodes, also whether the two gradings produce identical level signatures.
    """
    failures: list[str] = []
    datum = build_root_system(instance.dynkin_type, instance.rank)
    space = HomogeneousSpace(datum, instance.marked_node)
    signatures = []
    for node in instance.grading_nodes:
        result = build_action(space, fundamental_cocharacter(instance.rank, node), max_cosets)
        model = result.model
        signatures.append(level_signature(model))
        tag = f"{instance.family}, grading node {node}"
        weights = tuple([int(a) for a in model.critical_values])
        if weights != instance.expected_weights:
            failures.append(f"{tag}: weights {weights} != {instance.expected_weights}")
            continue
        if not result.equalized:
            failures.append(f"{tag}: action not equalized")
        ext_dim = label_dim(instance.extremal_factors)
        inner_dim = label_dim(instance.inner_factors)
        r = model.criticality
        for level, expected in ((0, ext_dim), (r, ext_dim)):
            comps = model.level_components(level)
            got = sum(c.dim for c in comps)
            if got != expected:
                failures.append(f"{tag}: level {level} dim {got} != {expected}")
        for level in range(1, r):
            got = sum(c.dim for c in model.level_components(level))
            if got != inner_dim:
                failures.append(f"{tag}: inner level {level} dim {got} != {inner_dim}")
    sig_equal = None
    if len(signatures) > 1:
        sig_equal = all(s == signatures[0] for s in signatures[1:])
        if not sig_equal:
            failures.append(f"{instance.family}: grading nodes give different signatures")
    return RowVerification(instance, not failures, failures, sig_equal)
