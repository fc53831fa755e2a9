"""Combinatorics of equalized C*-actions: movable cones, Mori chambers,
flip graphs of small modifications, and GIT quotient diagrams, computed
exactly from fixed-point data or from Lie-theoretic input."""

from .actions import (
    ActionModel,
    FixedComponent,
    InvalidActionError,
    Violation,
    blowup_extremal,
    index_set_i,
    is_bordism,
    is_btype,
    is_equalized,
    validate_action,
)
from .chambers import (
    BaseLocusDescription,
    Chamber,
    CurveClass,
    DivisorClass,
    chamber_decomposition,
    intersection_number,
    locate_chamber,
    movable_cone,
    stable_base_locus,
    tau_indices,
)
from .modifications import (
    FlipEdge,
    FlipGraph,
    build_flip_graph,
    extremal_ray_type,
    flip_chain_summary,
    induced_action,
    p1_bundle_models,
    quotient_diagram,
)
from .report import ReportBundle, run_pipeline
from .specfiles import ActionSpecFile, parse_spec

__version__ = "0.1.0"

__all__ = [
    "ActionModel",
    "ActionSpecFile",
    "BaseLocusDescription",
    "Chamber",
    "CurveClass",
    "DivisorClass",
    "FixedComponent",
    "FlipEdge",
    "FlipGraph",
    "InvalidActionError",
    "ReportBundle",
    "Violation",
    "blowup_extremal",
    "build_flip_graph",
    "chamber_decomposition",
    "extremal_ray_type",
    "flip_chain_summary",
    "index_set_i",
    "induced_action",
    "intersection_number",
    "is_bordism",
    "is_btype",
    "is_equalized",
    "locate_chamber",
    "movable_cone",
    "p1_bundle_models",
    "parse_spec",
    "quotient_diagram",
    "run_pipeline",
    "stable_base_locus",
    "tau_indices",
    "validate_action",
]
