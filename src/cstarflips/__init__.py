"""Combinatorics of equalized C*-actions: movable cones, Mori chambers,
flip graphs of small modifications, and GIT quotient diagrams, computed
exactly from fixed-point data or from Lie-theoretic input.

The names below are imported from their modules on first use (PEP 562), so
that importing one module, such as ``cstarflips.lie.catalog``, does not load
the whole pipeline."""

import importlib

# public name -> the module that defines it
_EXPORTS = {
    "ActionModel": "actions",
    "FixedComponent": "actions",
    "InvalidActionError": "actions",
    "Violation": "actions",
    "blowup_extremal": "actions",
    "index_set_i": "actions",
    "is_bordism": "actions",
    "is_btype": "actions",
    "is_equalized": "actions",
    "validate_action": "actions",
    "Chamber": "chambers",
    "chamber_decomposition": "chambers",
    "BaseLocusDescription": "locate",
    "CurveClass": "locate",
    "DivisorClass": "locate",
    "intersection_number": "locate",
    "locate_chamber": "locate",
    "movable_cone": "locate",
    "stable_base_locus": "locate",
    "tau_indices": "locate",
    "FlipEdge": "modifications",
    "FlipGraph": "modifications",
    "build_flip_graph": "modifications",
    "extremal_ray_type": "modifications",
    "flip_chain_summary": "modifications",
    "induced_action": "modifications",
    "p1_bundle_models": "modifications",
    "quotient_diagram": "modifications",
    "ReportBundle": "report",
    "run_pipeline": "report",
    "ActionSpecFile": "specfiles",
    "parse_spec": "specfiles",
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
