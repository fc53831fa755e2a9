"""Pipeline orchestration and the canonical report bundle.

``run_pipeline`` takes a parsed spec, validates (or derives, for Lie input)
the action model, passes to the divisorial-extremes model and builds its
chain (``chain.build_chain``) once; the :class:`ReportBundle` it returns
holds these facts.  Its ``to_json`` writes them as canonical JSON through
``report_json``, which only a call that writes JSON loads.
"""

from __future__ import annotations

from collections import namedtuple

from . import chain as cn
from .actions import (  # index_set_i and is_bordism stay names here: bench/spans.py wraps them
    DEFAULT_MAX_COSETS,
    ActionModel,
    InvalidActionError,
    Violation,
    is_bordism,
    is_btype,
    blowup_extremal,
    index_set_i,
    level_signature,
    model_warnings,
    shown,
    validate_action,
)
from .specfiles import ActionSpecFile

EXTREMAL_LABEL_NOTE = (
    "extremal components of X(i,j) labeled GX(i,i+1) / GX(j-1,j); "
    "offset conventions GX(i,i)/GX(j,j) and GX(i,i+1)/GX(j,j+1) appear elsewhere"
)


class ReportBundle(namedtuple("ReportBundle", "name model flat chain notes checked failures lie")):
    """A report as the facts it is written from: the spec's name, the model,
    the flat model and its chain (``chain.Chain``), the sorted
    notes, the verification result (whether a lie block with listed
    components was cross-checked, and the failures) and the Lie derivation,
    a ``LieActionResult`` or ``None`` without a lie block.  ``to_json``
    writes every section from these; the text, DOT and SVG views read the
    same chain."""

    __slots__ = ()

    def to_json(self) -> bytes:
        """The canonical JSON of the report, written by ``report_json``."""
        return _write_json(self)


def _write_json(bundle: ReportBundle) -> bytes:
    """``report_json.to_json``, whose module is imported on the first call:
    the import rebinds this name to it, so that a later call runs no import
    statement, which would cost about 1 % of a small report."""
    global _write_json
    from .report_json import to_json as _write_json

    return _write_json(bundle)


def _compare_expected(model: ActionModel, spec: ActionSpecFile) -> list[str]:
    """The failures of a derived ``model`` against the spec's ``dim_X`` and
    listed components."""
    failures = []
    if spec.dim_x is not None and model.dim_x != spec.dim_x:
        failures.append(f"dim_X: derived {shown(str(model.dim_x))}, "
                        f"expected {shown(str(spec.dim_x))}")
    if spec.components is None:
        return failures
    expected = validate_action(spec.components,
                               spec.dim_x if spec.dim_x is not None else model.dim_x)
    # both in increasing weight: the levels pair up in order, no weight hashed
    got, want = level_signature(model), level_signature(expected)
    values, wanted = [a for a, _ in got], [a for a, _ in want]
    if values != wanted:
        failures.append(f"critical values: derived {shown(str(sorted(map(str, values))))}, "
                        f"expected {shown(str(sorted(map(str, wanted))))}")
        return failures
    return failures + [
        f"level {shown(str(a))}: derived (dim, nu-, nu+) = {shown(str(list(g)))}, "
        f"expected {shown(str(list(w)))}"
        for (a, g), (_, w) in zip(got, want) if g != w]


def run_pipeline(spec: ActionSpecFile, *, max_cosets: int = DEFAULT_MAX_COSETS,
                 strict_equalized: bool = False) -> ReportBundle:
    """Validate or derive the model and pass to the flat model: the facts of the report.

    With a lie block, the model is recomputed from the root datum and any
    listed components are cross-checked; mismatches are collected in the
    bundle's verification section rather than raised.
    """
    notes: list[str] = []
    lie, failures = None, []
    if spec.lie is not None:
        from .lie.homogeneous import HomogeneousSpace, build_action, unequalized_witness
        from .lie.roots import build_root_system

        datum = build_root_system(spec.lie.dynkin_type, spec.lie.rank)
        lie = build_action(HomogeneousSpace(datum, spec.lie.node), spec.lie.cocharacter,
                           max_cosets=max_cosets)
        model = lie.model
        notes.extend(lie.warnings)
        failures = _compare_expected(model, spec)
    else:
        declared = True if spec.declared_equalized is None else spec.declared_equalized
        if spec.declared_equalized is None:
            notes.append("equalization assumed (no declared_equalized field, no lie block)")
        model = validate_action(spec.components, spec.dim_x, equalized=declared,
                                equalization_source="declared")

    if not model.equalized:
        why = "" if lie is None else ": " + unequalized_witness(lie, datum)
        raise InvalidActionError([Violation(
            "NotEqualized", "action is not equalized; the construction needs it" + why)])
    if strict_equalized and model.equalization_source == "declared":
        raise InvalidActionError([Violation(
            "DeclaredEqualization",
            "--strict-equalized: equalization is only declared, not derived")])

    notes.extend(model_warnings(model))
    if is_btype(model):
        notes.append("input already has divisorial extremes; treated as its own blowup")
    flat = blowup_extremal(model)
    chain = cn.build_chain(flat)  # refuses a model with no movable region

    checked = spec.lie is not None and spec.components is not None
    return ReportBundle(spec.name, model, flat, chain, tuple(sorted(notes)), checked,
                        tuple(failures), lie)
