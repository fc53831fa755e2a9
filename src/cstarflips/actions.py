"""Fixed-point models of equalized C*-actions on polarized varieties.

An action is recorded purely through combinatorial fixed-point data: each
fixed component carries the critical value of the weight map of the
polarization, its dimension, and the ranks ``nu_minus`` / ``nu_plus`` of the
two halves of its normal bundle.  ``nu_minus`` counts normal directions along
orbits joining the component to lower critical values (toward the sink),
``nu_plus`` directions toward higher ones (toward the source).  Consequently
the sink has ``nu_minus == 0`` and the source has ``nu_plus == 0``, and for
every component ``dim + nu_minus + nu_plus == dim_x``.

Weights are exact rationals throughout; a validated model is normalized so
that the sink sits at weight zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Tuple

# Default cap on the torus-fixed points of a Lie-derived action (|W/W_P|),
# shared by the CLI, the pipeline and the Lie engine.
DEFAULT_MAX_COSETS = 100_000

# Violation codes emitted by validate_action / check_action.
EMPTY_SPEC = "EmptySpec"
DUPLICATE_NAME = "DuplicateName"
DIMENSION_MISMATCH = "DimensionMismatch"
NON_EXTREMAL_ZERO_NU = "NonExtremalZeroNu"
EXTREMAL_NONZERO_NU = "ExtremalNonzeroNu"
TRIVIAL_ACTION = "TrivialAction"
REDUCIBLE_EXTREMAL_LEVEL = "ReducibleExtremalLevel"
NEGATIVE_FIELD = "NegativeField"


class ActionError(Exception):
    pass


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    component: str | None = None


class InvalidActionError(ActionError):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(f"{v.code}: {v.message}" for v in self.violations))


class AlreadyFlatError(ActionError):
    pass


class UnknownComponentError(ActionError):
    pass


class MissingOriginDimsError(ActionError):
    """Flat model lacks the extremal dimensions of the underlying variety."""


def as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class FixedComponent:
    """One irreducible fixed component with its local invariants."""

    name: str
    weight: Fraction
    dim: int
    nu_minus: int
    nu_plus: int
    inner: bool = False

    def __post_init__(self):
        object.__setattr__(self, "weight", as_rational(self.weight))


@dataclass(frozen=True)
class ActionModel:
    """A validated action, components sorted by weight and grouped in levels.

    ``flat`` marks models whose extremal components are divisors (the shape
    :func:`flat_model` builds for :func:`blowup_extremal` and
    ``induced_action``); such models remember the extremal dimensions of the
    variety they came from in ``sink_origin_dim`` / ``source_origin_dim``,
    which drive the chamber bookkeeping downstream.
    """

    dim_x: int
    components: Tuple[FixedComponent, ...]
    flat: bool = False
    equalized: bool = True
    equalization_source: str = "declared"
    sink_origin_dim: int | None = None
    source_origin_dim: int | None = None
    weight_offset: Fraction = Fraction(0)

    @cached_property
    def critical_values(self) -> Tuple[Fraction, ...]:
        return tuple(sorted({c.weight for c in self.components}))

    @property
    def criticality(self) -> int:
        return len(self.critical_values) - 1

    @property
    def bandwidth(self) -> Fraction:
        return self.critical_values[-1]

    @cached_property
    def levels(self) -> Tuple[Tuple[Fraction, Tuple[FixedComponent, ...]], ...]:
        by_weight: dict[Fraction, list[FixedComponent]] = {a: [] for a in self.critical_values}
        for c in self.components:
            by_weight[c.weight].append(c)
        return tuple((a, tuple(comps)) for a, comps in by_weight.items())

    def level_components(self, k: int) -> Tuple[FixedComponent, ...]:
        return self.levels[k][1]

    @property
    def sink(self) -> FixedComponent:
        return self.level_components(0)[0]

    @property
    def source(self) -> FixedComponent:
        return self.level_components(self.criticality)[0]

    @property
    def inner_components(self) -> Tuple[FixedComponent, ...]:
        return tuple(c for c in self.components if c.inner)

    def origin_dims(self) -> Tuple[int, int]:
        """Extremal dims of the variety underlying a flat model."""
        if not self.flat:
            return (self.sink.dim, self.source.dim)
        if self.sink_origin_dim is None or self.source_origin_dim is None:
            raise MissingOriginDimsError(
                "flat model without the extremal dimensions of the original "
                "variety; build it with blowup_extremal or supply them"
            )
        return (self.sink_origin_dim, self.source_origin_dim)

    def isolated_extremes(self) -> Tuple[bool, bool]:
        """Whether the original sink and source are points.

        This one fact decides every case of the blowup: an isolated sink
        removes chamber (0, 1) and index 0 and adds the curve C_{1,r}, and
        makes the left end of the quotient chain divisorial; an isolated
        source is the mirror image."""
        sink_dim, source_dim = self.origin_dims()
        return (sink_dim == 0, source_dim == 0)


def level_signature(model: ActionModel) -> Tuple[Tuple[Fraction, tuple], ...]:
    """Per critical value, the sorted (dim, nu_minus, nu_plus) of its components."""
    return tuple(
        (a, tuple(sorted((c.dim, c.nu_minus, c.nu_plus) for c in comps)))
        for a, comps in model.levels
    )


def unit_tangent_weights(weights: Iterable[int]) -> bool:
    """The equalization rule: every tangent weight is -1, 0 or 1."""
    return all(w in (-1, 0, 1) for w in weights)


def check_action(components: Iterable[FixedComponent], dim_x: int) -> list[Violation]:
    """Collect every invariant violated by the fixed components of an action
    on a variety of dimension ``dim_x``, as parsed from a spec file or
    derived from a root datum.  Returns an empty list when they form a valid
    model.
    """
    comps = list(components)
    violations: list[Violation] = []
    if not comps:
        return [Violation(EMPTY_SPEC, "no fixed components given")]

    seen: set[str] = set()
    for c in comps:
        if c.name in seen:
            violations.append(Violation(DUPLICATE_NAME, f"component name {c.name!r} repeated", c.name))
        seen.add(c.name)
        if c.dim < 0 or c.nu_minus < 0 or c.nu_plus < 0 or dim_x <= 0:
            violations.append(Violation(NEGATIVE_FIELD, f"negative field on {c.name!r}", c.name))
            continue
        if c.dim + c.nu_minus + c.nu_plus != dim_x:
            violations.append(
                Violation(
                    DIMENSION_MISMATCH,
                    f"{c.name!r}: dim + nu_minus + nu_plus = "
                    f"{c.dim + c.nu_minus + c.nu_plus} != dim_x = {dim_x}",
                    c.name,
                )
            )

    weights = sorted({c.weight for c in comps})
    if len(weights) < 2:
        violations.append(Violation(TRIVIAL_ACTION, "action has a single critical value"))
        return violations

    w_min, w_max = weights[0], weights[-1]
    for c in comps:
        if c.weight == w_min:
            if c.nu_minus != 0:
                violations.append(
                    Violation(EXTREMAL_NONZERO_NU, f"sink component {c.name!r} has nu_minus != 0", c.name)
                )
        elif c.weight == w_max:
            if c.nu_plus != 0:
                violations.append(
                    Violation(EXTREMAL_NONZERO_NU, f"source component {c.name!r} has nu_plus != 0", c.name)
                )
        else:
            if c.nu_minus == 0 or c.nu_plus == 0:
                violations.append(
                    Violation(
                        NON_EXTREMAL_ZERO_NU,
                        f"inner component {c.name!r} has nu_minus or nu_plus equal to 0",
                        c.name,
                    )
                )
    for w, label in ((w_min, "sink"), (w_max, "source")):
        if sum(1 for c in comps if c.weight == w) != 1:
            violations.append(
                Violation(REDUCIBLE_EXTREMAL_LEVEL, f"{label} level has more than one component")
            )
    return violations


def validate_action(
    components: Iterable[FixedComponent],
    dim_x: int,
    *,
    equalized: bool = True,
    equalization_source: str = "declared",
) -> ActionModel:
    """Validate the fixed components of an action and return the normalized,
    non-flat model; flat models come from :func:`blowup_extremal` and
    :func:`~cstarflips.modifications.induced_action`.

    Components are sorted by (weight, name), weights are shifted so the sink
    sits at zero, the original minimum is kept as ``weight_offset`` metadata,
    and ``inner`` is set on the components strictly between sink and source.
    Raises :class:`InvalidActionError` carrying the full list of violations
    otherwise.
    """
    comps = list(components)
    violations = check_action(comps, dim_x)
    if violations:
        raise InvalidActionError(violations)

    offset = min(c.weight for c in comps)
    w_max = max(c.weight for c in comps)
    normalized = tuple(
        replace(c, weight=c.weight - offset, inner=(c.weight != offset and c.weight != w_max))
        for c in sorted(comps, key=lambda c: (c.weight, c.name))
    )
    return ActionModel(
        dim_x=dim_x,
        components=normalized,
        equalized=equalized,
        equalization_source=equalization_source,
        weight_offset=offset,
    )


def model_warnings(model: ActionModel) -> list[str]:
    """Non-fatal flags: conditions outside the clean setup, kept as notes."""
    notes = []
    if not model.flat:
        for c, label in ((model.sink, "sink"), (model.source, "source")):
            if c.dim == model.dim_x - 1:
                notes.append(
                    f"{label} {c.name!r} is already a divisor; model treated as its own blowup"
                )
    if model.equalization_source == "declared":
        notes.append("equalization is declared, not derived from tangent weights")
    return notes


def is_equalized(
    model: ActionModel, tangent_weights: Mapping[str, Sequence[int]] | None = None
) -> bool:
    """Equalization verdict: every nonzero tangent weight is +-1.

    Without tangent data the model's declared flag is returned; callers that
    need the distinction should consult ``model.equalization_source``.
    """
    if tangent_weights is None:
        return model.equalized
    for c in model.components:
        if c.name not in tangent_weights:
            raise UnknownComponentError(f"no tangent weights for component {c.name!r}")
        if not unit_tangent_weights(tangent_weights[c.name]):
            return False
    return True


def is_btype(model: ActionModel) -> bool:
    """Extremal fixed components are divisors."""
    return model.sink.dim == model.dim_x - 1 and model.source.dim == model.dim_x - 1


def is_bordism(model: ActionModel) -> bool:
    """Whether a B-type model counts as a bordism.

    With recorded origin dims the verdict is the isolated-extremes fact alone:
    both original extremal components are positive-dimensional, whatever the
    inner ranks.  Only without them do inner ranks decide (all >= 2).
    """
    if not is_btype(model):
        return False
    if model.flat and model.sink_origin_dim is not None and model.source_origin_dim is not None:
        return not any(model.isolated_extremes())
    return all(c.nu_minus >= 2 and c.nu_plus >= 2 for c in model.inner_components)


def flat_model(
    model: ActionModel,
    names: Tuple[str, str],
    inner: Tuple[FixedComponent, ...],
    bandwidth: Fraction,
    origin_dims: Tuple[int, int],
    weight_offset: Fraction,
) -> ActionModel:
    """The flat model with components ``inner`` between a divisorial sink
    (dim X - 1, nu_minus 0, nu_plus 1) at weight 0 and a divisorial source
    (dim X - 1, nu_minus 1, nu_plus 0) at ``bandwidth``, named ``names``.

    ``model`` gives dim X and the equalization fields; the components are
    sorted by (weight, name), as :func:`validate_action` sorts them.
    """
    dim = model.dim_x - 1
    sink = FixedComponent(names[0], Fraction(0), dim, nu_minus=0, nu_plus=1)
    source = FixedComponent(names[1], bandwidth, dim, nu_minus=1, nu_plus=0)
    return ActionModel(
        dim_x=model.dim_x,
        components=tuple(sorted((sink, *inner, source), key=lambda c: (c.weight, c.name))),
        flat=True,
        equalized=model.equalized,
        equalization_source=model.equalization_source,
        sink_origin_dim=origin_dims[0],
        source_origin_dim=origin_dims[1],
        weight_offset=weight_offset,
    )


def blowup_extremal(model: ActionModel) -> ActionModel:
    """Blow up sink and source, producing the flat (B-type) model.

    The extremal components are replaced by divisors carrying one normal
    direction toward the interior; inner components are copied bit-exactly and
    the original extremal dims are recorded.  Blowing up a divisor changes
    nothing, so a B-type input comes back with the same components, marked
    flat, its own extremal dims recorded as the origin dims.
    """
    if model.flat:
        raise AlreadyFlatError("model already has divisorial sink and source")
    sink, source = model.sink, model.source
    if is_btype(model):
        return replace(model, flat=True, sink_origin_dim=sink.dim, source_origin_dim=source.dim)
    return flat_model(
        model,
        (f"{sink.name}_flat", f"{source.name}_flat"),
        model.inner_components,
        model.bandwidth,
        (sink.dim, source.dim),
        model.weight_offset,
    )


def index_set_i(model: ActionModel) -> frozenset[int]:
    """Indices i whose stable-point compactification is a small modification.

    On a flat model this is {0, ..., r-1} with 0 removed when the original
    sink is a point and r-1 removed when the original source is a point.
    """
    r = model.criticality
    ends = zip((0, r - 1), model.isolated_extremes())
    return frozenset(range(r)) - {i for i, isolated in ends if isolated}
