"""Fixed-point models of equalized C*-actions on polarized varieties.

An action is recorded purely through combinatorial fixed-point data: each
fixed component carries the critical value of the weight map of the
polarization, its dimension, and the ranks ``nu_minus`` / ``nu_plus`` of the
two halves of its normal bundle.  ``nu_minus`` counts normal directions along
orbits joining the component to lower critical values (toward the sink),
``nu_plus`` directions toward higher ones (toward the source).  Consequently
the sink has ``nu_minus == 0`` and the source has ``nu_plus == 0``, and for
every component ``dim + nu_minus + nu_plus == dim_x``.

An :class:`ActionModel` is its levels, the components of each critical value;
:func:`_group` is the one place that groups components into levels, and
:func:`_check` the one check of them, for spec input and Lie input alike.

Weights are exact rationals throughout; a validated model is normalized so
that the sink sits at weight zero.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cmp_to_key, partial
from fractions import Fraction
from operator import attrgetter
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
NON_POSITIVE_DIM = "NonPositiveDim"


class ActionError(Exception):
    pass


def shown(text: str) -> str:
    """``text`` for a one-line message: as it is if it prints as one line,
    else as a Python literal, and cut to 40 characters, with ``...`` after
    a cut, so that no input makes a message long.  A value is quoted by
    passing its ``repr``."""
    if not text.isprintable():
        text = repr(text)
    return text if len(text) <= 40 else text[:40] + "..."


Violation = namedtuple("Violation", "code message component", defaults=(None,))


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


def _weight_key(c: "FixedComponent") -> Tuple[int, int]:
    """The weight of ``c`` as an exact key: a normalized ``Fraction``'s
    (numerator, denominator), which hashes and compares as plain ints."""
    return c.weight.as_integer_ratio()


def _cross(x: Tuple[int, int], y: Tuple[int, int]) -> int:
    """The sign of ``x - y`` for two weight keys, from the cross-product
    ``n_x d_y - n_y d_x`` (denominators are positive): the order of the
    weights in integer arithmetic, with no common denominator to build."""
    return x[0] * y[1] - y[0] * x[1]


_BY_WEIGHT = cmp_to_key(_cross)


def shifted(key: Tuple[int, int], base: Tuple[int, int]) -> Fraction:
    """The weight ``key - base`` of two weight keys, built as one ``Fraction``
    from their numerators and denominators."""
    return Fraction(key[0] * base[1] - base[0] * key[1], key[1] * base[1])


def as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class FixedComponent(namedtuple("FixedComponent", "name weight dim nu_minus nu_plus inner",
                                defaults=(False,))):
    """One irreducible fixed component with its local invariants.  The
    weight may be given as an int or a ``"p/q"`` string; it is kept as a
    ``Fraction``."""

    __slots__ = ()

    def __new__(cls, name, weight, dim, nu_minus, nu_plus, inner=False):
        return super().__new__(cls, name, as_rational(weight), dim, nu_minus, nu_plus, inner)

    @classmethod
    def _make(cls, fields):
        # ``_replace`` builds through here: coerce the weight again
        return cls(*fields)


# A component from its six fields, the weight already a ``Fraction``, without
# the constructor's coercion: the parser and the model builders make every
# component through here.
exact_component = partial(tuple.__new__, FixedComponent)


class ActionModel(namedtuple("ActionModel", "dim_x levels flat equalized equalization_source "
                             "sink_origin_dim source_origin_dim weight_offset",
                             defaults=(False, True, "declared", None, None, Fraction(0)))):
    """A validated action: its ``levels``, the (critical value, components)
    pairs in increasing weight, each level's components sorted by name.
    ``components``, the critical values and the extremes are read from them.

    ``flat`` marks models whose extremal components are divisors (the shape
    :func:`flat_model` builds for :func:`blowup_extremal` and
    ``induced_action``); such models remember the extremal dimensions of the
    variety they came from in ``sink_origin_dim`` / ``source_origin_dim``,
    which drive the chamber bookkeeping downstream.
    """

    __slots__ = ()

    @property
    def components(self) -> Tuple[FixedComponent, ...]:
        return tuple([c for _, level in self.levels for c in level])

    @property
    def critical_values(self) -> Tuple[Fraction, ...]:
        return tuple([a for a, _ in self.levels])

    @property
    def criticality(self) -> int:
        return len(self.levels) - 1

    @property
    def bandwidth(self) -> Fraction:
        return self.levels[-1][0]

    def level_components(self, k: int) -> Tuple[FixedComponent, ...]:
        return self.levels[k][1]

    @property
    def sink(self) -> FixedComponent:
        return self.levels[0][1][0]

    @property
    def source(self) -> FixedComponent:
        return self.levels[-1][1][0]

    @property
    def inner_components(self) -> Tuple[FixedComponent, ...]:
        return tuple([c for _, level in self.levels[1:-1] for c in level])

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

    def isolated_extremes(self, dims: Tuple[int, int] | None = None) -> Tuple[bool, bool]:
        """Whether the original sink and source are points, by ``dims`` if
        the caller has read the :meth:`origin_dims`.

        This one fact decides every case of the blowup: an isolated sink
        removes chamber (0, 1) and index 0 and adds the curve C_{1,r}, and
        makes the left end of the quotient chain divisorial; an isolated
        source is the mirror image.  Each rule that reads it also takes it
        as ``isolated``, so that a report reads it once."""
        sink_dim, source_dim = dims or self.origin_dims()
        return (sink_dim == 0, source_dim == 0)


def level_signature(model: ActionModel) -> Tuple[Tuple[Fraction, tuple], ...]:
    """Per critical value, the sorted (dim, nu_minus, nu_plus) of its components."""
    return tuple([
        (a, tuple(sorted((c.dim, c.nu_minus, c.nu_plus) for c in comps)))
        for a, comps in model.levels
    ])


_UNIT_WEIGHTS = frozenset((-1, 0, 1))
_ZERO = Fraction(0)


def unit_weights(weights: Iterable[int]) -> bool:
    """Every weight is -1, 0 or 1: the equalization rule on the tangent
    weights of a component, and shortness of a grading's degrees."""
    return _UNIT_WEIGHTS.issuperset(weights)


def _group(comps: list[FixedComponent]):
    """Per component, the list of its level; and the (key, components) levels,
    grouped by :func:`_weight_key` in input order and sorted by the keys'
    cross-products: only the distinct critical values are compared, as ints."""
    groups: dict[tuple[int, int], list[FixedComponent]] = {}
    level_of = []
    for c in comps:
        level = groups.setdefault(_weight_key(c), [])
        level.append(c)
        level_of.append(level)
    return level_of, [(key, groups[key]) for key in sorted(groups, key=_BY_WEIGHT)]


def _check(comps: Sequence[FixedComponent], level_of: list, levels: list, dim_x: int):
    """The violations of :func:`check_action`: ``comps`` in input order,
    ``level_of`` the component sequence of each one's level and ``levels``
    the (weight, components) pairs in increasing weight."""
    if not comps:
        return [Violation(EMPTY_SPEC, "no fixed components given")]
    violations: list[Violation] = []
    if dim_x <= 0:  # then no component's dimension sum is compared
        violations.append(Violation(NON_POSITIVE_DIM, f"dim_X = {dim_x} is not positive"))
    seen: set[str] = set()
    for c in comps:
        if c.name in seen:
            message = f"component name {shown(repr(c.name))} repeated"
            violations.append(Violation(DUPLICATE_NAME, message, c.name))
        seen.add(c.name)
        if c.dim < 0 or c.nu_minus < 0 or c.nu_plus < 0:
            message = f"negative field on {shown(repr(c.name))}"
            violations.append(Violation(NEGATIVE_FIELD, message, c.name))
            continue
        total = c.dim + c.nu_minus + c.nu_plus
        if total != dim_x and dim_x > 0:
            message = (f"{shown(repr(c.name))}: dim + nu_minus + nu_plus = {total} "
                       f"!= dim_x = {dim_x}")
            violations.append(Violation(DIMENSION_MISMATCH, message, c.name))

    if len(levels) < 2:
        violations.append(Violation(TRIVIAL_ACTION, "action has a single critical value"))
        return violations

    sink, source = levels[0][1], levels[-1][1]
    for c, level in zip(comps, level_of):
        if level is sink:
            if c.nu_minus != 0:
                message = f"sink component {shown(repr(c.name))} has nu_minus != 0"
                violations.append(Violation(EXTREMAL_NONZERO_NU, message, c.name))
        elif level is source:
            if c.nu_plus != 0:
                message = f"source component {shown(repr(c.name))} has nu_plus != 0"
                violations.append(Violation(EXTREMAL_NONZERO_NU, message, c.name))
        elif c.nu_minus == 0 or c.nu_plus == 0:
            message = f"inner component {shown(repr(c.name))} has nu_minus or nu_plus equal to 0"
            violations.append(Violation(NON_EXTREMAL_ZERO_NU, message, c.name))
    for label, level in (("sink", sink), ("source", source)):
        if len(level) != 1:
            message = f"{label} level has more than one component"
            violations.append(Violation(REDUCIBLE_EXTREMAL_LEVEL, message))
    return violations


def check_action(components: Iterable[FixedComponent], dim_x: int) -> list[Violation]:
    """Collect every invariant violated by the fixed components of an action
    on a variety of dimension ``dim_x``, as parsed from a spec file or
    derived from a root datum.  Returns an empty list when they form a valid
    model.
    """
    comps = list(components)
    return _check(comps, *_group(comps), dim_x)


def validate_action(components: Iterable[FixedComponent], dim_x: int, *, equalized: bool = True,
                    equalization_source: str = "declared") -> ActionModel:
    """Validate the fixed components of an action and return the normalized,
    non-flat model; flat models come from :func:`blowup_extremal` and
    :func:`~cstarflips.modifications.induced_action`.

    Components are sorted by (weight, name), weights are shifted so the sink
    sits at zero, the original minimum is kept as ``weight_offset`` metadata,
    a ``Fraction`` also when the weights are ints, and ``inner`` is set on
    the components strictly between sink and source.
    Each normalized component is built once, with its level's shifted weight
    and inner flag, into the levels that :func:`_group` made, which the
    model stores.  The shifted weights are computed from the
    levels' keys (:func:`shifted`).  Raises :class:`InvalidActionError`
    carrying the full list of violations otherwise.
    """
    comps = list(components)
    level_of, groups = _group(comps)
    violations = _check(comps, level_of, groups, dim_x)
    if violations:
        raise InvalidActionError(violations)

    base, sink = groups[0]
    r = len(groups) - 1
    levels = []
    for k, (key, group) in enumerate(groups):
        weight, inner = shifted(key, base), 0 < k < r
        if len(group) > 1:
            group.sort(key=attrgetter("name"))
        levels.append((weight, tuple([
            exact_component((c.name, weight, c.dim, c.nu_minus, c.nu_plus, inner)) for c in group
        ])))
    return ActionModel(dim_x, tuple(levels), equalized=equalized,
                       equalization_source=equalization_source,
                       weight_offset=as_rational(sink[0].weight))


def checked_model(levels: list, dim_x: int, **fields) -> ActionModel:
    """The model of ``levels``, already normalized as :func:`validate_action`
    leaves them, after its one check over the components in level order:
    the model ``validate_action`` returns for those components, or the
    :class:`InvalidActionError` it raises."""
    comps = [c for _, level in levels for c in level]
    violations = _check(comps, [level for _, level in levels for _ in level], levels, dim_x)
    if violations:
        raise InvalidActionError(violations)
    return ActionModel(dim_x, tuple(levels), **fields)


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
        if not unit_weights(tangent_weights[c.name]):
            return False
    return True


def is_btype(model: ActionModel) -> bool:
    """Extremal fixed components are divisors."""
    return model.sink.dim == model.dim_x - 1 and model.source.dim == model.dim_x - 1


def is_bordism(model: ActionModel, isolated: Tuple[bool, bool] | None = None) -> bool:
    """Whether a B-type model counts as a bordism.

    With recorded origin dims the verdict is the isolated-extremes fact alone:
    both original extremal components are positive-dimensional, whatever the
    inner ranks.  Only without them do inner ranks decide (all >= 2).
    """
    if not is_btype(model):
        return False
    if model.flat and model.sink_origin_dim is not None and model.source_origin_dim is not None:
        return not any(isolated or model.isolated_extremes())
    return all(c.nu_minus >= 2 and c.nu_plus >= 2 for c in model.inner_components)


def flat_model(
    model: ActionModel,
    names: Tuple[str, str],
    inner: Tuple[Tuple[Fraction, Tuple[FixedComponent, ...]], ...],
    bandwidth: Fraction,
    origin_dims: Tuple[int, int],
    weight_offset: Fraction,
) -> ActionModel:
    """The flat model with the levels ``inner`` between a divisorial sink
    (dim X - 1, nu_minus 0, nu_plus 1) at weight 0 and a divisorial source
    (dim X - 1, nu_minus 1, nu_plus 0) at ``bandwidth``, named ``names``.

    ``model`` gives dim X and the equalization fields.  The callers,
    :func:`blowup_extremal` and ``induced_action``, pass ``inner`` as
    (weight, components) levels in the order of ``ActionModel.levels``,
    strictly inside (0, bandwidth), so the components are neither sorted nor
    grouped again: the flat model's levels are ``inner`` with the two
    divisors around them.
    """
    dim = model.dim_x - 1
    sink = exact_component((names[0], _ZERO, dim, 0, 1, False))
    source = exact_component((names[1], bandwidth, dim, 1, 0, False))
    return ActionModel(
        model.dim_x,
        ((_ZERO, (sink,)), *inner, (bandwidth, (source,))),
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
    direction toward the interior; the inner levels are reused as they are
    and the original extremal dims are recorded.  Blowing up a divisor
    changes nothing, so a B-type input comes back with the same components
    under their own names, marked flat, its own extremal dims recorded as
    the origin dims.
    """
    if model.flat:
        raise AlreadyFlatError("model already has divisorial sink and source")
    sink, source = model.sink, model.source
    suffix = "" if is_btype(model) else "_flat"
    return flat_model(
        model,
        (sink.name + suffix, source.name + suffix),
        model.levels[1:-1],
        model.bandwidth,
        (sink.dim, source.dim),
        model.weight_offset,
    )


def index_set_i(model: ActionModel, isolated: Tuple[bool, bool] | None = None) -> frozenset[int]:
    """Indices i whose stable-point compactification is a small modification.

    On a flat model this is {0, ..., r-1} with 0 removed when the original
    sink is a point and r-1 removed when the original source is a point.
    """
    r = model.criticality
    ends = zip((0, r - 1), isolated or model.isolated_extremes())
    return frozenset(range(r)) - {i for i, isolated in ends if isolated}
