import pytest
from hypothesis import settings, strategies as st

from cstarflips.actions import ActionModel, blowup_extremal, validate_action

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


def model_from_rows(rows, dim_x, **kw) -> ActionModel:
    comps = [
        dict(name=name, weight=w, dim=d, nu_minus=nm, nu_plus=np_)
        for (name, w, d, nm, np_) in rows
    ]
    return validate_action(comps, dim_x, **kw)


# Gr(2,4) with the balanced splitting: isolated sink and source, r = 2.
GR24_ROWS = [
    ("Y0", 0, 0, 0, 4),
    ("Y1", 1, 2, 1, 1),
    ("Y2", 2, 0, 4, 0),
]

# Gr(2,5): isolated sink, 2-dimensional source, r = 2.
A42_ROWS = [
    ("Y0", 0, 0, 0, 6),
    ("Y1", 1, 3, 1, 2),
    ("Y2", 2, 2, 4, 0),
]

# Synthetic bordism with r = 3 (positive-dimensional extremes, inner nu >= 2).
BORDISM_R3_ROWS = [
    ("S", 0, 3, 0, 5),
    ("M1", 1, 2, 2, 4),
    ("M2", 2, 3, 3, 2),
    ("T", 3, 4, 4, 0),
]

# Adjoint-style bordism with r = 2.
BORDISM_R2_ROWS = [
    ("S", 0, 2, 0, 4),
    ("M", 1, 2, 2, 2),
    ("T", 2, 2, 4, 0),
]


@pytest.fixture
def gr24():
    return model_from_rows(GR24_ROWS, 4)


@pytest.fixture
def gr24_flat(gr24):
    return blowup_extremal(gr24)


@pytest.fixture
def a42():
    return model_from_rows(A42_ROWS, 6)


@pytest.fixture
def a42_flat(a42):
    return blowup_extremal(a42)


@pytest.fixture
def bordism_r3():
    return model_from_rows(BORDISM_R3_ROWS, 8)


@pytest.fixture
def bordism_r3_flat(bordism_r3):
    return blowup_extremal(bordism_r3)


@pytest.fixture
def bordism_r2_flat():
    return blowup_extremal(model_from_rows(BORDISM_R2_ROWS, 6))


# Whether the sink and the source are points, per extremal case.
CASE_ISOLATED = {
    "bordism": (False, False),
    "isolated-sink": (True, False),
    "isolated-source": (False, True),
    "isolated-both": (True, True),
}


@st.composite
def action_models(draw, min_r=2, max_r=5, case=None):
    """Random valid non-flat models: integer critical values 0..r, one or two
    components per inner level, extremes of any dimension, or points exactly
    where the extremal ``case`` says."""
    r = draw(st.integers(min_r, max_r))
    dim_x = draw(st.integers(4, 9))
    rows = []

    def extreme_dim(isolated):
        if isolated is None:
            return draw(st.integers(0, dim_x - 2))
        return 0 if isolated else draw(st.integers(1, dim_x - 2))

    sink_isolated, source_isolated = CASE_ISOLATED[case] if case else (None, None)
    sink_dim = extreme_dim(sink_isolated)
    source_dim = extreme_dim(source_isolated)
    rows.append(("Y0", 0, sink_dim, 0, dim_x - sink_dim))
    rows.append((f"Y{r}", r, source_dim, dim_x - source_dim, 0))
    for level in range(1, r):
        n_comps = draw(st.integers(1, 2))
        for idx in range(n_comps):
            nu_minus = draw(st.integers(1, dim_x - 2))
            nu_plus = draw(st.integers(1, dim_x - 1 - nu_minus))
            dim = dim_x - nu_minus - nu_plus
            rows.append((f"Y{level}{'ab'[idx]}", level, dim, nu_minus, nu_plus))
    return model_from_rows(rows, dim_x)


def synthetic_case_model(case: str, r: int = 3) -> ActionModel:
    """A valid non-flat model with the requested extremal-dimension case."""
    dim_x = 8
    sink_dim = 0 if case in ("isolated-sink", "isolated-both") else 3
    source_dim = 0 if case in ("isolated-source", "isolated-both") else 3
    rows = [("Y0", 0, sink_dim, 0, dim_x - sink_dim)]
    for level in range(1, r):
        rows.append((f"Y{level}", level, 2, 2 + (level % 2), dim_x - 4 - (level % 2)))
    rows.append((f"Y{r}", r, source_dim, dim_x - source_dim, 0))
    return model_from_rows(rows, dim_x)
