from .roots import (
    GradingSpec,
    RootSystem,
    build_root_system,
    fundamental_cocharacter,
    grading,
)
from .homogeneous import (
    HomogeneousSpace,
    LieActionResult,
    build_action,
    enumerate_fixed_points,
    homogeneous_dim,
)

__all__ = [
    "GradingSpec",
    "HomogeneousSpace",
    "LieActionResult",
    "RootSystem",
    "build_action",
    "build_root_system",
    "enumerate_fixed_points",
    "fundamental_cocharacter",
    "grading",
    "homogeneous_dim",
]
