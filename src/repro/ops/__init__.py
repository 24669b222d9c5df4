"""Numerical kernels: projections onto constraint sets and stable primitives."""

from repro._lazy import lazy_exports

__all__ = [
    "clip_by_norm",
    "flat_norm",
    "log_softmax",
    "logsumexp",
    "median",
    "one_hot",
    "softmax",
    "weighted_average",
    "Projection",
    "identity_projection",
    "project_box",
    "project_capped_simplex",
    "project_l2_ball",
    "project_simplex",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ops.numerics": (
        "clip_by_norm", "flat_norm", "log_softmax", "logsumexp", "median",
        "one_hot", "softmax", "weighted_average",
    ),
    "repro.ops.projections": (
        "Projection", "identity_projection", "project_box",
        "project_capped_simplex", "project_l2_ball", "project_simplex",
    ),
})
