"""Simulated time: seeded cost models and the virtual-clock event scheduler.

The paper evaluates convergence per communication *round*; this package adds
the orthogonal axis production systems care about — *time-to-accuracy* under
heterogeneous devices and links.  A :class:`CostModel` prices compute steps
and message transfers (from the payload floats the comm tracker already
records); a :class:`SimTimer` replays each round's client→edge→cloud
dependency graph into a simulated makespan (synchronous rounds cost the max
over the sampled cohort).  Thread one through any algorithm via
``timing=``; the default :data:`NULL_TIMING` is a no-op and every run stays
bit-identical to a build without this package.

The virtual clock is the *only* clock here: nothing in :mod:`repro.simtime`
(or the actor layer in :mod:`repro.sim`) may call ``time.time`` /
``time.perf_counter`` — enforced by a lint test.  Wall-clock profiling
belongs to :mod:`repro.obs`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CostModel",
    "NullCostModel",
    "NULL_COST_MODEL",
    "HeterogeneousCostModel",
    "make_cost_model",
    "SimTimer",
    "NullTiming",
    "NULL_TIMING",
    "resolve_timing",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.simtime.cost": (
        "CostModel", "HeterogeneousCostModel", "NULL_COST_MODEL",
        "NullCostModel", "make_cost_model",
    ),
    "repro.simtime.null": ("NULL_TIMING", "NullTiming", "resolve_timing"),
    "repro.simtime.timeline": ("SimTimer",),
})
