"""Baseline algorithms: FedAvg, Stochastic-AFL, DRFA, and HierFAVG.

Each is a declaration over :class:`~repro.core.engine.RoundEngine` — its
name, whether it learns mixing weights and uses the hierarchy, its
constructor keywords and its round configuration — and runs the same cloud
round as HierMinimax.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DRFA",
    "FedAvg",
    "HierFAVG",
    "ALGORITHMS",
    "make_algorithm",
    "StochasticAFL",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.drfa": ("DRFA",),
    "repro.baselines.fedavg": ("FedAvg",),
    "repro.baselines.hierfavg": ("HierFAVG",),
    "repro.baselines.registry": ("ALGORITHMS", "make_algorithm"),
    "repro.baselines.stochastic_afl": ("StochasticAFL",),
})
