"""Baseline algorithms: FedAvg, Stochastic-AFL, DRFA, and HierFAVG."""

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
