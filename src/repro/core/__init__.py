"""The paper's primary contribution: the HierMinimax algorithm and its schedules."""

from repro._lazy import lazy_exports

__all__ = [
    "FederatedAlgorithm",
    "RunResult",
    "HierMinimax",
    "SemiAsyncHierMinimax",
    "TradeoffSchedule",
    "communication_complexity_order",
    "convergence_rate_order",
    "split_tau_product",
    "tradeoff_schedule",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.base": ("FederatedAlgorithm", "RunResult"),
    "repro.core.hierminimax": ("HierMinimax",),
    "repro.core.semiasync": ("SemiAsyncHierMinimax",),
    "repro.core.schedules": (
        "TradeoffSchedule", "communication_complexity_order",
        "convergence_rate_order", "split_tau_product", "tradeoff_schedule",
    ),
})
