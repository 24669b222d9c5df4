"""Evaluation and fairness metrics, and training-history recording."""

from repro._lazy import lazy_exports

__all__ = [
    "EvaluationRecord",
    "evaluate_per_edge",
    "evaluate_record",
    "accuracy_range",
    "accuracy_variance_x1e4",
    "average_accuracy",
    "entropy_of_weights",
    "jain_fairness_index",
    "worst_accuracy",
    "worst_fraction_mean",
    "HistoryPoint",
    "TrainingHistory",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.metrics.evaluation": (
        "EvaluationRecord", "evaluate_per_edge", "evaluate_record",
    ),
    "repro.metrics.fairness": (
        "accuracy_range", "accuracy_variance_x1e4", "average_accuracy",
        "entropy_of_weights", "jain_fairness_index", "worst_accuracy",
        "worst_fraction_mean",
    ),
    "repro.metrics.history": ("HistoryPoint", "TrainingHistory"),
})
