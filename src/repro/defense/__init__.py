"""Byzantine robustness: attack models and robust aggregation.

Two halves (see DESIGN.md §8):

* **Attacks** — :class:`AttackPlan`, a seeded declarative attacker roster
  whose payload tampering is a pure function of ``(seed, round, client)``.
  Rides the fault layer: attach a plan to
  :class:`~repro.faults.FaultPlan` (``byzantine=``) and the
  :class:`~repro.faults.FaultInjector` poisons the roster's uploads at every
  ``receive()`` call site.
* **Defenses** — :class:`RobustAggregator` strategies (coordinate-wise
  median, trimmed mean, Krum/multi-Krum, norm clipping, plus the reference
  weighted mean), installable independently at the edge and cloud tiers via a
  :class:`DefensePolicy`, and the loss-report clip protecting the minimax
  simplex ascent.

``defense=None`` (or ``"mean"``) keeps every algorithm on its original code
paths — bit-identical to a build without this subsystem, regression-tested
across all execution backends.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AGGREGATORS",
    "ATTACKS",
    "AggregationOutcome",
    "AttackPlan",
    "CoordinateMedian",
    "DefensePolicy",
    "Krum",
    "NormClip",
    "RobustAggregator",
    "TrimmedMean",
    "WeightedMean",
    "apply_label_flip",
    "clip_loss_reports",
    "one_per_edge_roster",
    "resolve_aggregator",
    "resolve_defense",
    "robust_combine",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.defense.aggregators": (
        "AGGREGATORS", "AggregationOutcome", "CoordinateMedian", "Krum",
        "NormClip", "RobustAggregator", "TrimmedMean", "WeightedMean",
        "resolve_aggregator",
    ),
    "repro.defense.attacks": ("ATTACKS", "AttackPlan", "apply_label_flip",
                              "one_per_edge_roster"),
    "repro.defense.policy": (
        "DefensePolicy", "clip_loss_reports", "resolve_defense",
        "robust_combine",
    ),
})
