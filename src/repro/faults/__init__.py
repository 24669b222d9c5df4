"""repro.faults — fault injection, graceful degradation, and checkpoint/resume.

Three cooperating parts (see DESIGN.md §"Fault model"):

* :mod:`repro.faults.plan` — the declarative, seeded :class:`FaultPlan`
  (client dropouts, stragglers, edge outages, message loss/corruption) and the
  :class:`RetryPolicy` for bounded, comm-charged retransmissions;
* :mod:`repro.faults.injector` — the :class:`FaultInjector` that turns a plan
  into per-round decisions that are pure functions of
  ``(seed, round, entity)``, plus the quarantine/degradation bookkeeping and
  the fault metrics/events routed through :mod:`repro.obs`;
* :mod:`repro.faults.checkpoint` — versioned, atomically-written checkpoint
  files that let a killed run resume bit-identically
  (``--checkpoint``/``--resume`` on the examples and
  ``checkpoint_dir=``/``resume=`` on :func:`repro.experiments.run_experiment`).

Every algorithm accepts a ``faults=`` keyword (``None`` → no injection, the
exact pre-existing code paths); degradation semantics — aggregation-weight
renormalization over survivors, NaN/Inf quarantine, stale-loss fallback for
dark edges — live at the aggregation points of the algorithms themselves.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AttackPlan",
    "FaultPlan",
    "RetryPolicy",
    "FaultInjector",
    "resolve_injector",
    "INJECTED_KINDS",
    "RECOVERY_KINDS",
    "CheckpointError",
    "CHECKPOINT_FORMAT",
    "CHECKSUM_KEY",
    "save_checkpoint_file",
    "load_checkpoint_file",
    "previous_checkpoint_path",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.checkpoint": (
        "CHECKPOINT_FORMAT", "CHECKSUM_KEY", "CheckpointError",
        "load_checkpoint_file", "previous_checkpoint_path",
        "save_checkpoint_file",
    ),
    "repro.faults.injector": (
        "INJECTED_KINDS", "RECOVERY_KINDS", "FaultInjector",
        "resolve_injector",
    ),
    "repro.defense.attacks": ("AttackPlan",),
    "repro.faults.plan": ("FaultPlan", "RetryPolicy"),
})
