"""repro.membership — dynamic membership and the self-healing hierarchy.

Two cooperating parts (see DESIGN.md §"Membership & self-healing"):

* :mod:`repro.membership.plan` — the declarative, seeded :class:`ChurnPlan`
  (client arrivals/departures, edge crash/recover episodes with MTTF/MTTR,
  edge–cloud partitions that later heal), the static topology's
  :data:`NULL_MEMBERSHIP` and :func:`resolve_membership`;
* :mod:`repro.membership.manager` — the :class:`MembershipManager` that turns
  a plan into per-round transitions that are pure functions of
  ``(seed, round, entity)``, plus the self-healing machinery: heartbeat
  failure detection on a timeout budget, deterministic least-load re-homing
  of orphaned clients, edge-state handoff on failover, and reconciliation on
  partition heal — every reaction charged to the communication tracker and
  the :mod:`repro.simtime` cost model, and ledgered as ``membership`` trace
  events.

Every algorithm accepts a ``churn=`` keyword (``None`` → the static
topology, the exact pre-existing code paths); the live topology is captured
in checkpoints so resume mid-failover is bit-identical.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ChurnPlan",
    "MembershipManager",
    "NullMembership",
    "NULL_MEMBERSHIP",
    "resolve_membership",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.membership.manager": ("MembershipManager",),
    "repro.membership.plan": (
        "ChurnPlan", "NULL_MEMBERSHIP", "NullMembership", "resolve_membership",
    ),
})
