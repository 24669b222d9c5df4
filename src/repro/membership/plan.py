"""Declarative churn model for the client–edge–cloud simulation.

A :class:`ChurnPlan` is a frozen, seeded description of *who comes and goes*
during a run — client arrivals and departures, edge-server crash/recover
episodes, and network partitions that sever an edge–cloud link and later
heal.  The plan itself never draws random numbers; the
:class:`~repro.membership.manager.MembershipManager` turns it into per-round
transitions whose every draw is a *pure function* of
``(plan.seed, round, entity)``, which is what makes churny runs reproducible
and checkpoint/resume across a failover boundary exact.

``ChurnPlan.none()`` (or simply not passing a plan) disables every membership
path: :func:`resolve_membership` returns the shared :data:`NULL_MEMBERSHIP`,
defined here so a static run never loads the manager, and algorithms take
the exact same code paths and produce bit-identical outputs to a build
without the membership layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import NULL_TRACER
from repro.utils.spec import dataclass_schema, parse_spec
from repro.utils.validation import check_probability

__all__ = ["ChurnPlan", "NullMembership", "NULL_MEMBERSHIP",
           "resolve_membership"]

@dataclass(frozen=True)
class ChurnPlan:
    """Seeded description of the membership dynamics of one run.

    Rates are per-round probabilities in ``[0, 1]``; mean times are in cloud
    rounds and drive geometric (memoryless) episode lengths, so an entity's
    up/down trajectory is a two-state Markov chain whose transition draws are
    pure functions of ``(seed, round, entity)``.

    Parameters
    ----------
    arrive:
        Per-round probability that an *absent* client (re)joins the system.
        A joining client is warm-synced: the current model is shipped down
        its ``client_edge`` link before it can participate.
    depart:
        Per-round probability that an active client leaves.  Departed clients
        keep their data shard and RNG streams and may return later.
    start_absent:
        Fraction of clients (in expectation, per-client draw) absent when the
        run starts — the population the arrival process draws from.
    edge_mttf:
        Mean rounds between crashes of an up edge server (mean time to
        failure); ``0`` disables edge crash episodes.  A crashed edge is dark
        to the cloud *and* loses its clients: with ``rehome`` enabled the
        :class:`~repro.membership.manager.MembershipManager` re-homes them to
        surviving edges, otherwise they sit idle until the edge recovers.
    edge_mttr:
        Mean rounds a crashed edge stays down (mean time to recovery).
    link_mttf:
        Mean rounds between partitions of an edge–cloud link; ``0`` disables
        partition episodes.  A partitioned edge is dark to the cloud but
        *keeps* its clients (they are unreachable, not orphaned); on heal the
        diverged edge state is reconciled against the cloud.
    link_mttr:
        Mean rounds a partition lasts.
    heartbeat_timeout_s:
        The failure-detection budget: simulated seconds of missed heartbeats
        before the cloud declares an edge crashed/partitioned.  Charged to
        the virtual clock on every detection.
    rehome:
        ``True`` (default) re-homes the clients of a crashed edge to
        surviving edges (deterministic least-load policy, see the manager);
        ``False`` is the no-failover comparison arm — orphans idle until
        their edge recovers.
    seed:
        Root seed of the membership process — independent of the algorithm
        seed and the fault seed, so the same training run can be replayed
        under different churn draws.
    """

    arrive: float = 0.0
    depart: float = 0.0
    start_absent: float = 0.0
    edge_mttf: float = 0.0
    edge_mttr: float = 2.0
    link_mttf: float = 0.0
    link_mttr: float = 2.0
    heartbeat_timeout_s: float = 0.5
    rehome: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("arrive", "depart", "start_absent"):
            check_probability(getattr(self, name), name)
        for name in ("edge_mttf", "link_mttf"):
            value = getattr(self, name)
            if value != 0.0 and value < 1.0:
                raise ValueError(
                    f"{name} must be 0 (disabled) or >= 1 round, got {value}")
        for name in ("edge_mttr", "link_mttr"):
            if getattr(self, name) < 1.0:
                raise ValueError(
                    f"{name} must be >= 1 round, got {getattr(self, name)}")
        if self.heartbeat_timeout_s < 0:
            raise ValueError(f"heartbeat_timeout_s must be >= 0, "
                             f"got {self.heartbeat_timeout_s}")
        if not isinstance(self.rehome, bool):
            raise ValueError(f"rehome must be a bool, got {self.rehome!r}")

    # ------------------------------------------------------------- inspection
    @property
    def is_null(self) -> bool:
        """True when no membership event can ever fire.

        ``rehome`` / ``heartbeat_timeout_s`` alone do not activate the plan:
        they parameterize reactions to events that cannot happen.
        """
        return (self.arrive == 0.0 and self.depart == 0.0
                and self.start_absent == 0.0 and self.edge_mttf == 0.0
                and self.link_mttf == 0.0)

    # ------------------------------------------------------------ construction
    @classmethod
    def none(cls) -> "ChurnPlan":
        """The static-topology plan: every algorithm output is bit-identical
        to a run with no ``churn=`` argument at all."""
        return cls()

    @classmethod
    def parse(cls, spec: str) -> "ChurnPlan":
        """Build a plan from a CLI spec like
        ``"arrive=0.05,depart=0.02,edge_mttf=40,edge_mttr=5,seed=3"``.

        Keys are the :class:`ChurnPlan` field names; ``rehome`` accepts
        ``1/0/true/false/yes/no/on/off``.  An empty spec is the null plan.
        """
        return cls(**parse_spec(spec, "churn", dataclass_schema(cls)))


class NullMembership:
    """Shared no-op: the static topology.  Every query is the identity."""

    enabled = False
    plan = ChurnPlan.none()

    def bind(self, edges, *, links=()) -> None:
        """No-op: a static topology has nothing to bind."""

    def bind_flat(self, clients, num_edges=0, *, links=()) -> None:
        """No-op: a static topology has nothing to bind."""

    def begin_round(self, ctx) -> None:
        """No-op: no churn transitions ever happen."""

    def edge_available(self, edge_id: int) -> bool:
        """Every edge is always up."""
        return True

    def client_active(self, client_id: int) -> bool:
        """Every client is always active."""
        return True

    def roster(self, edge_id: int):
        """``None``: algorithms take their static (bit-identical) path."""
        return None

    def roster_ids(self, edge_id: int):
        """``None``: the edge's roster is its static one."""
        return None

    def state_dict(self) -> dict:
        """Empty: nothing to checkpoint."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """No-op: nothing to restore."""


#: The module-level shared instance (never mutated).
NULL_MEMBERSHIP = NullMembership()


def resolve_membership(churn, *, obs=NULL_TRACER):
    """Coerce ``churn`` (``None`` | spec string | :class:`ChurnPlan` |
    manager) into a membership manager bound to ``obs``.

    ``None`` and null plans resolve to the shared :data:`NULL_MEMBERSHIP`,
    keeping the static-topology path free of per-run allocations; only a
    live plan loads :mod:`repro.membership.manager`."""
    if churn is None:
        return NULL_MEMBERSHIP
    if isinstance(churn, NullMembership):
        return churn
    if isinstance(churn, str):
        churn = ChurnPlan.parse(churn)
    if isinstance(churn, ChurnPlan) and churn.is_null:
        return NULL_MEMBERSHIP
    from repro.membership.manager import MembershipManager

    if isinstance(churn, MembershipManager):
        return churn
    if not isinstance(churn, ChurnPlan):
        raise TypeError(f"churn must be a ChurnPlan, spec string, or "
                        f"MembershipManager, got {type(churn).__name__}")
    return MembershipManager(churn, obs=obs)
