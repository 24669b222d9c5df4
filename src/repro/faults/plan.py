"""Declarative fault model for the client–edge–cloud simulation.

A :class:`FaultPlan` is a frozen, seeded description of *what can go wrong* in a
run — client dropouts, stragglers, edge-server outages, and message loss or
corruption on the hierarchy's links — together with the :class:`RetryPolicy`
that governs how the system fights back.  The plan itself never draws random
numbers; the :class:`~repro.faults.injector.FaultInjector` turns it into
per-round, per-entity decisions that are a *pure function* of
``(plan.seed, round, entity)``, which is what makes faulty runs reproducible
and checkpoint/resume exact.

``FaultPlan.none()`` (or simply not passing a plan) disables every fault path:
algorithms take the exact same code paths and produce bit-identical outputs to
a build without the fault layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.defense.attacks import AttackPlan
from repro.utils.rng import keyed_rng
from repro.utils.spec import convert, dataclass_schema, tokenize
from repro.utils.validation import check_probability

__all__ = ["FaultPlan", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retransmission with deterministic backoff accounting.

    Parameters
    ----------
    max_retries:
        Retransmissions attempted after the first (lost) transmission of a
        message; ``0`` disables retries.  Each retransmission is re-charged to
        the :class:`~repro.topology.comm.CommunicationTracker`, so comm plots
        reflect the true wire traffic under loss.
    backoff_base_s / backoff_factor:
        The ``n``-th retry waits ``backoff_base_s * backoff_factor**n``
        (simulated) seconds.  The time is accumulated into the
        ``retry_backoff_s_total`` metric, never slept.
    max_backoff_s:
        Cap on any single backoff wait, so exponential growth cannot run
        unbounded under long loss episodes.  ``None`` (default) leaves the
        geometric schedule uncapped — bit-identical to the pre-cap policy.
    jitter:
        Optional deterministic jitter fraction in ``[0, 1]``: each wait is
        scaled by a factor drawn uniformly from ``[1 - jitter, 1 + jitter]``
        as a pure function of ``(seed, round, entity, attempt)`` — seeded
        de-synchronization, not wall-clock randomness.  ``0`` (default)
        disables jitter and skips the draw entirely.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float | None = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ValueError(
                f"max_retries must be an integer >= 0, got {self.max_retries!r}")
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.max_backoff_s is not None and self.max_backoff_s < 0:
            raise ValueError(
                f"max_backoff_s must be >= 0 or None, got {self.max_backoff_s}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_s(self, attempt: int, *, seed: int | None = None,
                  round_index: int = 0, entity: str = "") -> float:
        """Simulated wait before retry number ``attempt`` (0-based).

        With ``jitter`` set and a ``seed`` supplied, the wait is perturbed by
        a factor that is a pure function of
        ``(seed, round_index, entity, attempt)``; the cap applies before the
        jitter, so a capped schedule still de-synchronizes.
        """
        wait = self.backoff_base_s * self.backoff_factor ** attempt
        if self.max_backoff_s is not None:
            wait = min(wait, self.max_backoff_s)
        if self.jitter > 0.0 and seed is not None:
            u = keyed_rng(seed, "retry_jitter", round_index, entity,
                          attempt).random()
            wait *= 1.0 + self.jitter * (2.0 * u - 1.0)
        return wait


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the failures injected into one run.

    All rates are per-round, per-entity probabilities in ``[0, 1]``.

    Parameters
    ----------
    client_dropout:
        Probability a client is unreachable for an entire cloud round: it runs
        no local steps and uploads nothing; aggregation weights are
        renormalized over the survivors.
    client_straggle:
        Probability a client straggles.  A straggler only completes
        ``round_timeout_slots / straggler_slowdown`` of its ``τ1`` local steps
        before the round deadline and uploads that truncated model; when the
        deadline leaves it zero completed steps, the timeout converts it into
        a dropout (counted under ``stragglers_timed_out``).
    straggler_slowdown:
        How many times slower a straggler computes (``>= 1``).
    round_timeout_slots:
        The per-round deadline in local-step slots; ``None`` means ``τ1`` (a
        straggler may use the whole block but no more).
    edge_outage:
        Probability an edge server (or a level-1 subtree in the multi-layer
        generalization) is dark for an entire round: it contributes to neither
        Phase 1 aggregation nor Phase 2 loss estimation; the cloud falls back
        to the edge's previous loss estimate for the weight ascent.
    msg_loss:
        Probability each uplink message is lost in transit.  The
        :class:`RetryPolicy` retransmits (charging the tracker); when all
        retries fail the sender is treated as dropped for that aggregation.
    msg_corrupt:
        Probability a delivered uplink payload is corrupted (NaN-poisoned).
        Receivers validate payloads, quarantine the sender for the rest of the
        run, and renormalize without it.
    seed:
        Root seed of the fault process — independent of the algorithm seed, so
        the same training run can be replayed under different fault draws.
    retry:
        The :class:`RetryPolicy` for lost messages.
    byzantine:
        Optional :class:`~repro.defense.attacks.AttackPlan` — the adversarial
        tier.  Roster members' uploads are tampered at the receiver side of
        every link (model poisoning, loss inflation) as pure functions of
        ``(byzantine.seed, round, client)``.  ``None`` (or a null attack
        plan) leaves every payload untouched.
    guard_zscore:
        Receiver-side anomaly guard: a *finite* array upload whose norm sits
        more than this many robust z-scores from the round's cohort (same
        link, at least 8 prior uploads) quarantines its sender, exactly like
        the NaN guard.  ``0`` disables the guard.  It only arms when the plan
        is otherwise active (faults or an attack), so it never changes a
        healthy run's code paths.
    """

    client_dropout: float = 0.0
    client_straggle: float = 0.0
    straggler_slowdown: float = 2.0
    round_timeout_slots: int | None = None
    edge_outage: float = 0.0
    msg_loss: float = 0.0
    msg_corrupt: float = 0.0
    seed: int = 0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    byzantine: AttackPlan | None = None
    guard_zscore: float = 0.0

    def __post_init__(self) -> None:
        for name in ("client_dropout", "client_straggle", "edge_outage",
                     "msg_loss", "msg_corrupt"):
            check_probability(getattr(self, name), name)
        if self.straggler_slowdown < 1.0:
            raise ValueError(f"straggler_slowdown must be >= 1, "
                             f"got {self.straggler_slowdown}")
        if self.round_timeout_slots is not None and self.round_timeout_slots < 1:
            raise ValueError(f"round_timeout_slots must be >= 1 or None, "
                             f"got {self.round_timeout_slots}")
        if self.byzantine is not None and not isinstance(self.byzantine,
                                                         AttackPlan):
            raise TypeError(f"byzantine must be an AttackPlan or None, "
                            f"got {type(self.byzantine).__name__}")
        if self.guard_zscore < 0:
            raise ValueError(
                f"guard_zscore must be >= 0, got {self.guard_zscore}")

    # ------------------------------------------------------------- inspection
    @property
    def is_null(self) -> bool:
        """True when neither a fault nor an attack can ever fire.

        ``guard_zscore`` alone does not activate the plan: the guard is a
        countermeasure, armed only when something can actually go wrong.
        """
        return (self.client_dropout == 0.0 and self.client_straggle == 0.0
                and self.edge_outage == 0.0 and self.msg_loss == 0.0
                and self.msg_corrupt == 0.0 and not self.has_attack)

    @property
    def has_attack(self) -> bool:
        """True when the plan carries an active Byzantine attack."""
        return self.byzantine is not None and not self.byzantine.is_null

    def straggler_steps(self, tau1: int) -> int:
        """Local steps a straggler completes before the round deadline.

        ``0`` means the timeout converted the straggler into a dropout.
        """
        deadline = (tau1 if self.round_timeout_slots is None
                    else min(tau1, self.round_timeout_slots))
        return int(deadline / self.straggler_slowdown)

    # ------------------------------------------------------------ construction
    @classmethod
    def none(cls) -> "FaultPlan":
        """The fault-free plan: every algorithm output is bit-identical to a
        run with no ``faults=`` argument at all."""
        return cls()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a CLI spec like
        ``"client_dropout=0.2,edge_outage=0.05,seed=3,max_retries=1"``.

        Keys are :class:`FaultPlan` field names plus the :class:`RetryPolicy`
        fields (``max_retries``, ``backoff_base_s``, ``backoff_factor``) plus
        the ``attack_``-prefixed :class:`~repro.defense.attacks.AttackPlan`
        fields — e.g.
        ``"attack=sign_flip,attack_fraction=0.2,attack_seed=1"`` (also
        ``attack_scale``, ``attack_start_round``, ``attack_colluding``,
        ``attack_clients=0|3|7``).  Churn is not a fault: it is set with the
        ``churn=`` argument of :class:`~repro.core.base.FederatedAlgorithm`.
        """
        _, items = tokenize(spec, "fault")
        attack: dict[str, str] = {}
        for key in list(items):
            tier, sep, sub = key.partition("_")
            if tier == "attack":
                sub = sub if sep else "attack"  # bare ``attack=`` names it
                if sub in attack:
                    raise ValueError(f"fault spec key {key!r} given twice")
                attack[sub] = items.pop(key)
        retry_schema = dataclass_schema(RetryPolicy)
        values = convert("fault", items, {
            **dataclass_schema(cls, exclude=("retry", "byzantine")),
            **retry_schema})
        retry = {k: values.pop(k) for k in retry_schema if k in values}
        plan = cls(**values)
        if retry:
            plan = replace(plan, retry=RetryPolicy(**retry))
        if attack:
            plan = replace(plan, byzantine=AttackPlan(**convert(
                "attack", attack, dataclass_schema(AttackPlan))))
        return plan
