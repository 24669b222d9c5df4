"""Seeded fault injection and graceful-degradation bookkeeping.

The :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan` into
concrete per-round decisions.  Every decision is a pure function of
``(plan.seed, round, kind, entity[, sequence])`` via dedicated
:func:`~repro.utils.rng.keyed_rng` streams, so

* the same plan + seed reproduce the same failures regardless of which
  algorithm (or how much observability) is running,
* decisions never touch the *algorithm's* RNG streams — a null plan is
  bit-identical to no plan at all, and
* a run killed and resumed from a checkpoint at a round boundary replays the
  remaining rounds' faults exactly.

The injector also owns the run-scoped degradation state: the quarantine set of
senders caught shipping non-finite payloads, and the fault metrics/events that
flow through the run's tracer (``clients_dropped_total``,
``retries_total``, ``rounds_degraded``, ``quarantined_senders``, plus a
``fault`` event per injected failure and per recovery).
"""

from __future__ import annotations

import numpy as np

from repro.faults.plan import FaultPlan
from repro.obs import NULL_TRACER
from repro.ops.numerics import median
from repro.utils.rng import keyed_rng

__all__ = ["FaultInjector", "resolve_injector"]

#: ``fault`` event kinds that are *injected* failures.
INJECTED_KINDS = ("client_dropout", "client_straggler", "straggler_timeout",
                  "edge_outage", "msg_lost", "msg_corrupt")
#: ``fault`` event kinds that are *recoveries* (the run degraded gracefully).
RECOVERY_KINDS = ("retry_success", "stale_loss_fallback",
                  "checkpoint_fallback", "quarantine")

#: Minimum same-link uploads seen this round before the norm z-score guard
#: can flag an outlier (robust statistics need a cohort).
GUARD_MIN_COHORT = 8


class FaultInjector:
    """Per-run fault oracle plus degradation state.

    Parameters
    ----------
    plan:
        The declarative fault configuration.  ``FaultPlan.none()`` yields a
        disabled injector whose every query is a constant-time no-op.
    obs:
        Optional :class:`~repro.obs.Tracer` receiving fault events and the
        fault metric counters; defaults to the shared no-op tracer.
    """

    def __init__(self, plan: FaultPlan, *, obs=None) -> None:
        self.plan = plan
        self.obs = obs if obs is not None else NULL_TRACER
        self.enabled = not plan.is_null
        self.quarantined: set[str] = set()
        self.backoff_s_total = 0.0
        # The adversarial tier: roster members' uploads are tampered inside
        # receive(), so every algorithm's aggregation sees poisoned payloads
        # without any per-algorithm attack code.
        self.attacks = (plan.byzantine
                        if plan.byzantine is not None
                        and not plan.byzantine.is_null else None)
        # Suspicion ledger fed by the defense layer (robust aggregators and
        # the norm guard): sender -> times flagged.  Survives checkpoints.
        self.suspicion: dict[str, int] = {}
        # Per-round dedup of emitted events (a whole-round decision like an
        # edge outage is queried by both phases) and the per-sender message
        # sequence counter that makes repeated uploads within a round draw
        # independent loss/corruption outcomes.
        self._event_round: int | None = None
        self._emitted: set[tuple] = set()
        self._msg_seq: dict[tuple, int] = {}
        # Round-scoped cohort of per-link array-upload norms for the z-score
        # guard; rebuilt each round (round-boundary resume needs no state).
        self._norm_cohort: dict[str, list[float]] = {}

    # ------------------------------------------------------------ rng plumbing
    def _rng(self, round_index: int, kind: str, entity: str,
             seq: int = 0) -> np.random.Generator:
        """A generator that is a pure function of its arguments and the seed."""
        return keyed_rng(self.plan.seed, kind, round_index, entity, seq)

    def _round_scope(self, round_index: int) -> None:
        if self._event_round != round_index:
            self._event_round = round_index
            self._emitted.clear()
            self._msg_seq.clear()
            self._norm_cohort.clear()

    def _emit(self, round_index: int, kind: str, entity: str, *,
              dedup: bool = True, **fields) -> bool:
        """Emit a ``fault`` event; returns ``False`` when deduped away.

        Callers increment the matching metric counter only on ``True``, so a
        whole-round decision queried by both phases is counted exactly once.
        """
        if dedup:
            key = (round_index, kind, entity)
            if key in self._emitted:
                return False
            self._emitted.add(key)
        self.obs.event("fault", round=round_index, fault=kind, entity=entity,
                       recovery=kind in RECOVERY_KINDS, **fields)
        return True

    # ---------------------------------------------------------- availability
    def edge_dark(self, round_index: int, edge_id: int) -> bool:
        """Is this edge server (or level-1 subtree) dark for the whole round?

        Quarantined edges are permanently dark.  The decision is identical for
        every query in the round, so Phase 1 and Phase 2 agree on it.
        """
        if not self.enabled:
            return False
        self._round_scope(round_index)
        entity = f"edge:{edge_id}"
        if entity in self.quarantined:
            return True
        if self.plan.edge_outage <= 0.0:
            return False
        gen = self._rng(round_index, "edge_outage", entity)
        if gen.random() < self.plan.edge_outage:
            if self._emit(round_index, "edge_outage", entity):
                self.obs.count("edge_outages_total")
            return True
        return False

    def client_steps(self, round_index: int, client_id: int, tau1: int) -> int:
        """Local steps the client completes this round.

        ``tau1`` means healthy, ``0 < steps < tau1`` a straggler's truncated
        update, and ``0`` a dropout (including stragglers converted by the
        round timeout, and quarantined clients).  The answer is stable across
        repeated queries within a round (one availability draw per client per
        round), so every aggregation block of the round sees the same fate.
        """
        if not self.enabled:
            return tau1
        self._round_scope(round_index)
        entity = f"client:{client_id}"
        if entity in self.quarantined:
            return 0
        gen = self._rng(round_index, "client_fate", entity)
        u = gen.random()
        if u < self.plan.client_dropout:
            if self._emit(round_index, "client_dropout", entity):
                self.obs.count("clients_dropped_total")
            return 0
        if u < self.plan.client_dropout + self.plan.client_straggle:
            steps = self.plan.straggler_steps(tau1)
            if steps < 1:
                if self._emit(round_index, "straggler_timeout", entity):
                    self.obs.count("stragglers_timed_out")
                    self.obs.count("clients_dropped_total")
                return 0
            if self._emit(round_index, "client_straggler", entity, steps=steps):
                self.obs.count("stragglers_total")
            return min(steps, tau1)
        return tau1

    def client_available(self, round_index: int, client_id: int) -> bool:
        """Can this client answer a (tiny) loss probe this round?

        Shares the availability draw with :meth:`client_steps`, so a client
        that dropped out of the round's model update is also silent for the
        round's loss estimation, while a straggler — slow but alive — still
        replies.  Quarantined clients never reply.
        """
        if not self.enabled:
            return True
        self._round_scope(round_index)
        entity = f"client:{client_id}"
        if entity in self.quarantined:
            return False
        gen = self._rng(round_index, "client_fate", entity)
        if gen.random() < self.plan.client_dropout:
            if self._emit(round_index, "client_dropout", entity):
                self.obs.count("clients_dropped_total")
            return False
        return True

    # -------------------------------------------------------------- messaging
    def receive(self, round_index: int, link: str, sender: str, *payloads,
                floats: float = 0.0, tracker=None, ref=None):
        """Deliver ``payloads`` (one logical upload) through the faulty link.

        Order of operations: Byzantine tampering (the sender *chooses* its
        payload — see :class:`~repro.defense.attacks.AttackPlan`), then
        message loss with the plan's :class:`RetryPolicy` (retransmissions are
        re-charged to ``tracker`` as uploads and counted in
        ``retries_total``), then
        corruption, then the receiver-side payload guard: a sender shipping
        NaN/Inf — or, with ``guard_zscore`` set, a finite array whose norm is
        anomalous against the round's same-link cohort — is quarantined for
        the rest of the run (``quarantined_senders``) and its upload
        discarded.

        ``ref`` is the broadcast model the upload answers; model-poisoning
        attacks tamper with the delta against it.

        Returns the tuple of delivered payloads, or ``None`` when the upload
        was lost after all retries or failed validation — the caller treats
        the sender as dropped for this aggregation and renormalizes.
        """
        if not self.enabled:
            return payloads
        self._round_scope(round_index)
        seq_key = (link, sender)
        seq = self._msg_seq.get(seq_key, 0)
        self._msg_seq[seq_key] = seq + 1
        payloads = self._attack(round_index, link, sender, payloads, ref)
        gen = self._rng(round_index, "msg", f"{link}:{sender}", seq)
        policy = self.plan.retry
        if self.plan.msg_loss > 0.0:
            delivered = False
            lost_attempts = 0
            for attempt in range(policy.max_retries + 1):
                if gen.random() >= self.plan.msg_loss:
                    delivered = True
                    break
                lost_attempts += 1
                if attempt < policy.max_retries:
                    # Retransmission: charged to the link so comm plots
                    # reflect it, plus deterministic (simulated) backoff.
                    if tracker is not None:
                        tracker.record(link, "up", count=1, floats=floats)
                    self.obs.count("retries_total")
                    wait = policy.backoff_s(attempt, seed=self.plan.seed,
                                            round_index=round_index,
                                            entity=f"{link}:{sender}")
                    self.backoff_s_total += wait
                    self.obs.count("retry_backoff_s_total", wait)
            if not delivered:
                self._emit(round_index, "msg_lost", sender, dedup=False,
                           link=link)
                self.obs.count("messages_lost_total")
                return None
            if lost_attempts:
                self._emit(round_index, "retry_success", sender, dedup=False,
                           link=link, retries=lost_attempts)
        if self.plan.msg_corrupt > 0.0 and gen.random() < self.plan.msg_corrupt:
            self._emit(round_index, "msg_corrupt", sender, dedup=False,
                       link=link)
            self.obs.count("messages_corrupted_total")
            payloads = tuple(None if p is None else _corrupt(p)
                             for p in payloads)
        if not all(_finite(p) for p in payloads if p is not None):
            self.quarantine(round_index, sender, link=link)
            return None
        if self.plan.guard_zscore > 0.0 and not self._norms_ok(
                round_index, link, sender, payloads):
            return None
        return payloads

    # ---------------------------------------------------------- byzantine tier
    def _attack(self, round_index: int, link: str, sender: str, payloads,
                ref):
        """Replace a Byzantine client's payloads with its chosen attack.

        Only ``client:<id>`` senders can be Byzantine (edge/interior servers
        are trusted infrastructure in this threat model); honest senders and
        pre-``start_round`` rounds pass through untouched.  Attack draws use
        their own seeded streams, so the plan's *fault* decisions are
        unchanged by the presence of an adversary.
        """
        plan = self.attacks
        if plan is None or not sender.startswith("client:"):
            return payloads
        client_id = int(sender.split(":", 1)[1])
        if not plan.active(round_index, client_id):
            return payloads
        out = []
        tampered = False
        for p in payloads:
            if p is None:
                out.append(p)
            elif isinstance(p, np.ndarray):
                if plan.attack in ("sign_flip", "gauss", "scale"):
                    out.append(plan.tamper_model(round_index, client_id, p,
                                                 ref))
                    tampered = True
                else:
                    out.append(p)
            else:
                poisoned = plan.tamper_loss(round_index, client_id, float(p))
                tampered = tampered or poisoned != float(p)
                out.append(poisoned)
        if tampered:
            self.obs.event("attack", round=round_index, attack=plan.attack,
                           entity=sender, link=link)
            self.obs.count("byzantine_attacks_total")
        return tuple(out)

    def _norms_ok(self, round_index: int, link: str, sender: str,
                  payloads) -> bool:
        """The finite-but-anomalous guard: norm z-score vs. the round's cohort.

        Keeps a per-link list of array-upload norms for the current round; a
        new upload whose norm deviates from the cohort median by more than
        ``guard_zscore`` robust standard deviations (MAD-scaled) quarantines
        its sender.  Scalar payloads are never judged (loss magnitudes are
        the *minimax signal*, policed separately by the loss clip).
        """
        norms = [float(np.linalg.norm(p)) for p in payloads
                 if isinstance(p, np.ndarray)]
        if not norms:
            return True
        cohort = self._norm_cohort.setdefault(link, [])
        if len(cohort) >= GUARD_MIN_COHORT:
            arr = np.asarray(cohort)
            center = float(median(arr))
            # MAD scaled to the normal-consistent sigma; floor keeps tiny
            # homogeneous cohorts from flagging numerical noise.
            sigma = 1.4826 * float(median(np.abs(arr - center)))
            sigma = max(sigma, 1e-9 * max(abs(center), 1.0))
            worst = max(abs(n - center) for n in norms) / sigma
            if worst > self.plan.guard_zscore:
                self.quarantine(round_index, sender, link=link,
                                reason="norm_zscore",
                                zscore=round(worst, 2))
                self.obs.count("norm_guard_rejections_total")
                return False
        cohort.extend(norms)
        return True

    def suspect(self, round_index: int, sender: str, *, action: str,
                aggregator: str, **fields) -> None:
        """Record a defense-layer flag (rejected/clipped upload, capped loss).

        Works even on a disabled injector — robust aggregation can run
        without any fault plan — and never draws randomness.  Feeds the
        per-sender suspicion ledger, a ``defense`` trace event, and the
        ``byzantine_filtered_total`` counter (the "filtered" side of the
        trace-report attack ledger).
        """
        self.suspicion[sender] = self.suspicion.get(sender, 0) + 1
        self.obs.event("defense", round=round_index, entity=sender,
                       action=action, aggregator=aggregator, **fields)
        self.obs.count("byzantine_filtered_total")

    def quarantine(self, round_index: int, sender: str, **fields) -> None:
        """Ban a sender (non-finite or anomalous payload) for the rest of the run."""
        if sender not in self.quarantined:
            self.quarantined.add(sender)
            self._emit(round_index, "quarantine", sender, dedup=False, **fields)
            self.obs.count("quarantined_senders")

    # ------------------------------------------------------------ degradation
    def stale_loss(self, round_index: int, entity: str, value: float) -> None:
        """Record that the cloud fell back to a cached loss for ``entity``."""
        self._emit(round_index, "stale_loss_fallback", entity, dedup=False,
                   value=value)
        self.obs.count("stale_loss_fallbacks_total")

    def degraded_round(self, round_index: int, what: str) -> None:
        """Record a round where a whole aggregation had zero survivors."""
        self._emit(round_index, "degraded_round", what, dedup=False)
        self.obs.count("rounds_degraded")

    def checkpoint_fallback(self, round_index: int, what: str) -> None:
        """Record a round where the Phase-2 probe model fell back to ``w``."""
        self._emit(round_index, "checkpoint_fallback", what, dedup=False)
        self.obs.count("checkpoint_fallbacks_total")

    # ------------------------------------------------------------ persistence
    def state_dict(self) -> dict:
        """Serializable run-scoped state (the decisions themselves are pure)."""
        return {"quarantined": sorted(self.quarantined),
                "backoff_s_total": self.backoff_s_total,
                "suspicion": dict(self.suspicion)}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (checkpoint resume).

        Every key is read with a default, so a stale checkpoint written
        before the Byzantine tier existed (no ``suspicion`` ledger) resumes
        cleanly.
        """
        self.quarantined = set(state.get("quarantined", ()))
        self.backoff_s_total = float(state.get("backoff_s_total", 0.0))
        self.suspicion = {str(k): int(v)
                          for k, v in state.get("suspicion", {}).items()}


def _corrupt(payload):
    """NaN-poison a payload (array: every 8th entry; scalar: entirely)."""
    if isinstance(payload, np.ndarray):
        out = payload.copy()
        out[:: max(1, out.size // 8)] = np.nan
        return out
    return float("nan")


def _finite(payload) -> bool:
    if isinstance(payload, np.ndarray):
        return bool(np.all(np.isfinite(payload)))
    return bool(np.isfinite(payload))


def resolve_injector(faults, *, obs=None) -> FaultInjector:
    """Coerce ``faults`` (``None`` | :class:`FaultPlan` | injector) into an
    injector bound to ``obs``."""
    if isinstance(faults, FaultInjector):
        return faults
    if faults is None:
        faults = FaultPlan.none()
    if not isinstance(faults, FaultPlan):
        raise TypeError(f"faults must be a FaultPlan or FaultInjector, "
                        f"got {type(faults).__name__}")
    return FaultInjector(faults, obs=obs)
