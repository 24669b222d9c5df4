"""Semi-asynchronous HierMinimax: bounded-staleness edge aggregation.

The synchronous Algorithm 1 pays a barrier every round: Phase 1's simulated
duration is the *max* over the sampled cohort, so one slow edge (a 10× device
or a congested backhaul) stretches every round.  This variant removes the
barrier while keeping the update arithmetic of Eq. (5)/(6):

* **Dispatch.**  Each round the cloud samples edges from ``p^(k)`` exactly as
  the synchronous algorithm does, but only dispatches to edges that are not
  still working on an earlier round's request.  A dispatched edge runs the
  unchanged ModelUpdate leg; its simulated completion time (broadcast +
  compute + upload, priced by the cost model) is recorded as an *in-flight*
  arrival instead of blocking the round.
* **Bounded-staleness collect.**  Results whose dispatch round is older than
  ``k − S`` (``S`` = ``staleness``) are *forced*: the cloud waits until the
  last of them lands.  Anything else that has arrived by that moment rides
  along.  When nothing is forced the cloud waits only for the first arrival —
  rounds overlap, and the slow edge delays merges at most once per its own
  completion instead of once per round.
* **Merge.**  Collected models are averaged with the synchronous rule
  (``÷ m_E`` on a full fresh cohort, renormalized over the contributors
  otherwise; the robust-aggregation path applies unchanged), and Phase 2 is
  verbatim the synchronous weight update.

``staleness=0`` forces every round's own cohort, which reproduces the
synchronous trajectory — and, because every dispatch then completes inside
its round, the synchronous makespan — *exactly* (asserted by the test
suite).  With the default :data:`~repro.simtime.NULL_TIMING` every arrival
is instantaneous, so the variant is bit-identical to :class:`HierMinimax`
for any ``S``; it only behaves differently under a real cost model, which is
the regime the ``timesim`` scenario of :mod:`repro.experiments.scenarios`
measures (its demo ``python -m repro timesim``, its bench
``benchmarks/bench_time_to_accuracy.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.hierminimax import HierMinimax
from repro.sim.edge import RoundContext, fan_out

__all__ = ["SemiAsyncHierMinimax"]


class SemiAsyncHierMinimax(HierMinimax):
    """HierMinimax with bounded-staleness (semi-asynchronous) edge merges.

    Parameters
    ----------
    staleness:
        Staleness bound ``S ≥ 0``: a dispatched update is merged at the
        latest ``S`` rounds after its dispatch round.  ``0`` recovers the
        synchronous algorithm exactly; ``1`` already hides a persistent
        straggler behind the fast cohort.
    **kwargs:
        Everything :class:`HierMinimax` accepts.
    """

    name = "semiasync_hierminimax"

    def __init__(self, *args, staleness: int = 1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.staleness = int(staleness)
        if self.staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {self.staleness}")
        # In-flight Phase-1 legs: dicts with eid / round / w_e / w_ckpt /
        # ready_at.  ``w_e is None`` marks an upload lost in transit (or a
        # dark edge) — it occupies the flight until ``ready_at`` but
        # contributes nothing at merge time.
        self._inflight: list[dict] = []

    # ---------------------------------------------------------- checkpointing
    def _extra_state(self) -> dict:
        state = super()._extra_state()
        state["inflight"] = [
            {"eid": f["eid"], "round": f["round"], "w_e": f["w_e"],
             "w_ckpt": f["w_ckpt"], "duration": f["duration"],
             "ready_at": f["ready_at"]}
            for f in self._inflight]
        return state

    def _restore_extra(self, extra: dict) -> None:
        super()._restore_extra(extra)
        self._inflight = [
            {"eid": int(f["eid"]), "round": int(f["round"]),
             "w_e": None if f["w_e"] is None
             else np.asarray(f["w_e"], dtype=np.float64),
             "w_ckpt": None if f["w_ckpt"] is None
             else np.asarray(f["w_ckpt"], dtype=np.float64),
             "duration": float(f["duration"]),
             "ready_at": float(f["ready_at"])}
            for f in extra.get("inflight", [])]

    # ------------------------------------------------------------------ round
    def run_round(self, round_index: int) -> None:
        """Dispatch to free edges, merge the due-or-arrived flights, Phase 2."""
        ctx = self._round(round_index)
        obs = self.obs
        timing = self.timing
        # Identical Phase-1 sampling to the synchronous algorithm.
        sampled, checkpoint, fields = self._draw_phase1()
        busy = {f["eid"] for f in self._inflight if f["round"] < round_index}
        with obs.span("phase1_model_update", round=round_index, **fields,
                      busy_edges=len(busy)):
            # ---- Dispatch to every sampled edge that is not mid-flight.
            # Same-round duplicate samples dispatch again, exactly as the
            # synchronous loop calls ModelUpdate once per sample.  The cloud
            # broadcasts w^(k) and (c1, c2) to the dispatched edges it can
            # reach.
            fan_out(ctx, self._links[0],
                    [eid for eid in sampled.tolist() if eid not in busy],
                    floats=self._down_floats(),
                    unreachable=self._unreachable("edge"))
            legs: list[dict] = []
            last_draw = {int(e): i for i, e in enumerate(sampled)}
            for i, e in enumerate(sampled):
                eid = int(e)
                if eid in busy:
                    continue
                with timing.measure(f"edge:{eid}" if timing.record
                                    else None) as leg:
                    delivered = self._edge_upload(ctx, eid, checkpoint)
                if last_draw[eid] == i:
                    self._release_area(eid)
                w_e, w_ckpt = (None, None) if delivered is None else delivered
                legs.append({"eid": eid, "round": round_index, "w_e": w_e,
                             "w_ckpt": w_ckpt, "duration": leg.duration})
            # All dispatches leave the cloud at the same instant; each leg's
            # arrival is its own (measured, non-blocking) duration later.
            t0 = timing.now
            for leg in legs:
                leg["ready_at"] = t0 + leg["duration"]
                self._inflight.append(leg)

            # Time still to wait on a flight.  A leg dispatched this very
            # instant waits exactly its measured duration — the same float the
            # synchronous barrier adds — so ``staleness=0`` reproduces the
            # synchronous makespan bit-for-bit.
            def remaining(f: dict) -> float:
                if f["round"] == round_index:
                    return f["duration"]
                return max(0.0, f["ready_at"] - t0)

            # ---- Bounded-staleness collect.
            due = [f for f in self._inflight
                   if f["round"] <= round_index - self.staleness]
            if due:
                forced = due
            elif self._inflight:
                # Nothing is forced yet: wait only for the first arrival.
                forced = [min(self._inflight, key=remaining)]
            else:
                forced = []
            if forced:
                # The flight the merge actually waits on — the staleness
                # barrier's blame handle in the recorded timing tree.
                blamed = max(forced, key=remaining)
                wait = remaining(blamed)
                timing.advance(wait, f"edge:{blamed['eid']}"
                               if timing.record else None)
            else:
                wait = 0.0
            horizon = timing.now
            forced_ids = {id(f) for f in forced}
            collected = [f for f in self._inflight
                         if f["ready_at"] <= horizon or id(f) in forced_ids]
            taken = {id(f) for f in collected}
            self._inflight = [f for f in self._inflight
                              if id(f) not in taken]
            if obs.enabled and collected:
                obs.gauge("merge_staleness",
                          max(round_index - f["round"] for f in collected))
            self.tracker.sync_cycle(self._links[0])
            # ---- Merge with the synchronous Eq. (5)/(6) arithmetic.
            w_checkpoint = self._merge(ctx, collected)
        # ---- Phase 2 is verbatim the synchronous weight update.
        self._phase2_weight_update(ctx, w_checkpoint)

    def _merge(self, ctx: RoundContext, collected: list[dict]) -> np.ndarray:
        """Fold the collected flights into ``w`` / the checkpoint model."""
        membership = self.membership
        if membership.enabled:
            # An edge that crashed or was partitioned after dispatch never
            # lands its upload: the flight still occupied its slot, but it
            # contributes nothing at merge time.
            for f in collected:
                if f["w_e"] is not None and not membership.edge_available(
                        f["eid"]):
                    f["w_e"] = None
                    f["w_ckpt"] = None
                    self.obs.event("membership", round=ctx.round_index,
                                   action="flight_dropped",
                                   entity=f"edge:{f['eid']}",
                                   dispatched=f["round"])
                    self.obs.count("membership_stale_flights_total")
        entries = [(f"edge:{f['eid']}", 1.0, f["w_e"])
                   for f in collected if f["w_e"] is not None]
        ckpt_entries = [(f"edge:{f['eid']}", 1.0, f["w_ckpt"])
                        for f in collected if f["w_ckpt"] is not None]
        return self._apply_phase1(ctx, entries, ckpt_entries)
