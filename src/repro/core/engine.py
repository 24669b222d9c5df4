"""The cloud round every method runs: Algorithm 1 and the baselines it
specializes to.

Algorithm 1's round has two phases:

* **Phase 1 (model update).**  The cloud samples ``m`` of its ``N``
  children — by the mixing weights, or uniformly when the method has none —
  and, when the method has a checkpoint index, a slot ``(c1, c2)`` uniformly
  from ``[τ1]×[τ2]``.  It broadcasts ``w^(k)`` (and the index) to the
  sampled children it can reach, each runs its leg, and the delivered
  uploads are folded into ``w^(k+1)`` and the checkpoint model by
  Eqs. (5)/(6).
* **Phase 2 (weight update).**  A method with learned weights probes a
  fresh uniform subset of ``m`` children at the checkpoint model (or at
  ``w^(k+1)`` without one) and takes the projected ascent step of Eq. (7).

The children are edge areas at depth 2 (``uses_hierarchy``): each sampled
edge runs ModelUpdate — ``τ2`` client-edge blocks of ``τ1`` local steps —
and uploads over ``edge_cloud``.  At depth 1 they are the clients
themselves: the sampled clients run one
:func:`~repro.sim.edge.train_leg` of ``τ1`` steps and upload over
``client_cloud`` as ``client:<id>``, so the flat methods keep their own
fault keys.

The five methods are configurations of this round (remarks after
Theorems 1–2):

===============  =====  =========  ========================  ==========
method           depth  weights    checkpoint                τ1, τ2
===============  =====  =========  ========================  ==========
HierMinimax      2      learned p  slot ``(c1, c2)``         τ1, τ2
DRFA             1      learned q  slot ``c1``               τ1, 1
Stochastic-AFL   1      learned q  none: probes ``w^(k+1)``  1, 1
HierFAVG         2      frozen     none                      τ1, τ2
FedAvg           1      frozen     none                      τ1, 1
===============  =====  =========  ========================  ==========

Frozen weights (``is_minimax = False``) mean uniform sampling, no Phase 2,
and aggregation by data size at every tier unless ``weight_by_data`` is off:
the minimization problem (1).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import FederatedAlgorithm
from repro.ops.projections import Projection, project_simplex
from repro.sim.cloud import CloudServer
from repro.sim.edge import RoundContext, clip_losses, combine, deliver, \
    fan_out, probe_leg, quarantined, train_leg
from repro.topology.sampling import (
    sample_by_weight,
    sample_checkpoint_slot,
    sample_uniform_subset,
)
from repro.utils.rng import restore_generator
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["RoundEngine", "EDGE_UNAVAILABLE"]

#: Sentinel returned by :meth:`RoundEngine._edge_roster` when the edge must
#: sit the round out (dark under the fault plan, crashed, partitioned, or
#: left without a single active client).
EDGE_UNAVAILABLE = object()


class RoundEngine(FederatedAlgorithm):
    """The round of :mod:`repro.core.engine`, configured per method.

    A method declares ``is_minimax`` (learned weights, Phase 2),
    ``uses_hierarchy`` (depth 2), the class attributes below where it
    differs from them, and its constructor keywords; the constructor calls
    :meth:`_bind_cloud`.  ``run_round`` stays abstract: each method declares
    its own, one call to :meth:`_cloud_round`, so a timer wrapping one
    method's ``run_round`` times that method's rounds alone.
    """

    #: Links top first: the cloud's link to its children, then (depth 2)
    #: the client→edge link.  The checkpoint index broadcast with ``w^(k)``
    #: carries one digit per link.
    _links: tuple[str, ...] = ("client_cloud",)
    #: Phase 1 draws a checkpoint slot and broadcasts its index.
    checkpoint_index: bool = False
    #: The children snapshot the slot's checkpoint model and Phase 2 probes
    #: it; otherwise Phase 2 probes ``w^(k+1)``.
    use_checkpoint: bool = False
    #: Weight uploads by data size at every tier; otherwise plain means, as
    #: Eq. (5) takes them.
    weight_by_data: bool = False
    #: Attribute and checkpoint key of the mixing weights; ``eta_<key>`` is
    #: their ascent rate.
    _weights_key: str = "q"
    #: Local steps per block and blocks per cloud round.
    tau1: int = 1
    tau2: int = 1

    @property
    def slots_per_round(self) -> int:
        """``τ1·τ2`` local steps per cloud round."""
        return self.tau1 * self.tau2

    def current_weights(self) -> np.ndarray | None:
        """The mixing weights (``p`` over edge areas, ``q`` over clients),
        or ``None`` for a minimization method."""
        return getattr(self, self._weights_key) if self.is_minimax else None

    # ------------------------------------------------------------ set-up
    def _bind_cloud(self, m: int | None,
                    projection: Projection | None = None) -> int:
        """Bind the actors below the cloud and return ``m``, the children
        each phase samples (default: all ``N``).

        A minimax method also gets the :class:`~repro.sim.cloud.CloudServer`
        that projects its weights (default projection: the probability
        simplex) and their uniform start.
        """
        n = self._num_children = self._bind_areas()
        name = "m_edges" if self.uses_hierarchy else "m_clients"
        m = n if m is None else check_positive_int(m, name)
        check_fraction(m, n, name)
        self._sample_size = m
        if self.is_minimax:
            self.cloud = CloudServer(
                n, weight_projection=projection if projection is not None
                else project_simplex)
            setattr(self, self._weights_key, self.cloud.initial_weights())
            # Last loss the cloud saw per probed child: Phase 2's stale
            # fallback.
            self._last_losses: dict[int, float] = {}
        return m

    def _bind_areas(self) -> int:
        """Build the actors below the cloud, bind membership to them, and
        return the number ``N`` of the cloud's children."""
        batch, rngs = self.batch_size, self.rng_factory
        if self.uses_hierarchy:
            self.edges = self.population.build_edges(batch_size=batch,
                                                     rng_factory=rngs)
            self.membership.bind(self.edges)
            return self.dataset.num_edges
        self.clients = self.population.build_flat_clients(batch_size=batch,
                                                          rng_factory=rngs)
        # Flat topology: client arrivals/departures only (no edges to fail).
        self.membership.bind_flat(self.clients)
        return self.dataset.num_clients

    # ---------------------------------------------------------- checkpointing
    def _extra_state(self) -> dict:
        if not self.is_minimax:
            return {}
        state = {self._weights_key: self.current_weights(),
                 "last_losses": {str(k): v
                                 for k, v in self._last_losses.items()}}
        if self._comp_rng is not None:
            state["comp_rng"] = self._comp_rng
        return state

    def _restore_extra(self, extra: dict) -> None:
        if not self.is_minimax:
            return
        setattr(self, self._weights_key,
                np.asarray(extra[self._weights_key], dtype=np.float64))
        if self._comp_rng is not None:
            restore_generator(self._comp_rng, extra["comp_rng"])
        self._last_losses = {int(k): float(v)
                             for k, v in extra.get("last_losses", {}).items()}

    # ------------------------------------------------------------------ round
    def _draw_phase1(self) -> tuple[np.ndarray, tuple[int, int] | None,
                                    dict]:
        """Phase 1's draws from the cloud stream: the sampled children and,
        with a checkpoint index, the slot ``(c1, c2)``.

        Returns the sample, the checkpoint the children snapshot (``None``
        without one) and the phase span's fields.
        """
        kind = "edge" if self.uses_hierarchy else "client"
        if self.is_minimax:
            sampled = sample_by_weight(self.current_weights(),
                                       self._sample_size, self.rng)
        else:
            sampled = sample_uniform_subset(self._num_children,
                                            self._sample_size, self.rng)
        fields = {f"sampled_{kind}s": len(sampled)}
        if not self.checkpoint_index:
            return sampled, None, fields
        c1, c2 = sample_checkpoint_slot(self.tau1, self.tau2, self.rng)
        fields.update(c1=c1, c2=c2)
        return sampled, (c1, c2) if self.use_checkpoint else None, fields

    def _down_floats(self) -> int:
        """Floats of Phase 1's broadcast: ``w^(k)`` and the checkpoint
        index, one digit per link."""
        return self.w.size + (len(self._links) if self.checkpoint_index
                              else 0)

    def _cloud_round(self, round_index: int) -> None:
        """One cloud round: Phase 1, then Phase 2 for learned weights."""
        ctx = self._round(round_index)
        top = self._links[0]
        kind = "edge" if self.uses_hierarchy else "client"
        sampled, checkpoint, fields = self._draw_phase1()
        with self.obs.span("phase1_model_update", round=round_index,
                           **fields):
            # The cloud broadcasts w^(k) (and the checkpoint index) to the
            # sampled children it can reach.
            fan_out(ctx, top, sampled.tolist(), floats=self._down_floats(),
                    unreachable=self._unreachable(kind))
            legs = (self._area_legs if self.uses_hierarchy
                    else self._client_leg)
            entries, ckpt_entries = legs(ctx, sampled, checkpoint)
            self.tracker.sync_cycle(top)
            w_checkpoint = self._apply_phase1(ctx, entries, ckpt_entries)
        if self.is_minimax:
            self._phase2_weight_update(ctx, w_checkpoint)

    def _apply_phase1(self, ctx: RoundContext, entries: list,
                      ckpt_entries: list) -> np.ndarray:
        """Eqs. (5)/(6): fold the delivered uploads into ``w`` and return the
        model Phase 2 probes at.

        Both combines reference the broadcast ``w^(k)``.  With no delivered
        model the round makes no model step; with no delivered checkpoint
        (or no checkpoint at all) Phase 2 probes the new ``w``.
        """
        self.w, w_checkpoint = combine(
            ctx, self.w, entries,
            ckpt_entries if self.use_checkpoint else None,
            stage="phase1_model_update" if self.is_minimax else "model_update",
            aggregator=ctx.cloud_agg, link=self._links[0])
        return self.w if w_checkpoint is None else w_checkpoint

    def _phase2_weight_update(self, ctx: RoundContext,
                              w_checkpoint: np.ndarray) -> None:
        """Phase 2 (Eq. (7)): probe a uniform subset, ascend the weights."""
        top = self._links[0]
        kind = "edge" if self.uses_hierarchy else "client"
        with self.obs.span("phase2_weight_update", round=ctx.round_index):
            probed = [int(k) for k in sample_uniform_subset(
                self._num_children, self._sample_size, self.rng)]
            fan_out(ctx, top, probed, floats=self.w.size,
                    unreachable=self._unreachable(kind))
            probes = (self._area_probes if self.uses_hierarchy
                      else self._client_probes)
            replies = probes(ctx, probed, w_checkpoint)
            self.tracker.sync_cycle(top)
            setattr(self, self._weights_key, self._ascend(
                ctx, self.current_weights(), probed, replies, prefix=kind,
                eta=getattr(self, f"eta_{self._weights_key}"),
                tau1=self.tau1, tau2=self.tau2))

    def _ascend(self, ctx: RoundContext, weights: np.ndarray, probed,
                replies: dict, *, prefix: str, eta: float, tau1: int,
                tau2: int) -> np.ndarray:
        """Eq. (7) from Phase 2's replies: the projected ascent step on the
        mixing weights, returned (``weights`` itself when no loss arrived).

        A probed child that stayed silent falls back to the last loss the
        cloud saw for it; the reports are then clipped (see
        :func:`~repro.sim.edge.clip_losses`) and scaled into the unbiased
        gradient estimate of §4.2.
        """
        faults = ctx.faults
        losses: dict[int, float] = {}
        for key in probed:
            loss = replies.get(key)
            if loss is None:
                # Dark or silent, or its reply was lost: the stale loss.
                loss = self._last_losses.get(key)
                if loss is None:
                    continue
                faults.stale_loss(ctx.round_index, f"{prefix}:{key}", loss)
            losses[key] = loss
        losses = clip_losses(ctx, losses, prefix)
        if not losses:
            # No loss information at all this round: keep the weights.
            faults.degraded_round(ctx.round_index, "phase2_weight_update")
            return weights
        self._last_losses.update(losses)
        self.obs.gauge(f"worst_{prefix}_loss", max(losses.values()))
        v = self.cloud.build_loss_vector(losses)
        return self.cloud.update_weights(weights, v, eta_p=eta, tau1=tau1,
                                         tau2=tau2)

    # ------------------------------------------------- depth 2: edge areas
    def _area_legs(self, ctx: RoundContext, sampled: np.ndarray,
                   checkpoint: tuple[int, int] | None) -> tuple[list, list]:
        """Phase 1's legs of the sampled edges: the delivered model and
        checkpoint entries, weighted by data size or uniformly."""
        timing = ctx.timing
        upload_floats = self._upload_floats(checkpoint)
        entries: list[tuple[str, float, np.ndarray]] = []
        ckpt_entries: list[tuple[str, float, np.ndarray]] = []
        # An edge drawn more than once keeps its roster until its last
        # draw: draws come in random order, and repeat often once p
        # concentrates on the worst edges.
        last_draw = {int(e): i for i, e in enumerate(sampled)}
        # Sampled edges work concurrently: the synchronous barrier means
        # Phase 1's simulated duration is the slowest edge's leg.
        with timing.parallel("phase1"):
            for i, e in enumerate(sampled):
                eid = int(e)
                with timing.branch(f"edge:{eid}" if timing.record else None):
                    delivered = self._edge_upload(ctx, eid, checkpoint,
                                                  upload_floats)
                # HierFAVG keeps its areas live until the round ends, so
                # its virtual-population checkpoints keep their
                # max_live_clients.
                if last_draw[eid] == i and self.is_minimax:
                    self._release_area(eid)
                if delivered is None:
                    continue
                w_e, w_e_ckpt = delivered
                weight = (float(self.edges[eid].num_samples)
                          if self.weight_by_data else 1.0)
                entries.append((f"edge:{eid}", weight, w_e))
                if w_e_ckpt is not None:
                    ckpt_entries.append((f"edge:{eid}", weight, w_e_ckpt))
        return entries, ckpt_entries

    def _edge_upload(self, ctx: RoundContext, eid: int,
                     checkpoint: tuple[int, int] | None,
                     upload_floats: float,
                     ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """One sampled edge's Phase-1 leg: broadcast, ModelUpdate, upload.

        Returns the delivered ``(w_e, w_e_ckpt)`` pair, or ``None`` when the
        edge is dark or its upload was lost in transit.  The
        broadcast/compute/upload durations are charged to the innermost open
        timing scope — the synchronous round wraps each call in a
        ``branch()``; the semi-async variant wraps it in ``measure()`` to
        price the leg without blocking the round.
        """
        top = self._links[0]
        roster = self._edge_roster(ctx, eid)
        if roster is EDGE_UNAVAILABLE:
            return None
        ctx.timing.transfer(top, eid, self._down_floats())
        update = self._area_update(ctx, eid, checkpoint, roster)
        if update is None:
            return None
        w_e, w_e_ckpt = update
        if self.compressor is not None:
            # Edge transmits compressed deltas against the broadcast w^(k).
            # No sender is attributed, so top-k error feedback (kept per
            # client) does not apply on this link.
            w_e = self.w + self.compressor.compress(w_e - self.w,
                                                    self._comp_rng)
            if w_e_ckpt is not None:
                w_e_ckpt = self.w + self.compressor.compress(
                    w_e_ckpt - self.w, self._comp_rng)
        # Edge uploads its round-final model (and its checkpoint model).
        ctx.timing.transfer(top, eid, upload_floats)
        return deliver(ctx, top, f"edge:{eid}", w_e, w_e_ckpt,
                       floats=upload_floats, ref=self.w)

    def _area_update(self, ctx: RoundContext, eid: int,
                     checkpoint: tuple[int, int] | None, roster,
                     ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """ModelUpdate of area ``eid`` from ``w^(k)``: its edge server's
        ``τ2`` blocks.  An override may return ``None`` when the area has
        nothing to upload."""
        return self.edges[eid].model_update(
            ctx, self.w, tau1=self.tau1, tau2=self.tau2,
            checkpoint=checkpoint, weight_by_data=self.weight_by_data,
            roster=roster, link=self._links[-1])

    def _upload_floats(self, checkpoint: tuple[int, int] | None) -> float:
        """Edge→cloud payload per Phase-1 upload (model + optional
        checkpoint)."""
        d = self.w.size
        unit_floats = (float(d) if self.compressor is None
                       else self.compressor.payload_floats(d))
        return (1 if checkpoint is None else 2) * unit_floats

    def _area_probes(self, ctx: RoundContext, probed: list[int],
                     w: np.ndarray) -> dict[int, float]:
        """Phase 2's probes of the probed edges at ``w``: the delivered
        loss estimates by edge id."""
        timing = ctx.timing
        top = self._links[0]
        replies: dict[int, float] = {}
        # Probed edges answer concurrently; Phase 2 costs the slowest probe.
        with timing.parallel("phase2"):
            for eid in probed:
                roster = self._edge_roster(ctx, eid)
                with timing.branch(f"edge:{eid}" if timing.record else None):
                    if roster is not EDGE_UNAVAILABLE:
                        timing.transfer(top, eid, w.size)
                        est = self._area_loss(ctx, eid, w, roster)
                        if est is not None:
                            timing.transfer(top, eid, 1)
                            delivered = deliver(ctx, top, f"edge:{eid}", est,
                                                floats=1.0)
                            if delivered is not None:
                                replies[eid] = delivered[0]
                self._release_area(eid)
        return replies

    def _area_loss(self, ctx: RoundContext, eid: int, w: np.ndarray,
                   roster) -> float | None:
        """LossEstimation of area ``eid`` at ``w`` (``None``: no reply)."""
        return self.edges[eid].estimate_loss(ctx, w, roster=roster,
                                             link=self._links[-1])

    def _edge_roster(self, ctx: RoundContext, edge_id: int):
        """The edge's membership-adjusted roster for this round.

        ``None`` means "use the construction-time roster" (membership
        disabled — the byte-identical static path);
        :data:`EDGE_UNAVAILABLE` means the edge must be skipped this round
        (dark under the fault plan, crashed, partitioned, or drained of
        active clients; the fault plan is asked first, so a dark edge's
        roster is never built); any list is the live roster to train/probe
        with.
        """
        if ctx.faults.edge_dark(ctx.round_index, edge_id):
            return EDGE_UNAVAILABLE
        membership = self.membership
        if not membership.enabled:
            return None
        if not membership.edge_available(edge_id):
            return EDGE_UNAVAILABLE
        roster = membership.roster(edge_id)
        if roster is not None and not roster:
            return EDGE_UNAVAILABLE
        return roster

    def _release_area(self, eid: int) -> None:
        """Area ``eid`` ran its last leg of the phase: a virtual population
        flushes and drops its roster's clients (eager populations keep
        theirs)."""
        population = self.population
        if population.virtual:
            ids = self.membership.roster_ids(eid)
            population.release(self.edges[eid].client_ids() if ids is None
                               else ids)

    # ---------------------------------------------------- depth 1: clients
    def _client_leg(self, ctx: RoundContext, sampled: np.ndarray,
                    checkpoint: tuple[int, int] | None) -> tuple[list, list]:
        """Phase 1 of a flat method: the sampled clients still in the
        federation train from ``w^(k)`` and upload straight to the cloud.

        Sampled duplicates train once per draw, chaining their minibatch
        streams in the dispatcher.  Returns the delivered entries and
        checkpoint entries of :func:`~repro.sim.edge.train_leg`, weighted
        by data size or uniformly.
        """
        active = self.membership.client_active
        cohort = [self.clients[i] for i in map(int, sampled) if active(i)]
        weights = [float(c.num_samples) if self.weight_by_data else 1.0
                   for c in cohort]
        return train_leg(
            ctx, self.w, cohort, weights, tau1=self.tau1, link=self._links[0],
            checkpoint_step=None if checkpoint is None else checkpoint[0],
            down_floats=self._down_floats())

    def _client_probes(self, ctx: RoundContext, probed: list[int],
                       w: np.ndarray) -> dict[int, float]:
        """Phase 2 of a flat method: the probed clients still in the
        federation report their losses at ``w``, by client id."""
        active = self.membership.client_active
        return probe_leg(ctx, w, [self.clients[i] for i in probed
                                  if active(i)], link=self._links[0])

    # --------------------------------------------------------------- shared
    def _unreachable(self, kind: str):
        """The recipients of ``kind`` (``"edge"`` or ``"client"``) the cloud
        knows cannot take part this round, as the predicate over ids that
        :func:`~repro.sim.edge.fan_out` skips.

        Known unreachable: an edge that membership reports crashed or
        partitioned, or whose roster has no active client; a client that
        membership reports departed; any quarantined sender.  These are the
        recipients every tier's leg skips before the virtual clock prices a
        broadcast, so the tracker and the clock bill the same recipients.  A
        fault-plan outage or dropout is decided on the recipient's side and
        stays unknown to the sender.
        """
        in_quarantine = quarantined(self.faults, kind)
        membership = self.membership
        if not membership.enabled:
            return in_quarantine
        if kind == "client":
            return lambda cid: (in_quarantine(cid)
                                or not membership.client_active(cid))

        def edge_gone(eid: int) -> bool:
            if in_quarantine(eid) or not membership.edge_available(eid):
                return True
            ids = membership.roster_ids(eid)
            return ids is not None and not ids
        return edge_gone
