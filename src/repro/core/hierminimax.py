"""HierMinimax — Algorithm 1 of the paper.

Hierarchical distributed minimax optimization over the client-edge-cloud network:

* **Phase 1 (model update).**  The cloud samples ``m_E`` edge servers i.i.d. from
  the current edge weights ``p^(k)`` and a checkpoint index ``(c1, c2)`` uniformly
  from ``[τ1]×[τ2]``, then broadcasts ``w^(k)`` and ``(c1, c2)``.  Each sampled edge
  runs ModelUpdate — ``τ2`` client-edge aggregation blocks of ``τ1`` local SGD steps
  (Eq. (4)) — and simultaneously aggregates the block-``c2``/step-``c1`` checkpoint
  snapshot.  The cloud averages the returned models (Eq. (5)) and checkpoint models
  (Eq. (6)).
* **Phase 2 (weight update).**  The cloud samples a fresh uniform subset of ``m_E``
  edges, broadcasts the checkpoint model, collects each sampled edge's minibatch
  loss estimate, builds the unbiased gradient estimate ``v`` (``v_e = N_E/m_E ·
  f_e`` on sampled coordinates), and takes the projected ascent step
  ``p^(k+1) = Π_P(p^(k) + η_p τ1 τ2 v)`` (Eq. (7)).

The checkpoint mechanism is what lets the weight vector be updated once per
``τ1·τ2`` model-update slots while keeping the ascent direction unbiased for the
*average* iterate of the round (Appendix A) — the asymmetric-synchronization device
that the convergence analysis of §5 hinges on.

Setting ``τ1 = τ2 = 1`` with full participation recovers Stochastic-AFL's update
pattern; ``τ2 = 1`` recovers DRFA's (Remarks after Theorems 1–2); both reductions
are verified by the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import EDGE_UNAVAILABLE, FederatedAlgorithm
from repro.data.dataset import FederatedDataset
# Not called here (every tier combines through repro.sim.edge.combine), but
# benchmarks/e2e/ledger.py wraps this module attribute by name, so it stays
# importable.
from repro.defense.policy import robust_combine  # noqa: F401
from repro.nn.models import ModelFactory
from repro.ops.projections import Projection, project_simplex
from repro.sim.cloud import CloudServer
from repro.sim.edge import combine, deliver
from repro.topology.sampling import (
    sample_by_weight,
    sample_checkpoint_slot,
    sample_uniform_subset,
)
from repro.utils.rng import restore_generator
from repro.utils.validation import check_fraction, check_positive_float, check_positive_int

__all__ = ["HierMinimax"]


class HierMinimax(FederatedAlgorithm):
    """The paper's algorithm: hierarchical distributed minimax optimization.

    Parameters
    ----------
    dataset, model_factory, batch_size, eta_w, seed, projection_w, logger:
        See :class:`~repro.core.base.FederatedAlgorithm`.
    eta_p:
        Weight learning rate ``η_p`` of Eq. (7).
    tau1:
        Local SGD steps per client-edge aggregation block.
    tau2:
        Client-edge aggregation blocks per cloud round.
    m_edges:
        Edge servers sampled per phase (``m_E``); defaults to full participation.
    projection_p:
        Projection onto the weight constraint set ``P``; defaults to the
        probability simplex ``Δ_{N_E-1}``.  Pass e.g. a
        :func:`~repro.ops.projections.project_capped_simplex` closure for the
        paper's general convex-constraint variant.
    use_checkpoint:
        Ablation switch.  ``True`` (the paper's algorithm) estimates Phase-2
        losses at the uniformly-sampled checkpoint model of Eq. (6) — the device
        that keeps the ascent direction unbiased for the round's iterates.
        ``False`` estimates them at the round-final global model ``w^(k+1)``
        instead (a biased but cheaper variant), exercised by
        ``benchmarks/bench_ablation_checkpoint.py``.
    compressor:
        Optional :class:`~repro.compression.Compressor` applied to all model
        uploads (client→edge and edge→cloud) as deltas against the receiver's
        reference model — the quantized extension in the spirit of
        Hier-Local-QSGD [22].  ``None`` (default) is the paper's full-precision
        algorithm.
    **run:
        Everything :class:`~repro.core.base.FederatedAlgorithm` accepts.
    """

    name = "hierminimax"
    is_minimax = True
    uses_hierarchy = True
    #: Link names on the tracker, the virtual clock and the fault injector,
    #: top first: edge→cloud, then client→edge.  The checkpoint index
    #: broadcast with ``w^(k)`` carries one digit per link.
    _links: tuple[str, ...] = ("edge_cloud", "client_edge")

    def __init__(self, dataset: FederatedDataset, model_factory: ModelFactory, *,
                 eta_p: float = 1e-3, tau1: int = 2, tau2: int = 2,
                 m_edges: int | None = None,
                 projection_p: Projection | None = None,
                 use_checkpoint: bool = True,
                 compressor=None, **run) -> None:
        super().__init__(dataset, model_factory, **run)
        self.eta_p = check_positive_float(eta_p, "eta_p")
        self.tau1 = check_positive_int(tau1, "tau1")
        self.tau2 = check_positive_int(tau2, "tau2")
        n_e = self._bind_areas()
        self.m_edges = n_e if m_edges is None else check_positive_int(m_edges, "m_edges")
        check_fraction(self.m_edges, n_e, "m_edges")
        self.cloud = CloudServer(
            n_e, weight_projection=projection_p if projection_p is not None
            else project_simplex)
        self.p: np.ndarray = self.cloud.initial_weights()
        self.use_checkpoint = bool(use_checkpoint)
        self.compressor = compressor
        self._comp_rng = self.rng_factory.stream("compression")
        self._dim = self.w.size

    def _bind_areas(self) -> int:
        """Build the actors below the cloud, bind membership to them, and
        return the number of areas ``N_E`` the weights ``p`` range over."""
        self.edges = self._build_edges()
        self.membership.bind(self.edges)
        return self.dataset.num_edges

    @property
    def slots_per_round(self) -> int:
        """``τ1·τ2`` local steps per cloud round."""
        return self.tau1 * self.tau2

    def current_weights(self) -> np.ndarray:
        """The current edge weight vector ``p^(k)``."""
        return self.p

    # ---------------------------------------------------------- checkpointing
    def _extra_state(self) -> dict:
        return {"p": self.p, "comp_rng": self._comp_rng,
                "last_losses": {str(k): v
                                for k, v in self._last_losses.items()}}

    def _restore_extra(self, extra: dict) -> None:
        self.p = np.asarray(extra["p"], dtype=np.float64)
        restore_generator(self._comp_rng, extra["comp_rng"])
        self._last_losses = {int(k): float(v)
                             for k, v in extra.get("last_losses", {}).items()}

    # ---------------------------------------------------------- phase-1 pieces
    def _edge_upload(self, round_index: int, eid: int,
                     checkpoint: tuple[int, int] | None,
                     upload_floats: float,
                     ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """One sampled edge's Phase-1 leg: broadcast, ModelUpdate, upload.

        Returns the delivered ``(w_e, w_e_ckpt)`` pair, or ``None`` when the
        edge is dark or its upload was lost in transit.  Consumes the
        compression stream, tracker records, and fault draws in exactly the
        order the inline loop did, so extracting it changes no bit.  When a
        virtual clock is active the broadcast/compute/upload durations are
        charged to the innermost open timing scope — the synchronous round
        wraps each call in a ``branch()``; the semi-async variant wraps it in
        ``measure()`` to price the leg without blocking the round.
        """
        faults = self.faults
        timing = self.timing
        top = self._links[0]
        if faults.enabled and faults.edge_dark(round_index, eid):
            return None
        roster = self._edge_roster(eid)
        if roster is EDGE_UNAVAILABLE:
            return None
        if timing.enabled:
            # Cloud -> edge: w^(k) plus the checkpoint index.
            timing.transfer(top, eid, self._dim + len(self._links))
        update = self._area_update(round_index, eid, checkpoint, roster)
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
        if timing.enabled:
            timing.transfer(top, eid, upload_floats)
        return deliver(faults, round_index, top, f"edge:{eid}", w_e, w_e_ckpt,
                       floats=upload_floats, tracker=self.tracker, ref=self.w)

    def _area_update(self, round_index: int, eid: int,
                     checkpoint: tuple[int, int] | None, roster,
                     ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """ModelUpdate of area ``eid`` from ``w^(k)``: its edge server's
        ``τ2`` blocks.  An override may return ``None`` when the area has
        nothing to upload."""
        return self._edge_update(round_index, self.edges[eid], self.w,
                                 checkpoint, blocks=self.tau2, roster=roster)

    def _edge_update(self, round_index: int, edge, w: np.ndarray,
                     checkpoint: tuple[int, int] | None, *, blocks: int,
                     roster=None) -> tuple[np.ndarray, np.ndarray | None]:
        """Run ``edge``'s ModelUpdate with this run's hooks wired in."""
        return edge.model_update(
            self.engine, w, tau1=self.tau1, tau2=blocks,
            lr=self.eta_w, projection=self.projection_w,
            checkpoint=checkpoint, tracker=self.tracker,
            compressor=self.compressor, comp_rng=self._comp_rng,
            obs=self.obs, faults=self.faults, round_index=round_index,
            backend=self.backend, defense=self._edge_agg,
            timing=self.timing, roster=roster, link=self._links[-1])

    def _upload_floats(self) -> float:
        """Edge→cloud payload per Phase-1 upload (model + optional checkpoint)."""
        unit_floats = (float(self._dim) if self.compressor is None
                       else self.compressor.payload_floats(self._dim))
        return (2 if self.use_checkpoint else 1) * unit_floats

    def _apply_phase1(self, round_index: int, entries: list,
                      ckpt_entries: list) -> np.ndarray:
        """Eqs. (5)/(6): fold the delivered uploads into ``w`` and return the
        checkpoint model Phase 2 probes at.

        Both combines reference the broadcast ``w^(k)``.  With no delivered
        model the round makes no model step; with no delivered checkpoint
        (or the ablation without one) Phase 2 probes the current ``w``.
        """
        self.w, w_checkpoint = combine(
            self.w, entries, ckpt_entries if self.use_checkpoint else None,
            stage="phase1_model_update", aggregator=self._cloud_agg,
            faults=self.faults, round_index=round_index, link=self._links[0])
        return self.w if w_checkpoint is None else w_checkpoint

    # ------------------------------------------------------------------ round
    def run_round(self, round_index: int) -> None:
        """One training round: Phase 1 (model + checkpoint) then Phase 2 (weights)."""
        d = self._dim
        obs = self.obs
        timing = self.timing
        # ---- Phase 1: sample edges by p, sample the checkpoint slot.
        sampled = sample_by_weight(self.p, self.m_edges, self.rng)
        c1, c2 = sample_checkpoint_slot(self.tau1, self.tau2, self.rng)
        checkpoint = (c1, c2) if self.use_checkpoint else None
        with obs.span("phase1_model_update", round=round_index,
                      sampled_edges=len(sampled), c1=c1, c2=c2):
            # Cloud broadcasts w^(k) and the checkpoint index to the sampled
            # edges.
            self.tracker.record(self._links[0], "down",
                                count=len(set(sampled.tolist())),
                                floats=d + len(self._links))
            upload_floats = self._upload_floats()
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
                    with timing.branch(f"edge:{eid}" if timing.record
                                       else None):
                        delivered = self._edge_upload(round_index, eid,
                                                      checkpoint,
                                                      upload_floats)
                    if last_draw[eid] == i:
                        self._release_area(eid)
                    if delivered is None:
                        continue
                    w_e, w_e_ckpt = delivered
                    entries.append((f"edge:{eid}", 1.0, w_e))
                    if w_e_ckpt is not None:
                        ckpt_entries.append((f"edge:{eid}", 1.0, w_e_ckpt))
            self.tracker.sync_cycle(self._links[0])
            w_checkpoint = self._apply_phase1(round_index, entries,
                                              ckpt_entries)

        # ---- Phase 2: uniform re-sample, loss estimation at the checkpoint model.
        self._phase2_weight_update(round_index, w_checkpoint)

    def _area_loss(self, round_index: int, eid: int, w: np.ndarray,
                   roster) -> float | None:
        """LossEstimation of area ``eid`` at ``w`` (``None``: no reply)."""
        return self._edge_loss(round_index, self.edges[eid], w, roster=roster)

    def _edge_loss(self, round_index: int, edge, w: np.ndarray, *,
                   roster=None) -> float | None:
        """Run ``edge``'s LossEstimation with this run's hooks wired in."""
        return edge.estimate_loss(
            self.engine, w, tracker=self.tracker, faults=self.faults,
            round_index=round_index, loss_clip=self._loss_clip,
            timing=self.timing, roster=roster, link=self._links[-1])

    def _phase2_weight_update(self, round_index: int,
                              w_checkpoint: np.ndarray) -> None:
        """Phase 2 (Eq. (7)): probe a uniform edge subset, ascend the weights."""
        d = self._dim
        faults = self.faults
        timing = self.timing
        top = self._links[0]
        with self.obs.span("phase2_weight_update", round=round_index):
            probed = [int(e) for e in sample_uniform_subset(
                self.cloud.num_edges, self.m_edges, self.rng)]
            self.tracker.record(top, "down", count=len(probed), floats=d)
            replies: dict[int, float] = {}
            # Probed edges answer concurrently; Phase 2 costs the slowest probe.
            with timing.parallel("phase2"):
                for eid in probed:
                    roster = self._edge_roster(eid)
                    with timing.branch(f"edge:{eid}" if timing.record
                                       else None):
                        if roster is not EDGE_UNAVAILABLE and not (
                                faults.enabled and faults.edge_dark(
                                    round_index, eid)):
                            if timing.enabled:
                                timing.transfer(top, eid, d)
                            est = self._area_loss(round_index, eid,
                                                  w_checkpoint, roster)
                            if est is not None:
                                if timing.enabled:
                                    timing.transfer(top, eid, 1)
                                delivered = deliver(
                                    faults, round_index, top, f"edge:{eid}",
                                    est, floats=1.0, tracker=self.tracker)
                                if delivered is not None:
                                    replies[eid] = delivered[0]
                    self._release_area(eid)
            self.tracker.sync_cycle(top)
            self.p = self._ascend(round_index, self.p, probed, replies,
                                  prefix="edge", eta=self.eta_p,
                                  tau1=self.tau1, tau2=self.tau2)
