"""Edge-server actor: the ModelUpdate and LossEstimation procedures of Algorithm 1.

An :class:`EdgeServer` owns the clients of its edge area and implements

* :meth:`model_update` — Part (a) (τ2 client-edge aggregation blocks of τ1 local
  SGD steps each) and Part (b) (checkpoint aggregation at block ``c2``);
* :meth:`estimate_loss` — the Phase-2 loss estimation
  ``f_e(w) = (1/N0) Σ_n f_n(w; ξ_n)``.

Communication with its clients is accounted on the ``client_edge`` link (or the
caller's ``link``, e.g. a multi-layer tree's bottom link) of the supplied
:class:`~repro.topology.comm.CommunicationTracker`.  Aggregation
accumulates into preallocated buffers (one ``d``-vector per edge, not per client).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.defense.policy import clip_loss_reports, robust_combine
from repro.exec.dispatch import ClientWork, run_local_steps
from repro.nn.network import NeuralNetwork
from repro.obs import NULL_TRACER
from repro.ops.projections import Projection, identity_projection
from repro.sim.client import Client
from repro.topology.comm import CommunicationTracker
from repro.utils.validation import check_positive_float, check_positive_int

__all__ = ["EdgeServer"]


def _compress(compressor, sender: int, delta: np.ndarray,
              rng: np.random.Generator | None) -> np.ndarray:
    """Apply a compressor to an upload delta, with sender attribution if supported."""
    if rng is None:
        # A fixed fallback generator would silently re-seed on every call,
        # making "random" quantization identical across all uploads — require
        # the caller to thread a real stream instead.
        raise ValueError("compression requires an explicit comp_rng generator")
    if hasattr(compressor, "compress_from"):
        return compressor.compress_from(sender, delta, rng)
    return compressor.compress(delta, rng)


class EdgeServer:
    """One edge server and its associated clients ``N_e``."""

    def __init__(self, edge_id: int, clients: Sequence[Client]) -> None:
        if not clients:
            raise ValueError(f"edge server {edge_id} needs at least one client")
        self.edge_id = int(edge_id)
        self.clients = list(clients)

    @property
    def num_clients(self) -> int:
        """``N0`` for this area."""
        return len(self.clients)

    @property
    def num_samples(self) -> int:
        """Total training samples of the area's clients."""
        return sum(c.num_samples for c in self.clients)

    def model_update(self, engine: NeuralNetwork, w_start: np.ndarray, *,
                     tau1: int, tau2: int, lr: float,
                     projection: Projection = identity_projection,
                     checkpoint: tuple[int, int] | None = None,
                     tracker: CommunicationTracker | None = None,
                     weight_by_data: bool = False,
                     compressor=None,
                     comp_rng: np.random.Generator | None = None,
                     obs=None,
                     faults=None, round_index: int = 0,
                     backend=None,
                     defense=None,
                     timing=None,
                     roster: Sequence[Client] | None = None,
                     link: str = "client_edge",
                     ) -> tuple[np.ndarray, np.ndarray | None]:
        """Run the ModelUpdate procedure from global model ``w_start``.

        Parameters
        ----------
        tau1, tau2:
            Local SGD steps per block and client-edge aggregation blocks per round.
        checkpoint:
            The cloud-sampled ``(c1, c2)`` with ``c1 ∈ [1, τ1]``,
            ``c2 ∈ [0, τ2-1]``; ``None`` disables Part (b) (used by HierFAVG).
        tracker:
            Communication accounting; each aggregation block is one ``client_edge``
            sync cycle; checkpoint uploads ride along with the block-``c2`` upload.
        weight_by_data:
            ``False`` (HierMinimax, Eq. (5)'s uniform ``1/N0`` average — clients of
            an area share one distribution) or ``True`` (HierFAVG's FedAvg-style
            aggregation proportional to client dataset sizes, the ``q_n`` of
            Eq. (1)).
        compressor / comp_rng:
            Optional :class:`~repro.compression.Compressor` applied to client
            uploads — each client transmits a compressed *delta* against the
            block's broadcast model (the Hier-Local-QSGD extension).  Tracker
            float counts use the compressor's payload size.
        obs:
            Optional :class:`~repro.obs.Tracer`: each aggregation block is an
            ``edge_block`` span and each client invocation a
            ``client_local_steps`` span; local steps feed the
            ``sgd_steps_total`` counter.
        faults / round_index:
            Optional :class:`~repro.faults.FaultInjector` plus the cloud round
            it should be queried at.  Dropped clients (and uploads lost or
            quarantined in transit) are excluded from each block's aggregate,
            whose weights are renormalized over the survivors; stragglers
            contribute truncated updates (and miss the checkpoint snapshot
            when they time out before step ``c1``).  A block with zero
            survivors leaves the edge model unchanged.  With a disabled (or
            absent) injector every code path and floating-point operation is
            identical to the pre-fault implementation.
        backend:
            Optional :class:`~repro.exec.ExecutionBackend` running the block's
            client SGD loops (``None`` = serial).  Each block is one dispatch:
            fault decisions fix each client's step budget *before* dispatch,
            and compression / message faults / accounting are applied to the
            returned results afterwards, in client order — so every backend
            is bit-identical to serial (see :mod:`repro.exec.base`).
        defense:
            Optional active :class:`~repro.defense.RobustAggregator` (the
            ``edge`` tier of a :class:`~repro.defense.DefensePolicy`): each
            block's delivered client uploads are combined by the robust rule
            instead of the weighted mean, and rejected/clipped senders are
            reported through ``faults.suspect``.  ``None`` (empty slot or the
            reference mean) keeps the original inline accumulation.
        timing:
            Optional :class:`~repro.simtime.SimTimer`.  Each block charges a
            parallel client region (broadcast down, ``steps`` of compute, the
            upload back) on the virtual clock; the block's simulated duration
            is the max over its participating clients.  A straggler whose
            update was truncated at ``steps < τ1`` is charged at the plan's
            ``straggler_slowdown`` pace — the truncated update still occupies
            the device for (roughly) the full round deadline.  The charge is
            purely additive arithmetic: numerical results are unaffected.
        roster:
            Optional client list overriding the construction-time roster —
            the :mod:`repro.membership` layer passes the edge's *current*
            clients (survivors of churn plus adoptees of a failover).
            ``None`` (default) uses ``self.clients``, byte-identically.
        link:
            Name of the client uplink on the tracker, the virtual clock and
            the fault injector's message keys.

        Returns
        -------
        (w_edge, w_edge_checkpoint):
            The edge model after τ2 blocks, and the aggregated checkpoint model
            (``None`` when ``checkpoint`` is ``None``).
        """
        tau1 = check_positive_int(tau1, "tau1")
        tau2 = check_positive_int(tau2, "tau2")
        lr = check_positive_float(lr, "lr")
        injecting = faults is not None and faults.enabled
        c1: int | None = None
        c2: int | None = None
        if checkpoint is not None:
            c1, c2 = checkpoint
            if not 1 <= c1 <= tau1:
                raise ValueError(f"c1 must be in [1, {tau1}], got {c1}")
            if not 0 <= c2 < tau2:
                raise ValueError(f"c2 must be in [0, {tau2}), got {c2}")
        d = w_start.size
        clients = self.clients if roster is None else list(roster)
        if not clients:
            raise ValueError(f"edge server {self.edge_id} cannot run a model "
                             f"update with an empty roster")
        n0 = len(clients)
        if weight_by_data:
            agg_weights = np.array([c.num_samples for c in clients],
                                   dtype=np.float64)
            agg_weights /= agg_weights.sum()
        else:
            agg_weights = np.full(n0, 1.0 / n0)
        obs = obs if obs is not None else NULL_TRACER
        w_edge = np.array(w_start, dtype=np.float64, copy=True)
        w_ckpt: np.ndarray | None = None
        acc = np.empty(d, dtype=np.float64)
        for t2 in range(tau2):
            is_ckpt_block = c2 is not None and t2 == c2
            with obs.span("edge_block", edge=self.edge_id, block=t2):
                if tracker is not None:
                    # Edge broadcasts w_edge to its clients (model-sized, down).
                    tracker.record(link, "down", count=n0, floats=d)
                acc.fill(0.0)
                entries: list[tuple[str, float, np.ndarray]] | None = \
                    [] if defense is not None else None
                ckpt_entries: list[tuple[str, float, np.ndarray]] = []
                ckpt_acc = np.zeros(d, dtype=np.float64) if is_ckpt_block else None
                upload_floats = float(d) if compressor is None else \
                    compressor.payload_floats(d)
                live_weight = 0.0
                ckpt_weight = 0.0
                block_faulted = False
                ckpt_faulted = False
                # Decide every client's work up front (fault decisions are
                # pure functions of (seed, round, client), so fixing them
                # before dispatch changes no bit) ...
                work: list[ClientWork] = []
                participants: list[tuple[float, Client, int, bool]] = []
                for weight, client in zip(agg_weights, clients):
                    steps = tau1 if not injecting else faults.client_steps(
                        round_index, client.client_id, tau1)
                    if steps < 1:
                        # Dropout (or timed-out straggler): no upload at all.
                        block_faulted = True
                        ckpt_faulted = ckpt_faulted or is_ckpt_block
                        continue
                    takes_ckpt = is_ckpt_block and c1 <= steps
                    work.append(ClientWork(client, steps,
                                           c1 if takes_ckpt else None))
                    participants.append((weight, client, steps, takes_ckpt))
                # ... run the embarrassingly parallel region on the backend ...
                results = run_local_steps(
                    backend, engine, w_edge, work, lr=lr,
                    projection=projection, obs=obs) if work else []
                if timing is not None and timing.enabled:
                    # Price the block: clients work concurrently, so the block
                    # costs the slowest (down + compute + up) chain.
                    with timing.parallel(f"block:{t2}" if timing.record
                                         else None):
                        for weight, client, steps, takes_ckpt in participants:
                            scale = (faults.plan.straggler_slowdown
                                     if injecting and steps < tau1 else 1.0)
                            with timing.branch(
                                    f"client:{client.client_id}"
                                    if timing.record else None):
                                timing.transfer(link, client.client_id, d)
                                timing.compute(client.client_id, steps,
                                               scale=scale)
                                timing.transfer(
                                    link, client.client_id,
                                    upload_floats * (2 if takes_ckpt else 1))
                # ... then post-process in client order: compression, message
                # faults, accounting, and aggregation consume their own
                # streams/counters exactly as the serial loop did.
                for (weight, client, steps, takes_ckpt), result in zip(
                        participants, results):
                    w_end, w_c = result.w_end, result.w_checkpoint
                    if compressor is not None:
                        # Transmit compressed deltas against the broadcast model.
                        w_end = w_edge + _compress(compressor, client.client_id,
                                                   w_end - w_edge, comp_rng)
                        if w_c is not None:
                            w_c = w_edge + _compress(
                                compressor, client.client_id, w_c - w_edge,
                                comp_rng)
                    if tracker is not None:
                        # Client uploads its model (+ checkpoint when captured).
                        tracker.record(link, "up", count=1,
                                       floats=upload_floats * (2 if takes_ckpt
                                                               else 1))
                    if injecting:
                        delivered = faults.receive(
                            round_index, link,
                            f"client:{client.client_id}", w_end, w_c,
                            floats=upload_floats * (2 if takes_ckpt else 1),
                            tracker=tracker, ref=w_edge)
                        if delivered is None:
                            block_faulted = True
                            ckpt_faulted = ckpt_faulted or is_ckpt_block
                            continue
                        w_end, w_c = delivered
                    if entries is not None:
                        entries.append(
                            (f"client:{client.client_id}", weight, w_end))
                        if ckpt_acc is not None:
                            if w_c is not None:
                                ckpt_entries.append(
                                    (f"client:{client.client_id}", weight, w_c))
                            else:
                                ckpt_faulted = True
                        continue
                    acc += weight * w_end
                    live_weight += weight
                    if ckpt_acc is not None:
                        if w_c is not None:
                            ckpt_acc += weight * w_c
                            ckpt_weight += weight
                        else:
                            # Straggler that timed out before step c1.
                            ckpt_faulted = True
                if tracker is not None:
                    tracker.sync_cycle(link)
                if entries is not None:
                    # Robust block aggregation: the installed rule replaces
                    # the weighted client mean; both combines reference the
                    # block's broadcast model.
                    combined = robust_combine(
                        defense, entries, ref=w_edge, faults=faults,
                        round_index=round_index, link=link)
                    ckpt_combined = (None if ckpt_acc is None else
                                     robust_combine(defense, ckpt_entries,
                                                    ref=w_edge, faults=faults,
                                                    round_index=round_index,
                                                    link=link))
                    if combined is not None:
                        w_edge[:] = combined
                    elif injecting:
                        faults.degraded_round(
                            round_index, f"edge:{self.edge_id}:block:{t2}")
                    if ckpt_acc is not None:
                        if ckpt_combined is not None:
                            w_ckpt = ckpt_combined
                        else:
                            if injecting:
                                faults.checkpoint_fallback(
                                    round_index,
                                    f"edge:{self.edge_id}:block:{t2}")
                            w_ckpt = w_edge.copy()
                    continue
                if live_weight > 0.0:
                    if block_faulted:
                        # Renormalize over the surviving aggregation weight —
                        # only when a fault actually removed someone, so the
                        # healthy path's arithmetic is untouched.
                        acc /= live_weight
                    w_edge[:] = acc
                elif injecting:
                    # Zero survivors: the edge model carries over unchanged.
                    faults.degraded_round(round_index,
                                          f"edge:{self.edge_id}:block:{t2}")
                if ckpt_acc is not None:
                    if ckpt_weight > 0.0:
                        if ckpt_faulted:
                            ckpt_acc /= ckpt_weight
                        w_ckpt = ckpt_acc
                    elif injecting:
                        # Nobody could snapshot: fall back to the block result.
                        faults.checkpoint_fallback(
                            round_index, f"edge:{self.edge_id}:block:{t2}")
                        w_ckpt = w_edge.copy()
        return w_edge, w_ckpt

    def estimate_loss(self, engine: NeuralNetwork, w: np.ndarray, *,
                      tracker: CommunicationTracker | None = None,
                      faults=None, round_index: int = 0,
                      loss_clip: float | None = None,
                      timing=None,
                      roster: Sequence[Client] | None = None,
                      link: str = "client_edge") -> float | None:
        """LossEstimation: average the clients' minibatch losses at ``w``.

        With an active fault injector the average runs over the clients that
        actually replied (dropped-out clients stay silent; probe replies can be
        lost or corrupted in transit).  Returns ``None`` when *no* client
        replied — the caller falls back to a stale loss for this edge.

        ``loss_clip`` applies the score-damped update at this tier too: client
        reports are capped at ``loss_clip ×`` the cohort median *before* they
        enter the edge average, so one inflated report cannot poison the whole
        edge's score (the cloud-side clip over edge reports is blind to that —
        an attacked edge looks unanimous from above).  ``link`` names the
        client link as in :meth:`model_update`.
        """
        injecting = faults is not None and faults.enabled
        d = w.size
        clients = self.clients if roster is None else list(roster)
        if tracker is not None:
            tracker.record(link, "down", count=len(clients), floats=d)
        reports: dict[int, float] | None = {} if loss_clip is not None else None
        charge = timing is not None and timing.enabled
        probed: list[int] = []
        total = 0.0
        replied = 0
        for client in clients:
            if injecting and not faults.client_available(round_index,
                                                         client.client_id):
                continue
            loss = client.estimate_loss(engine, w)
            if charge:
                probed.append(client.client_id)
            if tracker is not None:
                tracker.record(link, "up", count=1, floats=1)
            if injecting:
                delivered = faults.receive(
                    round_index, link, f"client:{client.client_id}",
                    loss, floats=1.0, tracker=tracker)
                if delivered is None:
                    continue
                (loss,) = delivered
            if reports is not None:
                reports[client.client_id] = float(loss)
            total += loss
            replied += 1
        if charge:
            # Probes run concurrently: the estimate costs the slowest client's
            # (broadcast + forward pass + scalar reply) chain.  Clients whose
            # reply was lost in transit still did the work, so they count.
            with timing.parallel("probe_fanout"):
                for cid in probed:
                    with timing.branch(f"client:{cid}" if timing.record
                                       else None):
                        timing.transfer(link, cid, d)
                        timing.probe(cid)
                        timing.transfer(link, cid, 1)
        if tracker is not None:
            tracker.sync_cycle(link)
        if replied == 0:
            return None
        if reports is not None:
            clipped, ids, cap = clip_loss_reports(reports, loss_clip)
            if ids:
                if faults is not None:
                    for cid in ids:
                        faults.suspect(round_index, f"client:{cid}",
                                       action="loss_clipped",
                                       aggregator="loss_clip",
                                       cap=round(cap, 6))
                return sum(clipped.values()) / replied
        return total / replied

    def full_loss(self, engine: NeuralNetwork, w: np.ndarray) -> float:
        """Exact edge loss ``f_e(w)`` over all the area's data (theory/diagnostics)."""
        total = 0.0
        for client in self.clients:
            total += client.full_loss(engine, w)
        return total / self.num_clients

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeServer(id={self.edge_id}, clients={self.num_clients})"
