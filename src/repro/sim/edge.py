"""The cohort leg every tier of a round runs, and the edge-server actor.

Algorithm 1 runs one procedure at every tier: broadcast, let the children
work, collect what arrives over the faulty link, then average it by
Eqs. (5)/(6) — or, in Phase 2, average the children's loss reports.  The
two-layer baselines are the same procedure with clients talking straight to
the cloud.  This module writes it once:

* :func:`train_leg` — a cohort of clients runs local SGD from one model: each
  member's step budget is fixed from the fault plan, the cohort is one
  backend dispatch, the leg is priced on the virtual clock, then each upload
  is compressed, charged and delivered in member order;
* :func:`deliver` — one upload charged to the tracker and passed through the
  faulty link (the only caller of ``FaultInjector.receive``);
* :func:`combine` — the delivered uploads folded into the next model and
  checkpoint model: the policy's robust rule, else the in-order weighted sum;
* :func:`probe_leg`, :func:`clip_losses` and :func:`mean_loss` — Phase 2's
  client probes, the score-damped loss clip and the average of the reports.

An :class:`EdgeServer` owns the clients of its edge area and runs
:meth:`~EdgeServer.model_update` (Part (a): τ2 client-edge aggregation blocks
of τ1 local SGD steps; Part (b): the checkpoint aggregate at block ``c2``) and
:meth:`~EdgeServer.estimate_loss` (``f_e(w) = (1/N0) Σ_n f_n(w; ξ_n)``) from
these pieces; the cloud tier of every algorithm and the interior nodes of a
multi-layer tree call the same functions.
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

__all__ = ["EdgeServer", "train_leg", "deliver", "combine", "probe_leg",
           "clip_losses", "mean_loss"]


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


def deliver(faults, round_index: int, link: str, sender: str, *payloads,
            floats: float, tracker: CommunicationTracker | None = None,
            ref: np.ndarray | None = None):
    """Charge one upload of ``floats`` to ``tracker`` and pass it through the
    faulty link.

    Returns the delivered payloads, or ``None`` when the upload was lost
    after all retries or rejected by the payload guard (see
    :meth:`~repro.faults.FaultInjector.receive`).  Without an enabled
    injector the payloads pass through untouched.
    """
    if tracker is not None:
        tracker.record(link, "up", count=1, floats=floats)
    if faults is None or not faults.enabled:
        return payloads
    return faults.receive(round_index, link, sender, *payloads, floats=floats,
                          tracker=tracker, ref=ref)


def train_leg(engine: NeuralNetwork, w: np.ndarray, cohort: Sequence[Client],
              weights, *, tau1: int, lr: float, link: str,
              round_index: int = 0, checkpoint_step: int | None = None,
              projection: Projection = identity_projection,
              tracker: CommunicationTracker | None = None, faults=None,
              backend=None, obs=None, timing=None, compressor=None,
              comp_rng: np.random.Generator | None = None,
              down_floats: float | None = None, scope: str | None = None,
              ) -> tuple[list, list]:
    """One cohort's local training from ``w`` and its uploads over ``link``.

    Fault decisions are pure functions of ``(seed, round, client)``, so each
    member's step budget is fixed before the single backend dispatch: a
    dropout (budget 0) sends nothing, a straggler trains fewer than ``tau1``
    steps and snapshots the checkpoint only if it reaches
    ``checkpoint_step``.  With a virtual clock the leg costs its slowest
    member's (down + compute + up) chain, a straggler computing at the plan's
    ``straggler_slowdown`` pace; the ``scope`` label (and, with it,
    ``client:<id>`` branch labels) names the leg in a recorded timing tree.
    The results are then compressed (deltas against ``w``), charged and
    delivered in member order, which is the order ``comp_rng``, the
    per-sender message counters and the norm guard's cohort consume.

    Returns the delivered ``(sender, weight, w_end)`` entries and the
    ``(sender, weight, w_checkpoint)`` entries of the members that delivered
    a checkpoint snapshot, for :func:`combine`.
    """
    injecting = faults is not None and faults.enabled
    d = w.size
    work: list[ClientWork] = []
    kept = []
    for weight, client in zip(weights, cohort):
        steps = tau1 if not injecting else faults.client_steps(
            round_index, client.client_id, tau1)
        if steps < 1:
            continue
        snap = (checkpoint_step if checkpoint_step is not None
                and checkpoint_step <= steps else None)
        work.append(ClientWork(client, steps, snap))
        kept.append(weight)
    results = run_local_steps(backend, engine, w, work, lr=lr,
                              projection=projection, obs=obs) if work else []
    upload = float(d) if compressor is None else compressor.payload_floats(d)
    if timing is not None and timing.enabled:
        labelled = scope is not None and timing.record
        with timing.parallel(scope):
            for item in work:
                cid = item.client.client_id
                scale = (faults.plan.straggler_slowdown
                         if injecting and item.steps < tau1 else 1.0)
                with timing.branch(f"client:{cid}" if labelled else None):
                    timing.transfer(link, cid,
                                    d if down_floats is None else down_floats)
                    timing.compute(cid, item.steps, scale=scale)
                    timing.transfer(link, cid, upload * (
                        1 if item.checkpoint_after is None else 2))
    entries: list[tuple[str, float, np.ndarray]] = []
    ckpt_entries: list[tuple[str, float, np.ndarray]] = []
    for weight, item, result in zip(kept, work, results):
        cid = item.client.client_id
        w_end, w_c = result.w_end, result.w_checkpoint
        if compressor is not None:
            # Transmit compressed deltas against the broadcast model.
            w_end = w + _compress(compressor, cid, w_end - w, comp_rng)
            if w_c is not None:
                w_c = w + _compress(compressor, cid, w_c - w, comp_rng)
        sender = f"client:{cid}"
        delivered = deliver(faults, round_index, link, sender, w_end, w_c,
                            floats=upload * (1 if w_c is None else 2),
                            tracker=tracker, ref=w)
        if delivered is None:
            continue
        w_end, w_c = delivered
        entries.append((sender, weight, w_end))
        if w_c is not None:
            ckpt_entries.append((sender, weight, w_c))
    return entries, ckpt_entries


def _mix(w: np.ndarray, entries, aggregator, expected: int | None, faults,
         round_index: int, link: str) -> np.ndarray | None:
    """One aggregation rule over delivered entries (``None``: nothing came)."""
    if aggregator is not None:
        return robust_combine(aggregator, entries, ref=w, faults=faults,
                              round_index=round_index, link=link)
    if not entries:
        return None
    combined = np.zeros(w.size)
    total = 0.0
    for _, weight, vector in entries:
        combined += weight * vector
        total += weight
    if expected is None or len(entries) < expected:
        combined /= total
    return combined


def combine(w: np.ndarray, entries, ckpt_entries=None, *, stage: str,
            aggregator=None, expected: int | None = None, faults=None,
            round_index: int = 0, link: str = "",
            ) -> tuple[np.ndarray, np.ndarray | None]:
    """Eqs. (5)/(6) at one aggregation point: fold the delivered uploads
    into the next model and checkpoint model.

    ``entries`` are the delivered ``(sender, weight, vector)`` uploads in
    delivery order.  An active robust ``aggregator`` combines them (rejected
    or clipped senders are reported to ``faults``); otherwise they are summed
    in order and divided by their summed weight.  ``expected`` marks weights
    that already sum to one over a full cohort of that many senders (an edge
    block's ``1/N0`` or data shares): the sum is then divided only when fewer
    arrived.  Both rules reference the broadcast model ``w``.

    Returns ``(w_next, w_ckpt)``.  With nothing delivered ``w_next`` is ``w``
    and the round is recorded as degraded under ``stage``; ``w_ckpt`` is the
    combined ``ckpt_entries`` — ``w_next`` when none arrived (a checkpoint
    fallback under ``stage``), ``None`` when ``ckpt_entries`` is ``None``.
    """
    w_next = _mix(w, entries, aggregator, expected, faults, round_index, link)
    if w_next is None:
        if faults is not None:
            faults.degraded_round(round_index, stage)
        w_next = w
    if ckpt_entries is None:
        return w_next, None
    w_ckpt = _mix(w, ckpt_entries, aggregator, expected, faults, round_index,
                  link)
    if w_ckpt is None:
        if faults is not None:
            faults.checkpoint_fallback(round_index, stage)
        w_ckpt = w_next
    return w_next, w_ckpt


def probe_leg(engine: NeuralNetwork, w: np.ndarray, cohort: Sequence[Client],
              *, link: str, round_index: int = 0,
              tracker: CommunicationTracker | None = None, faults=None,
              timing=None, scope: str | None = None) -> dict[int, float]:
    """Phase-2 probes: each available member of ``cohort`` reports its
    minibatch loss at ``w`` over ``link``.

    Dropped-out members stay silent; replies can be lost or corrupted in
    transit.  Probes run concurrently, so with a virtual clock the fan-out
    costs the slowest (broadcast + forward pass + scalar reply) chain;
    members whose reply was lost still did the work and count.  Returns the
    delivered losses by client id, in member order.
    """
    injecting = faults is not None and faults.enabled
    probed: list[int] = []
    replies: dict[int, float] = {}
    for client in cohort:
        cid = client.client_id
        if injecting and not faults.client_available(round_index, cid):
            continue
        loss = client.estimate_loss(engine, w)
        probed.append(cid)
        delivered = deliver(faults, round_index, link, f"client:{cid}", loss,
                            floats=1.0, tracker=tracker)
        if delivered is not None:
            replies[cid] = delivered[0]
    if timing is not None and timing.enabled:
        labelled = scope is not None and timing.record
        with timing.parallel(scope):
            for cid in probed:
                with timing.branch(f"client:{cid}" if labelled else None):
                    timing.transfer(link, cid, w.size)
                    timing.probe(cid)
                    timing.transfer(link, cid, 1)
    return replies


def clip_losses(losses: dict, loss_clip: float | None, faults,
                round_index: int, prefix: str) -> dict:
    """Score-damped minimax update: cap reports at ``loss_clip ×`` their
    median, flagging each capped sender ``<prefix>:<key>`` to ``faults``.

    Returns ``losses`` itself (the same dict) without an active clip, so the
    healthy path stays bit-identical.
    """
    if loss_clip is None or not losses:
        return losses
    clipped, ids, cap = clip_loss_reports(losses, loss_clip)
    if faults is not None:
        for key in ids:
            faults.suspect(round_index, f"{prefix}:{key}",
                           action="loss_clipped", aggregator="loss_clip",
                           cap=round(cap, 6))
    return clipped


def mean_loss(losses: dict, loss_clip: float | None, faults,
              round_index: int, prefix: str) -> float | None:
    """LossEstimation's average of the delivered reports after the clip;
    ``None`` when nothing arrived (the caller falls back to a stale loss).

    Clipping at every tier below the cloud means one inflated report cannot
    poison its whole subtree's score — the cloud-side clip over edge reports
    is blind to that, since an attacked edge looks unanimous from above.
    """
    if not losses:
        return None
    total = 0.0
    for loss in clip_losses(losses, loss_clip, faults, round_index,
                            prefix).values():
        total += loss
    return total / len(losses)


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

        Each of the ``tau2`` blocks broadcasts the edge model, runs one
        :func:`train_leg` over the roster and folds the delivered uploads
        back with :func:`combine`.

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
            client SGD loops (``None`` = serial); each block is one dispatch,
            bit-identical on every backend (see :mod:`repro.exec.base`).
        defense:
            Optional active :class:`~repro.defense.RobustAggregator` (the
            ``edge`` tier of a :class:`~repro.defense.DefensePolicy`): each
            block's delivered client uploads are combined by the robust rule
            instead of the weighted mean, and rejected/clipped senders are
            reported through ``faults.suspect``.  ``None`` (empty slot or the
            reference mean) keeps the weighted sum.
        timing:
            Optional :class:`~repro.simtime.SimTimer`.  Each block charges a
            parallel client region (broadcast down, ``steps`` of compute, the
            upload back) on the virtual clock; see :func:`train_leg`.  The
            charge is purely additive arithmetic: numerical results are
            unaffected.
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
            weights = np.array([c.num_samples for c in clients],
                               dtype=np.float64)
            weights /= weights.sum()
        else:
            weights = np.full(n0, 1.0 / n0)
        obs = obs if obs is not None else NULL_TRACER
        w_edge = np.array(w_start, dtype=np.float64, copy=True)
        w_ckpt: np.ndarray | None = None
        for t2 in range(tau2):
            on_ckpt = t2 == c2
            with obs.span("edge_block", edge=self.edge_id, block=t2):
                if tracker is not None:
                    # Edge broadcasts w_edge to its clients (model-sized, down).
                    tracker.record(link, "down", count=n0, floats=d)
                entries, ckpt_entries = train_leg(
                    engine, w_edge, clients, weights, tau1=tau1, lr=lr,
                    link=link, round_index=round_index,
                    checkpoint_step=c1 if on_ckpt else None,
                    projection=projection, tracker=tracker, faults=faults,
                    backend=backend, obs=obs, timing=timing,
                    compressor=compressor, comp_rng=comp_rng,
                    scope=f"block:{t2}")
                if tracker is not None:
                    tracker.sync_cycle(link)
                w_edge, block_ckpt = combine(
                    w_edge, entries, ckpt_entries if on_ckpt else None,
                    stage=f"edge:{self.edge_id}:block:{t2}",
                    aggregator=defense, expected=n0, faults=faults,
                    round_index=round_index, link=link)
                if on_ckpt:
                    w_ckpt = block_ckpt
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
        actually replied (see :func:`probe_leg`).  Returns ``None`` when *no*
        client replied — the caller falls back to a stale loss for this edge.

        ``loss_clip`` applies the score-damped update at this tier too:
        client reports are capped at ``loss_clip ×`` the cohort median
        *before* they enter the edge average (see :func:`mean_loss`).
        ``link`` names the client link as in :meth:`model_update`.
        """
        clients = self.clients if roster is None else list(roster)
        if tracker is not None:
            tracker.record(link, "down", count=len(clients), floats=w.size)
        replies = probe_leg(engine, w, clients, link=link,
                            round_index=round_index, tracker=tracker,
                            faults=faults, timing=timing, scope="probe_fanout")
        if tracker is not None:
            tracker.sync_cycle(link)
        return mean_loss(replies, loss_clip, faults, round_index, "client")

    def full_loss(self, engine: NeuralNetwork, w: np.ndarray) -> float:
        """Exact edge loss ``f_e(w)`` over all the area's data (theory/diagnostics)."""
        total = 0.0
        for client in self.clients:
            total += client.full_loss(engine, w)
        return total / self.num_clients

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeServer(id={self.edge_id}, clients={self.num_clients})"
