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
* :func:`fan_out` — one down-link broadcast charged to the tracker for the
  recipients its sender can reach (the only place a broadcast is charged);
* :func:`deliver` — one upload charged to the tracker and passed through the
  faulty link (the only caller of ``FaultInjector.receive``);
* :func:`combine` — the delivered uploads folded into the next model and
  checkpoint model: the policy's robust rule, else the in-order weighted sum;
* :func:`probe_leg`, :func:`clip_losses` and :func:`mean_loss` — Phase 2's
  client probes, the score-damped loss clip and the average of the reports.

Each takes the round's :class:`RoundContext`: the round index, the model step
and the run's sinks as one object.

An :class:`EdgeServer` owns the clients of its edge area and runs
:meth:`~EdgeServer.model_update` (Part (a): τ2 client-edge aggregation blocks
of τ1 local SGD steps; Part (b): the checkpoint aggregate at block ``c2``) and
:meth:`~EdgeServer.estimate_loss` (``f_e(w) = (1/N0) Σ_n f_n(w; ξ_n)``) from
these pieces; the cloud tier of every algorithm and the interior nodes of a
multi-layer tree call the same functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.defense.policy import clip_loss_reports, robust_combine
from repro.exec.dispatch import ClientWork, run_local_steps
from repro.nn.network import NeuralNetwork
from repro.ops.projections import Projection
from repro.sim.client import Client
from repro.topology.comm import CommunicationTracker
from repro.utils.validation import check_positive_float, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compression import Compressor
    from repro.defense.aggregators import RobustAggregator
    from repro.exec.base import ExecutionBackend
    from repro.faults.injector import FaultInjector
    from repro.obs.tracer import NullTracer, Tracer
    from repro.simtime.null import NullTiming
    from repro.simtime.timeline import SimTimer

__all__ = ["RoundContext", "EdgeServer", "fan_out", "quarantined",
           "train_leg", "deliver", "combine", "probe_leg", "clip_losses",
           "mean_loss"]


@dataclass(frozen=True, slots=True)
class RoundContext:
    """What every leg of one cloud round shares: the round, the model step
    and the run's sinks.

    :meth:`~repro.core.base.FederatedAlgorithm._round` builds one per round
    from the sinks the algorithm's constructor resolved; every tier's legs
    take it whole.  Only the aggregators, ``loss_clip`` and the compressor
    (with ``comp_rng``) may be ``None``; every sink is always present, a
    disabled one being its no-op.

    Attributes
    ----------
    round_index:
        The cloud round: the key of every fault decision and trace event.
    engine, lr, projection:
        The shared compute engine, the model learning rate ``η_w`` and the
        projection onto ``W`` applied after each local SGD step.
    backend:
        The :class:`~repro.exec.ExecutionBackend` running each cohort's
        client SGD loops: one dispatch per leg, bit-identical on every
        backend (see :mod:`repro.exec.base`).
    tracker:
        The :class:`~repro.topology.comm.CommunicationTracker` charged for
        every broadcast, upload and sync cycle.
    faults:
        The run's :class:`~repro.faults.FaultInjector`: client step budgets
        (a dropout trains nothing, a straggler fewer than ``τ1`` steps and
        misses a later checkpoint), probe availability, and each upload's
        passage through the faulty link.  A disabled injector answers every
        query as a healthy run does.
    obs:
        The :class:`~repro.obs.Tracer`: each aggregation block is an
        ``edge_block`` span, each client invocation a ``client_local_steps``
        span, and local steps feed ``sgd_steps_total``.
    timing:
        The virtual clock, a :class:`~repro.simtime.SimTimer` or the no-op
        :data:`~repro.simtime.NULL_TIMING`: each leg charges its broadcast,
        compute and upload.  Pure arithmetic on the clock; no result
        depends on it.
    edge_agg, cloud_agg:
        The defense policy's active robust rule below the cloud and at the
        cloud (``None``: the in-order weighted mean).  Rejected or clipped
        senders are reported to ``faults``.
    loss_clip:
        The score-damped loss clip factor (``None``: reports pass unclipped).
    compressor, comp_rng:
        The :class:`~repro.compression.Compressor` applied to uploads as
        deltas against the receiver's broadcast model (``None``: full
        precision), and the stream its random quantization draws from.
    """

    round_index: int
    engine: NeuralNetwork
    lr: float
    projection: Projection
    backend: ExecutionBackend
    tracker: CommunicationTracker
    faults: FaultInjector
    obs: Tracer | NullTracer
    timing: SimTimer | NullTiming
    edge_agg: RobustAggregator | None
    cloud_agg: RobustAggregator | None
    loss_clip: float | None
    compressor: Compressor | None
    comp_rng: np.random.Generator | None


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


def fan_out(ctx: RoundContext, link: str, recipients: Iterable[int], *,
            floats: float,
            unreachable: Callable[[int], bool] | None = None) -> list[int]:
    """Charge one down-link broadcast of ``floats`` to each distinct
    recipient its sender can reach, and return those recipients.

    ``unreachable`` names the recipients the sender knows cannot take part
    this round (the cloud's rule is
    :meth:`~repro.core.engine.RoundEngine._unreachable`, the edge
    tier's :func:`quarantined`); they are sent nothing and charged nothing,
    just as the virtual clock prices them no leg.  ``None`` charges every
    recipient.  Recipients the sender cannot know about this round — a
    fault-plan outage, a dropout, a message lost later — stay charged,
    because the broadcast went out.  With no recipient left nothing is
    charged.
    """
    live = [key for key in dict.fromkeys(recipients)
            if unreachable is None or not unreachable(key)]
    if live:
        ctx.tracker.record(link, "down", count=len(live), floats=floats)
    return live


def quarantined(faults: FaultInjector, kind: str) -> Callable[[int], bool]:
    """The :func:`fan_out` rule of a tier that knows only the injector's
    quarantine set: recipient ``key`` is unreachable once ``<kind>:<key>``
    has been quarantined as a sender (it then trains and answers nothing)."""
    gone = faults.quarantined
    return lambda key: f"{kind}:{key}" in gone


def deliver(ctx: RoundContext, link: str, sender: str, *payloads,
            floats: float, ref: np.ndarray | None = None):
    """Charge one upload of ``floats`` to the tracker and pass it through the
    faulty link.

    Returns the delivered payloads, or ``None`` when the upload was lost
    after all retries or rejected by the payload guard (see
    :meth:`~repro.faults.FaultInjector.receive`).  Without an enabled
    injector the payloads pass through untouched.
    """
    ctx.tracker.record(link, "up", count=1, floats=floats)
    if not ctx.faults.enabled:
        # Fault-free runs never enter the faulty link.
        return payloads
    return ctx.faults.receive(ctx.round_index, link, sender, *payloads,
                              floats=floats, tracker=ctx.tracker, ref=ref)


def train_leg(ctx: RoundContext, w: np.ndarray, cohort: Sequence[Client],
              weights, *, tau1: int, link: str,
              checkpoint_step: int | None = None,
              down_floats: float | None = None, scope: str | None = None,
              ) -> tuple[list, list]:
    """One cohort's local training from ``w`` and its uploads over ``link``.

    Fault decisions are pure functions of ``(seed, round, client)``, so each
    member's step budget is fixed before the single backend dispatch: a
    dropout (budget 0) sends nothing, a straggler trains fewer than ``tau1``
    steps and snapshots the checkpoint only if it reaches
    ``checkpoint_step``.  With a virtual clock the leg costs its slowest
    member's (down + compute + up) chain, a straggler computing at the plan's
    ``straggler_slowdown`` pace; ``down_floats`` overrides the model-sized
    broadcast, and the ``scope`` label (and, with it, ``client:<id>`` branch
    labels) names the leg in a recorded timing tree.  The results are then
    compressed (deltas against ``w``), charged and delivered in member
    order, which is the order ``comp_rng``, the per-sender message counters
    and the norm guard's cohort consume.

    Returns the delivered ``(sender, weight, w_end)`` entries and the
    ``(sender, weight, w_checkpoint)`` entries of the members that delivered
    a checkpoint snapshot, for :func:`combine`.
    """
    faults = ctx.faults
    timing = ctx.timing
    compressor = ctx.compressor
    d = w.size
    work: list[ClientWork] = []
    kept = []
    for weight, client in zip(weights, cohort):
        steps = faults.client_steps(ctx.round_index, client.client_id, tau1)
        if steps < 1:
            continue
        snap = (checkpoint_step if checkpoint_step is not None
                and checkpoint_step <= steps else None)
        work.append(ClientWork(client, steps, snap))
        kept.append(weight)
    results = run_local_steps(ctx.backend, ctx.engine, w, work, lr=ctx.lr,
                              projection=ctx.projection,
                              obs=ctx.obs) if work else []
    upload = float(d) if compressor is None else compressor.payload_floats(d)
    if timing.enabled:
        labelled = scope is not None and timing.record
        with timing.parallel(scope):
            for item in work:
                cid = item.client.client_id
                scale = (faults.plan.straggler_slowdown
                         if item.steps < tau1 else 1.0)
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
            w_end = w + _compress(compressor, cid, w_end - w, ctx.comp_rng)
            if w_c is not None:
                w_c = w + _compress(compressor, cid, w_c - w, ctx.comp_rng)
        sender = f"client:{cid}"
        delivered = deliver(ctx, link, sender, w_end, w_c,
                            floats=upload * (1 if w_c is None else 2), ref=w)
        if delivered is None:
            continue
        w_end, w_c = delivered
        entries.append((sender, weight, w_end))
        if w_c is not None:
            ckpt_entries.append((sender, weight, w_c))
    return entries, ckpt_entries


def _mix(ctx: RoundContext, w: np.ndarray, entries, aggregator,
         expected: int | None, link: str) -> np.ndarray | None:
    """One aggregation rule over delivered entries (``None``: nothing came)."""
    if aggregator is not None:
        return robust_combine(aggregator, entries, ref=w, faults=ctx.faults,
                              round_index=ctx.round_index, link=link)
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


def combine(ctx: RoundContext, w: np.ndarray, entries, ckpt_entries=None, *,
            stage: str, aggregator=None, expected: int | None = None,
            link: str = "") -> tuple[np.ndarray, np.ndarray | None]:
    """Eqs. (5)/(6) at one aggregation point: fold the delivered uploads
    into the next model and checkpoint model.

    ``entries`` are the delivered ``(sender, weight, vector)`` uploads in
    delivery order.  An active robust ``aggregator`` (the context's
    ``edge_agg`` or ``cloud_agg``) combines them; otherwise they are summed
    in order and divided by their summed weight.  ``expected`` marks weights
    that already sum to one over a full cohort of that many senders (an edge
    block's ``1/N0`` or data shares): the sum is then divided only when fewer
    arrived.  Both rules reference the broadcast model ``w``.

    Returns ``(w_next, w_ckpt)``.  With nothing delivered ``w_next`` is ``w``
    and the round is recorded as degraded under ``stage``; ``w_ckpt`` is the
    combined ``ckpt_entries`` — ``w_next`` when none arrived (a checkpoint
    fallback under ``stage``), ``None`` when ``ckpt_entries`` is ``None``.
    """
    w_next = _mix(ctx, w, entries, aggregator, expected, link)
    if w_next is None:
        ctx.faults.degraded_round(ctx.round_index, stage)
        w_next = w
    if ckpt_entries is None:
        return w_next, None
    w_ckpt = _mix(ctx, w, ckpt_entries, aggregator, expected, link)
    if w_ckpt is None:
        ctx.faults.checkpoint_fallback(ctx.round_index, stage)
        w_ckpt = w_next
    return w_next, w_ckpt


def probe_leg(ctx: RoundContext, w: np.ndarray, cohort: Sequence[Client], *,
              link: str, scope: str | None = None) -> dict[int, float]:
    """Phase-2 probes: each available member of ``cohort`` reports its
    minibatch loss at ``w`` over ``link``.

    Dropped-out members stay silent; replies can be lost or corrupted in
    transit.  Probes run concurrently, so with a virtual clock the fan-out
    costs the slowest (broadcast + forward pass + scalar reply) chain;
    members whose reply was lost still did the work and count.  Returns the
    delivered losses by client id, in member order.
    """
    faults = ctx.faults
    timing = ctx.timing
    probed: list[int] = []
    replies: dict[int, float] = {}
    for client in cohort:
        cid = client.client_id
        if not faults.client_available(ctx.round_index, cid):
            continue
        loss = client.estimate_loss(ctx.engine, w)
        probed.append(cid)
        delivered = deliver(ctx, link, f"client:{cid}", loss, floats=1.0)
        if delivered is not None:
            replies[cid] = delivered[0]
    if timing.enabled:
        labelled = scope is not None and timing.record
        with timing.parallel(scope):
            for cid in probed:
                with timing.branch(f"client:{cid}" if labelled else None):
                    timing.transfer(link, cid, w.size)
                    timing.probe(cid)
                    timing.transfer(link, cid, 1)
    return replies


def clip_losses(ctx: RoundContext, losses: dict, prefix: str) -> dict:
    """Score-damped minimax update: cap reports at ``loss_clip ×`` their
    median, flagging each capped sender ``<prefix>:<key>`` to ``faults``.

    Returns ``losses`` itself (the same dict) without an active clip, so the
    healthy path stays bit-identical.
    """
    if ctx.loss_clip is None or not losses:
        return losses
    clipped, ids, cap = clip_loss_reports(losses, ctx.loss_clip)
    for key in ids:
        ctx.faults.suspect(ctx.round_index, f"{prefix}:{key}",
                           action="loss_clipped", aggregator="loss_clip",
                           cap=round(cap, 6))
    return clipped


def mean_loss(ctx: RoundContext, losses: dict, prefix: str) -> float | None:
    """LossEstimation's average of the delivered reports after the clip;
    ``None`` when nothing arrived (the caller falls back to a stale loss).

    Clipping at every tier below the cloud means one inflated report cannot
    poison its whole subtree's score — the cloud-side clip over edge reports
    is blind to that, since an attacked edge looks unanimous from above.
    """
    if not losses:
        return None
    total = 0.0
    for loss in clip_losses(ctx, losses, prefix).values():
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

    def model_update(self, ctx: RoundContext, w_start: np.ndarray, *,
                     tau1: int, tau2: int,
                     checkpoint: tuple[int, int] | None = None,
                     weight_by_data: bool = False,
                     roster: Sequence[Client] | None = None,
                     link: str = "client_edge",
                     ) -> tuple[np.ndarray, np.ndarray | None]:
        """Run the ModelUpdate procedure from global model ``w_start``.

        Each of the ``tau2`` blocks broadcasts the edge model (charged by
        :func:`fan_out` to the roster's unquarantined members), runs one
        :func:`train_leg` over the roster and folds the delivered uploads
        back with :func:`combine` under the context's ``edge_agg``.  Each
        block is one ``edge_block`` span and one sync cycle on ``link``;
        checkpoint uploads ride along with the block-``c2`` upload.  Dropped
        clients (and uploads lost or quarantined in transit) leave the
        block's aggregate, whose weights are renormalized over the
        survivors; a block with zero survivors leaves the edge model
        unchanged.

        Parameters
        ----------
        tau1, tau2:
            Local SGD steps per block and client-edge aggregation blocks per round.
        checkpoint:
            The cloud-sampled ``(c1, c2)`` with ``c1 ∈ [1, τ1]``,
            ``c2 ∈ [0, τ2-1]``; ``None`` disables Part (b) (used by HierFAVG).
        weight_by_data:
            ``False`` (HierMinimax, Eq. (5)'s uniform ``1/N0`` average — clients of
            an area share one distribution) or ``True`` (HierFAVG's FedAvg-style
            aggregation proportional to client dataset sizes, the ``q_n`` of
            Eq. (1)).
        roster:
            Optional client list overriding the construction-time roster —
            the :mod:`repro.membership` layer passes the edge's *current*
            clients (survivors of churn plus adoptees of a failover).
            ``None`` (default) uses ``self.clients``.
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
        check_positive_float(ctx.lr, "lr")
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
        ids = [c.client_id for c in clients]
        gone = quarantined(ctx.faults, "client")
        w_edge = np.array(w_start, dtype=np.float64, copy=True)
        w_ckpt: np.ndarray | None = None
        for t2 in range(tau2):
            on_ckpt = t2 == c2
            with ctx.obs.span("edge_block", edge=self.edge_id, block=t2):
                # Edge broadcasts w_edge to its clients (model-sized, down).
                fan_out(ctx, link, ids, floats=d, unreachable=gone)
                entries, ckpt_entries = train_leg(
                    ctx, w_edge, clients, weights, tau1=tau1, link=link,
                    checkpoint_step=c1 if on_ckpt else None,
                    scope=f"block:{t2}")
                ctx.tracker.sync_cycle(link)
                w_edge, block_ckpt = combine(
                    ctx, w_edge, entries, ckpt_entries if on_ckpt else None,
                    stage=f"edge:{self.edge_id}:block:{t2}",
                    aggregator=ctx.edge_agg, expected=n0, link=link)
                if on_ckpt:
                    w_ckpt = block_ckpt
        return w_edge, w_ckpt

    def estimate_loss(self, ctx: RoundContext, w: np.ndarray, *,
                      roster: Sequence[Client] | None = None,
                      link: str = "client_edge") -> float | None:
        """LossEstimation: average the clients' minibatch losses at ``w``.

        The average runs over the clients that actually replied (see
        :func:`probe_leg`), each report capped by the context's
        ``loss_clip`` before it enters the edge average (see
        :func:`mean_loss`).  Returns ``None`` when *no* client replied — the
        caller falls back to a stale loss for this edge.  ``roster`` and
        ``link`` are as in :meth:`model_update`.
        """
        clients = self.clients if roster is None else list(roster)
        fan_out(ctx, link, [c.client_id for c in clients], floats=w.size,
                unreachable=quarantined(ctx.faults, "client"))
        replies = probe_leg(ctx, w, clients, link=link, scope="probe_fanout")
        ctx.tracker.sync_cycle(link)
        return mean_loss(ctx, replies, "client")

    def full_loss(self, engine: NeuralNetwork, w: np.ndarray) -> float:
        """Exact edge loss ``f_e(w)`` over all the area's data (theory/diagnostics)."""
        total = 0.0
        for client in self.clients:
            total += client.full_loss(engine, w)
        return total / self.num_clients

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeServer(id={self.edge_id}, clients={self.num_clients})"
