"""DRFA (Deng, Kamani & Mahdavi, NeurIPS '20) — distributionally robust FedAvg.

The strongest two-layer minimax baseline: like Stochastic-AFL it optimizes
per-client weights ``q``, but clients run ``τ`` local SGD steps per round, and the
weight ascent uses a loss estimate at a *random checkpoint* — the average of the
clients' models snapshotted at a uniformly drawn step ``t' ∈ [τ]`` — with the step
scaled by ``τ``, keeping the ascent direction unbiased for the round's iterates.

HierMinimax with ``τ2 = 1`` reduces to this update pattern (remarks after
Theorems 1–2), which the test suite verifies.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import FederatedAlgorithm
from repro.data.dataset import FederatedDataset
from repro.exec import ClientWork, run_local_steps
from repro.nn.models import ModelFactory
from repro.ops.projections import Projection, project_simplex
from repro.sim.cloud import CloudServer
from repro.topology.sampling import sample_by_weight, sample_uniform_subset
from repro.utils.validation import check_fraction, check_positive_float, check_positive_int

__all__ = ["DRFA"]


class DRFA(FederatedAlgorithm):
    """Distributionally Robust Federated Averaging over a flat topology.

    Parameters
    ----------
    eta_q:
        Weight (ascent) learning rate.
    tau1:
        Local SGD steps per round (the paper's comparison uses 2).
    m_clients:
        Clients sampled per phase; defaults to full participation.
    projection_q:
        Projection onto the weight constraint set (default: probability simplex).
    **run:
        Everything :class:`~repro.core.base.FederatedAlgorithm` accepts.
    """

    name = "drfa"
    is_minimax = True
    uses_hierarchy = False

    def __init__(self, dataset: FederatedDataset, model_factory: ModelFactory, *,
                 eta_q: float = 1e-3, tau1: int = 2, m_clients: int | None = None,
                 projection_q: Projection | None = None, **run) -> None:
        super().__init__(dataset, model_factory, **run)
        self.eta_q = check_positive_float(eta_q, "eta_q")
        self.tau1 = check_positive_int(tau1, "tau1")
        n = self.dataset.num_clients
        self.m_clients = n if m_clients is None else check_positive_int(
            m_clients, "m_clients")
        check_fraction(self.m_clients, n, "m_clients")
        self.clients = self._build_clients()
        # Flat topology: client arrivals/departures only (no edges to fail).
        self.membership.bind_flat(self.clients)
        self.cloud = CloudServer(
            n, weight_projection=projection_q if projection_q is not None
            else project_simplex)
        self.q: np.ndarray = self.cloud.initial_weights()
        self._last_losses: dict[int, float] = {}

    @property
    def slots_per_round(self) -> int:
        """``τ1`` local steps per round."""
        return self.tau1

    def current_weights(self) -> np.ndarray:
        """The per-client mixing weights ``q^(k)``."""
        return self.q

    # ---------------------------------------------------------- checkpointing
    def _extra_state(self) -> dict:
        return {"q": self.q,
                "last_losses": {str(k): v
                                for k, v in self._last_losses.items()}}

    def _restore_extra(self, extra: dict) -> None:
        self.q = np.asarray(extra["q"], dtype=np.float64)
        self._last_losses = {int(k): float(v)
                             for k, v in extra.get("last_losses", {}).items()}

    def run_round(self, round_index: int) -> None:
        """One DRFA round: τ1 local steps with a random checkpoint, then q ascent."""
        d = self.w.size
        obs = self.obs
        faults = self.faults
        injecting = faults.enabled
        sampled = sample_by_weight(self.q, self.m_clients, self.rng)
        # Checkpoint step t' uniform in {1, ..., tau1}.
        t_prime = int(self.rng.integers(1, self.tau1 + 1))
        with obs.span("phase1_model_update", round=round_index,
                      sampled_clients=len(sampled), t_prime=t_prime):
            self.tracker.record("client_cloud", "down",
                                count=len(set(sampled.tolist())),
                                floats=d + 1)
            entries: list[tuple[str, float, np.ndarray]] = []
            ckpt_entries: list[tuple[str, float, np.ndarray]] = []
            # Sampling is with replacement: the same client may appear twice;
            # the dispatcher chains duplicate occurrences so its minibatch
            # stream advances exactly as this loop used to advance it.
            work: list[ClientWork] = []
            membership = self.membership
            for i in sampled:
                client = self.clients[int(i)]
                if membership.enabled and not membership.client_active(
                        client.client_id):
                    continue
                steps = self.tau1 if not injecting else faults.client_steps(
                    round_index, client.client_id, self.tau1)
                if steps < 1:
                    continue
                work.append(ClientWork(
                    client, steps,
                    t_prime if t_prime <= steps else None))
            results = run_local_steps(
                self.backend, self.engine, self.w, work, lr=self.eta_w,
                projection=self.projection_w, obs=obs) if work else []
            timing = self.timing
            if timing.enabled:
                # Sampled clients run concurrently; the checkpoint snapshot
                # rides along with the round-final upload.
                with timing.parallel():
                    for item in work:
                        cid = item.client.client_id
                        scale = (faults.plan.straggler_slowdown
                                 if injecting and item.steps < self.tau1
                                 else 1.0)
                        with timing.branch():
                            timing.transfer("client_cloud", cid, d + 1)
                            timing.compute(cid, item.steps, scale=scale)
                            timing.transfer(
                                "client_cloud", cid,
                                (2 if item.checkpoint_after is not None
                                 else 1) * d)
            for item, result in zip(work, results):
                client = item.client
                takes_ckpt = item.checkpoint_after is not None
                w_end, w_ckpt = result.w_end, result.w_checkpoint
                self.tracker.record("client_cloud", "up", count=1,
                                    floats=(2 if takes_ckpt else 1) * d)
                if injecting:
                    delivered = faults.receive(
                        round_index, "client_cloud",
                        f"client:{client.client_id}", w_end, w_ckpt,
                        floats=(2 if takes_ckpt else 1) * d,
                        tracker=self.tracker, ref=self.w)
                    if delivered is None:
                        continue
                    w_end, w_ckpt = delivered
                entries.append((f"client:{client.client_id}", 1.0, w_end))
                if w_ckpt is not None:
                    ckpt_entries.append(
                        (f"client:{client.client_id}", 1.0, w_ckpt))
            self.tracker.sync_cycle("client_cloud")
            # Eq. (5)-style mean (or the robust rule) for both the round
            # model and the random-checkpoint model.
            w_ref = self.w
            combined = self._combine(round_index, entries, ref=w_ref,
                                     link="client_cloud")
            if combined is not None:
                self.w = combined
            w_checkpoint = self._combine(round_index, ckpt_entries, ref=w_ref,
                                         link="client_cloud", checkpoint=True)
            if w_checkpoint is None:
                w_checkpoint = self.w

        # Weight ascent phase at the checkpoint model, scaled by tau1.
        with obs.span("phase2_weight_update", round=round_index):
            probed = sample_uniform_subset(len(self.clients), self.m_clients,
                                           self.rng)
            self.tracker.record("client_cloud", "down", count=len(probed),
                                floats=d)
            losses: dict[int, float] = {}
            timing = self.timing
            with timing.parallel():
                for i in probed:
                    cid = int(i)
                    client = self.clients[cid]
                    est: float | None = None
                    with timing.branch():
                        if (membership.client_active(cid)
                                and (not injecting
                                     or faults.client_available(round_index,
                                                                cid))):
                            if timing.enabled:
                                timing.transfer("client_cloud", cid, d)
                                timing.probe(cid)
                                timing.transfer("client_cloud", cid, 1)
                            est = client.estimate_loss(self.engine,
                                                       w_checkpoint)
                            self.tracker.record("client_cloud", "up", count=1,
                                                floats=1)
                            if injecting:
                                delivered = faults.receive(
                                    round_index, "client_cloud",
                                    f"client:{cid}", est,
                                    floats=1.0, tracker=self.tracker)
                                est = None if delivered is None else delivered[0]
                    if est is None:
                        stale = self._last_losses.get(cid)
                        if stale is not None:
                            faults.stale_loss(round_index, f"client:{cid}",
                                              stale)
                            losses[cid] = stale
                        continue
                    losses[cid] = est
            self.tracker.sync_cycle("client_cloud")
            losses = self._clip_losses(round_index, losses, "client")
            if losses:
                self._last_losses.update(losses)
                obs.gauge("worst_client_loss", max(losses.values()))
                v = self.cloud.build_loss_vector(losses)
                self.q = self.cloud.update_weights(self.q, v, eta_p=self.eta_q,
                                                   tau1=self.tau1)
            else:
                faults.degraded_round(round_index, "phase2_weight_update")
