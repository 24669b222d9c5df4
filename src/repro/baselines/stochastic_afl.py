"""Stochastic-AFL (Mohri et al., ICML '19) — two-layer agnostic federated learning.

Solves the minimax problem (2) over per-client weights ``q`` with *single-step*
local updates: each round the cloud samples ``m`` clients by ``q``, each takes one
SGD step from the global model, and the cloud averages; it then samples a fresh
uniform subset, collects loss estimates at the new model, and takes a projected
ascent step on ``q``.  It is the ``τ1 = τ2 = 1`` communication-heavy extreme that
HierMinimax generalizes (see the remark after Theorem 1).
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

__all__ = ["StochasticAFL"]


class StochasticAFL(FederatedAlgorithm):
    """Stochastic Agnostic Federated Learning over a flat client-cloud topology.

    Parameters
    ----------
    eta_q:
        Weight (ascent) learning rate.
    m_clients:
        Clients sampled per phase; defaults to full participation.
    projection_q:
        Projection onto the weight constraint set (default: probability simplex).
    **run:
        Everything :class:`~repro.core.base.FederatedAlgorithm` accepts.
    """

    name = "stochastic_afl"
    is_minimax = True
    uses_hierarchy = False

    def __init__(self, dataset: FederatedDataset, model_factory: ModelFactory, *,
                 eta_q: float = 1e-3, m_clients: int | None = None,
                 projection_q: Projection | None = None, **run) -> None:
        super().__init__(dataset, model_factory, **run)
        self.eta_q = check_positive_float(eta_q, "eta_q")
        n = self.dataset.num_clients
        self.m_clients = n if m_clients is None else check_positive_int(
            m_clients, "m_clients")
        check_fraction(self.m_clients, n, "m_clients")
        self.clients = self._build_clients()
        # Flat topology: client arrivals/departures only (no edges to fail).
        self.membership.bind_flat(self.clients)
        # The "cloud" here aggregates over clients; reuse CloudServer with N slots.
        self.cloud = CloudServer(
            n, weight_projection=projection_q if projection_q is not None
            else project_simplex)
        self.q: np.ndarray = self.cloud.initial_weights()
        self._last_losses: dict[int, float] = {}

    @property
    def slots_per_round(self) -> int:
        """Single-step local updates: one slot per round."""
        return 1

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
        """One AFL round: q-sampled single-step model update, then q ascent."""
        d = self.w.size
        obs = self.obs
        faults = self.faults
        injecting = faults.enabled
        # Model update phase.
        sampled = sample_by_weight(self.q, self.m_clients, self.rng)
        with obs.span("phase1_model_update", round=round_index,
                      sampled_clients=len(sampled)):
            self.tracker.record("client_cloud", "down",
                                count=len(set(sampled.tolist())), floats=d)
            entries: list[tuple[str, float, np.ndarray]] = []
            # With-replacement sampling: duplicates chain in the dispatcher.
            work: list[ClientWork] = []
            membership = self.membership
            for i in sampled:
                client = self.clients[int(i)]
                if membership.enabled and not membership.client_active(
                        client.client_id):
                    continue
                # Single-step rounds: a straggler that cannot finish its one
                # step within the round is a dropout.
                steps = 1 if not injecting else faults.client_steps(
                    round_index, client.client_id, 1)
                if steps < 1:
                    continue
                work.append(ClientWork(client, 1))
            results = run_local_steps(
                self.backend, self.engine, self.w, work, lr=self.eta_w,
                projection=self.projection_w, obs=obs) if work else []
            timing = self.timing
            if timing.enabled:
                # Single-step rounds still pay the full round trip per client.
                with timing.parallel():
                    for item in work:
                        cid = item.client.client_id
                        with timing.branch():
                            timing.transfer("client_cloud", cid, d)
                            timing.compute(cid, 1)
                            timing.transfer("client_cloud", cid, d)
            for item, result in zip(work, results):
                client, w_end = item.client, result.w_end
                self.tracker.record("client_cloud", "up", count=1, floats=d)
                if injecting:
                    delivered = faults.receive(
                        round_index, "client_cloud",
                        f"client:{client.client_id}", w_end, floats=d,
                        tracker=self.tracker, ref=self.w)
                    if delivered is None:
                        continue
                    (w_end,) = delivered
                entries.append((f"client:{client.client_id}", 1.0, w_end))
            self.tracker.sync_cycle("client_cloud")
            combined = self._combine(round_index, entries, ref=self.w,
                                     link="client_cloud")
            if combined is not None:
                self.w = combined

        # Weight update phase: loss estimation at the fresh global model.
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
                            est = self.clients[cid].estimate_loss(self.engine,
                                                                  self.w)
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
                self.q = self.cloud.update_weights(self.q, v, eta_p=self.eta_q)
            else:
                faults.degraded_round(round_index, "phase2_weight_update")
