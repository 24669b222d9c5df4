"""FedAvg (McMahan et al., AISTATS '17) — the standard two-layer FL baseline.

Solves the minimization problem (1) with ``q_n`` proportional to client data sizes:
each round the cloud samples ``m`` clients uniformly, broadcasts the global model,
each sampled client runs ``τ1`` local SGD steps, and the cloud averages the returns
weighted by local dataset size.  No edge servers, no mixing-weight updates — the
fairness-blind control of the paper's figures.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import FederatedAlgorithm
from repro.data.dataset import FederatedDataset
from repro.exec import ClientWork, run_local_steps
from repro.nn.models import ModelFactory
from repro.topology.sampling import sample_uniform_subset
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["FedAvg"]


class FedAvg(FederatedAlgorithm):
    """Federated Averaging over a flat client-cloud topology.

    Parameters
    ----------
    tau1:
        Local SGD steps per round (the paper's comparison uses 2).
    m_clients:
        Clients sampled per round; defaults to full participation.
    weight_by_data:
        Aggregate proportionally to client dataset sizes (the q_n of Eq. (1));
        ``False`` uses a plain mean.
    **run:
        Everything :class:`~repro.core.base.FederatedAlgorithm` accepts.
    """

    name = "fedavg"
    is_minimax = False
    uses_hierarchy = False

    def __init__(self, dataset: FederatedDataset, model_factory: ModelFactory, *,
                 tau1: int = 2, m_clients: int | None = None,
                 weight_by_data: bool = True, **run) -> None:
        super().__init__(dataset, model_factory, **run)
        self.tau1 = check_positive_int(tau1, "tau1")
        n = self.dataset.num_clients
        self.m_clients = n if m_clients is None else check_positive_int(
            m_clients, "m_clients")
        check_fraction(self.m_clients, n, "m_clients")
        self.weight_by_data = bool(weight_by_data)
        self.clients = self._build_clients()
        # Flat topology: client arrivals/departures only (no edges to fail).
        self.membership.bind_flat(self.clients)

    @property
    def slots_per_round(self) -> int:
        return self.tau1

    def run_round(self, round_index: int) -> None:
        """One FedAvg round: uniform sample, τ1 local steps, weighted average."""
        d = self.w.size
        obs = self.obs
        faults = self.faults
        injecting = faults.enabled
        sampled = sample_uniform_subset(len(self.clients), self.m_clients, self.rng)
        with obs.span("phase1_model_update", round=round_index,
                      sampled_clients=len(sampled)):
            self.tracker.record("client_cloud", "down", count=len(sampled),
                                floats=d)
            entries: list[tuple[str, float, np.ndarray]] = []
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
                work.append(ClientWork(client, steps))
            results = run_local_steps(
                self.backend, self.engine, self.w, work, lr=self.eta_w,
                projection=self.projection_w, obs=obs) if work else []
            timing = self.timing
            if timing.enabled:
                # Sampled clients work concurrently on the flat client-cloud
                # link; the round costs the slowest (down + steps + up) chain.
                with timing.parallel():
                    for item in work:
                        cid = item.client.client_id
                        scale = (faults.plan.straggler_slowdown
                                 if injecting and item.steps < self.tau1
                                 else 1.0)
                        with timing.branch():
                            timing.transfer("client_cloud", cid, d)
                            timing.compute(cid, item.steps, scale=scale)
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
                weight = float(client.num_samples) if self.weight_by_data else 1.0
                entries.append((f"client:{client.client_id}", weight, w_end))
            self.tracker.sync_cycle("client_cloud")
            # Survivor-weighted average (or the robust rule): dropped clients
            # simply leave the denominator.
            combined = self._combine(round_index, entries, ref=self.w,
                                     link="client_cloud", stage="model_update")
            if combined is not None:
                self.w = combined
