"""FedAvg (McMahan et al., AISTATS '17) — the standard two-layer FL baseline.

Solves the minimization problem (1) with ``q_n`` proportional to client data sizes:
each round the cloud samples ``m`` clients uniformly, broadcasts the global model,
each sampled client runs ``τ1`` local SGD steps, and the cloud averages the returns
weighted by local dataset size.  No edge servers, no mixing-weight updates — the
fairness-blind control of the paper's figures.
"""

from __future__ import annotations

from repro.core.base import FederatedAlgorithm
from repro.data.dataset import FederatedDataset
from repro.nn.models import ModelFactory
from repro.sim.edge import combine
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
        ctx = self._round(round_index)
        sampled = sample_uniform_subset(len(self.clients), self.m_clients, self.rng)
        with self.obs.span("phase1_model_update", round=round_index,
                           sampled_clients=len(sampled)):
            entries, _ = self._client_leg(ctx, sampled, tau1=self.tau1,
                                          weight_by_data=self.weight_by_data)
            # Survivor-weighted average (or the robust rule): dropped clients
            # simply leave the denominator.
            self.w, _ = combine(ctx, self.w, entries, stage="model_update",
                                aggregator=ctx.cloud_agg, link="client_cloud")
