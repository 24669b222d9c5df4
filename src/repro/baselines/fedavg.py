"""FedAvg (McMahan et al., AISTATS '17) — the standard two-layer FL baseline.

Solves the minimization problem (1) with ``q_n`` proportional to client data sizes:
each round the cloud samples ``m`` clients uniformly, broadcasts the global model,
each sampled client runs ``τ1`` local SGD steps, and the cloud averages the returns
weighted by local dataset size.  No edge servers, no mixing-weight updates — the
fairness-blind control of the paper's figures.  It runs the round of
:class:`~repro.core.engine.RoundEngine` at depth 1 with frozen weights.
"""

from __future__ import annotations

from repro.core.engine import RoundEngine
from repro.data.dataset import FederatedDataset
from repro.nn.models import ModelFactory
from repro.utils.validation import check_positive_int

__all__ = ["FedAvg"]


class FedAvg(RoundEngine):
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
        self.weight_by_data = bool(weight_by_data)
        self.m_clients = self._bind_cloud(m_clients)

    def run_round(self, round_index: int) -> None:
        """One FedAvg round: uniform sample, τ1 local steps, weighted average."""
        self._cloud_round(round_index)
