"""HierFAVG (Liu et al., ICC '20) — hierarchical FedAvg.

Uses the same three-layer client-edge-cloud schedule as HierMinimax (``τ1`` local
steps per client-edge aggregation, ``τ2`` aggregations per cloud round) but solves
the *minimization* problem (1): edges are sampled uniformly, there is no weight
vector and no Phase 2.  It is the ablation isolating the value of minimax fairness
from the value of the hierarchy in the paper's comparisons (Figs. 3–4, Table 2).
It runs the round of :class:`~repro.core.engine.RoundEngine` at depth 2 with
frozen weights and no checkpoint.
"""

from __future__ import annotations

from repro.core.engine import RoundEngine
from repro.data.dataset import FederatedDataset
from repro.nn.models import ModelFactory
from repro.utils.validation import check_positive_int

__all__ = ["HierFAVG"]


class HierFAVG(RoundEngine):
    """Hierarchical Federated Averaging (minimization objective).

    Parameters
    ----------
    tau1, tau2:
        Local steps per aggregation block and blocks per cloud round
        (the paper's comparison uses 2 and 2).
    m_edges:
        Edge servers sampled (uniformly) per round; defaults to full participation.
    weight_by_data:
        ``True`` (default, faithful to Liu et al. and to Eq. (1) with ``q_n``
        proportional to data size): client-edge and edge-cloud aggregations are
        weighted by sample counts.  ``False`` uses plain means at both levels.
    **run:
        Everything :class:`~repro.core.base.FederatedAlgorithm` accepts.
    """

    name = "hierfavg"
    is_minimax = False
    uses_hierarchy = True
    _links = ("edge_cloud", "client_edge")

    def __init__(self, dataset: FederatedDataset, model_factory: ModelFactory, *,
                 tau1: int = 2, tau2: int = 2, m_edges: int | None = None,
                 weight_by_data: bool = True, **run) -> None:
        super().__init__(dataset, model_factory, **run)
        self.tau1 = check_positive_int(tau1, "tau1")
        self.tau2 = check_positive_int(tau2, "tau2")
        self.weight_by_data = bool(weight_by_data)
        self.m_edges = self._bind_cloud(m_edges)

    def run_round(self, round_index: int) -> None:
        """One HierFAVG round: uniform edge sample, hierarchical update, average."""
        self._cloud_round(round_index)
