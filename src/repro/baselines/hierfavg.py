"""HierFAVG (Liu et al., ICC '20) — hierarchical FedAvg.

Uses the same three-layer client-edge-cloud schedule as HierMinimax (``τ1`` local
steps per client-edge aggregation, ``τ2`` aggregations per cloud round) but solves
the *minimization* problem (1): edges are sampled uniformly, there is no weight
vector and no Phase 2.  It is the ablation isolating the value of minimax fairness
from the value of the hierarchy in the paper's comparisons (Figs. 3–4, Table 2).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import EDGE_UNAVAILABLE, FederatedAlgorithm
from repro.data.dataset import FederatedDataset
from repro.nn.models import ModelFactory
from repro.sim.edge import combine, deliver
from repro.topology.sampling import sample_uniform_subset
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["HierFAVG"]


class HierFAVG(FederatedAlgorithm):
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

    def __init__(self, dataset: FederatedDataset, model_factory: ModelFactory, *,
                 tau1: int = 2, tau2: int = 2, m_edges: int | None = None,
                 weight_by_data: bool = True, **run) -> None:
        super().__init__(dataset, model_factory, **run)
        self.tau1 = check_positive_int(tau1, "tau1")
        self.tau2 = check_positive_int(tau2, "tau2")
        n_e = self.dataset.num_edges
        self.m_edges = n_e if m_edges is None else check_positive_int(m_edges, "m_edges")
        check_fraction(self.m_edges, n_e, "m_edges")
        self.weight_by_data = bool(weight_by_data)
        self.edges = self._build_edges()
        self.membership.bind(self.edges)

    @property
    def slots_per_round(self) -> int:
        """``τ1·τ2`` local steps per cloud round."""
        return self.tau1 * self.tau2

    def run_round(self, round_index: int) -> None:
        """One HierFAVG round: uniform edge sample, hierarchical update, average."""
        d = self.w.size
        faults = self.faults
        timing = self.timing
        sampled = sample_uniform_subset(self.dataset.num_edges, self.m_edges, self.rng)
        with self.obs.span("phase1_model_update", round=round_index,
                           sampled_edges=len(sampled)):
            self.tracker.record("edge_cloud", "down", count=len(sampled),
                                floats=d)
            entries: list[tuple[str, float, np.ndarray]] = []
            # Sampled edges work concurrently: the round's simulated duration
            # is the slowest edge's (broadcast + blocks + upload) chain.
            with timing.parallel():
                for e in sampled:
                    edge = self.edges[int(e)]
                    with timing.branch():
                        if faults.enabled and faults.edge_dark(round_index,
                                                               edge.edge_id):
                            continue
                        roster = self._edge_roster(edge.edge_id)
                        if roster is EDGE_UNAVAILABLE:
                            continue
                        if timing.enabled:
                            timing.transfer("edge_cloud", edge.edge_id, d)
                        w_e, _ = edge.model_update(
                            self.engine, self.w, tau1=self.tau1, tau2=self.tau2,
                            lr=self.eta_w, projection=self.projection_w,
                            checkpoint=None,
                            tracker=self.tracker,
                            weight_by_data=self.weight_by_data,
                            obs=self.obs, faults=faults,
                            round_index=round_index, backend=self.backend,
                            defense=self._edge_agg, timing=timing,
                            roster=roster)
                        if timing.enabled:
                            timing.transfer("edge_cloud", edge.edge_id, d)
                        sender = f"edge:{edge.edge_id}"
                        delivered = deliver(faults, round_index, "edge_cloud",
                                            sender, w_e, floats=d,
                                            tracker=self.tracker, ref=self.w)
                        if delivered is not None:
                            weight = (float(edge.num_samples)
                                      if self.weight_by_data else 1.0)
                            entries.append((sender, weight, delivered[0]))
            self.tracker.sync_cycle("edge_cloud")
            # Survivor-weighted average (or the robust rule): dark edges
            # leave the denominator.
            self.w, _ = combine(self.w, entries, stage="model_update",
                                aggregator=self._cloud_agg, faults=faults,
                                round_index=round_index, link="edge_cloud")
