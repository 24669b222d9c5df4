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
from repro.ops.projections import Projection, identity_projection
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
    """

    name = "hierfavg"
    is_minimax = False
    uses_hierarchy = True

    def __init__(self, dataset: FederatedDataset, model_factory: ModelFactory, *,
                 tau1: int = 2, tau2: int = 2, m_edges: int | None = None,
                 weight_by_data: bool = True,
                 batch_size: int = 1, eta_w: float = 1e-3, seed: int = 0,
                 projection_w: Projection = identity_projection,
                 logger=None, obs=None, faults=None, backend=None,
                 defense=None, timing=None, churn=None,
                 population=None) -> None:
        super().__init__(dataset, model_factory, batch_size=batch_size, eta_w=eta_w,
                         seed=seed, projection_w=projection_w, logger=logger,
                         obs=obs, faults=faults, backend=backend,
                         defense=defense, timing=timing, churn=churn,
                         population=population)
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
        obs = self.obs
        faults = self.faults
        injecting = faults.enabled
        sampled = sample_uniform_subset(self.dataset.num_edges, self.m_edges, self.rng)
        with obs.span("phase1_model_update", round=round_index,
                      sampled_edges=len(sampled)):
            self.tracker.record("edge_cloud", "down", count=len(sampled),
                                floats=d)
            entries: list[tuple[str, float, np.ndarray]] = []
            timing = self.timing
            # Sampled edges work concurrently: the round's simulated duration
            # is the slowest edge's (broadcast + blocks + upload) chain.
            with timing.parallel():
                for e in sampled:
                    edge = self.edges[int(e)]
                    with timing.branch():
                        if injecting and faults.edge_dark(round_index,
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
                            obs=obs, faults=faults, round_index=round_index,
                            backend=self.backend, defense=self._edge_agg,
                            timing=timing, roster=roster)
                        self.tracker.record("edge_cloud", "up", count=1,
                                            floats=d)
                        if timing.enabled:
                            timing.transfer("edge_cloud", edge.edge_id, d)
                        if injecting:
                            delivered = faults.receive(
                                round_index, "edge_cloud",
                                f"edge:{edge.edge_id}", w_e,
                                floats=d, tracker=self.tracker, ref=self.w)
                            if delivered is None:
                                continue
                            (w_e,) = delivered
                        weight = (float(edge.num_samples)
                                  if self.weight_by_data else 1.0)
                        entries.append((f"edge:{edge.edge_id}", weight, w_e))
            self.tracker.sync_cycle("edge_cloud")
            # Survivor-weighted average (or the robust rule): dark edges
            # leave the denominator.
            combined = self._combine(round_index, entries, ref=self.w,
                                     link="edge_cloud", stage="model_update")
            if combined is not None:
                self.w = combined
