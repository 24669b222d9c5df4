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
from repro.nn.models import ModelFactory
from repro.ops.projections import Projection, project_simplex
from repro.sim.cloud import CloudServer
from repro.sim.edge import combine
from repro.topology.sampling import sample_by_weight
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
        obs = self.obs
        # Model update phase.
        sampled = sample_by_weight(self.q, self.m_clients, self.rng)
        with obs.span("phase1_model_update", round=round_index,
                      sampled_clients=len(sampled)):
            self.tracker.record("client_cloud", "down",
                                count=len(set(sampled.tolist())),
                                floats=self.w.size)
            # Single-step rounds: a straggler that cannot finish its one
            # step within the round is a dropout.
            entries, _ = self._client_leg(round_index, sampled, tau1=1)
            self.w, _ = combine(self.w, entries, stage="phase1_model_update",
                                aggregator=self._cloud_agg, faults=self.faults,
                                round_index=round_index, link="client_cloud")

        # Weight update phase: loss estimation at the fresh global model.
        with obs.span("phase2_weight_update", round=round_index):
            probed, replies = self._client_probes(round_index, self.w)
            self.q = self._ascend(round_index, self.q, probed, replies,
                                  prefix="client", eta=self.eta_q)
