"""Stochastic-AFL (Mohri et al., ICML '19) — two-layer agnostic federated learning.

Solves the minimax problem (2) over per-client weights ``q`` with *single-step*
local updates: each round the cloud samples ``m`` clients by ``q``, each takes one
SGD step from the global model, and the cloud averages; it then samples a fresh
uniform subset, collects loss estimates at the new model, and takes a projected
ascent step on ``q``.  It is the ``τ1 = τ2 = 1`` communication-heavy extreme that
HierMinimax generalizes (see the remark after Theorem 1): the round of
:class:`~repro.core.engine.RoundEngine` at depth 1 with learned weights and no
checkpoint.
"""

from __future__ import annotations

from repro.core.engine import RoundEngine
from repro.data.dataset import FederatedDataset
from repro.nn.models import ModelFactory
from repro.ops.projections import Projection
from repro.utils.validation import check_positive_float

__all__ = ["StochasticAFL"]


class StochasticAFL(RoundEngine):
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
        self.m_clients = self._bind_cloud(m_clients, projection_q)

    def run_round(self, round_index: int) -> None:
        """One AFL round: q-sampled single-step model update, then q ascent."""
        self._cloud_round(round_index)
