"""DRFA (Deng, Kamani & Mahdavi, NeurIPS '20) — distributionally robust FedAvg.

The strongest two-layer minimax baseline: like Stochastic-AFL it optimizes
per-client weights ``q``, but clients run ``τ`` local SGD steps per round, and the
weight ascent uses a loss estimate at a *random checkpoint* — the average of the
clients' models snapshotted at a uniformly drawn step ``t' ∈ [τ]`` — with the step
scaled by ``τ``, keeping the ascent direction unbiased for the round's iterates.

HierMinimax with ``τ2 = 1`` reduces to this update pattern (remarks after
Theorems 1–2), which the test suite verifies: DRFA is the round of
:class:`~repro.core.engine.RoundEngine` at depth 1 with ``τ2 = 1``, learned
weights and a checkpoint, ``t'`` being the slot's ``c1``.
"""

from __future__ import annotations

from repro.core.engine import RoundEngine
from repro.data.dataset import FederatedDataset
from repro.nn.models import ModelFactory
from repro.ops.projections import Projection
from repro.utils.validation import check_positive_float, check_positive_int

__all__ = ["DRFA"]


class DRFA(RoundEngine):
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
    checkpoint_index = True
    use_checkpoint = True

    def __init__(self, dataset: FederatedDataset, model_factory: ModelFactory, *,
                 eta_q: float = 1e-3, tau1: int = 2, m_clients: int | None = None,
                 projection_q: Projection | None = None, **run) -> None:
        super().__init__(dataset, model_factory, **run)
        self.eta_q = check_positive_float(eta_q, "eta_q")
        self.tau1 = check_positive_int(tau1, "tau1")
        self.m_clients = self._bind_cloud(m_clients, projection_q)

    def run_round(self, round_index: int) -> None:
        """One DRFA round: τ1 local steps with a random checkpoint, then q ascent."""
        self._cloud_round(round_index)
