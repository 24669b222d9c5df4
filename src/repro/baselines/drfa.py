"""DRFA (Deng, Kamani & Mahdavi, NeurIPS '20) — distributionally robust FedAvg.

The strongest two-layer minimax baseline: like Stochastic-AFL it optimizes
per-client weights ``q``, but clients run ``τ`` local SGD steps per round, and the
weight ascent uses a loss estimate at a *random checkpoint* — the average of the
clients' models snapshotted at a uniformly drawn step ``t' ∈ [τ]`` — with the step
scaled by ``τ``, keeping the ascent direction unbiased for the round's iterates.

HierMinimax with ``τ2 = 1`` reduces to this update pattern (remarks after
Theorems 1–2), which the test suite verifies.
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

__all__ = ["DRFA"]


class DRFA(FederatedAlgorithm):
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

    def __init__(self, dataset: FederatedDataset, model_factory: ModelFactory, *,
                 eta_q: float = 1e-3, tau1: int = 2, m_clients: int | None = None,
                 projection_q: Projection | None = None, **run) -> None:
        super().__init__(dataset, model_factory, **run)
        self.eta_q = check_positive_float(eta_q, "eta_q")
        self.tau1 = check_positive_int(tau1, "tau1")
        n = self.dataset.num_clients
        self.m_clients = n if m_clients is None else check_positive_int(
            m_clients, "m_clients")
        check_fraction(self.m_clients, n, "m_clients")
        self.clients = self._build_clients()
        # Flat topology: client arrivals/departures only (no edges to fail).
        self.membership.bind_flat(self.clients)
        self.cloud = CloudServer(
            n, weight_projection=projection_q if projection_q is not None
            else project_simplex)
        self.q: np.ndarray = self.cloud.initial_weights()

    @property
    def slots_per_round(self) -> int:
        """``τ1`` local steps per round."""
        return self.tau1

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
        """One DRFA round: τ1 local steps with a random checkpoint, then q ascent."""
        ctx = self._round(round_index)
        d = self.w.size
        obs = self.obs
        sampled = sample_by_weight(self.q, self.m_clients, self.rng)
        # Checkpoint step t' uniform in {1, ..., tau1}.
        t_prime = int(self.rng.integers(1, self.tau1 + 1))
        with obs.span("phase1_model_update", round=round_index,
                      sampled_clients=len(sampled), t_prime=t_prime):
            # The broadcast carries t' with the model; the checkpoint snapshot
            # rides along with the round-final upload.
            entries, ckpt_entries = self._client_leg(
                ctx, sampled, tau1=self.tau1, checkpoint_step=t_prime,
                down_floats=d + 1)
            # Eq. (5)-style mean (or the robust rule) for both the round
            # model and the random-checkpoint model.
            self.w, w_checkpoint = combine(
                ctx, self.w, entries, ckpt_entries,
                stage="phase1_model_update", aggregator=ctx.cloud_agg,
                link="client_cloud")

        # Weight ascent phase at the checkpoint model, scaled by tau1.
        with obs.span("phase2_weight_update", round=round_index):
            probed, replies = self._client_probes(ctx, w_checkpoint)
            self.q = self._ascend(ctx, self.q, probed, replies,
                                  prefix="client", eta=self.eta_q,
                                  tau1=self.tau1)
