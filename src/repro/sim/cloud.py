"""Cloud-server actor: the mixing-weight ascent step of Phase 2.

The cloud's weight update in Algorithm 1 is mechanical — the unbiased loss
vector of §4.2 and the projected gradient-ascent step of Eq. (7).  HierMinimax
(weights ``p`` over edges) and the two-layer minimax baselines (weights ``q``
over clients, each client a degenerate "edge") share this implementation.
Averaging the uploaded models (Eqs. (5)–(6)) is not done here: every tier
folds its uploads with :func:`repro.sim.edge.combine`.
"""

from __future__ import annotations

import numpy as np

from repro.ops.projections import project_simplex

__all__ = ["CloudServer"]


class CloudServer:
    """Weight-update logic at the top of the hierarchy.

    Parameters
    ----------
    num_edges:
        ``N_E``; the length of the weight vector ``p``.
    weight_projection:
        Projection onto the constraint set ``P``; defaults to the probability
        simplex ``Δ_{N_E-1}``.
    """

    def __init__(self, num_edges: int, weight_projection=None) -> None:
        if num_edges < 1:
            raise ValueError(f"num_edges must be >= 1, got {num_edges}")
        self.num_edges = int(num_edges)
        self._project_p = (weight_projection if weight_projection is not None
                           else project_simplex)

    def initial_weights(self) -> np.ndarray:
        """The uniform initialization ``p^(0) = [1/N_E, …, 1/N_E]``."""
        return np.full(self.num_edges, 1.0 / self.num_edges)

    def build_loss_vector(self, losses: dict[int, float]) -> np.ndarray:
        """Construct the unbiased gradient estimate ``v`` of §4.2.

        ``losses`` maps sampled edge index → estimated loss ``f_e(w_checkpoint)``;
        unsampled coordinates are zero and sampled ones are scaled by ``N_E/m_E``.
        """
        if not losses:
            raise ValueError("need at least one sampled edge loss")
        m = len(losses)
        v = np.zeros(self.num_edges, dtype=np.float64)
        scale = self.num_edges / m
        for e, loss in losses.items():
            if not 0 <= e < self.num_edges:
                raise ValueError(f"edge index {e} out of range [0, {self.num_edges})")
            v[e] = scale * loss
        return v

    def update_weights(self, p: np.ndarray, v: np.ndarray, *, eta_p: float,
                       tau1: int = 1, tau2: int = 1) -> np.ndarray:
        """Projected gradient ascent on ``p`` (Eq. (7)).

        The effective step is ``η_p · τ1 · τ2`` because each weight update stands in
        for the τ1τ2 iterations of the round (see Appendix A's ``u^(k)``).
        """
        if eta_p <= 0:
            raise ValueError(f"eta_p must be positive, got {eta_p}")
        if tau1 < 1 or tau2 < 1:
            raise ValueError(f"tau1 and tau2 must be >= 1, got ({tau1}, {tau2})")
        p = np.asarray(p, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if p.shape != (self.num_edges,) or v.shape != (self.num_edges,):
            raise ValueError(
                f"p and v must have shape ({self.num_edges},), got {p.shape}, {v.shape}")
        return self._project_p(p + eta_p * tau1 * tau2 * v)
