"""Client actor: local SGD, checkpoint capture, and loss estimation.

A :class:`Client` owns its local shard and minibatch stream but **not** a private
model copy.  All clients of a run share one *engine* :class:`NeuralNetwork` into
which parameter vectors are loaded and out of which results are read; the model is
a pure function of its flat parameter vector, so this is semantically identical to
per-client models while avoiding ``N`` deep copies per aggregation (guides: reuse
buffers, avoid copies).
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import MinibatchSampler
from repro.data.dataset import Dataset
from repro.exec.base import run_local_steps_kernel
from repro.nn.network import NeuralNetwork
from repro.ops.projections import Projection, identity_projection
from repro.utils.validation import check_positive_float, check_positive_int

__all__ = ["Client"]


class Client:
    """One client device in the hierarchy.

    Parameters
    ----------
    client_id:
        Global client index (edge-major order).
    shard:
        The client's local training data.
    batch_size:
        Minibatch size of the local SGD (Eq. (4)'s ``ξ``).
    rng:
        Client-private generator driving minibatch sampling.
    batches_drawn:
        Minibatches already drawn from a sampler on the same fresh ``rng``;
        the sampler resumes after them (a restored virtual client).
    order:
        The sampler's epoch permutation at that point, when ``rng`` already
        stands there (see :class:`~repro.data.batching.MinibatchSampler`).
    """

    def __init__(self, client_id: int, shard: Dataset, batch_size: int,
                 rng: np.random.Generator, batches_drawn: int = 0,
                 order: np.ndarray | None = None) -> None:
        self.client_id = int(client_id)
        self.shard = shard
        self.sampler = MinibatchSampler(shard, batch_size, rng, batches_drawn,
                                        order)
        self.sgd_steps_taken = 0

    @property
    def num_samples(self) -> int:
        """Local training-set size (the ``q_n`` weight basis of Eq. (1))."""
        return len(self.shard)

    def local_sgd(self, engine: NeuralNetwork, w_start: np.ndarray, *,
                  steps: int, lr: float,
                  projection: Projection = identity_projection,
                  checkpoint_after: int | None = None,
                  ) -> tuple[np.ndarray, np.ndarray | None]:
        """Run ``steps`` projected-SGD steps from ``w_start`` (Eq. (4)).

        Draws this client's minibatches and delegates the arithmetic to
        :func:`~repro.exec.base.run_local_steps_kernel` — the same pure kernel
        every execution backend runs, so a direct call is bit-identical to a
        dispatched one.

        Aliasing contract: ``w_start`` is read-only here.  Callers typically
        pass a shared vector (the edge/cloud broadcast model) to *every*
        client of a loop; the kernel therefore never writes through ``w_start``
        and defensively copies it when it aliases the engine's live parameter
        buffer (e.g. ``client.local_sgd(engine, engine.params_view(), ...)``),
        which would otherwise corrupt the start vector mid-loop.

        Parameters
        ----------
        engine:
            The shared compute model; its parameters are overwritten.
        checkpoint_after:
            When set to ``c1 ∈ {1, …, steps}``, additionally return a snapshot of
            the local model after exactly ``c1`` steps (Part (b) of ModelUpdate).

        Returns
        -------
        (w_end, w_checkpoint):
            Final local model (copy) and the checkpoint snapshot (copy) or ``None``.
        """
        steps = check_positive_int(steps, "steps")
        lr = check_positive_float(lr, "lr")
        if checkpoint_after is not None and not 1 <= checkpoint_after <= steps:
            raise ValueError(
                f"checkpoint_after must be in [1, {steps}], got {checkpoint_after}")
        batches = [self.sampler.next_batch() for _ in range(steps)]
        self.sgd_steps_taken += steps
        return run_local_steps_kernel(
            engine, w_start, batches, lr=lr, projection=projection,
            checkpoint_after=checkpoint_after)

    def estimate_loss(self, engine: NeuralNetwork, w: np.ndarray) -> float:
        """Minibatch loss estimate ``f_n(w; ξ)`` used by Phase 2's LossEstimation."""
        engine.set_params(w)
        X, y = self.sampler.next_batch()
        return engine.loss(X, y)

    def full_loss(self, engine: NeuralNetwork, w: np.ndarray) -> float:
        """Exact local loss ``f_n(w)`` over the whole shard (diagnostics/theory)."""
        engine.set_params(w)
        return engine.loss(self.shard.X, self.shard.y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Client(id={self.client_id}, n={self.num_samples}, "
                f"batch={self.sampler.batch_size})")
