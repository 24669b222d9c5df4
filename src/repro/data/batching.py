"""Minibatch sampling for client-side SGD.

Each client owns a :class:`MinibatchSampler` over its local shard.  The sampler
cycles through random epoch permutations (sampling without replacement within an
epoch, the standard SGD regime) and exposes :meth:`next_batch` for the inner loop of
Eq. (4).  Batches smaller than the shard wrap across epoch boundaries so every call
returns exactly ``batch_size`` rows; a boundary-spanning batch may therefore contain
a sample twice (the old epoch's tail plus the new epoch's head).  Per-sample usage
counts still never differ by more than 1 at any instant, since each epoch uses each
sample exactly once.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.rng import generator_token, restore_generator

__all__ = ["MinibatchSampler", "sampler_state_token", "restore_sampler_state"]


class MinibatchSampler:
    """Infinite shuffled-epoch minibatch stream over one dataset.

    Parameters
    ----------
    dataset:
        The local shard.
    batch_size:
        Rows per batch; the paper uses 1 (convex runs) and 8 (non-convex runs).
        Clamped to the shard size.
    rng:
        Client-local generator; consumed on every reshuffle and batch draw.
    """

    def __init__(self, dataset: Dataset, batch_size: int,
                 rng: np.random.Generator) -> None:
        if len(dataset) == 0:
            raise ValueError("cannot sample minibatches from an empty dataset")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dataset = dataset
        self.batch_size = min(int(batch_size), len(dataset))
        self._rng = rng
        self._order = rng.permutation(len(dataset))
        self._cursor = 0
        self.batches_drawn = 0

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the next (X, y) minibatch of exactly ``batch_size`` rows."""
        n = len(self.dataset)
        take: list[np.ndarray] = []
        need = self.batch_size
        while need > 0:
            available = n - self._cursor
            if available == 0:
                self._order = self._rng.permutation(n)
                self._cursor = 0
                available = n
            step = min(need, available)
            take.append(self._order[self._cursor:self._cursor + step])
            self._cursor += step
            need -= step
        idx = take[0] if len(take) == 1 else np.concatenate(take)
        self.batches_drawn += 1
        return self.dataset.X[idx], self.dataset.y[idx]

    def __iter__(self):
        while True:
            yield self.next_batch()


def sampler_state_token(sampler: MinibatchSampler) -> dict[str, Any]:
    """JSON-able snapshot of a :class:`MinibatchSampler`.

    Captures everything that determines the sampler's future draws: the RNG
    (as an exact :func:`~repro.utils.rng.generator_token`), the current epoch
    permutation, the cursor into it, and the draw counter.
    """
    return {
        "rng": generator_token(sampler._rng),
        "order": np.asarray(sampler._order),
        "cursor": int(sampler._cursor),
        "batches_drawn": int(sampler.batches_drawn),
    }


def restore_sampler_state(sampler: MinibatchSampler,
                          state: dict[str, Any]) -> None:
    """Load a sampler snapshot back into ``sampler`` in place.

    ``state`` is a :func:`sampler_state_token` or a checkpoint's client entry,
    whose ``rng`` may be a generator rather than a token; extra keys are
    ignored.
    """
    restore_generator(sampler._rng, state["rng"])
    sampler._order = np.asarray(state["order"], dtype=np.int64)
    sampler._cursor = int(state["cursor"])
    sampler.batches_drawn = int(state["batches_drawn"])
