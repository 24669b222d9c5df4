"""Dispatcher: turn per-client work specs into backend tasks, deterministically.

:func:`run_local_steps` is the single entry point actor code uses to run a
batch of client local-SGD loops on an :class:`~repro.exec.base.ExecutionBackend`.
It owns the two halves of the determinism contract that live *outside* the
backends:

* **Randomness is consumed in task order, in the caller's thread.**  The
  dispatcher pre-draws every task's minibatches from the client's own sampler
  before dispatch, so each client's stream advances exactly as a serial run
  would advance it — including when with-replacement sampling puts the same
  client in the batch twice (the duplicate's draws chain after the first
  occurrence's draws).
* **Client-side bookkeeping** (``sgd_steps_taken``, the ``sgd_steps_total``
  counter) happens here, identically for every backend.

This split is also what makes supervised *retry* safe: a task carries
everything its unit needs (weights snapshot, pre-drawn batches, step spec)
and nothing caller-side mutates until results return, so a backend that
loses a task to a hang can re-execute it from its original descriptor and
obtain bit-identical outputs (see ``repro.exec.threads``).

Intentionally imports no actor classes — clients are duck-typed
(``client_id``, ``sampler``, ``sgd_steps_taken``) so ``repro.sim`` can import
the execution package without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exec.base import ExecutionBackend, LocalStepsResult, LocalStepsTask
from repro.exec.serial import SERIAL_BACKEND
from repro.obs import NULL_TRACER
from repro.ops.projections import Projection, identity_projection
from repro.utils.validation import check_positive_float, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.sim.client import Client

__all__ = ["ClientWork", "run_local_steps"]


@dataclass
class ClientWork:
    """One client's share of a dispatch: who, how many steps, snapshot when."""

    client: "Client"
    steps: int
    checkpoint_after: int | None = None


def run_local_steps(backend: ExecutionBackend | None, engine,
                    w_start: np.ndarray, work: Sequence[ClientWork], *,
                    lr: float, projection: Projection = identity_projection,
                    obs=None) -> list[LocalStepsResult]:
    """Run every :class:`ClientWork` item's local SGD on ``backend``.

    Results come back in ``work`` order and are bit-identical across backends
    (see :mod:`repro.exec.base`).  ``w_start`` is read-only for every task —
    each task starts from the same vector, which is what every caller
    (aggregation blocks, FedAvg-style rounds) wants.
    """
    backend = backend if backend is not None else SERIAL_BACKEND
    obs = obs if obs is not None else NULL_TRACER
    lr = check_positive_float(lr, "lr")
    for item in work:
        check_positive_int(item.steps, "steps")
        if (item.checkpoint_after is not None
                and not 1 <= item.checkpoint_after <= item.steps):
            raise ValueError(
                f"checkpoint_after must be in [1, {item.steps}], "
                f"got {item.checkpoint_after}")
    tasks = [
        LocalStepsTask(
            index=i, client_id=item.client.client_id, steps=item.steps, lr=lr,
            checkpoint_after=item.checkpoint_after, projection=projection,
            batches=[item.client.sampler.next_batch()
                     for _ in range(item.steps)])
        for i, item in enumerate(work)]
    results = backend.run_tasks(engine, w_start, tasks, obs=obs)
    if len(results) != len(work):
        raise RuntimeError(
            f"backend {backend.name!r} returned {len(results)} results "
            f"for {len(work)} tasks")
    total_steps = 0
    for item in work:
        item.client.sgd_steps_taken += item.steps
        total_steps += item.steps
    if obs.enabled:
        obs.count("sgd_steps_total", total_steps)
    return results
