"""SerialBackend — the default: run every task inline on the shared engine.

This is the reference implementation of the determinism contract: its output
*defines* what the parallel backends must reproduce bit-for-bit.  It adds no
threads, no processes, and (with a :class:`~repro.obs.NullTracer`) no
per-task overhead beyond one function call, so the default configuration is
exactly as fast as the pre-backend code path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exec.base import (
    ExecutionBackend,
    LocalStepsResult,
    LocalStepsTask,
    run_local_steps_kernel,
)
from repro.nn.network import NeuralNetwork
from repro.obs import NULL_TRACER

__all__ = ["SerialBackend", "SERIAL_BACKEND"]


class SerialBackend(ExecutionBackend):
    """Execute tasks one after another on the caller's engine.

    Emits the canonical per-client ``client_local_steps`` span for each task
    (the parallel backends cannot — spans are not thread-safe — and emit
    ``exec_batch`` aggregates instead).
    """

    name = "serial"

    def run_tasks(self, engine: NeuralNetwork, w_start: np.ndarray,
                  tasks: Sequence[LocalStepsTask], *, obs=None,
                  ) -> list[LocalStepsResult]:
        """Run every task inline, in order, on ``engine``."""
        obs = obs if obs is not None else NULL_TRACER
        results: list[LocalStepsResult] = []
        for task in tasks:
            with obs.span("client_local_steps", client=task.client_id,
                          steps=task.steps) as span:
                w_end, w_ckpt = run_local_steps_kernel(
                    engine, w_start, task.batches, lr=task.lr,
                    projection=task.projection,
                    checkpoint_after=task.checkpoint_after)
            results.append(LocalStepsResult(
                index=task.index, client_id=task.client_id, w_end=w_end,
                w_checkpoint=w_ckpt, busy_s=span.duration))
        return results


#: Process-wide shared serial backend; what ``backend=None`` resolves to
#: (unless the ``REPRO_BACKEND`` environment variable overrides the default).
SERIAL_BACKEND = SerialBackend()
