"""repro.exec — pluggable parallel execution of client local training.

The per-round client SGD loops are embarrassingly parallel once their
randomness is fixed; this package makes *where* they run a strategy object
(:class:`~repro.exec.base.ExecutionBackend`) chosen per run:

========== =================================================================
``serial``      the reference implementation (default); defines the bits
``thread``      worker threads over per-thread engine clones (GIL released
                inside NumPy/BLAS kernels)
``vectorized``  same-shape clients stacked into one batched matmul kernel
                (Linear/ReLU/Tanh stacks with softmax cross-entropy — both
                paper models; serial fallback otherwise)
========== =================================================================

Every backend is bit-identical to ``serial`` for a fixed seed — see the
determinism contract in :mod:`repro.exec.base`.  Select one with
``backend=``/``--backend`` or the ``REPRO_BACKEND`` / ``REPRO_WORKERS``
environment variables.
"""

from __future__ import annotations

import os

from repro.exec.base import (
    ExecutionBackend,
    LocalStepsResult,
    LocalStepsTask,
    run_local_steps_kernel,
)
from repro.exec.serial import SERIAL_BACKEND, SerialBackend
from repro.exec.threads import ThreadBackend, default_worker_count
from repro.exec.vectorized import VectorizedBackend
from repro.exec.dispatch import ClientWork, run_local_steps

__all__ = [
    "ExecutionBackend", "LocalStepsTask", "LocalStepsResult",
    "run_local_steps_kernel", "SerialBackend", "SERIAL_BACKEND",
    "ThreadBackend", "VectorizedBackend",
    "default_worker_count", "ClientWork", "run_local_steps",
    "available_backends", "make_backend", "resolve_backend",
]

#: Environment variables consulted by :func:`resolve_backend`.
BACKEND_ENV = "REPRO_BACKEND"
WORKERS_ENV = "REPRO_WORKERS"
#: Per-task supervision timeout (seconds) for the thread backend.
TIMEOUT_ENV = "REPRO_EXEC_TIMEOUT_S"

_ALIASES = {
    "serial": "serial", "sync": "serial", "none": "serial",
    "thread": "thread", "threads": "thread",
    "vectorized": "vectorized", "vector": "vectorized", "vec": "vectorized",
    "batched": "vectorized",
}


def available_backends() -> list[str]:
    """Canonical backend names accepted by :func:`make_backend`."""
    return ["serial", "thread", "vectorized"]


def make_backend(name: str, workers: int | None = None) -> ExecutionBackend:
    """Instantiate a backend by name (``workers`` applies to ``thread``)."""
    key = _ALIASES.get(str(name).strip().lower())
    if key is None:
        raise ValueError(
            f"unknown execution backend {name!r}; "
            f"choose from {available_backends()}")
    if key == "thread":
        env_timeout = os.environ.get(TIMEOUT_ENV, "").strip()
        timeout_s = float(env_timeout) if env_timeout else None
        return ThreadBackend(workers=workers, timeout_s=timeout_s)
    if key == "vectorized":
        return VectorizedBackend()
    return SERIAL_BACKEND if workers in (None, 0, 1) else SerialBackend()


def resolve_backend(spec: "ExecutionBackend | str | None" = None,
                    workers: int | None = None) -> ExecutionBackend:
    """Resolve a user-facing backend spec into a live backend instance.

    ``spec`` may be an :class:`ExecutionBackend` (returned as-is; ``workers``
    is ignored), a name for :func:`make_backend`, or ``None`` — in which case
    the ``REPRO_BACKEND`` environment variable decides (default ``serial``).
    A ``workers`` of ``None`` likewise falls back to ``REPRO_WORKERS``.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV, "").strip() or "serial"
    if workers is None:
        env_workers = os.environ.get(WORKERS_ENV, "").strip()
        if env_workers:
            workers = int(env_workers)
    return make_backend(spec, workers)
