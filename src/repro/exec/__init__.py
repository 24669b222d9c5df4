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
environment variables; :func:`make_backend` imports only the module of the
backend it builds, and the re-exports below resolve on first use.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only; resolved lazily below
    from repro.exec.base import ExecutionBackend

__all__ = [
    "ExecutionBackend", "LocalStepsTask", "LocalStepsResult",
    "run_local_steps_kernel", "SerialBackend", "SERIAL_BACKEND",
    "ThreadBackend", "VectorizedBackend",
    "default_worker_count", "ClientWork", "run_local_steps",
    "available_backends", "make_backend", "resolve_backend",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.exec.base": (
        "ExecutionBackend", "LocalStepsResult", "LocalStepsTask",
        "run_local_steps_kernel",
    ),
    "repro.exec.serial": ("SERIAL_BACKEND", "SerialBackend"),
    "repro.exec.threads": ("ThreadBackend", "default_worker_count"),
    "repro.exec.vectorized": ("VectorizedBackend",),
    "repro.exec.dispatch": ("ClientWork", "run_local_steps"),
})

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
        from repro.exec.threads import ThreadBackend

        env_timeout = os.environ.get(TIMEOUT_ENV, "").strip()
        timeout_s = float(env_timeout) if env_timeout else None
        return ThreadBackend(workers=workers, timeout_s=timeout_s)
    if key == "vectorized":
        from repro.exec.vectorized import VectorizedBackend

        return VectorizedBackend()
    from repro.exec.serial import SERIAL_BACKEND, SerialBackend

    return SERIAL_BACKEND if workers in (None, 0, 1) else SerialBackend()


def resolve_backend(spec: "ExecutionBackend | str | None" = None,
                    workers: int | None = None) -> ExecutionBackend:
    """Resolve a user-facing backend spec into a live backend instance.

    ``spec`` may be an :class:`ExecutionBackend` (returned as-is; ``workers``
    is ignored), a name for :func:`make_backend`, or ``None`` — in which case
    the ``REPRO_BACKEND`` environment variable decides (default ``serial``).
    A ``workers`` of ``None`` likewise falls back to ``REPRO_WORKERS``.
    """
    from repro.exec.base import ExecutionBackend

    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV, "").strip() or "serial"
    if workers is None:
        env_workers = os.environ.get(WORKERS_ENV, "").strip()
        if env_workers:
            workers = int(env_workers)
    return make_backend(spec, workers)
