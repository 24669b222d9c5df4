"""ThreadBackend — a worker-thread pool over per-thread engine clones.

Client SGD steps are NumPy/BLAS-heavy; NumPy releases the GIL inside its
compiled kernels, so a thread pool overlaps the matmuls of different clients
on a multi-core host without any serialization cost.  Each worker computes on
its *own* engine clone (:meth:`~repro.nn.network.NeuralNetwork.clone`), so the
shared flat parameter buffer — the one piece of mutable state
:func:`~repro.exec.base.run_local_steps_kernel` touches — is never contended.

Determinism: every task's inputs (start weights + pre-drawn batches) are fixed
before dispatch and its arithmetic is independent of every other task, so
scheduling order cannot change any result bit.  Results are reassembled in
task order.

Hang supervision: with ``timeout_s`` set, a task that does not finish in time
is resubmitted on a *new* worker thread (the pool grows by one and gains one
engine clone, so a wedged thread can never starve its own retry), bounded by a
:class:`~repro.faults.plan.RetryPolicy`.  Safe by kernel purity — a re-run
task returns bit-identical outputs.  Threads cannot be killed, so the wedged
one is abandoned; its eventual result (if any) lands in a dropped future.
"""

from __future__ import annotations

import os
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Sequence

import numpy as np

from repro.chaos.hooks import fire as chaos_fire
from repro.exec.base import (
    ExecutionBackend,
    LocalStepsResult,
    LocalStepsTask,
    check_timeout,
    resolve_retry,
    run_local_steps_kernel,
)
from repro.nn.network import NeuralNetwork
from repro.obs import NULL_TRACER

__all__ = ["ThreadBackend", "default_worker_count"]

_TIME = time.perf_counter


def default_worker_count() -> int:
    """Worker count when none is requested: available cores, capped at 8."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cores = os.cpu_count() or 1
    return max(1, min(8, cores))


class ThreadBackend(ExecutionBackend):
    """Run tasks on a persistent :class:`ThreadPoolExecutor`.

    Parameters
    ----------
    workers:
        Pool size; defaults to :func:`default_worker_count`.
    timeout_s:
        Per-task supervision deadline (seconds).  A task exceeding it is
        retried on a fresh worker thread; ``None`` (default) disables hang
        detection.  The deadline is measured from result collection, so size
        it to cover a full dispatch batch, not a single kernel.
    retry:
        :class:`~repro.faults.plan.RetryPolicy` bounding per-task retries
        after a timeout (default: 2 retries).
    """

    name = "thread"

    def __init__(self, workers: int | None = None, *,
                 timeout_s: float | None = None, retry=None) -> None:
        self.workers = int(workers) if workers else default_worker_count()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.timeout_s = check_timeout(timeout_s)
        self.retry = resolve_retry(retry)
        self._pool: ThreadPoolExecutor | None = None
        # id(engine) -> (engine strong ref, queue of per-thread clones).  The
        # strong ref pins the id so it cannot be recycled by the allocator.
        self._engines: dict[int, tuple[NeuralNetwork, queue.LifoQueue]] = {}

    def _clone_pool(self, engine: NeuralNetwork) -> queue.LifoQueue:
        entry = self._engines.get(id(engine))
        if entry is not None and entry[0] is engine:
            return entry[1]
        clones: queue.LifoQueue = queue.LifoQueue()
        for _ in range(self.workers):
            clones.put(engine.clone())
        self._engines[id(engine)] = (engine, clones)
        return clones

    def run_tasks(self, engine: NeuralNetwork, w_start: np.ndarray,
                  tasks: Sequence[LocalStepsTask], *, obs=None,
                  ) -> list[LocalStepsResult]:
        """Fan tasks out over the pool; gather results in task order."""
        obs = obs if obs is not None else NULL_TRACER
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-exec")
        clones = self._clone_pool(engine)
        submitted = _TIME()

        def work(task: LocalStepsTask) -> LocalStepsResult:
            started = _TIME()
            hang = chaos_fire("thread_hang")
            if hang is not None:
                # Simulated wedge (a stuck I/O call, a livelocked dependency):
                # stall long enough for the supervisor's deadline to fire.
                time.sleep(hang["hang_s"])
            worker_engine = clones.get()
            try:
                w_end, w_ckpt = run_local_steps_kernel(
                    worker_engine, w_start, task.batches, lr=task.lr,
                    projection=task.projection,
                    checkpoint_after=task.checkpoint_after)
            finally:
                clones.put(worker_engine)
            done = _TIME()
            return LocalStepsResult(
                index=task.index, client_id=task.client_id, w_end=w_end,
                w_checkpoint=w_ckpt, busy_s=done - started,
                queue_wait_s=started - submitted)

        with obs.span("exec_batch", backend=self.name, tasks=len(tasks),
                      workers=self.workers):
            results = self._supervised(work, tasks, clones, engine, obs)
        if obs.enabled:
            obs.count("exec_tasks_total", len(tasks))
            obs.observe("exec_worker_busy_s", sum(r.busy_s for r in results))
            for r in results:
                obs.observe("exec_queue_wait_s", r.queue_wait_s)
        return results

    def _supervised(self, work, tasks: Sequence[LocalStepsTask], clones,
                    engine: NeuralNetwork, obs) -> list[LocalStepsResult]:
        """Submit all tasks; gather in task order under the hang deadline.

        A timed-out task is resubmitted after growing the pool by one thread
        *and* one engine clone — the wedged thread may never release its
        clone, and with equal capacity the retry would deadlock behind it.
        Retries are bit-identical (pure kernel, pre-drawn batches) and
        bounded by ``retry.max_retries`` per task.
        """
        futures = {i: self._pool.submit(work, task)
                   for i, task in enumerate(tasks)}
        results: list[LocalStepsResult | None] = [None] * len(tasks)
        attempts = {i: 0 for i in range(len(tasks))}
        for i, task in enumerate(tasks):
            while True:
                try:
                    results[i] = futures[i].result(timeout=self.timeout_s)
                    break
                except FutureTimeoutError:
                    attempts[i] += 1
                    if attempts[i] > self.retry.max_retries:
                        raise RuntimeError(
                            f"exec task for client {task.client_id} timed "
                            f"out {attempts[i]} times "
                            f"({self.timeout_s:g}s each); retry budget "
                            f"({self.retry.max_retries}) exhausted") from None
                    if obs.enabled:
                        obs.event("exec_retry", backend=self.name,
                                  client=task.client_id,
                                  attempt=attempts[i], reason="timeout")
                        obs.count("exec_retries_total")
                    self._pool._max_workers += 1
                    clones.put(engine.clone())
                    futures[i] = self._pool.submit(work, task)
        return results  # type: ignore[return-value]

    def close(self) -> None:
        """Shut the pool down and drop the engine clones."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._engines.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadBackend(workers={self.workers})"
