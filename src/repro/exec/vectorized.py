"""VectorizedBackend — stack same-shape clients into one batched SGD kernel.

A serial round over many small clients is dominated by Python/layer dispatch
overhead, not arithmetic.  This backend stacks the clients of a dispatch that
share a step count and per-step batch shapes into ``(n_clients, batch, dim)``
tensors and runs each SGD step of the *whole group* as a handful of batched
``np.matmul`` calls (stacked GEMMs) with one leading client axis — for the
paper's convex model (multinomial logistic regression) and for the non-convex
MLP stack alike.

Eligibility is declarative: every layer of the engine must carry a
``vector_kind`` tag (:class:`~repro.nn.layers.Linear`, ``ReLU``, ``Tanh``,
``Identity`` do) and the loss must be exactly
:class:`~repro.nn.losses.SoftmaxCrossEntropy`; tasks must use the identity
projection and carry one pre-drawn batch per declared step.  Anything else —
custom layers, non-identity projections, a batch list inconsistent with
``task.steps`` — falls back to the serial kernel per task, bit-identically.

Bit-exactness: NumPy applies the batched matmul/reduction kernels slice-by-
slice with the same accumulation order as the equivalent 2-D call, so every
client's update is bit-identical to the serial kernel.  The equivalence tests
assert this for logistic *and* MLP engines on every backend, and the
``nn/gradcheck`` cross-checks tie the batched step to the finite-difference
gradient of the serial model.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.exec.base import (
    ExecutionBackend,
    LocalStepsResult,
    LocalStepsTask,
    run_local_steps_kernel,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import NeuralNetwork
from repro.obs import NULL_TRACER
from repro.ops.numerics import softmax
from repro.ops.projections import identity_projection

__all__ = ["VectorizedBackend", "engine_is_batchable"]

_TIME = time.perf_counter


def _layer_kind(layer) -> str | None:
    """The layer's declared batched-kernel tag, non-inherited.

    Read from the exact class only: a subclass may override
    ``forward``/``backward``, so it must re-declare ``vector_kind`` itself to
    claim its bits match the stacked kernel's.
    """
    return type(layer).__dict__.get("vector_kind")


def engine_is_batchable(engine: NeuralNetwork) -> bool:
    """True when every layer and the loss are in the batched kernel's vocabulary."""
    if type(engine.loss_fn) is not SoftmaxCrossEntropy:
        return False
    return all(_layer_kind(layer) is not None for layer in engine.layers)


class _StackedModel:
    """An engine's layer stack replicated over ``n`` clients.

    Holds ``(n, …)``-stacked copies of every parameter tensor, each
    initialized from the same ``w_start``, plus the flat-buffer slices needed
    to reassemble per-client parameter vectors in the engine's spec order.
    """

    def __init__(self, engine: NeuralNetwork, w_start: np.ndarray,
                 n: int) -> None:
        self.n = n
        self.dim = w_start.size
        slices: dict[int, dict[str, slice]] = {}
        for layer, spec, sl in engine._specs:
            slices.setdefault(id(layer), {})[spec.name] = sl
        #: list of (kind, payload); only "linear" entries carry parameters.
        self.layers: list[tuple[str, dict]] = []
        for layer in engine.layers:
            kind = _layer_kind(layer)
            if kind != "linear":
                self.layers.append((kind, {}))
                continue
            sl_w = slices[id(layer)]["W"]
            sl_b = slices[id(layer)].get("b")
            self.layers.append(("linear", {
                "Ws": np.repeat(w_start[sl_w].reshape(
                    1, layer.in_features, layer.out_features), n, axis=0),
                "bs": (None if sl_b is None else np.repeat(
                    w_start[sl_b].reshape(1, layer.out_features), n, axis=0)),
                "sl_w": sl_w,
                "sl_b": sl_b,
            }))

    def step(self, X: np.ndarray, y: np.ndarray, lr: float, l2: float) -> None:
        """One batched SGD step over all ``n`` clients.

        Replays exactly the serial kernel's floating-point operations with one
        leading stack axis: per Linear layer ``out = X @ W (+ b)``; the fused
        loss gradient ``g = (softmax(logits) − onehot)/B``; backward
        ``gW = Xᵀ g``, ``gb = Σ g``, ``g ← g Wᵀ`` gated through the activation
        masks; then ``θ -= lr·(∇ + l2·θ)`` only once the whole backward has
        finished — the same update order as the flat-buffer serial step, so
        gradient propagation always reads pre-update weights.
        """
        n, batch = self.n, y.shape[1]
        acts = X
        caches: list = []
        for kind, p in self.layers:
            if kind == "linear":
                caches.append(acts)
                out = np.matmul(acts, p["Ws"])
                if p["bs"] is not None:
                    out += p["bs"][:, None, :]
                acts = out
            elif kind == "relu":
                caches.append(acts > 0.0)
                acts = np.maximum(acts, 0.0)
            elif kind == "tanh":
                acts = np.tanh(acts)
                caches.append(acts)
            else:  # identity
                caches.append(None)
        grad = softmax(acts, axis=-1)
        grad[np.arange(n)[:, None], np.arange(batch)[None, :], y] -= 1.0
        grad /= batch
        updates: list[tuple[dict, np.ndarray, np.ndarray | None]] = []
        for i in range(len(self.layers) - 1, -1, -1):
            kind, p = self.layers[i]
            cache = caches[i]
            if kind == "linear":
                gW = np.matmul(cache.swapaxes(1, 2), grad)
                gb = None if p["bs"] is None else grad.sum(axis=1)
                updates.append((p, gW, gb))
                if i:  # the first layer's input gradient is never consumed
                    grad = np.matmul(grad, p["Ws"].swapaxes(1, 2))
            elif kind == "relu":
                grad = grad * cache
            elif kind == "tanh":
                grad = grad * (1.0 - cache * cache)
        for p, gW, gb in updates:
            if l2:
                gW = gW + l2 * p["Ws"]
            p["Ws"] -= lr * gW
            if gb is not None:
                if l2:
                    gb = gb + l2 * p["bs"]
                p["bs"] -= lr * gb

    def flatten(self, i: int) -> np.ndarray:
        """Client ``i``'s flat parameter vector, reassembled in spec order."""
        flat = np.empty(self.dim, dtype=np.float64)
        for kind, p in self.layers:
            if kind != "linear":
                continue
            flat[p["sl_w"]] = p["Ws"][i].ravel()
            if p["sl_b"] is not None:
                flat[p["sl_b"]] = p["bs"][i]
        return flat


class VectorizedBackend(ExecutionBackend):
    """Batched cross-client SGD; serial fallback for everything else."""

    name = "vectorized"

    def run_tasks(self, engine: NeuralNetwork, w_start: np.ndarray,
                  tasks: Sequence[LocalStepsTask], *, obs=None,
                  ) -> list[LocalStepsResult]:
        """Group eligible tasks and run each group as one stacked kernel."""
        obs = obs if obs is not None else NULL_TRACER
        started = _TIME()
        results: list[LocalStepsResult | None] = [None] * len(tasks)
        vectorizable = engine_is_batchable(engine)
        groups: dict[tuple, list[tuple[int, LocalStepsTask]]] = {}
        leftover: list[tuple[int, LocalStepsTask]] = []
        for pos, task in enumerate(tasks):
            # Eligibility is per task.  The group key carries *every* step's
            # batch shapes — not just the first's — so a task whose later
            # batches are ragged lands in its own (still batchable) group
            # instead of crashing np.stack mid-kernel; a batch list
            # inconsistent with the declared step count is demoted to the
            # serial fallback, which runs exactly the batches present (the
            # same contract as SerialBackend for that descriptor).
            if (vectorizable and task.projection is identity_projection
                    and task.batches and len(task.batches) == task.steps):
                key = (task.steps, task.checkpoint_after, task.lr,
                       tuple((np.shape(X), np.shape(y))
                             for X, y in task.batches))
                groups.setdefault(key, []).append((pos, task))
            else:
                leftover.append((pos, task))
        with obs.span("exec_batch", backend=self.name, tasks=len(tasks),
                      groups=len(groups), fallback=len(leftover)):
            for members in groups.values():
                self._run_group(engine, w_start, members, results)
            for pos, task in leftover:
                w_end, w_ckpt = run_local_steps_kernel(
                    engine, w_start, task.batches, lr=task.lr,
                    projection=task.projection,
                    checkpoint_after=task.checkpoint_after)
                results[pos] = LocalStepsResult(
                    index=task.index, client_id=task.client_id, w_end=w_end,
                    w_checkpoint=w_ckpt)
        if obs.enabled:
            obs.count("exec_tasks_total", len(tasks))
            obs.count("exec_vectorized_tasks_total",
                      len(tasks) - len(leftover))
            obs.observe("exec_worker_busy_s", _TIME() - started)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------ the kernel
    def _run_group(self, engine: NeuralNetwork, w_start: np.ndarray,
                   members: list[tuple[int, LocalStepsTask]],
                   results: list[LocalStepsResult | None]) -> None:
        """One batched SGD run for tasks sharing (steps, checkpoint, lr, shapes)."""
        task0 = members[0][1]
        steps, lr, l2 = task0.steps, task0.lr, engine.l2
        ckpt = task0.checkpoint_after
        w_start = np.asarray(w_start, dtype=np.float64)
        model = _StackedModel(engine, w_start, len(members))
        ckpt_flats: list[np.ndarray] | None = None
        for t in range(steps):
            X = np.stack([np.asarray(task.batches[t][0], dtype=np.float64)
                          for _, task in members])
            y = np.stack([np.asarray(task.batches[t][1])
                          for _, task in members])
            model.step(X, y, lr, l2)
            if ckpt is not None and t + 1 == ckpt:
                ckpt_flats = [model.flatten(i) for i in range(len(members))]
        for i, (pos, task) in enumerate(members):
            results[pos] = LocalStepsResult(
                index=task.index, client_id=task.client_id,
                w_end=model.flatten(i),
                w_checkpoint=None if ckpt_flats is None else ckpt_flats[i])
