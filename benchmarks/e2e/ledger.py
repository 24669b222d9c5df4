"""Outside-in per-layer wall ledger.

The benchmark measures layers without changing the program: for a traced run
it replaces each layer's public function with a wrapper defined here, and puts
the original back afterwards.  Every wrapper pushes a frame on one shared
stack, so a layer's *self time* is its call's duration minus the time covered
by wrapped calls nested inside it.  Self times of all layers therefore add up
to the wall time the layers cover, with no double counting.

Layers at the granularity of an edge server and above also record a span
(name, start, end, parent id); finer layers fold into the innermost open span
as a call count and self time, so a span list stays small enough to keep in
memory for a whole run.
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Iterator

__all__ = ["Target", "TARGETS", "LAYERS", "Ledger", "install", "patched",
           "timed", "wrapper_costs"]

_TIME = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: ``owner.attr`` in ``module`` becomes ``layer``.

    ``owner`` is a class name, or ``None`` for a module-level function (it is
    then wrapped in ``module``'s namespace, where callers look it up).
    ``span`` marks layers recorded as spans.
    """

    layer: str
    module: str
    owner: str | None
    attr: str
    span: bool = False


#: Every layer wrapped in a traced run.  ``exec.run_tasks``/``exec.prepare``
#: are wrapped on the backend instance instead (see :func:`install`).
TARGETS: tuple[Target, ...] = (
    Target("core.run", "repro.core.base", "FederatedAlgorithm", "run",
           span=True),
    Target("core.run_round", "repro.core.hierminimax", "HierMinimax",
           "run_round", span=True),
    Target("core.run_round", "repro.baselines.fedavg", "FedAvg", "run_round",
           span=True),
    Target("core.run_round", "repro.baselines.stochastic_afl",
           "StochasticAFL", "run_round", span=True),
    Target("core.run_round", "repro.baselines.drfa", "DRFA", "run_round",
           span=True),
    Target("core.run_round", "repro.baselines.hierfavg", "HierFAVG",
           "run_round", span=True),
    Target("sim.edge.model_update", "repro.sim.edge", "EdgeServer",
           "model_update", span=True),
    Target("sim.edge.estimate_loss", "repro.sim.edge", "EdgeServer",
           "estimate_loss", span=True),
    Target("sim.cloud.update_weights", "repro.sim.cloud", "CloudServer",
           "update_weights", span=True),
    Target("membership.begin_round", "repro.membership.manager",
           "MembershipManager", "begin_round", span=True),
    Target("metrics.evaluate_record", "repro.core.base", None,
           "evaluate_record", span=True),
    Target("faults.save_checkpoint", "repro.core.base", "FederatedAlgorithm",
           "save_checkpoint", span=True),
    Target("population.end_round", "repro.population.virtual",
           "VirtualPopulation", "end_round", span=True),
    Target("sim.client.estimate_loss", "repro.sim.client", "Client",
           "estimate_loss"),
    Target("data.next_batch", "repro.data.batching", "MinibatchSampler",
           "next_batch"),
    Target("faults.receive", "repro.faults.injector", "FaultInjector",
           "receive"),
    Target("defense.robust_combine", "repro.sim.edge", None,
           "robust_combine"),
    Target("defense.robust_combine", "repro.core.hierminimax", None,
           "robust_combine"),
    Target("population.client", "repro.population.virtual",
           "VirtualPopulation", "client"),
)

#: Timed layer names in report order.  ``faults.load_checkpoint`` is the
#: benchmark's own reload of the last checkpoint after the run.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    ["exec.run_tasks", "exec.prepare"]
    + [t.layer for t in TARGETS] + ["faults.load_checkpoint"]))

_MISSING = object()


class Ledger:
    """Call counts, self times and spans of wrapped layers."""

    def __init__(self) -> None:
        #: layer -> ``[calls, self_s]``, shared by every wrapper of the layer.
        self.totals: dict[str, list] = {}
        #: Layers recorded as spans (the rest fold into their parent span).
        self.span_layers: set[str] = set()
        #: Duration of every ``HierMinimax.run_round`` call, in seconds.
        self.round_s: list[float] = []
        #: Bytes of every checkpoint file written.
        self.checkpoint_bytes = 0
        #: ``[id, layer, start, end, parent_id, fold]`` per span, times in
        #: seconds since the ledger was created; ``fold`` maps a finer layer
        #: to ``[calls, self_s]`` (``None`` when nothing folded in).
        self.spans: list[list] = []
        self._stack: list[list[float]] = []
        self._open: list | None = None
        self.t0 = _TIME()

    def wrap(self, layer: str, fn: Callable, *, span: bool = False,
             ) -> Callable:
        """A stand-in for ``fn`` that books each call to ``layer``.

        Each call pushes a frame holding the time its wrapped children
        covered; on return the call's duration goes to the parent frame and
        the duration minus the children's share to ``layer``'s self time.
        """
        acc = self.totals.setdefault(layer, [0, 0.0])
        stack = self._stack
        spans = self.spans
        t0 = self.t0
        ledger = self

        if span:
            self.span_layers.add(layer)

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                parent = ledger._open
                frame = [0.0]
                stack.append(frame)
                start = _TIME()
                record = [len(spans), layer, start - t0, 0.0,
                          -1 if parent is None else parent[0], None]
                spans.append(record)
                ledger._open = record
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = _TIME()
                    duration = end - start
                    stack.pop()
                    acc[0] += 1
                    acc[1] += duration - frame[0]
                    if stack:
                        stack[-1][0] += duration
                    record[3] = end - t0
                    ledger._open = parent
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                frame = [0.0]
                stack.append(frame)
                start = _TIME()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = _TIME() - start
                    stack.pop()
                    own = duration - frame[0]
                    acc[0] += 1
                    acc[1] += own
                    if stack:
                        stack[-1][0] += duration
                    parent = ledger._open
                    if parent is not None:
                        # Finer than a span: fold into the innermost open one.
                        fold = parent[5]
                        if fold is None:
                            fold = parent[5] = {}
                        slot = fold.get(layer)
                        if slot is None:
                            fold[layer] = [1, own]
                        else:
                            slot[0] += 1
                            slot[1] += own
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def summary(self, wall_s: float) -> dict[str, dict[str, float]]:
        """``{layer: {calls, self_s, share}}`` for every layer in
        :data:`LAYERS`; a layer never entered reports zeros."""
        out = {}
        for layer in LAYERS:
            calls, self_s = self.totals.get(layer, (0, 0.0))
            out[layer] = {"calls": calls, "self_s": self_s,
                          "share": self_s / wall_s}
        return out

    def wrapper_seconds(self, leaf_s: float, span_s: float,
                        skip: tuple[str, ...] = ()) -> float:
        """Time the wrappers added to the run: each layer's call count times
        the per-call cost of its kind of wrapper (see :func:`wrapper_costs`),
        leaving out the layers in ``skip``."""
        return sum(calls * (span_s if layer in self.span_layers else leaf_s)
                   for layer, (calls, _) in self.totals.items()
                   if layer not in skip)

    def span_document(self) -> list[dict]:
        """The recorded spans as JSON-ready dicts."""
        return [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent,
                 "fold": {k: {"calls": c, "self_s": s}
                          for k, (c, s) in (fold or {}).items()}}
                for sid, name, start, end, parent, fold in self.spans]


def wrapper_costs(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Seconds one call through a folded and through a span wrapper adds to a
    bare call, as ``(leaf_s, span_s)``.

    Both are timed inside an open span, as in a traced run, on a throwaway
    ledger; each is the fastest of ``repeats`` loops of ``calls`` calls, so
    a slow moment of the host does not inflate it.
    """
    ledger = Ledger()

    def noop() -> None:
        return None

    def loop(fn: Callable) -> float:
        start = _TIME()
        for _ in range(calls):
            fn()
        return _TIME() - start

    inside_span = ledger.wrap("calibrate.outer", loop, span=True)
    leaf = ledger.wrap("calibrate.leaf", noop)
    span = ledger.wrap("calibrate.span", noop, span=True)
    bare = min(loop(noop) for _ in range(repeats))
    costs = []
    for wrapped in (leaf, span):
        costs.append(max(0.0, (min(inside_span(wrapped)
                                   for _ in range(repeats)) - bare) / calls))
        ledger.spans.clear()
    return costs[0], costs[1]


def _resolve(target: Target) -> Any:
    module = import_module(target.module)
    return module if target.owner is None else getattr(module, target.owner)


@contextmanager
def patched(owner: Any, attr: str, make: Callable[[Callable], Callable],
            ) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)``; restore it on exit.

    The original is read from ``vars(owner)`` so exactly that object goes
    back; an attribute that was only inherited (an instance method looked up
    on the class) is deleted again instead.
    """
    original = vars(owner).get(attr, _MISSING)
    current = getattr(owner, attr) if original is _MISSING else original
    setattr(owner, attr, make(current))
    try:
        yield
    finally:
        if original is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


def _measured(ledger: Ledger, target: Target, fn: Callable) -> Callable:
    """``fn``, or for the two targets that record more than time, ``fn``
    with HierMinimax's round latency or the checkpoint's size recorded."""
    if (target.owner, target.attr) == ("HierMinimax", "run_round"):
        return timed(ledger.round_s)(fn)
    if target.layer == "faults.save_checkpoint":
        def save_checkpoint(self: Any, path: Any, *args: Any,
                            **kwargs: Any) -> Any:
            out = fn(self, path, *args, **kwargs)
            ledger.checkpoint_bytes += os.path.getsize(path)
            return out
        return save_checkpoint
    return fn


@contextmanager
def install(ledger: Ledger, backend: Any) -> Iterator[None]:
    """Wrap every target and the backend's ``run_tasks``/``prepare``."""
    with ExitStack() as stack:
        for target in TARGETS:
            stack.enter_context(patched(
                _resolve(target), target.attr,
                lambda fn, t=target: ledger.wrap(
                    t.layer, _measured(ledger, t, fn), span=t.span)))
        for attr in ("run_tasks", "prepare"):
            stack.enter_context(patched(
                backend, attr,
                lambda fn, name=f"exec.{attr}": ledger.wrap(name, fn)))
        yield


def timed(sink: list[float]) -> Callable[[Callable], Callable]:
    """``make`` for :func:`patched`: append each call's duration to ``sink``.

    The one thin wrapper an untraced run carries (HierMinimax round latency);
    a traced run puts it inside the layer's ledger wrapper.
    """
    def make(fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = _TIME()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(_TIME() - start)
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper
    return make
