"""Virtual-clock timeline: replay a round's dependency graph into a makespan.

A :class:`SimTimer` is the event scheduler of the simulated-time subsystem.
Algorithms describe each round's client→edge→cloud dependency structure with
nested scopes, and the timer folds the per-action durations (priced by a
:class:`~repro.simtime.cost.CostModel`) into the round's **makespan**:

* ``round(k)`` — a serial scope; its total advances the cumulative clock
  (:attr:`elapsed_s`) when it closes;
* ``parallel()`` — children run concurrently; the scope's total is the *max*
  over its branches (a synchronous barrier: the round waits for the slowest
  sampled participant — which is exactly how the faults layer's stragglers
  acquire real durations);
* ``branch()`` — one participant inside a ``parallel()``; serial within;
* ``compute`` / ``transfer`` / ``probe`` — leaf actions, priced by the cost
  model and added to the innermost open scope;
* ``measure()`` — an *isolated* scope: its total is captured on the context
  object instead of being added to the parent.  The semi-asynchronous
  variant uses it to price an edge's work without blocking the round, then
  schedules the arrival itself via :attr:`now` and :meth:`wait_until`.

The timer is purely arithmetic — it never reads a wall clock, never touches
an RNG, and the algorithms' numerical results are independent of it.  The
shared :data:`~repro.simtime.null.NULL_TIMING` no-op keeps the default path
allocation-free and bit-identical to a build without the subsystem (the same
pattern as :data:`repro.obs.NULL_TRACER`).

**Dependency-graph recording.**  With :attr:`SimTimer.record` set (the
algorithm runner flips it automatically when a live tracer is attached),
every closed ``round`` scope additionally leaves a JSON-ready *timing tree*
on :attr:`SimTimer.last_round_tree`: nested ``{"kind", "label", "dur_s",
"children"}`` scope nodes with ``compute`` / ``transfer`` / ``probe`` /
``wait`` leaves carrying the charged entity and link.  Scopes accept an
optional ``label=`` (``"edge:3"``, ``"client:12"``, ``"phase1"``) naming the
participant a branch prices — the per-entity handle the critical-path
analyzer in :mod:`repro.obs.critical_path` assigns blame to.  Recording only
appends to lists: the max/sum arithmetic (and therefore every makespan) is
bit-identical with recording on or off.
"""

from __future__ import annotations

from repro.simtime.cost import CostModel, NULL_COST_MODEL

__all__ = ["SimTimer"]


class _Frame:
    """One open scope: serial scopes sum child durations, parallel ones max."""

    __slots__ = ("parallel", "total", "node")

    def __init__(self, parallel: bool, node: dict | None = None) -> None:
        self.parallel = parallel
        self.total = 0.0
        #: Timing-tree node being built for this scope (``None`` unless the
        #: owning timer records); recording never touches ``total``.
        self.node = node

    def add(self, dt: float) -> None:
        if self.parallel:
            if dt > self.total:
                self.total = dt
        else:
            self.total += dt


class _Scope:
    """Context manager pushing/popping one frame on a :class:`SimTimer`."""

    __slots__ = ("_timer", "_frame", "_isolated", "_is_round", "duration",
                 "tree")

    def __init__(self, timer: "SimTimer", *, parallel: bool,
                 isolated: bool = False, is_round: bool = False,
                 kind: str = "scope", label: str | None = None,
                 round_index: int | None = None) -> None:
        self._timer = timer
        node = None
        if timer.record:
            node = {"kind": kind, "dur_s": 0.0, "children": []}
            if label is not None:
                node["label"] = label
            if round_index is not None:
                node["round"] = round_index
            stack = timer._stack
            if not isolated and stack and stack[-1].node is not None:
                stack[-1].node["children"].append(node)
        self._frame = _Frame(parallel, node)
        self._isolated = isolated
        self._is_round = is_round
        #: Captured total of an isolated (``measure``) scope, set on exit.
        self.duration = 0.0
        #: Timing tree of this scope (recording timers only, set on exit).
        self.tree: dict | None = None

    def __enter__(self) -> "_Scope":
        self._timer._stack.append(self._frame)
        return self

    def __exit__(self, *exc_info) -> None:
        stack = self._timer._stack
        frame = stack.pop()
        if stack and stack[-1] is not frame:
            pass  # popped our own frame; nothing to repair
        self.duration = frame.total
        if frame.node is not None:
            frame.node["dur_s"] = frame.total
            self.tree = frame.node
            if self._is_round:
                self._timer.last_round_tree = frame.node
        if self._isolated:
            return
        self._timer._add(frame.total)
        if self._is_round:
            self._timer.last_round_s = frame.total


class SimTimer:
    """Accumulates simulated seconds from scope-described dependency graphs.

    One timer tracks one run's clock; build a fresh timer per algorithm when
    comparing methods (``run_experiment`` does).  The cumulative clock is
    exposed as :attr:`elapsed_s`, checkpointed by
    :meth:`~repro.core.base.FederatedAlgorithm.state_dict`, and stamped onto
    every :class:`~repro.metrics.history.HistoryPoint` as ``sim_time_s``.
    """

    enabled = True

    def __init__(self, cost_model: CostModel | None = None, *,
                 record: bool = False) -> None:
        self.cost = cost_model if cost_model is not None else NULL_COST_MODEL
        #: Cumulative simulated seconds over all closed rounds (+ waits).
        self.elapsed_s = 0.0
        #: Makespan of the most recently closed round scope.
        self.last_round_s = 0.0
        #: When ``True``, closed round scopes leave their dependency tree on
        #: :attr:`last_round_tree`.  Purely additive bookkeeping — flipping it
        #: changes no makespan bit.
        self.record = bool(record)
        #: Timing tree of the most recently closed round scope (recording
        #: timers only; ``None`` otherwise).
        self.last_round_tree: dict | None = None
        self._stack: list[_Frame] = []

    # ----------------------------------------------------------------- scopes
    def round(self, round_index: int) -> _Scope:
        """Serial scope for one cloud round; advances the cumulative clock."""
        return _Scope(self, parallel=False, is_round=True, kind="round",
                      round_index=round_index)

    def parallel(self, label: str | None = None) -> _Scope:
        """Concurrent children: total = max over the enclosed branches."""
        return _Scope(self, parallel=True, kind="parallel", label=label)

    def branch(self, label: str | None = None) -> _Scope:
        """One participant of a ``parallel()`` scope; serial within."""
        return _Scope(self, parallel=False, kind="branch", label=label)

    def measure(self, label: str | None = None) -> _Scope:
        """Isolated serial scope: captures ``.duration``, adds nothing.

        On a recording timer the measured dependency tree is captured on the
        scope's ``.tree`` (it is *not* attached to the enclosing round — an
        isolated leg is not part of the round's makespan).
        """
        return _Scope(self, parallel=False, isolated=True, kind="measure",
                      label=label)

    # ----------------------------------------------------------------- leaves
    def _add(self, dt: float) -> None:
        if dt < 0.0:
            raise ValueError(f"durations must be nonnegative, got {dt}")
        if self._stack:
            self._stack[-1].add(dt)
        else:
            self.elapsed_s += dt

    def _leaf(self, kind: str, dt: float, **fields) -> None:
        """Charge ``dt`` and, when recording, append a leaf to the open scope."""
        self._add(dt)
        if self.record and self._stack:
            node = self._stack[-1].node
            if node is not None:
                node["children"].append({"kind": kind, "dur_s": dt, **fields})

    def compute(self, entity, steps: int, *, scale: float = 1.0) -> None:
        """Charge ``steps`` local SGD steps on device ``entity``."""
        self._leaf("compute", self.cost.compute_s(entity, steps, scale=scale),
                   entity=entity, steps=steps)

    def transfer(self, link: str, entity, floats: float) -> None:
        """Charge one message of ``floats`` payload units on ``link``."""
        self._leaf("transfer", self.cost.transfer_s(link, entity, floats),
                   entity=entity, link=link)

    def probe(self, entity) -> None:
        """Charge one Phase-2 minibatch loss evaluation on ``entity``."""
        self._leaf("probe", self.cost.probe_s(entity), entity=entity)

    # ------------------------------------------------------- absolute queries
    @property
    def now(self) -> float:
        """Absolute simulated time, including open serial scopes.

        Only meaningful outside ``parallel()`` scopes (an open parallel
        frame's partial max is not a point in time) — the semi-async
        scheduler queries it between dispatches, where the stack holds just
        the round scope.
        """
        return self.elapsed_s + sum(f.total for f in self._stack)

    def wait_until(self, t_abs: float, label: str | None = None) -> None:
        """Advance the clock to absolute time ``t_abs`` (no-op if passed).

        Note the charged delta is ``t_abs - now``, a floating-point
        subtraction; when an exact duration is known (e.g. waiting out a leg
        dispatched at the current instant), prefer :meth:`advance` with that
        duration — it reproduces a serial scope's arithmetic bit-for-bit.
        ``label`` names what was waited on in the recorded timing tree.
        """
        dt = t_abs - self.now
        if dt > 0.0:
            self._wait(dt, label)

    def advance(self, dt: float, label: str | None = None) -> None:
        """Charge an explicit idle duration to the innermost open scope.

        ``label`` names what was waited on (``"edge:3"``) in the recorded
        timing tree — the blame handle for barrier/staleness waits.
        """
        if dt > 0.0:
            self._wait(dt, label)

    def _wait(self, dt: float, label: str | None) -> None:
        if label is not None:
            self._leaf("wait", dt, label=label)
        else:
            self._leaf("wait", dt)

    # ---------------------------------------------------------- cost queries
    def compute_s(self, entity, steps: int, *, scale: float = 1.0) -> float:
        """Price (without charging) ``steps`` on ``entity``."""
        return self.cost.compute_s(entity, steps, scale=scale)

    def transfer_s(self, link: str, entity, floats: float) -> float:
        """Price (without charging) one message on ``link``."""
        return self.cost.transfer_s(link, entity, floats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimTimer(elapsed_s={self.elapsed_s:.6f}, cost={self.cost!r})"
