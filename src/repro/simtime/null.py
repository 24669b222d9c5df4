"""The null virtual clock and the ``timing=`` resolver.

:data:`NULL_TIMING` is the default timer of every algorithm: each scope is a
shared no-op, each leaf free, the clock pinned at zero.  It lives apart from
:mod:`repro.simtime.timeline` and :mod:`repro.simtime.cost` so that a run
without a cost model never loads either; :func:`resolve_timing` imports them
only to build a live :class:`~repro.simtime.timeline.SimTimer`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only; loaded for a live clock
    from repro.simtime.timeline import SimTimer

__all__ = ["NullTiming", "NULL_TIMING", "resolve_timing"]


class _NullScope:
    """Shared no-op scope of :class:`NullTiming`."""

    __slots__ = ()
    duration = 0.0
    tree = None

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SCOPE = _NullScope()


class NullTiming:
    """No-op timer: the default when no cost model is installed.

    Every scope is a shared no-op context, every leaf free, the clock pinned
    at zero.  Algorithms can therefore call the timing hooks unconditionally
    on their hot paths — the same contract as
    :class:`~repro.obs.tracer.NullTracer`.
    """

    enabled = False
    elapsed_s = 0.0
    last_round_s = 0.0
    now = 0.0
    record = False
    last_round_tree = None

    @property
    def cost(self):
        """The shared :data:`~repro.simtime.cost.NULL_COST_MODEL`."""
        from repro.simtime.cost import NULL_COST_MODEL

        return NULL_COST_MODEL

    def round(self, round_index: int) -> _NullScope:
        """No-op scope; the clock stays at zero."""
        return _NULL_SCOPE

    def parallel(self, label: str | None = None) -> _NullScope:
        """No-op scope; the clock stays at zero."""
        return _NULL_SCOPE

    def branch(self, label: str | None = None) -> _NullScope:
        """No-op scope; the clock stays at zero."""
        return _NULL_SCOPE

    def measure(self, label: str | None = None) -> _NullScope:
        """No-op scope whose ``duration`` is always 0.0."""
        return _NULL_SCOPE

    def compute(self, entity, steps: int, *, scale: float = 1.0) -> None:
        """Charge nothing."""
        return None

    def transfer(self, link: str, entity, floats: float) -> None:
        """Charge nothing."""
        return None

    def probe(self, entity) -> None:
        """Charge nothing."""
        return None

    def wait_until(self, t_abs: float, label: str | None = None) -> None:
        """Charge nothing."""
        return None

    def advance(self, dt: float, label: str | None = None) -> None:
        """Charge nothing."""
        return None

    def compute_s(self, entity, steps: int, *, scale: float = 1.0) -> float:
        """Always 0.0 under the null timer."""
        return 0.0

    def transfer_s(self, link: str, entity, floats: float) -> float:
        """Always 0.0 under the null timer."""
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTiming()"


#: Shared no-op timer (stateless; safe to share across algorithms).
NULL_TIMING = NullTiming()


def resolve_timing(timing) -> "SimTimer | NullTiming":
    """Resolve the ``timing=`` argument of :class:`FederatedAlgorithm`.

    Accepts ``None`` (no clock), an existing :class:`SimTimer` /
    :class:`NullTiming` (shared with the caller — note a shared ``SimTimer``
    accumulates across runs), a :class:`~repro.simtime.cost.CostModel`, or a
    cost-model spec string (``"hetero,seed=1,..."``).  A null cost model
    resolves to the shared :data:`NULL_TIMING`, keeping the default path
    free.
    """
    if timing is None:
        return NULL_TIMING
    if isinstance(timing, NullTiming):
        return timing
    from repro.simtime.cost import make_cost_model
    from repro.simtime.timeline import SimTimer

    if isinstance(timing, SimTimer):
        return timing
    model = make_cost_model(timing)
    if model.is_null:
        return NULL_TIMING
    return SimTimer(model)
