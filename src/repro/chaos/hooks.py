"""Failpoint registry: the runtime's hooks into an installed chaos injector.

Production code calls :func:`fire` at each failure site (one attribute lookup
and a ``None`` check when no injector is installed — the hot path costs
nothing).  A chaos harness installs a :class:`~repro.chaos.plan.ChaosInjector`
for the duration of a run, either explicitly via :func:`install` /
:func:`uninstall` or with the :func:`chaos` context manager::

    with chaos(ChaosPlan(torn_write=(1,), seed=3)) as injector:
        algo.run(rounds=6, checkpoint_path=path, checkpoint_every=2)
    assert injector.fired_sites() == ["torn_write"]

Injected process deaths are simulated by raising :class:`ChaosCrash` — a
dedicated exception so harnesses can catch exactly the injected kill and
nothing else.  The registry is deliberately process-global (module state):
failure sites live deep inside backends and persistence helpers whose call
signatures should not grow a chaos parameter.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only; loaded by install()
    from repro.chaos.plan import ChaosInjector, ChaosPlan

__all__ = ["ChaosCrash", "chaos", "install", "uninstall", "active", "fire"]


class ChaosCrash(RuntimeError):
    """An injected crash standing in for a SIGKILL of the training process."""


_ACTIVE: ChaosInjector | None = None


def install(plan: "ChaosPlan | ChaosInjector | str") -> ChaosInjector:
    """Install an injector (building one from a plan/spec); returns it."""
    global _ACTIVE
    from repro.chaos.plan import ChaosInjector, ChaosPlan

    injector = (plan if isinstance(plan, ChaosInjector)
                else ChaosInjector(ChaosPlan.parse(plan)))
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    """Remove the installed injector (no-op when none is installed)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> ChaosInjector | None:
    """The currently installed injector, if any."""
    return _ACTIVE


def fire(site: str) -> dict | None:
    """Advance ``site``'s occurrence clock on the installed injector.

    Returns the firing decision (site, occurrence, derived parameters) when
    this occurrence is a kill-point, else ``None``.  With no injector
    installed this is a near-free constant ``None`` — the production path.
    """
    injector = _ACTIVE
    if injector is None:
        return None
    return injector.decide(site)


@contextmanager
def chaos(plan: "ChaosPlan | ChaosInjector | str") -> Iterator[ChaosInjector]:
    """Scoped installation: ``with chaos(plan) as injector: ...``."""
    injector = install(plan)
    try:
        yield injector
    finally:
        uninstall()
