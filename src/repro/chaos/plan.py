"""Seeded chaos plans: declarative, reproducible kill-points for a run.

A :class:`ChaosPlan` names *where* the runtime is attacked (a site) and *which*
occurrences of that site fire, exactly like the fault layer's
:class:`~repro.faults.FaultPlan` names data-plane failures.  The plan never
draws wall-clock randomness: every parameter of an injected failure (at which
byte a write is torn, which bit of a shard is flipped) is a pure function of
``(plan.seed, site, occurrence)``: its generator is
``keyed_rng(plan.seed, "chaos:" + site, occurrence)`` — the
:func:`~repro.utils.rng.keyed_rng` law every seeded stream of the repo uses.
Re-running a chaos campaign with the same plan therefore injects byte-identical
failures, which is what lets the campaign assert the *recovery* is
bit-identical too.

Sites (each counts its own occurrences, starting at 0):

``thread_hang``
    One task execution on a :class:`~repro.exec.threads.ThreadBackend` worker;
    a firing occurrence sleeps ``hang_s`` seconds before computing, tripping
    the backend's per-dispatch timeout.
``torn_write``
    One checkpoint save; a firing occurrence truncates the temp file at a
    derived byte offset and raises :class:`~repro.chaos.hooks.ChaosCrash` —
    the crash-mid-write the atomic-rename idiom must survive.
``crash_after_save``
    One checkpoint save; a firing occurrence raises
    :class:`~repro.chaos.hooks.ChaosCrash` *after* the rename — a clean kill
    with a durable checkpoint on disk.
``shard_corrupt``
    One :class:`~repro.population.store.ClientStateStore` shard-file write; a
    firing occurrence flips one derived bit of the final file after it is
    durably written (simulated bit rot the checksum must catch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import keyed_rng
from repro.utils.spec import dataclass_schema, parse_spec

__all__ = ["ChaosPlan", "ChaosInjector", "CHAOS_SITES"]

#: Every failure site a plan can address, in documentation order.
CHAOS_SITES = ("thread_hang", "torn_write", "crash_after_save",
               "shard_corrupt")


def _as_occurrences(value, name: str) -> tuple[int, ...]:
    if value is None:
        return ()
    if isinstance(value, int):
        value = (value,)
    occs = tuple(int(v) for v in value)
    if any(v < 0 for v in occs):
        raise ValueError(f"{name} occurrences must be >= 0, got {occs}")
    return tuple(sorted(set(occs)))


@dataclass(frozen=True)
class ChaosPlan:
    """Which occurrences of each failure site fire, plus the derivation seed.

    Parameters
    ----------
    seed:
        Root seed of every injected failure's parameters.
    thread_hang / torn_write / crash_after_save / shard_corrupt:
        Occurrence indices (0-based) at which the site fires; an ``int`` is
        accepted as shorthand for a single occurrence.  Empty (the default)
        disables the site.
    hang_s:
        Sleep injected by a firing ``thread_hang`` occurrence; set it above
        the backend's ``timeout_s`` so the supervision layer must act.
    """

    seed: int = 0
    thread_hang: tuple[int, ...] = ()
    torn_write: tuple[int, ...] = ()
    crash_after_save: tuple[int, ...] = ()
    shard_corrupt: tuple[int, ...] = ()
    hang_s: float = 0.25

    def __post_init__(self) -> None:
        for site in CHAOS_SITES:
            object.__setattr__(self, site,
                               _as_occurrences(getattr(self, site), site))
        if self.hang_s < 0:
            raise ValueError(f"hang_s must be >= 0, got {self.hang_s}")

    @property
    def is_null(self) -> bool:
        """True when no site ever fires."""
        return not any(getattr(self, site) for site in CHAOS_SITES)

    def occurrences(self, site: str) -> tuple[int, ...]:
        """The firing occurrence indices of ``site``."""
        if site not in CHAOS_SITES:
            raise ValueError(f"unknown chaos site {site!r}; one of {CHAOS_SITES}")
        return getattr(self, site)

    # ------------------------------------------------------------------
    # Pure parameter derivation
    # ------------------------------------------------------------------
    def _rng(self, site: str, occurrence: int) -> np.random.Generator:
        return keyed_rng(self.seed, f"chaos:{site}", occurrence)

    def params(self, site: str, occurrence: int) -> dict:
        """Failure parameters for ``(site, occurrence)``; pure in the seed.

        ``torn_write`` yields ``frac`` (the fraction of the payload that
        survives, in ``(0, 1)``); ``shard_corrupt`` yields ``offset_frac``
        and ``bit``; ``thread_hang`` yields ``hang_s``.
        """
        if site not in CHAOS_SITES:
            raise ValueError(f"unknown chaos site {site!r}; one of {CHAOS_SITES}")
        rng = self._rng(site, occurrence)
        if site == "thread_hang":
            return {"hang_s": float(self.hang_s)}
        if site == "torn_write":
            return {"frac": float(rng.uniform(0.05, 0.95))}
        if site == "shard_corrupt":
            return {"offset_frac": float(rng.uniform()),
                    "bit": int(rng.integers(0, 8))}
        return {}  # crash_after_save carries no parameters

    # ------------------------------------------------------------------
    # Spec parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: "str | ChaosPlan | None") -> "ChaosPlan":
        """Build a plan from a spec string.

        ``"thread_hang=1,torn_write=0|2,seed=3,hang_s=0.5"`` — occurrence
        lists are ``|``-separated.  ``None`` / ``""`` yield the null plan.
        """
        if spec is None:
            return cls()
        if isinstance(spec, ChaosPlan):
            return spec
        return cls(**parse_spec(spec, "chaos", dataclass_schema(cls)))


class ChaosInjector:
    """Counts each site's occurrences and decides which ones fire.

    One injector serves one run (its counters are the occurrence clock).  The
    decision record of every firing is kept in :attr:`fired` so harnesses can
    assert the intended kill-points actually triggered.
    """

    def __init__(self, plan: ChaosPlan) -> None:
        if not isinstance(plan, ChaosPlan):
            plan = ChaosPlan.parse(plan)
        self.plan = plan
        self.counts: dict[str, int] = {site: 0 for site in CHAOS_SITES}
        self.fired: list[dict] = []

    def decide(self, site: str) -> dict | None:
        """Advance ``site``'s occurrence clock; the firing decision or None."""
        occurrence = self.counts[site]  # KeyError on unknown site: intended
        self.counts[site] = occurrence + 1
        if occurrence not in self.plan.occurrences(site):
            return None
        decision = {"site": site, "occurrence": occurrence,
                    **self.plan.params(site, occurrence)}
        self.fired.append(decision)
        return decision

    def fired_sites(self) -> list[str]:
        """Site names that fired so far, in firing order."""
        return [d["site"] for d in self.fired]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ChaosInjector(seed={self.plan.seed}, "
                f"fired={len(self.fired)}, counts={self.counts})")
