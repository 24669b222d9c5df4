"""repro.chaos — deterministic chaos engineering for the training runtime.

Three pieces:

* :class:`ChaosPlan` / :class:`ChaosInjector` — seeded, declarative kill-points
  whose parameters are pure functions of ``(seed, site, occurrence)``;
* :mod:`repro.chaos.hooks` — the failpoint registry production code fires into
  (:func:`fire` is a no-op ``None`` unless a harness installed an injector);
* :mod:`repro.chaos.campaign` — the acceptance harness behind
  ``python -m repro chaos``: sweep kill-points × backends and assert every
  interrupted run recovers bit-identical to the uninterrupted one.

Every name is resolved on first use by the shared lazy-export helper
(:mod:`repro._lazy`), like every other package's re-exports.  That matters
most for the campaign: it depends on :mod:`repro.core`, which depends on
:mod:`repro.exec`, whose backends fire chaos hooks — so
:mod:`repro.chaos.campaign` loads only when ``run_campaign`` and its
companions are first used.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ChaosPlan",
    "ChaosInjector",
    "ChaosCrash",
    "CHAOS_SITES",
    "chaos",
    "install",
    "uninstall",
    "active",
    "fire",
    "run_campaign",
    "format_campaign",
    "campaign_ok",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.chaos.hooks": (
        "ChaosCrash", "active", "chaos", "fire", "install", "uninstall",
    ),
    "repro.chaos.plan": ("CHAOS_SITES", "ChaosInjector", "ChaosPlan"),
    "repro.chaos.campaign": (
        "run_campaign", "format_campaign", "campaign_ok", "ScenarioOutcome",
    ),
})
