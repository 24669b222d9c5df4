"""Defense policy: which robust rule runs where, and the loss-report clip.

A :class:`DefensePolicy` binds up to three independent countermeasures:

* ``edge`` — the :class:`~repro.defense.aggregators.RobustAggregator` applied
  at the client→edge aggregation blocks (and the interior nodes of the
  multilayer generalization);
* ``cloud`` — the aggregator applied at the edge→cloud (or client→cloud)
  aggregation;
* ``loss_clip`` — the score-damped minimax weight update: reported losses are
  capped at ``loss_clip ×`` the round's median report before the simplex
  ascent, so a poisoned loss cannot dominate the fairness weights (the
  ``loss_inflation`` countermeasure).

``resolve_defense(None)`` — or a policy whose every slot is off — keeps
algorithms on their original code paths, bit-identical to a build without this
subsystem.  ``resolve_defense("mean")`` installs the reference aggregator,
which call sites also treat as the original path (regression-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.ops.numerics import median
from repro.utils.spec import convert, to_float, tokenize

if TYPE_CHECKING:  # pragma: no cover - typing only; loaded with a defense
    from repro.defense.aggregators import RobustAggregator

__all__ = ["DefensePolicy", "resolve_defense", "robust_combine",
           "clip_loss_reports"]

#: Default loss cap (× median report) installed by single-name specs.
DEFAULT_LOSS_CLIP = 3.0

#: ``key=value`` entries of a defense spec; ``loss_clip=none`` (or ``0``)
#: switches the clip off.
_DEFENSE_SCHEMA = {
    "edge": str, "cloud": str, "trim": to_float,
    "loss_clip": lambda raw: None if raw in ("none", "0") else to_float(raw)}


@dataclass(frozen=True)
class DefensePolicy:
    """Where each countermeasure is installed for one run."""

    edge: RobustAggregator | None = None
    cloud: RobustAggregator | None = None
    loss_clip: float | None = None

    def __post_init__(self) -> None:
        if self.loss_clip is not None and self.loss_clip <= 1.0:
            raise ValueError(
                f"loss_clip must be > 1 (a multiple of the median report) "
                f"or None, got {self.loss_clip}")

    @property
    def is_null(self) -> bool:
        """True when no countermeasure can alter any code path."""
        return (self.edge is None and self.cloud is None
                and self.loss_clip is None)

    def tier(self, which: str) -> RobustAggregator | None:
        """The *active* aggregator for ``"edge"`` or ``"cloud"``.

        Returns ``None`` for both an empty slot and the reference rule —
        call sites branch to their original inline accumulation in either
        case, which is what keeps the mean configuration bit-identical.
        """
        agg = self.edge if which == "edge" else self.cloud
        if agg is None or agg.reference:
            return None
        return agg

    def describe(self) -> str:
        """One-line ``edge=…,cloud=…[,loss_clip=…]`` summary for logs/CLI."""
        parts = [f"edge={self.edge.name if self.edge else 'mean'}",
                 f"cloud={self.cloud.name if self.cloud else 'mean'}"]
        if self.loss_clip is not None:
            parts.append(f"loss_clip={self.loss_clip:g}")
        return ",".join(parts)


def resolve_defense(spec) -> DefensePolicy | None:
    """Coerce ``spec`` into a :class:`DefensePolicy` (or ``None``).

    Accepted forms::

        None                          -> None (defense layer entirely absent)
        DefensePolicy(...)            -> itself
        TrimmedMean(0.3)              -> that rule at both tiers + loss clip
        "mean"                        -> reference policy (original code paths)
        "trimmed_mean"                -> trimmed mean at both tiers + loss clip
        "edge=median,cloud=krum"      -> per-tier rules, no loss clip unless set
        "trimmed_mean,trim=0.3,loss_clip=2.5"  -> parameterized
    """
    if spec is None or isinstance(spec, DefensePolicy):
        return spec
    from repro.defense.aggregators import (
        RobustAggregator,
        TrimmedMean,
        resolve_aggregator,
    )

    if isinstance(spec, RobustAggregator):
        clip = None if spec.reference else DEFAULT_LOSS_CLIP
        return DefensePolicy(edge=spec, cloud=spec, loss_clip=clip)
    if not isinstance(spec, str):
        raise TypeError(f"defense must be None, a name, a RobustAggregator, "
                        f"or a DefensePolicy, got {type(spec).__name__}")
    both, items = tokenize(spec, "defense", leading=True)
    values = convert("defense", items, _DEFENSE_SCHEMA)
    loss_clip = values.get("loss_clip")

    def build(name: str | None) -> RobustAggregator | None:
        if name is None:
            return None
        if name == "trimmed_mean" and "trim" in values:
            return TrimmedMean(trim=values["trim"])
        return resolve_aggregator(name)

    if both is not None:
        agg = build(both)
        if "loss_clip" not in values and not (agg is None or agg.reference):
            loss_clip = DEFAULT_LOSS_CLIP
        return DefensePolicy(edge=agg, cloud=agg, loss_clip=loss_clip)
    return DefensePolicy(edge=build(values.get("edge")),
                         cloud=build(values.get("cloud")), loss_clip=loss_clip)


def robust_combine(aggregator: RobustAggregator, entries, *, ref=None,
                   faults=None, round_index: int = 0,
                   link: str = "") -> np.ndarray | None:
    """Run one aggregation point through ``aggregator`` with suspicion plumbing.

    ``entries`` is the round's delivered upload list ``[(sender, weight,
    vector), ...]``; returns the combined vector, or ``None`` when nothing was
    delivered (the caller degrades exactly as it would under faults).
    Rejected/clipped senders are reported to ``faults.suspect`` — which feeds
    the ``defense`` trace events and the ``byzantine_filtered_total`` counter.
    """
    if not entries:
        return None
    out = aggregator.combine([v for _, _, v in entries],
                             weights=[w for _, w, _ in entries], ref=ref)
    if faults is not None:
        for idx in out.rejected:
            faults.suspect(round_index, entries[idx][0], action="rejected",
                           aggregator=aggregator.name, link=link)
        for idx in out.clipped:
            faults.suspect(round_index, entries[idx][0], action="clipped",
                           aggregator=aggregator.name, link=link)
    return out.value


def clip_loss_reports(losses: dict, factor: float,
                      ) -> tuple[dict, list, float]:
    """Cap loss reports at ``factor ×`` their median (the score-damped update).

    Returns ``(clipped_losses, clipped_ids, cap)``.  With fewer than three
    reports the median is meaningless and nothing is clipped.
    """
    if len(losses) < 3:
        return losses, [], float("inf")
    cap = factor * float(median(list(losses.values())))
    if cap <= 0.0:
        return losses, [], cap
    clipped_ids = [k for k, v in losses.items() if v > cap]
    if not clipped_ids:
        return losses, [], cap
    out = {k: (cap if v > cap else v) for k, v in losses.items()}
    return out, clipped_ids, cap
