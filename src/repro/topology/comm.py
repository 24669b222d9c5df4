"""Communication accounting for federated algorithms.

The paper's evaluation plots accuracy against *communication rounds* and its theory
counts *edge-cloud communication complexity*.  :class:`CommunicationTracker` records
enough raw information to report both (and more):

* **events** — each call to :meth:`record` logs ``count`` messages of ``floats``
  scalars each on one *link* (``client_edge``, ``edge_cloud``, or ``client_cloud``
  for two-layer baselines) in one *direction* (``up`` toward the cloud, ``down``
  toward the clients);
* **sync cycles** — each call to :meth:`sync_cycle` marks one completed
  synchronization cycle on a link (a broadcast + collect pair).  The figures'
  default "communication rounds" is the total number of sync cycles across all
  links, the convention under which one client-server exchange of a two-layer
  method and one client-edge aggregation of a hierarchical method each cost 1.

Derived views: per-link message/float totals, bytes, edge-cloud-only cycles (the
theory's complexity measure), and immutable snapshots for time series.

**Payload-unit convention.**  The ``floats`` argument of :meth:`record` is the
*encoded payload size in float64 equivalents* (wire bytes ÷ 8), not the logical
vector length.  Full-precision messages record their dimension ``d``; compressed
uploads must record ``Compressor.payload_floats(d)`` — e.g. a 4-bit quantizer
reports ``1 + d·4/64`` for a ``d``-vector — so that ``total_bytes = floats × 8``
is the true wire volume for compressed and uncompressed runs alike.  (Downlink
broadcasts are always full precision in this repo; only uploads are compressed.)
Every instrumented call site follows this convention, and the compression tests
assert that quantized runs report proportionally fewer bytes.

**Fan-out rule.**  A down-link broadcast is charged one message per distinct
recipient its sender can reach, by :func:`repro.sim.edge.fan_out` alone.
Recipients the sender knows cannot take part are sent nothing and charged
nothing: an edge the membership layer reports crashed or partitioned or whose
roster has no active client, a client it reports departed, and any
quarantined sender (the edge tier knows only the last).  Recipients the
sender cannot know about — a fault-plan outage, a dropout, a message lost in
transit — stay charged, because those bytes were sent.  The virtual clock
prices a broadcast leg to exactly the recipients that remain.  Point-to-point
syncs (a membership warm join, re-sync or handoff) charge ``count=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["CommunicationTracker", "CommSnapshot", "LINKS", "DIRECTIONS"]

LINKS = ("client_edge", "edge_cloud", "client_cloud")
DIRECTIONS = ("up", "down")
_BYTES_PER_FLOAT = 8


@dataclass(frozen=True)
class CommSnapshot:
    """Immutable communication totals at one instant.

    Attributes
    ----------
    cycles:
        Sync-cycle count per link.
    messages:
        Message count per (link, direction) pair, keyed ``f"{link}:{direction}"``.
    floats:
        Payload volume per (link, direction) pair, in float64-equivalent units
        (see the module docstring: compressed uploads are recorded at their
        encoded size, so ``× 8`` is wire bytes).
    """

    cycles: Dict[str, int]
    messages: Dict[str, int]
    floats: Dict[str, float]

    @property
    def total_cycles(self) -> int:
        """The default "communication rounds" of the figures."""
        return sum(self.cycles.values())

    @property
    def edge_cloud_cycles(self) -> int:
        """The theory's edge-cloud communication complexity measure.

        Two-layer baselines talk straight to the cloud, so their client-cloud
        cycles are counted here as well — both traverse the WAN backhaul.  The
        multi-layer generalization's top link (``level_1``) likewise counts.
        """
        return (self.cycles.get("edge_cloud", 0) + self.cycles.get("client_cloud", 0)
                + self.cycles.get("level_1", 0))

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())

    @property
    def total_floats(self) -> float:
        return sum(self.floats.values())

    @property
    def total_bytes(self) -> float:
        """True wire bytes: ``floats`` are payload units of 8 bytes each.

        Compressed uploads were recorded via ``Compressor.payload_floats``, so
        this is the *compressed* volume, not ``8 × vector length``.
        """
        return self.total_floats * _BYTES_PER_FLOAT

    @property
    def edge_cloud_bytes(self) -> float:
        """Wire bytes on the cloud-facing links (``edge_cloud_cycles``'s twin)."""
        total = 0.0
        for key, value in self.floats.items():
            link = key.split(":", 1)[0]
            if link in ("edge_cloud", "client_cloud", "level_1"):
                total += value
        return total * _BYTES_PER_FLOAT

    def diff(self, earlier: "CommSnapshot") -> "CommSnapshot":
        """The traffic performed between ``earlier`` and this snapshot.

        Used by the observability layer to attach per-round communication
        deltas to ``cloud_round`` trace spans.

        Contract: for each of the three maps, the result covers the *union*
        of both snapshots' keys and keeps exactly the entries whose delta is
        nonzero (a key present only in ``earlier`` yields its negated value,
        so ``later.diff(earlier)`` and ``earlier.diff(later)`` are exact
        negations).  Counters only ever grow during a run, so negative deltas
        signal the snapshots were passed in the wrong order — the totals of a
        correctly ordered diff are always nonnegative.
        """
        def delta(mine: Dict, theirs: Dict, zero):
            keys = set(mine) | set(theirs)
            out = {k: mine.get(k, zero) - theirs.get(k, zero) for k in keys}
            return {k: v for k, v in out.items() if v != zero}

        return CommSnapshot(cycles=delta(self.cycles, earlier.cycles, 0),
                            messages=delta(self.messages, earlier.messages, 0),
                            floats=delta(self.floats, earlier.floats, 0.0))


class CommunicationTracker:
    """Mutable accumulator of the communication performed by one algorithm run.

    Parameters
    ----------
    extra_links:
        Additional link names beyond the standard three — used by the
        multi-layer generalization, whose trees have one link type per level
        (``level_1``, ``level_2``, …).
    """

    def __init__(self, extra_links: tuple[str, ...] = ()) -> None:
        self._links = tuple(LINKS) + tuple(extra_links)
        self._cycles: Dict[str, int] = {link: 0 for link in self._links}
        self._messages: Dict[str, int] = {}
        self._floats: Dict[str, float] = {}

    def record(self, link: str, direction: str, *, count: int = 1,
               floats: float = 0.0) -> None:
        """Log ``count`` messages of ``floats`` payload units each.

        ``floats`` follows the payload-unit convention of the module docstring:
        pass the vector dimension for full-precision messages and
        ``Compressor.payload_floats(dim)`` for compressed uploads.
        """
        if link not in self._links:
            raise ValueError(f"unknown link {link!r}; options: {self._links}")
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}; options: {DIRECTIONS}")
        if count < 0 or floats < 0:
            raise ValueError("count and floats must be nonnegative")
        key = f"{link}:{direction}"
        self._messages[key] = self._messages.get(key, 0) + int(count)
        self._floats[key] = self._floats.get(key, 0.0) + float(floats) * int(count)

    def sync_cycle(self, link: str, *, count: int = 1) -> None:
        """Mark ``count`` completed synchronization cycles on ``link``."""
        if link not in self._links:
            raise ValueError(f"unknown link {link!r}; options: {self._links}")
        if count < 0:
            raise ValueError("count must be nonnegative")
        self._cycles[link] += int(count)

    # ---------------------------------------------------------------- reading
    def snapshot(self) -> CommSnapshot:
        """Immutable copy of the current totals."""
        return CommSnapshot(cycles=dict(self._cycles),
                            messages=dict(self._messages),
                            floats=dict(self._floats))

    @property
    def total_cycles(self) -> int:
        """Total sync cycles — the default communication-round counter."""
        return sum(self._cycles.values())

    @property
    def edge_cloud_cycles(self) -> int:
        """Edge↔cloud (plus client↔cloud / top-level tree link) cycles."""
        return (self._cycles["edge_cloud"] + self._cycles["client_cloud"]
                + self._cycles.get("level_1", 0))

    @property
    def total_bytes(self) -> float:
        """Total wire bytes (compressed sizes; see the payload convention)."""
        return sum(self._floats.values()) * _BYTES_PER_FLOAT

    def reset(self) -> None:
        """Zero all counters (between repetitions)."""
        self._cycles = {link: 0 for link in self._links}
        self._messages.clear()
        self._floats.clear()

    def restore(self, snapshot: "CommSnapshot") -> None:
        """Overwrite the totals with a snapshot (checkpoint resume).

        Links present in the snapshot but unknown to this tracker are added,
        so a tracker restored from a multi-layer run keeps its level links.
        """
        self._links = tuple(dict.fromkeys(
            tuple(self._links) + tuple(snapshot.cycles)))
        self._cycles = {link: 0 for link in self._links}
        self._cycles.update({k: int(v) for k, v in snapshot.cycles.items()})
        self._messages = {k: int(v) for k, v in snapshot.messages.items()}
        self._floats = {k: float(v) for k, v in snapshot.floats.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CommunicationTracker(cycles={self._cycles}, "
                f"bytes={self.total_bytes:.3g})")
