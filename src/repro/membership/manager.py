"""Seeded membership dynamics and the self-healing hierarchy.

The :class:`MembershipManager` turns a
:class:`~repro.membership.plan.ChurnPlan` into concrete per-round membership
transitions.  Every draw is a pure function of
``(plan.seed, round, kind, entity)`` via dedicated
:func:`~repro.utils.rng.keyed_rng` streams (the same law as the fault
injector's), so

* the same plan + seed reproduce the same arrivals, departures, crashes and
  partitions regardless of which algorithm (or how much observability) is
  running,
* transitions never touch the *algorithm's* RNG streams — a null plan is
  bit-identical to no plan at all, and
* a run killed and resumed from a checkpoint replays the remaining rounds'
  churn exactly, because the live topology (active set, home map, edge/link
  episode states) is checkpointed alongside the model.

Self-healing lives here too: heartbeat-style failure detection on the plan's
timeout budget (charged to the virtual clock), deterministic least-load
re-homing of a crashed edge's orphaned clients, edge-state handoff on
failover, and state reconciliation when a partition heals — each charged to
the communication tracker and the :mod:`repro.simtime` cost model so failover
has a bytes and simulated-time price.

Every transition emits a ``membership`` trace event (``joined`` / ``left`` /
``re-homed`` / ``edge_crash`` / ``edge_recover`` / ``partition`` / ``heal`` /
``reconcile``) carrying the post-transition active population, so the
trace-report ledger can be balance-checked: ``joined − left`` must equal the
net population delta.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.membership.plan import ChurnPlan
from repro.obs import NULL_TRACER
from repro.utils.rng import keyed_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.edge import RoundContext

__all__ = ["MembershipManager"]

#: Floats carried by one heartbeat probe (the detection traffic).
HEARTBEAT_FLOATS = 1.0
#: Non-model floats in an edge-state handoff: the cached loss estimate plus
#: the (summarized) quarantine set that travels with the anchor model.
HANDOFF_EXTRA_FLOATS = 2.0


class _LazyActorMap:
    """``client_id -> actor`` mapping that resolves through a population.

    Stands in for the eager ``_actors`` dict when the manager is bound to a
    virtual topology: holding real actor references for every client would
    materialize the population, so lookups defer to the population's
    ``client(cid)`` (which returns the live cohort member or materializes it
    on the spot).
    """

    __slots__ = ("_resolve",)

    def __init__(self, resolve) -> None:
        self._resolve = resolve

    def __getitem__(self, client_id: int):
        return self._resolve(client_id)


class MembershipManager:
    """Per-run membership oracle plus the self-healing bookkeeping.

    Parameters
    ----------
    plan:
        The declarative churn configuration.  ``ChurnPlan.none()`` yields a
        disabled manager whose every query is a constant-time no-op.
    obs:
        Optional :class:`~repro.obs.Tracer` receiving ``membership`` events
        and the membership metric counters; defaults to the shared no-op
        tracer.

    An algorithm binds its topology once at construction — :meth:`bind` with
    its edge servers (hierarchical algorithms: rosters and re-homing apply),
    or :meth:`bind_flat` with its flat client list (two-layer baselines:
    client churn only; the multi-layer generalization also passes its
    top-area count so crash/partition episodes darken whole subtrees,
    without cross-subtree re-homing).
    """

    enabled: bool

    def __init__(self, plan: ChurnPlan, *, obs=NULL_TRACER) -> None:
        self.plan = plan
        self.obs = obs
        self.enabled = not plan.is_null
        self._bound = False
        self._rehoming = False        # rosters exist (hierarchical binding)
        self._num_edges = 0
        # The bound algorithm's cloud and client links, where every
        # membership message is billed and priced (see bind).
        self._top_link = "edge_cloud"
        self._leaf_link = "client_edge"
        self._actors: dict[int, object] = {}
        self._client_ids: tuple[int, ...] = ()
        self._initial_home: dict[int, int] = {}
        # ---- the live topology (checkpointed; see state_dict) -------------
        self.active: set[int] = set()
        self.home: dict[int, int] = {}
        self.edge_up: dict[int, bool] = {}
        self.partitioned: set[int] = set()
        # Edge -> ids homed there (active or not), derived from ``home`` and
        # kept in step with it, so a roster costs O(its edge's clients)
        # instead of a scan over every client id.  Never checkpointed.
        self._homed: dict[int, set[int]] = {}

    # ------------------------------------------------------------ rng plumbing
    def _rng(self, round_index: int, kind: str,
             entity: str) -> np.random.Generator:
        """A generator that is a pure function of its arguments and the seed."""
        return keyed_rng(self.plan.seed, "membership:" + kind, round_index,
                         entity)

    def _emit(self, round_index: int, action: str, entity: str,
              **fields) -> None:
        self.obs.event("membership", round=round_index, action=action,
                       entity=entity, active=len(self.active), **fields)

    # ---------------------------------------------------------------- binding
    def bind(self, edges, *,
             links: tuple[str, ...] = ("edge_cloud", "client_edge")) -> None:
        """Bind a hierarchical topology: rosters, homes, and re-homing apply.

        ``links`` are the algorithm's links, top first: membership traffic
        between the cloud and an edge goes on the first, a warm sync to a
        client on the last.

        Virtual edge servers (anything exposing ``client_ids()`` +
        ``resolve_client``) bind *lazily*: the manager keeps ids and homes
        only, and actors are materialized through the population exactly when
        a roster is assembled.  Membership state is O(population ids) either
        way — ids, not clients — which is the documented cost of composing
        churn with a virtual population.
        """
        if not self.enabled:
            return
        self._top_link, self._leaf_link = links[0], links[-1]
        self._num_edges = len(edges)
        if edges and hasattr(edges[0], "client_ids"):
            self._actors = _LazyActorMap(edges[0].resolve_client)
            self._initial_home = {cid: edge.edge_id
                                  for edge in edges for cid in edge.client_ids()}
        else:
            self._actors = {client.client_id: client
                            for edge in edges for client in edge.clients}
            self._initial_home = {client.client_id: edge.edge_id
                                  for edge in edges for client in edge.clients}
        self._rehoming = True
        self._init_population(sorted(self._initial_home))

    def bind_flat(self, clients, num_edges: int = 0, *,
                  links: tuple[str, ...] = ("client_cloud",)) -> None:
        """Bind a flat topology: client churn only (no rosters to move).

        ``num_edges > 0`` additionally arms crash/partition episodes for the
        caller's ``num_edges`` top-level areas — they go dark and recover,
        but their clients are never re-homed across subtrees (the data
        assignment is structural there; documented limitation).

        A virtual client roster (exposing ``client_ids()``) binds by id
        without materializing a single client.  ``links`` are as in
        :meth:`bind`.
        """
        if not self.enabled:
            return
        self._top_link, self._leaf_link = links[0], links[-1]
        self._num_edges = int(num_edges)
        self._actors = {}
        self._initial_home = {}
        self._rehoming = False
        if hasattr(clients, "client_ids"):
            self._init_population(sorted(clients.client_ids()))
        else:
            self._init_population(sorted(c.client_id for c in clients))

    def _init_population(self, client_ids) -> None:
        self._client_ids = tuple(client_ids)
        self.home = dict(self._initial_home)
        self._index_homes()
        self.edge_up = {eid: True for eid in range(self._num_edges)}
        self.partitioned = set()
        self.active = set(self._client_ids)
        if self.plan.start_absent > 0.0:
            for cid in self._client_ids:
                gen = self._rng(0, "start_absent", f"client:{cid}")
                if gen.random() < self.plan.start_absent:
                    self.active.discard(cid)
        self._bound = True
        # The ledger's opening balance: the initial active population.
        self._emit(-1, "population", "run", total=len(self._client_ids))

    # --------------------------------------------------------------- queries
    def edge_available(self, edge_id: int) -> bool:
        """Is this edge (or top-level area) reachable from the cloud?"""
        if not self.enabled:
            return True
        return (self.edge_up.get(edge_id, True)
                and edge_id not in self.partitioned)

    def client_active(self, client_id: int) -> bool:
        """Is this client currently a member of the federation?"""
        return not self.enabled or client_id in self.active

    def _index_homes(self) -> None:
        """Rebuild the edge -> homed-ids index from ``home``."""
        self._homed = {}
        for cid, eid in self.home.items():
            self._homed.setdefault(eid, set()).add(cid)

    def _rehome(self, client_id: int, edge_id: int) -> None:
        """Home ``client_id`` at ``edge_id``, keeping the index in step."""
        old = self.home.get(client_id)
        if old is not None:
            self._homed[old].discard(client_id)
        self.home[client_id] = edge_id
        self._homed.setdefault(edge_id, set()).add(client_id)

    def roster_ids(self, edge_id: int) -> list[int] | None:
        """Ids of :meth:`roster` in ascending order, without resolving a
        single actor."""
        if not self.enabled or not self._rehoming:
            return None
        active = self.active
        return [cid for cid in sorted(self._homed.get(edge_id, ()))
                if cid in active]

    def roster(self, edge_id: int):
        """The edge's *current* client actors, or ``None`` when membership is
        disabled (or flat-bound) — callers fall back to the construction-time
        roster, byte-identically."""
        ids = self.roster_ids(edge_id)
        return None if ids is None else [self._actors[cid] for cid in ids]

    # ------------------------------------------------------------- transitions
    def begin_round(self, ctx: RoundContext) -> None:
        """Advance all membership processes to the context's round.

        Called once per cloud round, before the algorithm's round body, inside
        the round's virtual-clock scope: detection waits and handoff/sync
        transfers land on the round's simulated timeline and in the round's
        communication delta.  Transition order is fixed (edge episodes, then
        link episodes, then client churn; entities in id order) so the event
        stream and every downstream draw are deterministic.  Model transfers
        are charged at the engine's parameter count.
        """
        if not self.enabled:
            return
        if not self._bound:
            raise RuntimeError("MembershipManager.begin_round before bind(); "
                               "the algorithm must bind its topology first")
        plan = self.plan
        dim = ctx.engine.num_parameters
        if plan.edge_mttf > 0.0 and self._num_edges:
            self._edge_episodes(ctx, dim)
        if plan.link_mttf > 0.0 and self._num_edges:
            self._link_episodes(ctx, dim)
        if plan.arrive > 0.0 or plan.depart > 0.0:
            self._client_churn(ctx, dim)

    @staticmethod
    def _sync(ctx: RoundContext, link: str, entity: int,
              floats: float) -> None:
        """One point-to-point message down ``link``, billed and priced."""
        ctx.tracker.record(link, "down", count=1, floats=floats)
        ctx.timing.transfer(link, entity, floats)

    def _detect(self, ctx: RoundContext, entity: str) -> None:
        """Heartbeat failure detection: the cloud notices a dead edge/link
        only after the plan's timeout budget of missed heartbeats."""
        if self.plan.heartbeat_timeout_s > 0.0:
            ctx.timing.advance(self.plan.heartbeat_timeout_s,
                               f"detect:{entity}")
        # The heartbeat probe that went unanswered.
        ctx.tracker.record(self._top_link, "up", count=1,
                           floats=HEARTBEAT_FLOATS)
        self.obs.count("membership_detections_total")

    def _edge_episodes(self, ctx: RoundContext, dim: int) -> None:
        round_index = ctx.round_index
        p_fail = 1.0 / self.plan.edge_mttf
        p_heal = 1.0 / self.plan.edge_mttr
        for eid in range(self._num_edges):
            entity = f"edge:{eid}"
            gen = self._rng(round_index, "edge_episode", entity)
            u = gen.random()
            if self.edge_up[eid]:
                if u < p_fail:
                    self.edge_up[eid] = False
                    self._detect(ctx, entity)
                    self._emit(round_index, "edge_crash", entity)
                    self.obs.count("membership_edge_crashes_total")
                    if self.plan.rehome and self._rehoming:
                        self._rehome_orphans(ctx, eid, dim)
            elif u < p_heal:
                self.edge_up[eid] = True
                self._emit(round_index, "edge_recover", entity)
                self.obs.count("membership_recovered_total")
                # The cloud re-syncs the anchor model to the reborn edge.
                self._sync(ctx, self._top_link, eid, dim)

    def _rehome_orphans(self, ctx: RoundContext, dead_eid: int,
                        dim: int) -> None:
        """Move every client homed at the crashed edge to a surviving one.

        Target selection is deterministic: least current load (clients homed
        there, active or not), then shortest ring distance from the dead
        edge, then lowest edge id.  Active orphans are charged a warm model
        sync on their new edge's client link; each distinct target edge is
        charged the state handoff (the dead edge's anchor model, cached loss
        estimate, and quarantine summary, replayed down from the cloud).
        """
        survivors = [e for e in range(self._num_edges)
                     if e != dead_eid and self.edge_up[e]
                     and e not in self.partitioned]
        orphans = sorted(self._homed.get(dead_eid, ()))
        if not survivors or not orphans:
            return
        load = {e: len(self._homed.get(e, ())) for e in survivors}
        n = self._num_edges

        def ring(e: int) -> int:
            return min((e - dead_eid) % n, (dead_eid - e) % n)

        handoff_targets: set[int] = set()
        for cid in orphans:
            target = min(survivors, key=lambda e: (load[e], ring(e), e))
            load[target] += 1
            self._rehome(cid, target)
            handoff_targets.add(target)
            if cid in self.active:
                self._emit(ctx.round_index, "re-homed", f"client:{cid}",
                           src=dead_eid, dst=target)
                self.obs.count("membership_rehomed_total")
                # Warm sync: the new edge ships the current model down.
                self._sync(ctx, self._leaf_link, cid, dim)
        for target in sorted(handoff_targets):
            # Edge-state handoff: anchor model + loss estimate + quarantine
            # summary, shipped to each adopting edge.
            self._sync(ctx, self._top_link, target,
                       dim + HANDOFF_EXTRA_FLOATS)
            self.obs.count("membership_handoffs_total")

    def _link_episodes(self, ctx: RoundContext, dim: int) -> None:
        round_index = ctx.round_index
        p_cut = 1.0 / self.plan.link_mttf
        p_heal = 1.0 / self.plan.link_mttr
        for eid in range(self._num_edges):
            entity = f"link:{eid}"
            gen = self._rng(round_index, "link_episode", entity)
            u = gen.random()
            if eid not in self.partitioned:
                if u < p_cut:
                    self.partitioned.add(eid)
                    self._detect(ctx, entity)
                    self._emit(round_index, "partition", entity, edge=eid)
                    self.obs.count("membership_partitions_total")
            elif u < p_heal:
                self.partitioned.discard(eid)
                self._emit(round_index, "heal", entity, edge=eid)
                self.obs.count("membership_heals_total")
                # Reconcile the diverged edge: anchor re-sync down, the
                # edge's cached loss estimate back up.
                ctx.tracker.record(self._top_link, "down", count=1,
                                   floats=dim)
                ctx.tracker.record(self._top_link, "up", count=1, floats=1.0)
                ctx.timing.transfer(self._top_link, eid, dim + 1)
                self._emit(round_index, "reconcile", f"edge:{eid}",
                           floats=dim + 1)

    def _client_churn(self, ctx: RoundContext, dim: int) -> None:
        round_index = ctx.round_index
        plan = self.plan
        for cid in self._client_ids:
            entity = f"client:{cid}"
            gen = self._rng(round_index, "client_churn", entity)
            u = gen.random()
            if cid in self.active:
                if plan.depart > 0.0 and u < plan.depart:
                    self.active.discard(cid)
                    self._emit(round_index, "left", entity,
                               edge=self.home.get(cid))
                    self.obs.count("membership_left_total")
            elif plan.arrive > 0.0 and u < plan.arrive:
                self.active.add(cid)
                # A returning client whose home crashed meanwhile is adopted
                # immediately (when re-homing is on and a survivor exists).
                eid = self.home.get(cid)
                if (self._rehoming and plan.rehome and eid is not None
                        and not self.edge_available(eid)):
                    survivors = [e for e in range(self._num_edges)
                                 if self.edge_available(e)]
                    if survivors:
                        loads = {e: 0 for e in survivors}
                        for oid in self.active:
                            h = self.home.get(oid)
                            if h in loads and oid != cid:
                                loads[h] += 1
                        eid = min(survivors,
                                  key=lambda e: (loads[e], e))
                        self._rehome(cid, eid)
                self._emit(round_index, "joined", entity, edge=eid)
                self.obs.count("membership_joined_total")
                # Warm join: the current model is shipped down before the
                # client can participate.
                self._sync(ctx, self._leaf_link, cid, dim)

    # ------------------------------------------------------------ persistence
    def state_dict(self) -> dict:
        """The live topology (the transition draws themselves are pure)."""
        if not self.enabled:
            return {}
        return {"active": sorted(self.active),
                "home": {str(cid): int(eid)
                         for cid, eid in sorted(self.home.items())},
                "edge_up": {str(eid): bool(up)
                            for eid, up in sorted(self.edge_up.items())},
                "partitioned": sorted(self.partitioned)}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (checkpoint resume).

        An empty dict (a checkpoint written before the membership layer
        existed, or by a run without churn) keeps the bind-time topology, so
        stale checkpoints resume cleanly.
        """
        if not state or not self.enabled:
            return
        self.active = {int(c) for c in state.get("active", ())}
        self.home = {int(c): int(e)
                     for c, e in state.get("home", {}).items()}
        self._index_homes()
        self.edge_up = {int(e): bool(up)
                        for e, up in state.get("edge_up", {}).items()}
        self.partitioned = {int(e) for e in state.get("partitioned", ())}
