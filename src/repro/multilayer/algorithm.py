"""HierMinimax generalized to arbitrary-depth hierarchies.

The paper formulates the algorithm for the three-layer client-edge-cloud network
and observes that both the system model ("multi-layer hub-and-spoke-type network
topology", §3) and the method generalize.  :class:`MultiLevelHierMinimax` is that
generalization:

* the network is a :class:`~repro.multilayer.tree.HierarchyTree` of any depth
  ``L ≥ 2``; level 0 is the cloud, level ``L`` the clients;
* each level ``l ∈ {1, …, L}`` has its own period ``τ_l`` — a node at level
  ``l-1`` performs ``τ_l`` aggregations of its children per invocation, and the
  leaves run ``τ_L`` local SGD steps per invocation, so one cloud round spans
  ``Π_l τ_l`` training slots (for ``L = 2`` this is the paper's ``τ1·τ2``);
* the checkpoint index generalizes from ``(c1, c2) ∈ [τ1]×[τ2]`` to a
  mixed-radix digit vector ``(c_1, …, c_L) ∈ [τ_1]×…×[τ_L]`` sampled uniformly,
  each subtree snapshotting during its parent's ``c``-th iteration — preserving
  the uniform-over-slots property behind the unbiased weight gradient;
* minimax weights ``p`` live on the level-1 subtrees (the generalization of edge
  areas), sampled/updated exactly as in Algorithm 1.

The class is :class:`~repro.core.hierminimax.HierMinimax` plus a tree
recursion: the cloud tier (sampling, Eqs. (5)–(7), faults, timing, stale
losses) is inherited unchanged, interior levels ``1 … L-2`` recurse over their
children with the shared :func:`~repro.sim.edge.deliver` and
:func:`~repro.sim.edge.combine`, and each bottom server (level ``L-1``) *is* an
:class:`~repro.sim.edge.EdgeServer` running ModelUpdate / LossEstimation over
its active leaf clients.  At depth 2 nothing is added, so the class executes
Algorithm 1 for every fan-in and period (asserted bit for bit by the test
suite).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.hierminimax import HierMinimax
from repro.data.dataset import FederatedDataset
from repro.multilayer.tree import HierarchyTree
from repro.nn.models import ModelFactory
from repro.ops.projections import Projection
from repro.population import resolve_population
from repro.sim.edge import EdgeServer, RoundContext, combine, deliver, \
    fan_out, mean_loss
from repro.topology.comm import CommunicationTracker
from repro.utils.validation import check_positive_int

__all__ = ["MultiLevelHierMinimax"]


class MultiLevelHierMinimax(HierMinimax):
    """Minimax-fair optimization over an L-level aggregation tree.

    Parameters
    ----------
    dataset:
        Federated data; its edge areas must match the tree's level-1 subtrees
        (``tree.validate_dataset``).
    tree:
        The aggregation hierarchy, at least two levels deep; default: the
        paper's 3-layer tree inferred from the dataset layout
        (``regular([N_E, N0])``).
    taus:
        Per-level periods, top first: ``taus[l-1]`` is the number of iterations a
        node at level ``l`` performs per invocation — aggregation blocks for
        interior servers, local SGD steps for the leaf clients.  For the paper's
        three-layer system this is ``(τ2, τ1)``.  Default: all 2 (the paper's
        experimental setting).  The inherited ``tau1`` is ``τ_L`` and ``tau2``
        the ``Π_{l<L} τ_l`` bottom-tier blocks a leaf runs per cloud round.
    eta_p, m_top, projection_p:
        Weight-ascent rate, sampled level-1 subtrees per phase (the inherited
        ``m_edges``), and the projection onto ``P`` — as in
        :class:`~repro.core.HierMinimax`.
    **run:
        Everything :class:`~repro.core.base.FederatedAlgorithm` accepts.
    """

    name = "multilevel_hierminimax"

    def __init__(self, dataset: FederatedDataset, model_factory: ModelFactory, *,
                 tree: HierarchyTree | None = None,
                 taus: tuple[int, ...] | None = None,
                 eta_p: float = 1e-3, m_top: int | None = None,
                 projection_p: Projection | None = None, **run) -> None:
        # The tree is checked against the population's shape before the base
        # class builds anything, so resolve it here and hand it on.
        run["population"] = resolve_population(run.get("population"), dataset)
        data = run["population"].dataset
        if tree is None:
            counts = data.clients_per_edge()
            if len(set(counts)) != 1:
                raise ValueError("default tree requires a uniform dataset layout; "
                                 "pass an explicit HierarchyTree otherwise")
            tree = HierarchyTree.regular([data.num_edges, counts[0]])
        tree.validate_dataset(data)
        if tree.depth < 2:
            raise ValueError("a hierarchy needs a server level between the "
                             "cloud and the clients (depth >= 2)")
        if taus is None:
            taus = (2,) * tree.depth
        if len(taus) != tree.depth:
            raise ValueError(f"need one tau per level: {tree.depth} levels, "
                             f"got {len(taus)} taus")
        self.taus = tuple(check_positive_int(t, f"taus[{i}]")
                          for i, t in enumerate(taus))
        self.tree = tree
        self._links = tuple(tree.link_names())
        self._top_nodes = tree.children_of(0, 0)
        super().__init__(None, model_factory, eta_p=eta_p, tau1=self.taus[-1],
                         tau2=math.prod(self.taus[:-1]), m_edges=m_top,
                         projection_p=projection_p, use_checkpoint=True,
                         compressor=None, **run)
        self.m_top = self.m_edges
        # Replace the base tracker with one that knows the per-level links.
        self.tracker = CommunicationTracker(extra_links=self._links)

    def _bind_areas(self) -> int:
        self.clients = self._build_clients()
        # Level-1 subtrees are structural (a client's leaf position is fixed by
        # the tree), so churn runs in flat mode: arrivals/departures plus
        # crash/partition episodes on the top areas, without re-homing.
        self.membership.bind_flat(self.clients,
                                  num_edges=self.tree.num_top_areas)
        return self.tree.num_top_areas

    # -------------------------------------------------------------- recursion
    def _decode_checkpoint(self, slot: int) -> tuple[int, ...]:
        """Mixed-radix digits ``(c_1, …, c_L)`` of a flat slot, leaf fastest."""
        digits = [0] * len(self.taus)
        for level in range(len(self.taus) - 1, -1, -1):
            digits[level] = slot % self.taus[level]
            slot //= self.taus[level]
        return tuple(digits)

    def _area_update(self, ctx: RoundContext, eid: int,
                     checkpoint: tuple[int, int] | None, roster,
                     ) -> tuple[np.ndarray, np.ndarray | None] | None:
        # HierMinimax's (c1, c2) indexes the round's slots leaf fastest, so
        # ``c2·τ_L + c1 - 1`` is the flat slot behind the tree's digits.
        c1, c2 = checkpoint
        digits = self._decode_checkpoint(c2 * self.tau1 + c1 - 1)
        return self._subtree_update(ctx, 1, self._top_nodes[eid], self.w,
                                    digits)

    def _release_area(self, eid: int) -> None:
        # An area is a top subtree; its clients are the subtree's leaves.
        if self.population.virtual:
            self.population.release(
                self.tree.leaves_under(1, self._top_nodes[eid]).tolist())

    def _bottom_server(self, node: int) -> EdgeServer | None:
        """The level-``L-1`` server ``node`` over its active leaf clients
        (``None`` when every one of them has left)."""
        active = self.membership.client_active
        roster = [self.clients[k]
                  for k in self.tree.children_of(self.tree.depth - 1, node)
                  if active(k)]
        return EdgeServer(node, roster) if roster else None

    def _subtree_update(self, ctx: RoundContext, level: int, node: int,
                        w_start: np.ndarray,
                        digits: tuple[int, ...] | None,
                        ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """Recursive ModelUpdate of the subtree rooted at (level, node).

        Returns the subtree's final model and its checkpoint aggregate
        (``None`` off the checkpoint path), or ``None`` for a bottom server
        without active clients — its parent treats it as a missing upload.
        """
        if level == self.tree.depth - 1:
            edge = self._bottom_server(node)
            if edge is None:
                return None
            checkpoint = (None if digits is None
                          else (digits[-1] + 1, digits[-2]))
            return edge.model_update(ctx, w_start, tau1=self.tau1,
                                     tau2=self.taus[-2], checkpoint=checkpoint,
                                     link=self._links[-1])
        kids = self.tree.children_of(level, node)
        link = self._links[level]
        d = w_start.size
        timing = ctx.timing
        w = w_start
        w_ckpt: np.ndarray | None = None
        for t in range(self.taus[level - 1]):
            on_path = digits is not None and digits[level - 1] == t
            with ctx.obs.span("edge_block", level=level, node=node, block=t):
                # An interior node is no membership entity and its subtree
                # runs whatever became of its leaves, so every child is
                # sent the block's model.
                fan_out(ctx, link, kids, floats=d)
                # Sibling subtrees work concurrently: the block costs the
                # slowest child's (down + subtree + up) chain.
                uploads = []
                with timing.parallel():
                    for k in kids:
                        with timing.branch():
                            timing.transfer(link, k, d)
                            out = self._subtree_update(
                                ctx, level + 1, k, w,
                                digits if on_path else None)
                            if out is not None:
                                timing.transfer(link, k, d * (
                                    1 if out[1] is None else 2))
                            uploads.append((k, out))
                entries = []
                ckpt_entries = []
                for k, out in uploads:
                    if out is None:
                        continue
                    sender = f"node:{level + 1}:{k}"
                    delivered = deliver(
                        ctx, link, sender, *out,
                        floats=d * (1 if out[1] is None else 2), ref=w)
                    if delivered is None:
                        continue
                    w_k, w_kc = delivered
                    entries.append((sender, 1.0, w_k))
                    if w_kc is not None:
                        ckpt_entries.append((sender, 1.0, w_kc))
                ctx.tracker.sync_cycle(link)
                # Interior nodes are the generalization of the edge tier: the
                # policy's edge-slot rule applies at every level below the
                # cloud.  Both combines reference the block's broadcast model.
                w, block_ckpt = combine(
                    ctx, w, entries, ckpt_entries if on_path else None,
                    stage=f"node:{level}:{node}:block:{t}",
                    aggregator=ctx.edge_agg, link=link)
                if on_path:
                    w_ckpt = block_ckpt
        return w, w_ckpt

    def _area_loss(self, ctx: RoundContext, eid: int, w: np.ndarray,
                   roster) -> float | None:
        return self._subtree_loss(ctx, 1, self._top_nodes[eid], w)

    def _subtree_loss(self, ctx: RoundContext, level: int, node: int,
                      w: np.ndarray) -> float | None:
        """Recursive LossEstimation: mean of the children's loss reports.

        Returns ``None`` when no leaf of the subtree replied (fault or churn
        runs only).
        """
        if level == self.tree.depth - 1:
            edge = self._bottom_server(node)
            return None if edge is None else edge.estimate_loss(
                ctx, w, link=self._links[-1])
        kids = self.tree.children_of(level, node)
        link = self._links[level]
        timing = ctx.timing
        fan_out(ctx, link, kids, floats=w.size)
        reports: dict[int, float] = {}
        with timing.parallel():
            for k in kids:
                with timing.branch():
                    timing.transfer(link, k, w.size)
                    loss = self._subtree_loss(ctx, level + 1, k, w)
                    if loss is None:
                        continue
                    timing.transfer(link, k, 1)
                    delivered = deliver(ctx, link, f"node:{level + 1}:{k}",
                                        loss, floats=1.0)
                    if delivered is not None:
                        reports[k] = delivered[0]
        ctx.tracker.sync_cycle(link)
        # Every interior node damps its children's cohort before averaging.
        return mean_loss(ctx, reports, f"node:{level + 1}")
