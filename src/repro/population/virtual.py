"""Virtual populations: derive the sampled cohort on demand, discard after.

The pieces
----------
* :class:`VirtualPopulation` — owns the lifecycle.  ``client(cid)`` materializes
  one client as a pure function of ``(spec.seed, cid)``: shard from the spec's
  data law, RNG stream from :meth:`~repro.utils.rng.RngFactory.stream_at`
  (bit-identical to the eager builder's ``streams("client", N)[cid]``), and
  the sampler replayed to the ``batches_drawn`` counter persisted in the
  :class:`~repro.population.store.ClientStateStore`, or set from the sampler
  row stored past :data:`REPLAY_LIMIT` epochs (the step counter comes back
  with it).  ``edge_clients(e)`` derives a whole roster in one pass.
  ``release(ids)`` flushes those live clients' two counters to the store and
  drops them; ``end_round`` does the same for whatever is still live.
* :class:`VirtualEdgeServer` — an :class:`~repro.sim.edge.EdgeServer` whose
  ``clients`` list is a materializing property; the inherited ``model_update``
  and ``estimate_loss`` run unchanged on it.
* :class:`VirtualClientRoster` — the flat ``self.clients`` stand-in for
  two-layer baselines: ``len()`` and indexing without materializing the world.
* :class:`VirtualDatasetView` — duck-types :class:`~repro.data.dataset.FederatedDataset`
  for shape queries and lazily generated per-edge test sets.

Memory contract: a client is live for one edge leg, not one round.  The
algorithm releases an edge's roster after that edge's last Phase-1 draw of
the round and after each Phase-2 probe, so at any instant the population
holds the rosters of the edges whose leg is running or still pending in the
current phase, plus the state store (O(clients ever visited)); nothing
scales with population size.  A client needed again in the same round (a
Phase-2 probe of a Phase-1 edge) re-derives from the store bit-identically.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from repro.data.batching import replay_sampler, sampler_position
from repro.data.dataset import Dataset, concat_datasets
from repro.population.base import Population
from repro.population.spec import PopulationSpec
from repro.population.store import ClientStateStore
from repro.sim.client import Client
from repro.sim.edge import EdgeServer

__all__ = ["VirtualPopulation", "VirtualEdgeServer", "VirtualClientRoster",
           "VirtualDatasetView"]

class VirtualEdgeServer(EdgeServer):
    """An edge server whose client roster materializes on access.

    Inherits every aggregation procedure from :class:`EdgeServer`; only the
    ownership of ``clients`` changes.  ``client_ids()`` / ``resolve_client``
    are the lazy-binding hooks consumed by
    :class:`~repro.membership.manager.MembershipManager`.
    """

    def __init__(self, edge_id: int, population: "VirtualPopulation") -> None:
        # Deliberately no super().__init__: the eager ctor would demand a
        # materialized client list, which is the one thing this class avoids.
        self.edge_id = int(edge_id)
        self._population = population

    @property
    def clients(self) -> list[Client]:
        return self._population.edge_clients(self.edge_id)

    @property
    def num_clients(self) -> int:
        return self._population.spec.clients_per_edge

    @property
    def num_samples(self) -> int:
        spec = self._population.spec
        return spec.clients_per_edge * spec.samples_per_client

    def client_ids(self) -> range:
        """Global ids homed at this edge (no materialization)."""
        return self._population.spec.edge_client_ids(self.edge_id)

    def resolve_client(self, client_id: int) -> Client:
        """Materialize one client on demand (membership's lazy actor map)."""
        return self._population.client(client_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"VirtualEdgeServer(id={self.edge_id}, "
                f"clients={self.num_clients})")


class VirtualClientRoster:
    """Flat ``clients`` stand-in for two-layer baselines.

    Supports ``len()`` and integer indexing (materializing just that client).
    Deliberately not an eager sequence: iterating it walks the whole population
    one client at a time, so algorithms should index sampled ids only.
    """

    def __init__(self, population: "VirtualPopulation") -> None:
        self._population = population

    def __len__(self) -> int:
        return self._population.spec.num_clients

    def __getitem__(self, index: int) -> Client:
        n = len(self)
        i = int(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"client index {index} out of range for {n} clients")
        return self._population.client(i)

    def __iter__(self) -> Iterator[Client]:
        for cid in range(len(self)):
            yield self._population.client(cid)

    def client_ids(self) -> range:
        """All client ids in the population (no materialization)."""
        return range(len(self))

    def resolve_client(self, client_id: int) -> Client:
        """Materialize one client on demand (membership's lazy actor map)."""
        return self._population.client(client_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualClientRoster(n={len(self)})"


class _VirtualEdgeData:
    """Lazy :class:`~repro.data.dataset.EdgeAreaData` stand-in for one edge."""

    __slots__ = ("_population", "edge_id")

    def __init__(self, population: "VirtualPopulation", edge_id: int) -> None:
        self._population = population
        self.edge_id = int(edge_id)

    @property
    def test(self) -> Dataset:
        pop = self._population
        return pop.spec.edge_test(self.edge_id, image_generator=pop.image_generator)

    @property
    def name(self) -> str:
        return self._population.spec.edge_group(self.edge_id)

    @property
    def num_clients(self) -> int:
        return self._population.spec.clients_per_edge

    @property
    def train_size(self) -> int:
        spec = self._population.spec
        return spec.clients_per_edge * spec.samples_per_client

    @property
    def clients(self) -> list[Dataset]:
        """Materializes every shard of the area — diagnostics only."""
        pop = self._population
        return [pop.spec.client_shard(cid, image_generator=pop.image_generator)
                for cid in pop.spec.edge_client_ids(self.edge_id)]


class _LazyEdgeList:
    """Sequence of per-edge views; wrappers are created on access (stateless)."""

    __slots__ = ("_population",)

    def __init__(self, population: "VirtualPopulation") -> None:
        self._population = population

    def __len__(self) -> int:
        return self._population.spec.num_edges

    def __getitem__(self, index: int) -> _VirtualEdgeData:
        n = len(self)
        i = int(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"edge index {index} out of range for {n} edges")
        return _VirtualEdgeData(self._population, i)

    def __iter__(self) -> Iterator[_VirtualEdgeData]:
        for e in range(len(self)):
            yield _VirtualEdgeData(self._population, e)


class VirtualDatasetView:
    """Duck-typed :class:`~repro.data.dataset.FederatedDataset` over a spec.

    Shape queries are O(1); ``edges[e].test`` generates that edge's test set on
    access (pure in ``(seed, e)``, so repeated access is bit-identical).
    """

    def __init__(self, population: "VirtualPopulation") -> None:
        self._population = population
        self.edges = _LazyEdgeList(population)

    @property
    def spec(self) -> PopulationSpec:
        return self._population.spec

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_edges(self) -> int:
        return self.spec.num_edges

    @property
    def num_clients(self) -> int:
        return self.spec.num_clients

    @property
    def input_dim(self) -> int:
        return self.spec.input_dim

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    def clients_per_edge(self) -> list[int]:
        """Per-edge client counts under the dataset's method name."""
        return self.spec.clients_per_edge_list()

    def global_test(self) -> Dataset:
        """Union of all edge test sets — materializes O(num_edges) data."""
        return concat_datasets([self.edges[e].test for e in range(self.num_edges)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"VirtualDatasetView(edges={self.num_edges}, "
                f"clients={self.num_clients}, family={self.spec.family!r})")


#: Epoch rollovers a restore may replay.  A client past it is stored with
#: its sampler row as well, so restoring it sets a generator state instead of
#: drawing one permutation per epoch it has run.
REPLAY_LIMIT = 16
_WORD = 0xFFFFFFFF


def _sampler_row(drawn: int, state: dict, order: list[int]) -> list[int]:
    """``[batches_drawn, state words (4, low first), has_uint32, uinteger,
    *order]``: everything a PCG64 sampler needs beyond its stream's ``inc``."""
    word = state["state"]["state"]
    return [drawn, word & _WORD, word >> 32 & _WORD, word >> 64 & _WORD,
            word >> 96, state["has_uint32"], state["uinteger"], *order]


def _resume(rng: np.random.Generator, row: list[int]) -> np.ndarray:
    """Set ``rng`` (the client's fresh stream) to ``row``'s generator state
    and return ``row``'s epoch permutation."""
    bitgen = rng.bit_generator
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": row[1] | row[2] << 32 | row[3] << 64 | row[4] << 96,
                  "inc": bitgen.state["state"]["inc"]},
        "has_uint32": row[5], "uinteger": row[6]}
    return np.array(row[7:], dtype=np.int64)


class VirtualPopulation(Population):
    """A population derived on demand from a :class:`PopulationSpec`.

    One instance serves one algorithm run: the first ``build_*`` call binds the
    run's ``(batch_size, rng_factory)`` and a second binding with different
    parameters is rejected, because persisted sampler state is only meaningful
    for the streams it was drawn from.  ``run_experiment`` constructs a fresh
    population per roster entry for exactly this reason.
    """

    virtual = True

    def __init__(self, spec: PopulationSpec, *,
                 store: ClientStateStore | None = None) -> None:
        if not isinstance(spec, PopulationSpec):
            raise TypeError(f"spec must be a PopulationSpec, got {type(spec).__name__}")
        self.spec = spec
        self.store = store if store is not None else ClientStateStore()
        self._view = VirtualDatasetView(self)
        self._live: dict[int, Client] = {}
        # Ids touched this round, live or released: the round's cohort.
        self._cohort: set[int] = set()
        self._rng_factory = None
        self._batch_size: int | None = None
        self._image_generator = None
        # Lifecycle counters (surfaced by the population bench / gate
        # command).  Both count each round's cohort, every client once per
        # round however often it is released and re-derived:
        # ``clients_materialized_total`` sums the cohorts, and
        # ``max_live_clients`` is the largest one.  The resident set is
        # smaller; see the module docstring.
        self.clients_materialized_total = 0
        self.max_live_clients = 0

    # ------------------------------------------------------------------
    # Population protocol
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> VirtualDatasetView:
        return self._view

    @property
    def image_generator(self):
        """Shared stateless image sampler (None for the synthetic family)."""
        if self.spec.family != "synthetic" and self._image_generator is None:
            self._image_generator = self.spec.image_generator()
        return self._image_generator

    def _bind(self, batch_size: int, rng_factory) -> None:
        if self._rng_factory is None:
            self._rng_factory = rng_factory
            self._batch_size = int(batch_size)
            self.store.deriver = self._entries
            self.store.checker = self._check_entries
            return
        if (self._rng_factory.seed != rng_factory.seed
                or self._batch_size != int(batch_size)):
            raise ValueError(
                "a VirtualPopulation is bound to a single run (its persisted "
                "sampler state belongs to one RNG family); build a fresh "
                "VirtualPopulation per algorithm")
        self._rng_factory = rng_factory

    def build_edges(self, *, batch_size: int, rng_factory) -> list[VirtualEdgeServer]:
        """Bind run parameters and return one lazy edge actor per edge."""
        self._bind(batch_size, rng_factory)
        return [VirtualEdgeServer(e, self) for e in range(self.spec.num_edges)]

    def build_flat_clients(self, *, batch_size: int, rng_factory) -> VirtualClientRoster:
        """Bind run parameters and return the lazy flat-client roster."""
        self._bind(batch_size, rng_factory)
        return VirtualClientRoster(self)

    def eval_edge_ids(self, round_index: int) -> np.ndarray | None:
        """Evaluation cohort for ``round_index`` (see the spec's derivation law)."""
        return self.spec.eval_edge_ids(round_index)

    # ------------------------------------------------------------------
    # Cohort lifecycle
    # ------------------------------------------------------------------
    def client(self, client_id: int) -> Client:
        """Materialize (or return the live) client ``client_id``.

        Construction is a pure function of ``(spec.seed, client_id)`` — shard
        from the spec's data law, RNG stream from ``stream_at("client", cid)``,
        identical to the eager builder's per-client streams — replayed to its
        persisted ``batches_drawn``, so a re-visited client continues its
        minibatch sequence exactly where it was last flushed.
        """
        cid = int(client_id)
        live = self._live.get(cid)
        if live is not None:
            return live
        pair = self.store.get(cid)
        row = None if pair is None else self.store.sampler(cid, pair[0])
        return self._materialize([cid], [pair], [row])[0]

    def edge_clients(self, edge_id: int) -> list[Client]:
        """Materialize edge ``edge_id``'s full roster (the cohort unit).

        The roster's missing clients are derived together: one range read
        of the store, one pass over their shards and streams.
        """
        ids = self.spec.edge_client_ids(edge_id)
        live = self._live
        missing = [cid for cid in ids if cid not in live]
        if missing:
            stored = self.store.get_range(ids.start, ids.stop)
            rows = self.store.sampler_range(ids.start, ids.stop)
            self._materialize(missing, [stored.get(cid) for cid in missing],
                              [rows.get(cid) for cid in missing])
        return [self.client(cid) for cid in ids]

    def _materialize(self, ids: list[int], counters: list,
                     rows: list) -> list[Client]:
        """Derive the clients ``ids`` (none of them live), bring each one to
        its stored ``counters`` pair (None: nothing stored) — from its
        sampler row when the store kept one at that count, else by replay —
        and make them live."""
        if self._rng_factory is None:
            raise RuntimeError("population is unbound; call build_edges / "
                               "build_flat_clients first")
        shards = self.spec.client_shards(ids,
                                         image_generator=self.image_generator)
        rngs = self._rng_factory.streams_at("client", ids)
        clients = []
        for cid, shard, rng, pair, row in zip(ids, shards, rngs, counters,
                                              rows):
            drawn, steps = pair or (0, 0)
            order = (_resume(rng, row.tolist())
                     if row is not None and row[0] == drawn else None)
            client = Client(cid, shard, self._batch_size, rng, drawn, order)
            client.sgd_steps_taken = steps
            self._live[cid] = client
            clients.append(client)
            if cid not in self._cohort:
                self._cohort.add(cid)
                self.clients_materialized_total += 1
        self.max_live_clients = max(self.max_live_clients, len(self._cohort))
        return clients

    @property
    def live_client_ids(self) -> list[int]:
        return sorted(self._live)

    def _persist(self, clients) -> None:
        """Put ``clients``' two counters into the store with one merge, and
        the sampler rows of those past :data:`REPLAY_LIMIT` rollovers with
        another.  Clients that never advanced (no batches drawn, no SGD
        steps) are skipped: their state is still the pure function of
        ``(seed, cid)`` that materialization reproduces, so storing it would
        only grow the store."""
        moved = [client for client in clients
                 if client.sampler.batches_drawn or client.sgd_steps_taken]
        self.store.put_many(
            [client.client_id for client in moved],
            np.array([(client.sampler.batches_drawn, client.sgd_steps_taken)
                      for client in moved], dtype=np.int64))
        n, b = self.spec.samples_per_client, self._batch_size
        long = {c.client_id: c.sampler for c in moved if sampler_position(
            n, b, c.sampler.batches_drawn)[0] >= REPLAY_LIMIT}
        if long:
            self.store.put_samplers(list(long), [_sampler_row(
                s.batches_drawn, s._rng.bit_generator.state, s._order.tolist())
                for s in long.values()])

    def _sampler_at(self, cid: int, drawn: int) -> tuple:
        """``(rng, order, cursor)`` of client ``cid``'s sampler after
        ``drawn`` batches, on a fresh stream, without building its shard."""
        rng = self._rng_factory.stream_at("client", cid)
        n, row = self.spec.samples_per_client, self.store.sampler(cid, drawn)
        order = (replay_sampler(rng, n, self._batch_size, drawn)[0]
                 if row is None else _resume(rng, row.tolist()))
        return rng, order, sampler_position(n, self._batch_size, drawn)[1]

    def _entries(self, client_ids, counters) -> Iterator[dict]:
        """The store's deriver: each client's on-disk entry, its
        ``sampler_state_token`` rebuilt on a fresh stream, without building
        any shard.  Lazy, so a write holds one derived entry at a time."""
        for cid, (drawn, steps) in zip(client_ids, counters):
            rng, order, cursor = self._sampler_at(cid, drawn)
            state = rng.bit_generator.state
            yield {"sampler": {"rng": {"__bitgen__": state["bit_generator"],
                                       "state": state},
                               "order": {"__ndarray__": order.tolist(),
                                         "dtype": "int64",
                                         "shape": list(order.shape)},
                               "cursor": cursor, "batches_drawn": drawn},
                   "meta": {"sgd_steps_taken": steps}}

    def _check_entries(self, client_ids, entries, counters) -> tuple:
        """The store's checker: an entry within :data:`REPLAY_LIMIT` must
        equal the replay of its counters.  One past it is not replayed: it
        needs a PCG64 generator on the client's own stream (``inc``), a
        permutation of the shard and its counters' cursor, and its generator
        state becomes the client's sampler row as it stands."""
        n = self.spec.samples_per_client
        ids, rows = [], []
        for cid, entry, (drawn, _) in zip(client_ids, entries, counters):
            rollovers, cursor = sampler_position(n, self._batch_size, drawn)
            try:
                sampler = entry["sampler"]
                rng, order = sampler["rng"], sampler["order"]
                theirs = {"rng": (rng.bit_generator.state
                                  if isinstance(rng, np.random.Generator)
                                  else rng["state"]),
                          "order": np.asarray(order if isinstance(
                              order, np.ndarray) else order["__ndarray__"]),
                          "cursor": sampler["cursor"]}
                if rollovers < REPLAY_LIMIT:
                    rng, order, _ = self._sampler_at(cid, drawn)
                else:
                    rng = self._rng_factory.stream_at("client", cid)
                    order = _resume(rng, _sampler_row(
                        drawn, theirs["rng"], theirs["order"].tolist()))
                    if sorted(order.tolist()) != list(range(n)):
                        order = None
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"state for client {cid} is not a valid "
                                 f"client entry: {exc!r}") from None
            mine = {"rng": rng.bit_generator.state, "order": order,
                    "cursor": cursor}
            for key, value in mine.items():
                if not (np.array_equal(theirs[key], value) if key == "order"
                        else theirs[key] == value):
                    raise ValueError(
                        f"state for client {cid} does not match the replay "
                        f"of its counters: its sampler {key!r} differs")
            if rollovers >= REPLAY_LIMIT:
                ids.append(cid)
                rows.append(_sampler_row(drawn, mine["rng"], order.tolist()))
        return ids, rows

    def flush(self) -> None:
        """Persist every live client's surviving state into the store."""
        self._persist(self._live.values())

    def release(self, client_ids) -> None:
        """Flush and drop the live clients among ``client_ids``.

        Called once an edge has run its last leg of a phase; a client that
        is needed again this round re-derives from the store bit-identically
        and is not counted twice.
        """
        live = self._live
        self._persist([live.pop(cid) for cid in client_ids if cid in live])

    def end_round(self, round_index: int) -> None:
        """Flush and discard whatever is still live; start a new cohort."""
        self.flush()
        self._live.clear()
        self._cohort.clear()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self, *, shard_dir=None) -> dict:
        """Checkpoint payload: spec fingerprint, state store, cohort counters.

        With ``shard_dir`` the store is persisted as checksummed sidecar shard
        files there (see :meth:`ClientStateStore.save_shards`) and the payload
        carries only the integrity *manifest* instead of the inlined entries —
        the layout for populations too large to embed in one JSON document.
        """
        self.flush()
        state = {
            "spec": self.spec.to_dict(),
            "counters": {
                "clients_materialized_total": int(self.clients_materialized_total),
                "max_live_clients": int(self.max_live_clients),
            },
        }
        if shard_dir is not None:
            state["store_manifest"] = self.store.save_shards(shard_dir)
        else:
            state["store"] = self.store.state_dict()
        return state

    def load_state_dict(self, state: Mapping, *, shard_dir=None,
                        shard_recovery: str = "fallback", obs=None) -> None:
        """Restore from :meth:`state_dict`; rejects a mismatched spec.

        Once the population is bound, an entry whose generator state,
        permutation or cursor is not the replay of its counters raises
        ``ValueError`` naming the client, inline or from shard files.

        A payload written with sidecar shards (``store_manifest``) requires
        ``shard_dir``.  ``shard_recovery`` maps onto the store's corruption
        policy: ``"fallback"`` (the default) raises
        :class:`~repro.population.store.ShardIntegrityError` on a damaged
        shard so the caller can fall back to the previous checkpoint
        generation bit-identically; ``"rederive"`` quarantines the shard and
        lets its clients re-derive from ``(spec.seed, cid)``.
        """
        saved_spec = state.get("spec")
        if saved_spec is not None:
            saved = {k: v for k, v in dict(saved_spec).items()}
            if saved != self.spec.to_dict():
                raise ValueError(
                    "checkpoint was written by a different PopulationSpec; "
                    f"saved {saved} vs current {self.spec.to_dict()}")
        manifest = state.get("store_manifest")
        if manifest is not None:
            if shard_dir is None:
                raise ValueError(
                    "checkpoint stores client state in sidecar shard files; "
                    "pass shard_dir= to load it")
            on_corrupt = "rederive" if shard_recovery == "rederive" else "raise"
            self.store.load_shards(shard_dir, manifest,
                                   on_corrupt=on_corrupt, obs=obs)
        else:
            self.store.load_state_dict(state.get("store", {}))
        # Only now: a rejected store leaves the live cohort as it was.
        self._live.clear()
        self._cohort.clear()
        counters = dict(state.get("counters", {}))
        self.clients_materialized_total = int(
            counters.get("clients_materialized_total", 0))
        self.max_live_clients = int(counters.get("max_live_clients", 0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"VirtualPopulation(clients={self.spec.num_clients}, "
                f"edges={self.spec.num_edges}, live={len(self._live)}, "
                f"stored={len(self.store)})")
