"""Virtual populations: derive the sampled cohort on demand, discard after.

The pieces
----------
* :class:`VirtualPopulation` — owns the lifecycle.  ``client(cid)`` materializes
  one client as a pure function of ``(spec.seed, cid)``: shard from the spec's
  data law, RNG stream from :meth:`~repro.utils.rng.RngFactory.stream_at`
  (bit-identical to the eager builder's ``streams("client", N)[cid]``), then any
  persisted sampler cursor / step counter is restored from the
  :class:`~repro.population.store.ClientStateStore`.  ``end_round`` flushes the
  live cohort's state back to the store and drops the cohort.
* :class:`VirtualEdgeServer` — an :class:`~repro.sim.edge.EdgeServer` whose
  ``clients`` list is a materializing property; the inherited ``model_update``
  and ``estimate_loss`` run unchanged on it.
* :class:`VirtualClientRoster` — the flat ``self.clients`` stand-in for
  two-layer baselines: ``len()`` and indexing without materializing the world.
* :class:`VirtualDatasetView` — duck-types :class:`~repro.data.dataset.FederatedDataset`
  for shape queries and lazily generated per-edge test sets.

Memory contract: at any instant the population holds the live cohort plus the
state store (O(clients ever visited)); nothing scales with population size.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from repro.data.batching import restore_sampler_state, sampler_state_token
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
        self._rng_factory = None
        self._batch_size: int | None = None
        self._image_generator = None
        # Lifecycle counters (surfaced by the population bench / gate command).
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
        identical to the eager builder's per-client streams — composed with any
        persisted sampler state, so a re-visited client continues its minibatch
        sequence exactly where its last round left it.
        """
        cid = int(client_id)
        live = self._live.get(cid)
        if live is not None:
            return live
        if self._rng_factory is None:
            raise RuntimeError("population is unbound; call build_edges / "
                               "build_flat_clients first")
        shard = self.spec.client_shard(cid, image_generator=self.image_generator)
        rng = self._rng_factory.stream_at("client", cid)
        client = Client(cid, shard, self._batch_size, rng)
        sampler_state = self.store.get(cid, "sampler")
        if sampler_state is not None:
            restore_sampler_state(client.sampler, sampler_state)
        meta = self.store.get(cid, "meta")
        if meta is not None:
            client.sgd_steps_taken = int(meta["sgd_steps_taken"])
        self._live[cid] = client
        self.clients_materialized_total += 1
        if len(self._live) > self.max_live_clients:
            self.max_live_clients = len(self._live)
        return client

    def edge_clients(self, edge_id: int) -> list[Client]:
        """Materialize edge ``edge_id``'s full roster (the cohort unit)."""
        return [self.client(cid) for cid in self.spec.edge_client_ids(edge_id)]

    @property
    def live_client_ids(self) -> list[int]:
        return sorted(self._live)

    def flush(self) -> None:
        """Persist every live client's surviving state into the store.

        Clients that never advanced (no batches drawn, no SGD steps) are
        skipped: their state is still the pure function of ``(seed, cid)`` that
        materialization reproduces, so storing it would only grow the store.
        """
        for cid, client in self._live.items():
            if client.sampler.batches_drawn == 0 and client.sgd_steps_taken == 0:
                continue
            self.store.put(cid, sampler_state_token(client.sampler), "sampler")
            self.store.put(cid, {"sgd_steps_taken": int(client.sgd_steps_taken)},
                           "meta")

    def end_round(self, round_index: int) -> None:
        """Flush and discard the round's cohort."""
        self.flush()
        self._live.clear()

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
        self._live.clear()
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
        counters = dict(state.get("counters", {}))
        self.clients_materialized_total = int(
            counters.get("clients_materialized_total", 0))
        self.max_live_clients = int(counters.get("max_live_clients", 0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"VirtualPopulation(clients={self.spec.num_clients}, "
                f"edges={self.spec.num_edges}, live={len(self._live)}, "
                f"stored={len(self.store)})")
