"""Declarative population specifications.

A :class:`PopulationSpec` describes a client population *as a law*, not as data:
how many edges and clients exist, how many samples each client holds, which data
family generates features, how labels are partitioned across edge areas, and a
single root seed.  Everything a client owns — its training shard, its RNG stream,
its sampler cursor — is a **pure function of (spec, client_id)**, so a sampled
cohort can be materialized on demand each round and discarded afterwards without
any loss of determinism.  That inversion (population = spec + seed; only the
cohort exists) is the core scaling abstraction of FedML / FL_PyTorch and what
lets a 1M-client run fit in O(cohort) memory.

Derivation law
--------------
All randomness descends from ``keyed_rng(spec.seed, KIND, index)``
(:func:`~repro.utils.rng.keyed_rng`) with disjoint ``KIND`` constants per
purpose:

* ``(_DATA_KEY, client_id)`` — the client's training shard;
* ``(_TEST_KEY, edge_id)`` — the edge area's shared test set;
* ``(_EVAL_KEY, round+1)`` — the per-round evaluation cohort (edge ids), a
  law :mod:`repro.population.base` shares with eager populations;
* class prototypes for the ``synthetic`` family use ``(_PROTO_KEY,)``.

Image families (``mnist_like`` etc.) draw their prototypes from the family's own
``prototype_seed`` — identical to the eager generators in
:mod:`repro.data.synthetic_images` — so a virtual ``mnist_like`` population poses
the same task as the materialized one.

``PopulationSpec`` also duck-types the topology surface of
:class:`~repro.data.dataset.FederatedDataset` (``num_edges``, ``num_clients``,
``input_dim``, ``num_classes``, ``clients_per_edge()``), so it can be passed
anywhere a dataset's *shape* is consulted (model factories, the algorithm
registry) without materializing anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from repro.data.dataset import Dataset
from repro.population.base import _eval_cohort
from repro.utils.rng import keyed_rng
from repro.utils.spec import dataclass_schema, parse_spec, to_int

__all__ = ["PopulationSpec"]

# Disjoint purpose keys for keyed_rng namespacing (the evaluation cohort's
# 0x5F6A7D03 lives in repro.population.base).  These are part of the
# checkpoint/derivation contract: changing them changes every virtual
# dataset, so treat them as frozen.
_DATA_KEY = 0x5F6A7D01
_TEST_KEY = 0x5F6A7D02
_PROTO_KEY = 0x5F6A7D04

_PARTITIONS = ("one_class", "iid")
_IMAGE_FAMILIES = ("mnist_like", "emnist_digits_like", "fashion_mnist_like")
_FAMILIES = ("synthetic",) + _IMAGE_FAMILIES

#: :meth:`PopulationSpec.parse` keys and the fields they set (``clients=``,
#: the population total, is split evenly over the edges).
_SPEC_KEYS = {"edges": "num_edges", "clients_per_edge": "clients_per_edge",
              "samples": "samples_per_client", "test": "test_per_edge",
              "family": "family", "classes": "num_classes", "dim": "dim",
              "side": "side", "partition": "partition",
              "eval_edges": "eval_edges", "seed": "seed", "noise": "noise"}


@dataclass(frozen=True)
class PopulationSpec:
    """A virtual client population: topology + data law + seed.

    Attributes
    ----------
    num_edges, clients_per_edge:
        Hierarchy shape; the population holds ``num_edges * clients_per_edge``
        clients with global ids ``0 .. N-1`` in edge-major order (client ``i``
        belongs to edge ``i // clients_per_edge``).
    samples_per_client, test_per_edge:
        Shard and per-edge test-set sizes.
    family:
        ``"synthetic"`` (Gaussian class-conditional features, dimension
        ``input_dim``) or one of the image families from
        :mod:`repro.data.synthetic_images` (``side`` overrides image size).
    partition:
        ``"one_class"`` assigns classes to edge areas round-robin (the paper's
        Fig. 3 label-skew law: every client of edge ``e`` holds only the classes
        ``{c : c % num_edges == e % num_edges}``); ``"iid"`` draws labels
        uniformly everywhere.
    eval_edges:
        If set, :meth:`eval_edge_ids` samples this many edges per evaluation
        round instead of evaluating every edge (see the estimator note on
        :func:`repro.metrics.evaluation.evaluate_per_edge`).
    seed:
        Root seed of the whole derivation law.
    """

    num_edges: int
    clients_per_edge: int
    samples_per_client: int = 32
    test_per_edge: int = 64
    family: str = "synthetic"
    num_classes: int = 10
    dim: int = 16
    side: int | None = None
    partition: str = "one_class"
    class_scale: float = 1.0
    noise: float = 1.0
    eval_edges: int | None = None
    seed: int = 0
    name: str = field(default="", compare=False)

    is_population_spec = True

    def __post_init__(self) -> None:
        if self.num_edges < 1 or self.clients_per_edge < 1:
            raise ValueError("num_edges and clients_per_edge must be >= 1")
        if self.samples_per_client < 1 or self.test_per_edge < 1:
            raise ValueError("samples_per_client and test_per_edge must be >= 1")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; options: {_FAMILIES}")
        if self.partition not in _PARTITIONS:
            raise ValueError(
                f"unknown partition {self.partition!r}; options: {_PARTITIONS}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.family == "synthetic" and self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.eval_edges is not None and self.eval_edges < 1:
            raise ValueError("eval_edges must be >= 1 (or None for all edges)")
        if not self.name:
            object.__setattr__(self, "name", f"population:{self.family}")

    # ------------------------------------------------------------------
    # Topology (FederatedDataset duck-type surface)
    # ------------------------------------------------------------------
    @property
    def num_clients(self) -> int:
        return self.num_edges * self.clients_per_edge

    def clients_per_edge_list(self) -> list[int]:
        """Per-edge client counts (uniform: ``clients_per_edge`` repeated)."""
        return [self.clients_per_edge] * self.num_edges

    # FederatedDataset spells this method ``clients_per_edge()``; the spec uses
    # that slot for the scalar, so expose the list under the dataset's name too.
    def clients_per_edge_counts(self) -> list[int]:
        """Alias of :meth:`clients_per_edge_list` under the dataset's name."""
        return self.clients_per_edge_list()

    @property
    def input_dim(self) -> int:
        """Feature dimension after resolving the family (``side*side`` for images)."""
        if self.family == "synthetic":
            return self.dim
        from repro.data.synthetic_images import _FAMILIES as IMG

        side = self.side if self.side is not None else IMG[self.family].side
        return side * side

    def edge_of(self, client_id: int) -> int:
        """Edge area of a global client id (edge-major layout)."""
        cid = int(client_id)
        if not 0 <= cid < self.num_clients:
            raise ValueError(f"client id {cid} outside population of {self.num_clients}")
        return cid // self.clients_per_edge

    def edge_client_ids(self, edge_id: int) -> range:
        """Global client ids homed at ``edge_id``."""
        e = int(edge_id)
        if not 0 <= e < self.num_edges:
            raise ValueError(f"edge id {e} outside {self.num_edges} edges")
        lo = e * self.clients_per_edge
        return range(lo, lo + self.clients_per_edge)

    def edge_classes(self, edge_id: int) -> list[int]:
        """Classes held by edge ``edge_id`` under the partition law."""
        if self.partition == "iid":
            return list(range(self.num_classes))
        e = int(edge_id) % min(self.num_edges, self.num_classes)
        step = min(self.num_edges, self.num_classes)
        return [c for c in range(self.num_classes) if c % step == e]

    def edge_group(self, edge_id: int) -> str:
        """Human-readable group label of an edge area (mirrors the eager naming)."""
        if self.partition == "iid":
            return "iid"
        return f"classes={self.edge_classes(edge_id)}"

    # ------------------------------------------------------------------
    # Data law (pure functions of (seed, id))
    # ------------------------------------------------------------------
    def _derive(self, edge_ids: list[int], rngs, n: int,
                image_generator=None) -> list[Dataset]:
        """One ``n``-row dataset per ``(edge_ids[k], rng)`` pair, in one pass.

        Each stream draws its labels, then its features, exactly as a lone
        derivation would; ``rngs`` may be lazy, so only one data stream is
        alive at a time.  The class lookup, the synthetic family's feature
        arithmetic and the validation run once over one ``(streams × n, d)``
        array whose consecutive row blocks are the datasets.
        """
        y = np.empty(len(edge_ids) * n, dtype=np.int64)
        X = np.empty((y.size, self.input_dim))
        synthetic = self.family == "synthetic"
        if not synthetic and image_generator is None:
            image_generator = self.image_generator()
        classes_of: dict[int, np.ndarray] = {}
        for k, (edge_id, rng) in enumerate(zip(edge_ids, rngs)):
            classes = classes_of.get(edge_id)
            if classes is None:
                classes = classes_of[edge_id] = np.asarray(
                    self.edge_classes(edge_id), dtype=np.int64)
            rows = slice(k * n, (k + 1) * n)
            y[rows] = classes[rng.integers(0, classes.size, size=n)]
            if synthetic:
                rng.standard_normal(out=X[rows])
            else:
                X[rows] = image_generator.sample(y[rows], rng).X
        if synthetic:
            # means[y] + noise * z elementwise, the same bits in place, one
            # class at a time so no (rows, d) copy of the means is built.
            X *= self.noise
            means = self.class_means()
            for c in np.flatnonzero(np.bincount(y, minlength=self.num_classes)):
                np.add(X, means[c], out=X, where=(y == c)[:, None])
        return Dataset(X, y, self.num_classes).row_blocks(n)

    def class_means(self) -> np.ndarray:
        """Class prototype means of the ``synthetic`` family (C, d); pure in seed.

        Computed once per spec and returned as a shared read-only array.
        """
        means = self.__dict__.get("_class_means")
        if means is None:
            means = self.class_scale * keyed_rng(
                self.seed, _PROTO_KEY).standard_normal(
                (self.num_classes, self.dim))
            means.flags.writeable = False
            # The spec is frozen; the cache is not a field, so equality,
            # hashing and to_dict() never see it.
            object.__setattr__(self, "_class_means", means)
        return means

    def image_generator(self):
        """The (stateless) image sampler shared by every client of the family."""
        from repro.data.synthetic_images import (SyntheticImageGenerator, _FAMILIES as
                                                 IMG, resized_spec)

        spec = IMG[self.family]
        if self.side is not None and self.side != spec.side:
            spec = resized_spec(spec, self.side)
        return SyntheticImageGenerator(spec)

    def client_rng(self, client_id: int) -> np.random.Generator:
        """Data-generation stream of one client (NOT its training-sampler stream)."""
        return keyed_rng(self.seed, _DATA_KEY, client_id)

    def client_shard(self, client_id: int, *, image_generator=None) -> Dataset:
        """Materialize client ``client_id``'s training shard.

        Bit-identical for a given ``(spec.seed, client_id)`` no matter when, on
        which backend, or in which order clients are visited.
        """
        return self.client_shards([client_id],
                                  image_generator=image_generator)[0]

    def client_shards(self, client_ids, *,
                      image_generator=None) -> list[Dataset]:
        """Training shards of ``client_ids`` in one pass (a roster's unit).

        Shard ``k`` equals ``client_shard(client_ids[k])`` bit for bit; the
        shards are row views of one array, so they live and die together.
        """
        ids = [int(cid) for cid in client_ids]
        return self._derive([self.edge_of(cid) for cid in ids],
                            map(self.client_rng, ids),
                            self.samples_per_client, image_generator)

    def edge_test(self, edge_id: int, *, image_generator=None) -> Dataset:
        """Materialize edge ``edge_id``'s shared test set (pure in (seed, edge_id))."""
        e = int(edge_id)
        if not 0 <= e < self.num_edges:
            raise ValueError(f"edge id {e} outside {self.num_edges} edges")
        return self._derive([e], [keyed_rng(self.seed, _TEST_KEY, e)],
                            self.test_per_edge, image_generator)[0]

    def eval_edge_ids(self, round_index: int) -> np.ndarray | None:
        """Seeded evaluation cohort for ``round_index`` (None means *all*
        edges); pure in ``(seed, round_index)``, shared with eager
        populations."""
        return _eval_cohort(self.seed, self.num_edges, self.eval_edges,
                            round_index)

    # ------------------------------------------------------------------
    # Parsing / serialization
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "PopulationSpec":
        """Build a spec from a ``key=value,key=value`` string (CLI surface).

        Keys: ``edges``, ``clients_per_edge`` (or total ``clients``, split
        evenly), ``samples``, ``test``, ``family``, ``classes``, ``dim``,
        ``side``, ``partition``, ``eval_edges``, ``seed``, ``noise``.  Example::

            clients=1000000,edges=1000,samples=2,test=16,eval_edges=50,seed=1
        """
        schema = dataclass_schema(cls)
        values = parse_spec(text, "population", {
            "clients": to_int,
            **{key: schema[name] for key, name in _SPEC_KEYS.items()}})
        total_clients = values.pop("clients", None)
        fields = {_SPEC_KEYS[key]: value for key, value in values.items()}
        if total_clients is not None:
            if "clients_per_edge" in fields:
                raise ValueError("give either clients= or clients_per_edge=, not both")
            edges = int(fields.get("num_edges", 1))
            if total_clients % edges:
                raise ValueError(
                    f"clients={total_clients} not divisible by edges={edges}")
            fields["clients_per_edge"] = total_clients // edges
        if "num_edges" not in fields or "clients_per_edge" not in fields:
            raise ValueError("population spec needs edges= and clients= "
                             "(or clients_per_edge=)")
        return cls(**fields)  # type: ignore[arg-type]

    def to_dict(self) -> dict:
        """JSON-able fingerprint (used to detect spec/checkpoint mismatches)."""
        return {
            "num_edges": self.num_edges, "clients_per_edge": self.clients_per_edge,
            "samples_per_client": self.samples_per_client,
            "test_per_edge": self.test_per_edge, "family": self.family,
            "num_classes": self.num_classes, "dim": self.dim,
            "side": self.side, "partition": self.partition,
            "class_scale": self.class_scale, "noise": self.noise,
            "eval_edges": self.eval_edges, "seed": self.seed,
        }

    def with_eval_edges(self, eval_edges: int | None) -> "PopulationSpec":
        """Copy of this spec with a different evaluation-cohort size."""
        return replace(self, eval_edges=eval_edges)

    @classmethod
    def from_dict(cls, data: Mapping) -> "PopulationSpec":
        return cls(**dict(data))
