"""Population protocol and the degenerate eager wrapper.

A *population* owns client construction for an algorithm run.  Two
implementations exist:

* :class:`EagerPopulation` — wraps a materialized
  :class:`~repro.data.dataset.FederatedDataset` and calls the exact builder
  functions (:func:`~repro.sim.builder.build_edge_servers` /
  :func:`~repro.sim.builder.build_flat_clients`) every algorithm used before
  this subsystem existed.  It is the repo's regression idiom in population
  form: wrapping a dataset as a degenerate population is **structurally**
  bit-identical to the pre-population code path — same builders, same RNG
  streams, same actor graph, same checkpoint format.
* :class:`~repro.population.virtual.VirtualPopulation` — derives clients on
  demand from a :class:`~repro.population.spec.PopulationSpec`; see that
  module.

:func:`resolve_population` is the single normalization point used by
:class:`~repro.core.base.FederatedAlgorithm`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.builder import build_edge_servers, build_flat_clients

__all__ = ["Population", "EagerPopulation", "resolve_population", "as_population"]


class Population:
    """Interface every population implements (see module docstring)."""

    is_population = True
    #: True when clients are derived on demand (affects checkpoint layout and
    #: backend warm-up; see ``FederatedAlgorithm``).
    virtual = False

    @property
    def dataset(self):
        """The dataset (or dataset view) consumers use for shape and test sets."""
        raise NotImplementedError

    def build_edges(self, *, batch_size: int, rng_factory) -> Sequence:
        """Produce the edge-server actors for a hierarchical run."""
        raise NotImplementedError

    def build_flat_clients(self, *, batch_size: int, rng_factory) -> Sequence:
        """Produce the flat client roster for non-hierarchical baselines."""
        raise NotImplementedError

    def eval_edge_ids(self, round_index: int) -> np.ndarray | None:
        """Evaluation cohort for this round; None evaluates every edge."""
        return None

    def begin_round(self, round_index: int) -> None:
        """Hook before a round's work starts."""

    def end_round(self, round_index: int) -> None:
        """Hook after a round's work: flush/discard the materialized cohort."""

    def flush(self) -> None:
        """Persist any live per-client state (no-op for eager populations)."""

    def state_dict(self) -> dict:
        """Checkpoint payload (empty when the algorithm snapshots clients)."""
        return {}

    def load_state_dict(self, state) -> None:  # noqa: B027 - intentional no-op
        """Restore from :meth:`state_dict` (no-op for eager populations)."""


class EagerPopulation(Population):
    """A materialized dataset wrapped as a degenerate population.

    ``eval_edges`` optionally enables the seeded evaluation cohort on eager
    datasets too; the default (None) keeps evaluation — and therefore the whole
    run — byte-identical to the pre-population code path.
    """

    virtual = False

    def __init__(self, dataset, *, eval_edges: int | None = None,
                 eval_seed: int = 0) -> None:
        if dataset is None:
            raise ValueError("an eager population needs a dataset; pass either "
                             "dataset= or population=")
        self._dataset = dataset
        if eval_edges is not None and eval_edges < 1:
            raise ValueError("eval_edges must be >= 1 (or None for all edges)")
        self.eval_edges = eval_edges
        self.eval_seed = int(eval_seed)

    @property
    def dataset(self):
        return self._dataset

    def build_edges(self, *, batch_size: int, rng_factory):
        """Delegate to the original eager builder — bit-identical actors."""
        return build_edge_servers(self._dataset, batch_size=batch_size,
                                  rng_factory=rng_factory)

    def build_flat_clients(self, *, batch_size: int, rng_factory):
        """Delegate to the original eager flat-roster builder."""
        return build_flat_clients(self._dataset, batch_size=batch_size,
                                  rng_factory=rng_factory)

    def eval_edge_ids(self, round_index: int) -> np.ndarray | None:
        """Seeded evaluation cohort (same law as the virtual spec), or None."""
        if self.eval_edges is None or self.eval_edges >= self._dataset.num_edges:
            return None
        # Same derivation law as PopulationSpec.eval_edge_ids so eager and
        # virtual runs with matching seeds sample matching cohorts.
        from repro.population.spec import _EVAL_KEY

        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=self.eval_seed, spawn_key=(_EVAL_KEY, int(round_index) + 1)))
        ids = rng.choice(self._dataset.num_edges, size=self.eval_edges,
                         replace=False)
        return np.sort(ids.astype(np.intp))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EagerPopulation({self._dataset!r})"


def resolve_population(population, dataset):
    """Normalize the ``(dataset, population)`` pair of an algorithm constructor.

    Accepts any of: ``population`` already a :class:`Population`; a
    :class:`~repro.population.spec.PopulationSpec` (virtualized on the spot); a
    spec string (parsed); or None (wrap ``dataset`` eagerly).  A spec or
    population may equivalently arrive in the ``dataset`` position — callers
    pass what they have and this sorts it out.
    """
    from repro.population.spec import PopulationSpec
    from repro.population.virtual import VirtualPopulation

    if population is None and (
            isinstance(dataset, (str, PopulationSpec))
            or getattr(dataset, "is_population", False)):
        population, dataset = dataset, None
    if population is None:
        return EagerPopulation(dataset)
    if dataset is not None:
        raise ValueError("pass either dataset or population=, not both")
    if isinstance(population, str):
        population = PopulationSpec.parse(population)
    if isinstance(population, PopulationSpec):
        return VirtualPopulation(population)
    if getattr(population, "is_population", False):
        return population
    raise TypeError(f"population must be a PopulationSpec, spec string, or "
                    f"Population, got {type(population).__name__}")


def as_population(obj, **kwargs):
    """Coerce a dataset / spec / spec string / population into a Population.

    ``as_population(dataset)`` is the degenerate eager wrap; keyword arguments
    (e.g. ``eval_edges=``) are forwarded to :class:`EagerPopulation`.
    """
    from repro.population.spec import PopulationSpec
    from repro.population.virtual import VirtualPopulation

    if getattr(obj, "is_population", False):
        if kwargs:
            raise ValueError("cannot re-configure an existing population")
        return obj
    if isinstance(obj, str):
        obj = PopulationSpec.parse(obj)
    if isinstance(obj, PopulationSpec):
        if kwargs:
            raise ValueError("configure the spec itself (dataclasses.replace) "
                             "instead of passing keywords here")
        return VirtualPopulation(obj)
    return EagerPopulation(obj, **kwargs)
