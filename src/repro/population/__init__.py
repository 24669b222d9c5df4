"""Virtual client populations: spec-defined cohorts in O(cohort) memory.

``repro.population`` inverts client ownership: instead of materializing every
client and its dataset up front (capping population size at memory), a
:class:`PopulationSpec` *describes* the population and a
:class:`VirtualPopulation` derives each sampled edge's roster on demand —
datasets, RNG streams, and sampler cursors as pure functions of
``(spec.seed, client_id)`` — then discards it after the edge's last leg of
the phase, persisting only what must survive in a sharded
:class:`ClientStateStore`.  Wrapping a materialized
dataset with :class:`EagerPopulation` (what ``FederatedAlgorithm`` does when no
``population=`` is given) reproduces the pre-population behavior byte for byte.

See DESIGN.md "Virtual populations" for the lifecycle and equivalence
arguments, and ``benchmarks/bench_population.py`` for the measured O(cohort)
memory claim.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Population",
    "PopulationSpec",
    "EagerPopulation",
    "VirtualPopulation",
    "VirtualEdgeServer",
    "VirtualClientRoster",
    "VirtualDatasetView",
    "ClientStateStore",
    "ShardIntegrityError",
    "shard_file_path",
    "as_population",
    "resolve_population",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.population.base": (
        "EagerPopulation", "Population", "as_population",
        "resolve_population",
    ),
    "repro.population.spec": ("PopulationSpec",),
    "repro.population.store": (
        "ClientStateStore", "ShardIntegrityError", "shard_file_path",
    ),
    "repro.population.virtual": (
        "VirtualClientRoster", "VirtualDatasetView", "VirtualEdgeServer",
        "VirtualPopulation",
    ),
})
