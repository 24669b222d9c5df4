"""Hierarchical network structure, communication accounting, and sampling."""

from repro._lazy import lazy_exports

__all__ = [
    "DIRECTIONS",
    "LINKS",
    "CommSnapshot",
    "CommunicationTracker",
    "HierarchicalTopology",
    "sample_by_weight",
    "sample_checkpoint_slot",
    "sample_uniform_subset",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.topology.comm": (
        "DIRECTIONS", "LINKS", "CommSnapshot", "CommunicationTracker",
    ),
    "repro.topology.network": ("HierarchicalTopology",),
    "repro.topology.sampling": (
        "sample_by_weight", "sample_checkpoint_slot", "sample_uniform_subset",
    ),
})
