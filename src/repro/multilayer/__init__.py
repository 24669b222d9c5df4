"""Multi-layer generalization: arbitrary-depth aggregation trees (§3's general
hub-and-spoke topology) and HierMinimax over them."""

from repro._lazy import lazy_exports

__all__ = ["HierarchyTree", "MultiLevelHierMinimax"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.multilayer.algorithm": ("MultiLevelHierMinimax",),
    "repro.multilayer.tree": ("HierarchyTree",),
})
