"""Simulation actors: clients, edge servers, cloud server, and wiring helpers."""

from repro._lazy import lazy_exports

__all__ = [
    "build_edge_servers",
    "build_flat_clients",
    "topology_of",
    "Client",
    "CloudServer",
    "EdgeServer",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.builder": (
        "build_edge_servers", "build_flat_clients", "topology_of",
    ),
    "repro.sim.client": ("Client",),
    "repro.sim.cloud": ("CloudServer",),
    "repro.sim.edge": ("EdgeServer",),
})
