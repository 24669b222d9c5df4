"""Algorithm registry: build any of the five methods by name.

The experiment harness and benches refer to algorithms by the names used in the
paper's figures; :func:`make_algorithm` instantiates them with a uniform keyword
interface, forwarding only the parameters each algorithm accepts.  Each entry
names its class as ``"module:Class"``, imported only when that algorithm is
built, so a run loads the code of the methods it runs and no other.
"""

from __future__ import annotations

import inspect
from importlib import import_module
from typing import Any

from repro.core.base import FederatedAlgorithm

__all__ = ["ALGORITHMS", "make_algorithm"]

#: Algorithm name -> ``"module:Class"`` of its implementation.
ALGORITHMS: dict[str, str] = {
    "fedavg": "repro.baselines.fedavg:FedAvg",
    "stochastic_afl": "repro.baselines.stochastic_afl:StochasticAFL",
    "drfa": "repro.baselines.drfa:DRFA",
    "hierfavg": "repro.baselines.hierfavg:HierFAVG",
    "hierminimax": "repro.core.hierminimax:HierMinimax",
    "semiasync_hierminimax": "repro.core.semiasync:SemiAsyncHierMinimax",
}


def _accepted_keywords(cls: type) -> frozenset[str]:
    """The keyword-only parameters of ``cls.__init__`` and, for as long as
    an ``__init__`` forwards ``**``, of its bases' — each parameter is
    declared once, where it is used."""
    keys: set[str] = set()
    for klass in cls.__mro__:
        if "__init__" not in vars(klass):
            continue
        params = inspect.signature(klass.__init__).parameters.values()
        keys.update(p.name for p in params if p.kind is p.KEYWORD_ONLY)
        if not any(p.kind is p.VAR_KEYWORD for p in params):
            break
    return frozenset(keys)


def make_algorithm(name: str, dataset, model_factory, **kwargs: Any,
                   ) -> FederatedAlgorithm:
    """Instantiate algorithm ``name`` with only the keywords it understands.

    ``eta_p`` is transparently renamed to ``eta_q`` for the two-layer minimax
    baselines.  ``m_edges`` supplied to a two-layer method is converted to the
    equivalent client count (``m_edges × N0``) so the participation *fraction*
    matches across architectures, as in the paper's comparisons.

    ``dataset`` may also be a :class:`~repro.population.PopulationSpec` (or a
    pre-built population): shape queries then run against its lazy dataset
    view and each call builds a fresh virtual population, so clients are
    derived on demand instead of materialized (see :mod:`repro.population`).
    """
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; options: {sorted(ALGORITHMS)}")
    module, _, class_name = ALGORITHMS[name].partition(":")
    cls = getattr(import_module(module), class_name)
    allowed = _accepted_keywords(cls)
    kwargs = dict(kwargs)

    shape = dataset
    if getattr(dataset, "is_population_spec", False):
        # Shape queries (clients_per_edge and friends) live on the lazy view;
        # the spec itself flows through to the constructor, where each
        # algorithm resolves its own fresh VirtualPopulation.
        from repro.population import VirtualPopulation

        shape = VirtualPopulation(dataset).dataset
    elif getattr(dataset, "is_population", False):
        shape = dataset.dataset

    # eta alias: accept eta_p for every minimax method.
    if "eta_p" in kwargs and "eta_q" in allowed:
        kwargs["eta_q"] = kwargs.pop("eta_p")

    # participation alias: m_edges -> m_clients for flat methods.
    if "m_edges" in kwargs and "m_clients" in allowed:
        m_edges = kwargs.pop("m_edges")
        if m_edges is not None and "m_clients" not in kwargs:
            counts = shape.clients_per_edge()
            n0 = counts[0] if len(set(counts)) == 1 else max(
                1, shape.num_clients // shape.num_edges)
            kwargs["m_clients"] = min(shape.num_clients, int(m_edges) * int(n0))

    filtered = {k: v for k, v in kwargs.items() if k in allowed}
    # Cross-algorithm experiment configs legitimately carry parameters some
    # methods do not use (eta_p for minimization methods, tau1/tau2 for
    # single-step or two-layer ones); drop those silently, raise on typos.
    ignorable = {"eta_p", "eta_q", "tau1", "tau2", "m_edges", "m_clients",
                 "projection_p", "projection_q", "weight_by_data", "staleness"}
    unknown = set(kwargs) - allowed - ignorable
    if unknown:
        raise TypeError(f"{name} does not accept parameters {sorted(unknown)}")
    return cls(dataset, model_factory, **filtered)
