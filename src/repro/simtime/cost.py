"""Seeded device/link cost models: how long compute and messages *would* take.

The repo's algorithms are simulations — every client runs on the one local
process — but the paper's setting is a real client-edge-cloud network where a
round's wall-clock is dominated by its slowest participant.  A
:class:`CostModel` assigns simulated durations to the two primitive actions the
algorithms perform:

* ``compute_s(entity, steps)`` — local SGD on a device (per-step time scaled
  by a per-device speed factor), and
* ``transfer_s(link, entity, floats)`` — a message on a link, priced as
  ``latency + wire_bytes / bandwidth`` where ``wire_bytes = floats × 8``
  follows the payload-unit convention of :mod:`repro.topology.comm` (so
  compressed uploads are automatically cheaper to send).

Every parameter of the heterogeneous model is a **pure function of
``(seed, entity)``** — device and link factors are drawn from dedicated
:func:`~repro.utils.rng.keyed_rng` streams keyed by ``(kind, entity)``, never
from a shared mutable generator.
Querying a cost is therefore side-effect-free and order-independent, which is
what guarantees identical simulated makespans across execution backends and
across checkpoint/resume (the cost of step ``k`` cannot depend on who asked
first).  The :class:`NullCostModel` prices everything at zero; it is the
default, and with it the virtual clock never advances.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import keyed_rng
from repro.utils.spec import convert, to_float, to_int, to_int_list, tokenize

__all__ = ["CostModel", "NullCostModel", "NULL_COST_MODEL",
           "HeterogeneousCostModel", "make_cost_model"]

_BYTES_PER_FLOAT = 8.0

#: Default one-way link latencies in seconds (LAN-ish edge tier, WAN backhaul).
_DEFAULT_LATENCY_S = {
    "client_edge": 0.005,
    "edge_cloud": 0.05,
    "client_cloud": 0.05,
    "default": 0.02,
}

#: Default link bandwidths in megabits per second.
_DEFAULT_MBPS = {
    "client_edge": 50.0,
    "edge_cloud": 100.0,
    "client_cloud": 20.0,
    "default": 50.0,
}


class CostModel:
    """Interface: simulated durations for compute steps and message transfers.

    Entities are identified by the same stable names the rest of the substrate
    uses: integer client ids for devices, link names (``client_edge``,
    ``edge_cloud``, ``client_cloud``, ``level_k``) plus an endpoint id for
    transfers.  Implementations must be pure: the same query always returns
    the same duration, with no mutable RNG state.
    """

    #: True only for :class:`NullCostModel` — lets callers skip the clock.
    is_null = False

    def compute_s(self, entity, steps: int, *, scale: float = 1.0) -> float:
        """Seconds for ``steps`` local SGD steps on device ``entity``.

        ``scale`` multiplies the per-step time — the faults layer passes its
        ``straggler_slowdown`` here so a straggler's *truncated* update still
        occupies the device for (roughly) the full round deadline.
        """
        raise NotImplementedError

    def transfer_s(self, link: str, entity, floats: float) -> float:
        """Seconds to move a ``floats``-payload message on ``link`` to/from
        ``entity`` (latency + wire bytes / bandwidth)."""
        raise NotImplementedError

    def probe_s(self, entity) -> float:
        """Seconds for a Phase-2 minibatch loss evaluation on ``entity``
        (a forward pass — priced at half an SGD step by default)."""
        return 0.5 * self.compute_s(entity, 1)


class NullCostModel(CostModel):
    """Everything is free; the virtual clock never advances (the default)."""

    is_null = True

    def compute_s(self, entity, steps: int, *, scale: float = 1.0) -> float:
        """Always 0.0 — compute is free under the null model."""
        return 0.0

    def transfer_s(self, link: str, entity, floats: float) -> float:
        """Always 0.0 — transfers are free under the null model."""
        return 0.0

    def probe_s(self, entity) -> float:
        """Always 0.0 — probes are free under the null model."""
        return 0.0


#: Shared null instance (stateless, safe to share).
NULL_COST_MODEL = NullCostModel()


class HeterogeneousCostModel(CostModel):
    """Lognormally heterogeneous devices plus latency/bandwidth-priced links.

    Parameters
    ----------
    seed:
        Root entropy of every per-entity draw.  Two models with the same seed
        (and parameters) price every action identically.
    base_step_s:
        Median seconds per local SGD step.
    device_sigma:
        Sigma of the lognormal per-device speed factor (0 = homogeneous).
    slow_fraction / slow_factor:
        Each device independently becomes a persistent straggler with
        probability ``slow_fraction`` (decided from its own seeded stream),
        multiplying its per-step time by ``slow_factor``.
    slow_clients:
        Explicit device ids that are *always* slowed by ``slow_factor`` —
        deterministic stragglers for benchmarks and CI assertions.
    latency_s / mbps:
        Per-link latency (seconds) and bandwidth (megabits/s) overrides,
        keyed by link name; unknown links (``level_3``, …) fall back to the
        ``"default"`` entry.
    link_sigma:
        Sigma of a lognormal per-(link, endpoint) bandwidth jitter factor
        (0 = clean links).
    """

    def __init__(self, *, seed: int = 0, base_step_s: float = 1e-3,
                 device_sigma: float = 0.5,
                 slow_fraction: float = 0.0, slow_factor: float = 10.0,
                 slow_clients: tuple = (),
                 latency_s: dict | None = None, mbps: dict | None = None,
                 link_sigma: float = 0.0) -> None:
        if base_step_s <= 0:
            raise ValueError(f"base_step_s must be positive, got {base_step_s}")
        if not 0.0 <= slow_fraction <= 1.0:
            raise ValueError(f"slow_fraction must be in [0, 1], "
                             f"got {slow_fraction}")
        if slow_factor < 1.0:
            raise ValueError(f"slow_factor must be >= 1, got {slow_factor}")
        self.seed = int(seed)
        self.base_step_s = float(base_step_s)
        self.device_sigma = float(device_sigma)
        self.slow_fraction = float(slow_fraction)
        self.slow_factor = float(slow_factor)
        self.slow_clients = frozenset(int(c) for c in slow_clients)
        self.latency_s = dict(_DEFAULT_LATENCY_S)
        self.latency_s.update(latency_s or {})
        self.mbps = dict(_DEFAULT_MBPS)
        self.mbps.update(mbps or {})
        self.link_sigma = float(link_sigma)
        self._device_cache: dict[str, float] = {}
        self._link_cache: dict[str, float] = {}

    # ------------------------------------------------------------- pure draws
    def _stream(self, kind: str, name: str) -> np.random.Generator:
        """A dedicated generator for one (kind, entity) — pure in (seed, key)."""
        return keyed_rng(self.seed, kind, name)

    def device_factor(self, entity) -> float:
        """Per-device speed multiplier (1 = median device)."""
        name = str(entity)
        cached = self._device_cache.get(name)
        if cached is not None:
            return cached
        rng = self._stream("device", name)
        factor = (float(np.exp(rng.normal(0.0, self.device_sigma)))
                  if self.device_sigma > 0 else 1.0)
        if self.slow_fraction > 0 and rng.random() < self.slow_fraction:
            factor *= self.slow_factor
        try:
            if int(entity) in self.slow_clients:
                factor *= self.slow_factor
        except (TypeError, ValueError):
            pass
        self._device_cache[name] = factor
        return factor

    def link_factor(self, link: str, entity) -> float:
        """Per-(link, endpoint) bandwidth jitter multiplier (1 = nominal)."""
        if self.link_sigma <= 0:
            return 1.0
        name = f"{link}:{entity}"
        cached = self._link_cache.get(name)
        if cached is not None:
            return cached
        rng = self._stream("link", name)
        factor = float(np.exp(rng.normal(0.0, self.link_sigma)))
        self._link_cache[name] = factor
        return factor

    # ---------------------------------------------------------------- pricing
    def compute_s(self, entity, steps: int, *, scale: float = 1.0) -> float:
        """``steps x base_step_s x device_factor x scale`` seconds."""
        return float(steps) * self.base_step_s * self.device_factor(entity) \
            * float(scale)

    def transfer_s(self, link: str, entity, floats: float) -> float:
        """``latency + wire_bytes / bandwidth`` seconds, with per-endpoint
        bandwidth jitter when ``link_sigma > 0``."""
        latency = self.latency_s.get(link, self.latency_s["default"])
        mbps = self.mbps.get(link, self.mbps["default"])
        bandwidth_bytes_s = mbps * 1e6 / 8.0
        wire_bytes = float(floats) * _BYTES_PER_FLOAT
        return latency + wire_bytes / bandwidth_bytes_s \
            * self.link_factor(link, entity)

    # ---------------------------------------------------------------- parsing
    _SCHEMA = {"seed": to_int, "slow_clients": to_int_list,
               **dict.fromkeys(("base_step_s", "device_sigma", "slow_fraction",
                                "slow_factor", "link_sigma"), to_float)}

    @classmethod
    def parse(cls, spec: str) -> "HeterogeneousCostModel":
        """Build from a spec string, e.g.
        ``"hetero,seed=1,slow_clients=0|7,slow_factor=10"``.

        Comma-separated ``key=value`` pairs; ``slow_clients`` takes a
        ``|``-separated id list; ``latency.<link>`` / ``mbps.<link>`` set
        per-link overrides.  A leading bare ``hetero`` token is allowed (and
        produced by :func:`make_cost_model`).
        """
        head, items = tokenize(spec, "cost-model", leading=True)
        if head not in (None, "hetero"):
            raise ValueError(f"cost-model spec entry {head!r} is not key=value")
        links = [k for k in items if k.startswith(("latency.", "mbps."))]
        kwargs = convert("cost-model", items,
                         {**cls._SCHEMA, **dict.fromkeys(links, to_float)})
        for kind, arg in (("latency", "latency_s"), ("mbps", "mbps")):
            per_link = {key.partition(".")[2]: kwargs.pop(key)
                        for key in links if key.startswith(kind + ".")}
            if per_link:
                kwargs[arg] = per_link
        return cls(**kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"HeterogeneousCostModel(seed={self.seed}, "
                f"base_step_s={self.base_step_s}, "
                f"device_sigma={self.device_sigma}, "
                f"slow_fraction={self.slow_fraction}, "
                f"slow_factor={self.slow_factor})")


def make_cost_model(spec) -> CostModel:
    """Resolve ``spec`` into a :class:`CostModel`.

    Accepts ``None`` / ``"null"`` / ``"none"`` (the free model), an existing
    :class:`CostModel` instance, or a spec string for
    :meth:`HeterogeneousCostModel.parse` (with or without the leading
    ``hetero`` token).
    """
    if spec is None:
        return NULL_COST_MODEL
    if isinstance(spec, CostModel):
        return spec
    if isinstance(spec, str):
        if spec.strip().lower() in ("", "null", "none"):
            return NULL_COST_MODEL
        return HeterogeneousCostModel.parse(spec)
    raise TypeError(f"cannot build a cost model from {type(spec).__name__}")
