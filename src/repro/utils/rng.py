"""Deterministic random-number-stream management.

Every stochastic component in this library (clients' minibatch draws, the cloud's
edge sampling, dataset generators, parameter initialization, fault, churn and
attack decisions) consumes an explicit :class:`numpy.random.Generator`, and
every seeded one is built by :func:`keyed_rng`: a pure function of a root seed
and a key tuple, derived through :class:`numpy.random.SeedSequence` spawn keys,
so

* repeated runs with the same seed are bit-identical,
* adding a consumer never perturbs the streams of existing consumers, and
* per-client streams are statistically independent (no shared state, no locking),
  which mirrors how per-rank RNGs are handled in MPI-style HPC codes.

:class:`RngFactory` binds a root seed and hands out named streams; names are
hashed into the spawn key, so the mapping ``name -> stream`` is stable across
runs and across call order.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngFactory", "keyed_rng", "as_generator", "stable_key",
           "generator_token", "generator_from_token", "restore_generator"]


def generator_token(gen: np.random.Generator) -> dict:
    """Snapshot ``gen`` into a picklable/JSON-able token.

    The token is the same ``{"__bitgen__": name, "state": {...}}`` envelope the
    checkpoint serializer (:mod:`repro.utils.serialization`) writes, so it
    round-trips *exactly*: Python ints are arbitrary-precision, surviving even
    PCG64's 128-bit state.  It is the ``rng`` field of
    :func:`~repro.data.batching.sampler_state_token`, the per-client layout
    eager checkpoints and virtual-population client entries carry on disk
    (the client-state store itself keeps two counters per client and replays
    the rest); use it to persist
    generator state or to compare streams in tests.
    """
    from repro.utils.serialization import to_jsonable

    return to_jsonable(gen)


def generator_from_token(token: dict) -> np.random.Generator:
    """Rebuild a generator from a :func:`generator_token` snapshot.

    The returned generator continues the stream bit-identically from the
    snapshotted position.
    """
    from repro.utils.serialization import from_jsonable

    gen = from_jsonable(token)
    if not isinstance(gen, np.random.Generator):
        raise ValueError(f"not a generator token: {token!r}")
    return gen


def restore_generator(target: np.random.Generator,
                      source: np.random.Generator | dict) -> None:
    """Copy ``source``'s bit-generator state into ``target`` in place.

    ``source`` may be another generator or a :func:`generator_token` snapshot.
    In-place restoration keeps every alias to ``target`` (clients hold their
    sampler's generator, algorithms hold named streams) pointing at the
    restored stream.
    """
    if isinstance(source, dict):
        source = generator_from_token(source)
    target.bit_generator.state = source.bit_generator.state


def stable_key(name: str) -> int:
    """Map a string to a stable 64-bit integer (process-independent).

    Python's builtin ``hash`` is salted per process; we need a deterministic key so
    that named streams are reproducible across runs.  BLAKE2 is used for speed and
    availability in the standard library.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def keyed_rng(seed: int, *key: str | int) -> np.random.Generator:
    """The generator of stream ``key`` under root ``seed``.

    Built as ``default_rng(SeedSequence(entropy=seed, spawn_key=...))`` with
    each ``str`` part of ``key`` mapped through :func:`stable_key` and each
    ``int`` part used as is, so the stream is a pure function of
    ``(seed, key)``.  Every seeded stream in the library derives here.
    """
    spawn_key = tuple(stable_key(k) if isinstance(k, str) else int(k)
                      for k in key)
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))


def as_generator(seed: int | np.random.Generator | np.random.SeedSequence | None,
                 ) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an integer seed, an existing generator (returned unchanged), a
    ``SeedSequence``, or ``None`` (fresh OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class RngFactory:
    """Factory of named, independent random streams rooted at a single seed.

    Examples
    --------
    >>> factory = RngFactory(seed=0)
    >>> cloud_rng = factory.stream("cloud")
    >>> client_rngs = factory.streams("client", 30)

    Calling :meth:`stream` twice with the same name returns generators with the same
    *initial* state (two independent handles on an identical stream definition); the
    caller owns advancement of the state.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """Root seed this factory was created with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return an independent generator for the consumer called ``name``."""
        return keyed_rng(self._seed, name)

    def stream_at(self, name: str, i: int) -> np.random.Generator:
        """Return the ``i``-th stream of the ``name`` family without building the rest.

        ``stream_at(name, i)`` is bit-identical to ``streams(name, n)[i]`` for any
        ``n > i`` — the stream is a pure function of ``(seed, name, i)``.  This is
        what lets virtual populations derive a single client's generator on
        demand out of millions without materializing the full list.
        """
        return self.streams_at(name, [i])[0]

    def streams_at(self, name: str, indices) -> list[np.random.Generator]:
        """``[stream_at(name, i) for i in indices]``, hashing ``name`` once."""
        key = stable_key(name)
        out = []
        for i in indices:
            if i < 0:
                raise ValueError(f"stream index must be >= 0, got {i}")
            out.append(keyed_rng(self._seed, key, i))
        return out

    def streams(self, name: str, n: int) -> list[np.random.Generator]:
        """Return ``n`` independent generators, e.g. one per client."""
        if n < 0:
            raise ValueError(f"cannot create {n} streams")
        return self.streams_at(name, range(n))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngFactory(seed={self._seed})"
