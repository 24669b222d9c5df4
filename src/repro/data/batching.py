"""Minibatch sampling for client-side SGD.

Each client owns a :class:`MinibatchSampler` over its local shard.  The sampler
cycles through random epoch permutations (sampling without replacement within an
epoch, the standard SGD regime) and exposes :meth:`next_batch` for the inner loop of
Eq. (4).  Batches smaller than the shard wrap across epoch boundaries so every call
returns exactly ``batch_size`` rows; a boundary-spanning batch may therefore contain
a sample twice (the old epoch's tail plus the new epoch's head).  Per-sample usage
counts still never differ by more than 1 at any instant, since each epoch uses each
sample exactly once.

The sampler codec lives here too, in two encodings of the same state:
:func:`sampler_state_token` / :func:`restore_sampler_state` (a JSON-able dict,
the per-client layout checkpoints carry) and the *packed client record* — one
immutable ``bytes`` value holding a client's sampler state plus its step
counter, which is how the virtual population's client-state store keeps every
touched client.  :func:`client_record_to_entry` / :func:`client_record_from_entry`
translate between a record and the ``{"sampler": <token>, "meta": {...}}``
entry layout that checkpoints and store shard files carry on disk.
:func:`narrow_client_records` / :func:`widen_client_rows` convert a batch of
records to and from the narrower fixed-width rows the store keeps, and
:func:`pack_client_rows` builds those rows straight from live samplers.
"""

from __future__ import annotations

import struct
from typing import Any, Mapping, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.rng import generator_token, restore_generator
from repro.utils.serialization import from_jsonable, to_jsonable

__all__ = ["MinibatchSampler", "sampler_state_token", "restore_sampler_state",
           "pack_client_record", "restore_client_record",
           "client_record_to_entry", "client_record_from_entry",
           "narrow_client_records", "pack_client_rows", "widen_client_rows"]

#: Fixed little-endian header of a packed client record: PCG64 ``state`` and
#: ``inc`` (16 bytes each), ``has_uint32``, ``uinteger`` (uint32 each), then
#: ``cursor``, ``batches_drawn``, ``sgd_steps_taken`` (uint64 each) — 64
#: bytes.  The epoch permutation follows as little-endian int64, so an
#: 8-sample record is 128 bytes.  The client-state store keeps each record
#: as a narrower *row* (:func:`narrow_client_records`): the same 64 header
#: bytes, a 1-byte code naming the permutation dtype, then the permutation
#: in the smallest unsigned dtype that holds ``n - 1`` — 73 bytes for 8
#: samples.
_RECORD_HEADER = struct.Struct("<16s16sIIQQQ")
_ORDER_DTYPE = np.dtype("<i8")
#: Row permutation dtypes, indexed by the row's dtype code.
_ROW_DTYPES = tuple(np.dtype(t) for t in ("u1", "<u2", "<u4", "<i8"))
_ROW_MAX = tuple(int(np.iinfo(dtype).max) for dtype in _ROW_DTYPES)
#: Clients per step of :func:`pack_client_rows`.
_PACK_CHUNK = 256


class MinibatchSampler:
    """Infinite shuffled-epoch minibatch stream over one dataset.

    Parameters
    ----------
    dataset:
        The local shard.
    batch_size:
        Rows per batch; the paper uses 1 (convex runs) and 8 (non-convex runs).
        Clamped to the shard size.
    rng:
        Client-local generator; consumed on every reshuffle and batch draw.
    """

    def __init__(self, dataset: Dataset, batch_size: int,
                 rng: np.random.Generator) -> None:
        if len(dataset) == 0:
            raise ValueError("cannot sample minibatches from an empty dataset")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dataset = dataset
        self.batch_size = min(int(batch_size), len(dataset))
        self._rng = rng
        self._order = rng.permutation(len(dataset))
        self._cursor = 0
        self.batches_drawn = 0

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the next (X, y) minibatch of exactly ``batch_size`` rows."""
        n = len(self.dataset)
        take: list[np.ndarray] = []
        need = self.batch_size
        while need > 0:
            available = n - self._cursor
            if available == 0:
                self._order = self._rng.permutation(n)
                self._cursor = 0
                available = n
            step = min(need, available)
            take.append(self._order[self._cursor:self._cursor + step])
            self._cursor += step
            need -= step
        idx = take[0] if len(take) == 1 else np.concatenate(take)
        self.batches_drawn += 1
        return self.dataset.X[idx], self.dataset.y[idx]

    def __iter__(self):
        while True:
            yield self.next_batch()


def sampler_state_token(sampler: MinibatchSampler) -> dict[str, Any]:
    """JSON-able snapshot of a :class:`MinibatchSampler`.

    Captures everything that determines the sampler's future draws: the RNG
    (as an exact :func:`~repro.utils.rng.generator_token`), the current epoch
    permutation, the cursor into it, and the draw counter.
    """
    return {
        "rng": generator_token(sampler._rng),
        "order": np.asarray(sampler._order),
        "cursor": int(sampler._cursor),
        "batches_drawn": int(sampler.batches_drawn),
    }


def restore_sampler_state(sampler: MinibatchSampler,
                          state: dict[str, Any]) -> None:
    """Load a sampler snapshot back into ``sampler`` in place.

    ``state`` is a :func:`sampler_state_token` or a checkpoint's client entry,
    whose ``rng`` may be a generator rather than a token; extra keys are
    ignored.
    """
    restore_generator(sampler._rng, state["rng"])
    sampler._order = np.asarray(state["order"], dtype=np.int64)
    sampler._cursor = int(state["cursor"])
    sampler.batches_drawn = int(state["batches_drawn"])


def _require_pcg64(name: str) -> None:
    # Client streams come from RngFactory.stream_at, which only yields PCG64;
    # the record header has room for exactly that generator's state.
    if name != "PCG64":
        raise ValueError(
            f"client records hold PCG64 generator state only, got {name!r}")


def _pack_header(bitgen_state: Mapping, cursor: int, batches_drawn: int,
                 sgd_steps_taken: int) -> bytes:
    _require_pcg64(bitgen_state["bit_generator"])
    pcg = bitgen_state["state"]
    try:
        return _RECORD_HEADER.pack(
            int(pcg["state"]).to_bytes(16, "little"),
            int(pcg["inc"]).to_bytes(16, "little"),
            int(bitgen_state["has_uint32"]), int(bitgen_state["uinteger"]),
            int(cursor), int(batches_drawn), int(sgd_steps_taken))
    except (struct.error, OverflowError) as exc:
        raise ValueError(f"client state out of record range: {exc}") from None


def _pack_record(bitgen_state: Mapping, order: Any, cursor: int,
                 batches_drawn: int, sgd_steps_taken: int) -> bytes:
    return (_pack_header(bitgen_state, cursor, batches_drawn, sgd_steps_taken)
            + np.asarray(order, dtype=_ORDER_DTYPE).tobytes())


def _unpack_record(record: bytes) -> tuple[dict, np.ndarray, int, int, int]:
    """``(bit_generator.state, order, cursor, batches_drawn, sgd_steps_taken)``."""
    body = len(record) - _RECORD_HEADER.size
    if body < 0 or body % _ORDER_DTYPE.itemsize:
        raise ValueError(f"malformed client record of {len(record)} bytes")
    (state, inc, has_uint32, uinteger, cursor, batches_drawn,
     sgd_steps_taken) = _RECORD_HEADER.unpack_from(record)
    bitgen_state = {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(state, "little"),
                  "inc": int.from_bytes(inc, "little")},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
    order = np.frombuffer(record, dtype=_ORDER_DTYPE,
                          offset=_RECORD_HEADER.size).astype(np.int64)
    return bitgen_state, order, cursor, batches_drawn, sgd_steps_taken


def pack_client_record(sampler: MinibatchSampler,
                       sgd_steps_taken: int) -> bytes:
    """Pack a live client's surviving state into one immutable record.

    The record is the 64-byte ``_RECORD_HEADER`` (generator state, cursor,
    draw and step counters) followed by the epoch permutation as int64 — for
    an 8-sample shard, 128 bytes.  The store keeps it as a 73-byte row
    (:func:`narrow_client_records`) and hands back these same bytes.  Raises
    ``ValueError`` when the sampler's bit generator is not PCG64.
    """
    return _pack_record(sampler._rng.bit_generator.state, sampler._order,
                        sampler._cursor, sampler.batches_drawn,
                        sgd_steps_taken)


def restore_client_record(sampler: MinibatchSampler, record: bytes) -> int:
    """Unpack ``record`` into ``sampler`` in place; return ``sgd_steps_taken``.

    The generator state is written straight into the sampler's existing bit
    generator, so every alias of it follows the restored stream.
    """
    bit_generator = sampler._rng.bit_generator
    _require_pcg64(type(bit_generator).__name__)
    bitgen_state, order, cursor, batches_drawn, steps = _unpack_record(record)
    bit_generator.state = bitgen_state
    sampler._order = order
    sampler._cursor = cursor
    sampler.batches_drawn = batches_drawn
    return steps


def client_record_to_entry(record: bytes) -> dict[str, Any]:
    """The on-disk entry for ``record``: ``{"sampler": ..., "meta": ...}``.

    Equal to ``to_jsonable({"sampler": sampler_state_token(s), "meta":
    {"sgd_steps_taken": n}})`` for the client the record was packed from —
    the layout checkpoints and store shard files have always carried.
    """
    bitgen_state, order, cursor, batches_drawn, steps = _unpack_record(record)
    return {
        "sampler": {
            # The generator_token envelope, built without a Generator.
            "rng": {"__bitgen__": "PCG64", "state": bitgen_state},
            "order": to_jsonable(order),
            "cursor": cursor,
            "batches_drawn": batches_drawn,
        },
        "meta": {"sgd_steps_taken": steps},
    }


def client_record_from_entry(entry: Mapping[str, Any]) -> bytes:
    """Inverse of :func:`client_record_to_entry`.

    Accepts the entry as parsed from JSON or after
    :func:`~repro.utils.serialization.from_jsonable` (a live generator and
    array in place of their envelopes).  Raises ``ValueError`` for a non-PCG64
    generator.
    """
    sampler, meta = entry["sampler"], entry["meta"]
    rng = sampler["rng"]
    bitgen_state = (rng.bit_generator.state
                    if isinstance(rng, np.random.Generator) else rng["state"])
    return _pack_record(bitgen_state, from_jsonable(sampler["order"]),
                        sampler["cursor"], sampler["batches_drawn"],
                        meta["sgd_steps_taken"])


def _narrow(headers: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Store rows from ``(k, 64)`` uint8 headers and ``(k, n)`` permutations."""
    n = orders.shape[1]
    code = next(c for c, top in enumerate(_ROW_MAX)
                if n - 1 <= top or c == len(_ROW_MAX) - 1)
    dtype = _ROW_DTYPES[code]
    if dtype.kind == "u" and orders.size and (
            orders.min() < 0 or orders.max() > _ROW_MAX[code]):
        raise ValueError(f"client record permutation of {n} samples holds "
                         f"entries outside {dtype}")
    codes = np.full((len(orders), 1), code, dtype=np.uint8)
    return np.concatenate(
        [headers, codes, orders.astype(dtype).view(np.uint8)], axis=1)


def narrow_client_records(records: np.ndarray) -> np.ndarray:
    """Narrow a ``(k, L)`` uint8 matrix of same-length records to store rows.

    Row ``i`` is record ``i``'s 64 header bytes, a 1-byte dtype code, then
    its permutation in the smallest unsigned dtype that holds ``n - 1``
    (``uint8`` up to 256 samples, then ``uint16``, ``uint32``, ``int64``).
    :func:`widen_client_rows` inverts it exactly.  Raises ``ValueError`` for
    a length that is not a record's, or a permutation entry the narrow
    dtype cannot hold.
    """
    head = _RECORD_HEADER.size
    body = records.shape[1] - head
    if body < 0 or body % _ORDER_DTYPE.itemsize:
        raise ValueError(
            f"malformed client record of {records.shape[1]} bytes")
    return _narrow(records[:, :head], np.ascontiguousarray(
        records[:, head:]).view(_ORDER_DTYPE))


def pack_client_rows(samplers: Sequence[MinibatchSampler],
                     sgd_steps_taken: Sequence[int]) -> np.ndarray:
    """Store rows of many live clients, built in one pass.

    Equal to :func:`narrow_client_records` of their
    :func:`pack_client_record` records, without building those records;
    ``_PACK_CHUNK`` clients at a time, which bounds the temporary arrays.
    The shards must share one size; raises ``ValueError`` otherwise, and
    for a bit generator that is not PCG64.
    """
    head = _RECORD_HEADER.size
    rows = np.empty((0, head + 1), dtype=np.uint8)
    for start in range(0, len(samplers), _PACK_CHUNK):
        part = range(start, min(start + _PACK_CHUNK, len(samplers)))
        headers = b"".join([
            _pack_header(samplers[i]._rng.bit_generator.state,
                         samplers[i]._cursor, samplers[i].batches_drawn,
                         sgd_steps_taken[i]) for i in part])
        orders = np.stack([samplers[i]._order for i in part]).astype(
            _ORDER_DTYPE, copy=False)
        chunk = _narrow(np.frombuffer(headers, dtype=np.uint8).reshape(
            len(part), head), orders)
        if not start:
            rows = np.empty((len(samplers), chunk.shape[1]), dtype=np.uint8)
        rows[part.start:part.stop] = chunk
    return rows


def widen_client_rows(rows: np.ndarray) -> np.ndarray:
    """Inverse of :func:`narrow_client_records`: ``(k, W)`` rows of one
    width back to the ``(k, L)`` records they were narrowed from."""
    head = _RECORD_HEADER.size
    if rows.shape[0] == 0:
        return np.empty((0, head), dtype=np.uint8)
    dtype = _ROW_DTYPES[int(rows[0, head])]
    order = np.ascontiguousarray(rows[:, head + 1:]).view(dtype)
    return np.concatenate(
        [rows[:, :head], order.astype(_ORDER_DTYPE).view(np.uint8)], axis=1)
