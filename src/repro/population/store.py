"""Sharded persistent per-client state for virtual populations.

A virtual population materializes only the sampled cohort each round and throws
it away afterwards — but some client state must *survive* the discard: the
minibatch-sampler cursor (so a client re-sampled in a later round continues its
stream exactly where it left off) and the local-step counter.  The
:class:`ClientStateStore` holds exactly that state, sharded by
``client_id % num_shards`` so checkpoints and future distribution can move
shards independently.

A client's state goes in and comes out as one immutable ``bytes`` record
(:func:`~repro.data.batching.pack_client_record`): a fixed 64-byte
little-endian header — PCG64 ``state`` and ``inc`` (16 bytes each),
``has_uint32``, ``uinteger``, ``cursor``, ``batches_drawn``,
``sgd_steps_taken`` — followed by the epoch permutation as int64, 128 bytes
for 8 samples.  Inside, the store keeps no Python object per client: one
ascending ``int64`` id array and one fixed-width ``uint8`` row matrix, one
row per client.  A row is the record narrowed by
:func:`~repro.data.batching.narrow_client_records`: the same header, a
1-byte dtype code, then the permutation in the smallest unsigned dtype that
holds ``n - 1``.  An 8-sample client costs a 73-byte row plus its 8-byte id,
about 81 bytes (at most an eighth more while the table has spare capacity);
one ``bytes`` object per client in a dict cost about 220.  Shards are a
view, ``client_id % num_shards``, taken when the store is written or
loaded.  A round's cohort goes in as rows with one
:meth:`~ClientStateStore.put_rows` merge, and an edge's contiguous id range
comes out with one :meth:`~ClientStateStore.get_range`.

Memory is O(clients ever visited), independent of the population size: a
1M-client run that samples 5 edges x 1000 clients per round for 20 rounds holds
at most ~100k records.

The store round-trips bit-identically through ``state_dict()`` /
``load_state_dict()``.  Records convert at that boundary to the JSON entry
layout ``{"sampler": <sampler_state_token>, "meta": {"sgd_steps_taken": n}}``
(:func:`~repro.data.batching.client_record_to_entry`), so checkpoint
documents and shard files keep that layout byte for byte, and any checkpoint
in it loads.

Durable shard files
-------------------
For large populations the store can persist *sidecar* shard files instead of
inlining every entry into the main checkpoint: :meth:`ClientStateStore.save_shards`
writes one checksummed JSON file per non-empty shard (through
:func:`~repro.utils.serialization.durable_write`) and returns a manifest of per-shard
CRC-32 values that the checkpoint embeds.  :meth:`ClientStateStore.load_shards`
re-reads the files against that manifest: a torn, truncated, or bit-flipped
shard never loads silently — it either aborts the restore (``on_corrupt:
"raise"``, letting the caller fall back to the previous checkpoint generation)
or is quarantined and dropped (``"rederive"``), which is sound because virtual
clients are pure functions of ``(spec.seed, cid)`` and re-derive from scratch.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.chaos.hooks import fire as chaos_fire
from repro.data.batching import (client_record_from_entry,
                                 client_record_to_entry,
                                 narrow_client_records, widen_client_rows)
from repro.utils.serialization import (crc32_of, durable_write, fsync_dir,
                                       previous_path)

__all__ = ["ClientStateStore", "ShardIntegrityError", "shard_file_path"]

DEFAULT_SHARDS = 64


class ShardIntegrityError(RuntimeError):
    """A persisted shard file is missing or fails checksum verification."""


def shard_file_path(directory: str | Path, index: int) -> Path:
    """The canonical file for shard ``index`` inside ``directory``."""
    return Path(directory) / f"shard-{int(index):05d}.json"


class ClientStateStore:
    """Sharded ``client_id -> record`` map with exact round-trip.

    A record is the immutable ``bytes`` value
    :func:`~repro.data.batching.pack_client_record` builds from a live client
    and :func:`~repro.data.batching.restore_client_record` unpacks into one.
    :meth:`get` returns the bytes :meth:`put` was given.  One store holds
    records of one length (one ``samples_per_client``); a record of another
    length raises ``ValueError``.
    """

    def __init__(self, num_shards: int = DEFAULT_SHARDS) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)
        self._clear()

    def _clear(self, row_dtype="V1", record_len: int | None = None) -> None:
        # _ids[:_n] ascending; _rows[i] is the narrowed record of _ids[i],
        # one fixed-width void item, so a row moves as one element.  Both
        # arrays own spare capacity past _n.  No view of either outlives a
        # method call, so _reserve may resize them in place.
        self._ids = np.empty(0, dtype=np.int64)
        self._rows = np.empty(0, dtype=row_dtype)
        self._record_len = record_len
        self._n = 0

    @staticmethod
    def _widen(rows: np.ndarray) -> np.ndarray:
        """Records ``(k, L)`` of ``k`` contiguous table rows."""
        return widen_client_rows(
            rows.view(np.uint8).reshape(len(rows), rows.itemsize))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _find(self, client_id: int) -> int | None:
        i = int(np.searchsorted(self._ids[:self._n], client_id))
        return i if i < self._n and self._ids[i] == client_id else None

    def get(self, client_id: int) -> bytes | None:
        """The record stored for ``client_id`` (None if absent)."""
        i = self._find(int(client_id))
        if i is None:
            return None
        return self._widen(self._rows[i:i + 1]).tobytes()

    def get_range(self, start: int, stop: int) -> dict[int, bytes]:
        """Every stored ``client_id -> record`` with ``start <= id < stop``."""
        lo, hi = np.searchsorted(self._ids[:self._n], [start, stop]).tolist()
        records = self._widen(self._rows[lo:hi])
        return {cid: records[k].tobytes()
                for k, cid in enumerate(self._ids[lo:hi].tolist())}

    def put(self, client_id: int, record: bytes) -> None:
        """Store ``record`` for ``client_id`` (overwrites)."""
        self.put_many([int(client_id)], [record])

    def put_many(self, client_ids, records) -> None:
        """Store ``records[i]`` for ``client_ids[i]`` with one merge.

        Same result as calling :meth:`put` for each pair in order, so a
        later duplicate id wins.
        """
        self.put_rows(client_ids, self._narrow(records))

    def put_rows(self, client_ids, rows: np.ndarray) -> None:
        """:meth:`put_many` for records already narrowed to ``(k, W)`` rows
        (:func:`~repro.data.batching.pack_client_rows`): one merge, with a
        later duplicate id winning."""
        if not len(rows):
            if len(np.asarray(client_ids).reshape(-1)):
                raise ValueError("client ids given without records")
            return
        record_len = widen_client_rows(rows[:1]).shape[1]
        if self._record_len not in (None, record_len):
            raise ValueError(
                f"this store holds {self._record_len}-byte client records; "
                f"got {record_len}-byte records")
        ids, rows = self._sorted(client_ids, rows)
        if self._record_len is None:
            self._clear(rows.dtype, record_len)
        n = self._n
        pos = np.searchsorted(self._ids[:n], ids)
        hit = pos < n
        hit[hit] = self._ids[pos[hit]] == ids[hit]
        if hit.any():
            self._rows[pos[hit]] = rows[hit]
            new = ~hit
            ids, rows, pos = ids[new], rows[new], pos[new]
        m = len(ids)
        if not m:
            return
        self._reserve(n + m)
        # Open the gaps in place: the old rows in [pos[j], pos[j + 1]) move
        # right by j + 1.  Back to front, no row is overwritten before it
        # moves, and a 1-D slice copy needs no temporary.
        bounds = np.append(pos, n)
        for j in np.flatnonzero(bounds[:-1] < bounds[1:])[::-1].tolist():
            lo, hi = int(bounds[j]), int(bounds[j + 1])
            self._ids[lo + j + 1:hi + j + 1] = self._ids[lo:hi]
            self._rows[lo + j + 1:hi + j + 1] = self._rows[lo:hi]
        dest = pos + np.arange(m)
        self._ids[dest] = ids
        self._rows[dest] = rows
        self._n = n + m

    def _reserve(self, size: int) -> None:
        capacity = len(self._ids)
        if size <= capacity:
            return
        # Grow by an eighth: in-place realloc, so no second copy of the
        # table is ever live, and at most an eighth of it is spare.
        capacity = max(size, capacity + capacity // 8, 256)
        self._ids.resize(capacity, refcheck=False)
        self._rows.resize(capacity, refcheck=False)

    @staticmethod
    def _narrow(records) -> np.ndarray:
        """``(k, W)`` store rows of a sequence of same-length records."""
        records = list(records)
        for kind in set(map(type, records)) - {bytes}:
            raise TypeError(f"client record must be bytes, got {kind.__name__}")
        if len(set(map(len, records))) > 1:
            raise ValueError("client records in one store must share one "
                             "length (one samples_per_client)")
        if not records:
            return np.empty((0, 0), dtype=np.uint8)
        return narrow_client_records(np.frombuffer(
            b"".join(records), dtype=np.uint8).reshape(len(records), -1))

    @staticmethod
    def _sorted(client_ids, rows: np.ndarray) -> tuple[np.ndarray,
                                                       np.ndarray]:
        """``(ids, rows)`` with ids ascending and unique (the last row of a
        repeated id wins) and each row one fixed-width void item."""
        ids = np.asarray(client_ids, dtype=np.int64).reshape(-1)
        if len(ids) != len(rows):
            raise ValueError(f"{len(ids)} client ids for {len(rows)} records")
        rows = np.ascontiguousarray(rows).view(
            np.dtype((np.void, rows.shape[1])))[:, 0]
        if not (ids[1:] > ids[:-1]).all():
            order = np.argsort(ids, kind="stable")
            ids, rows = ids[order], rows[order]
            last = np.append(ids[1:] != ids[:-1], True)
            ids, rows = ids[last], rows[last]
        return ids, rows

    def discard(self, client_id: int) -> None:
        """Drop ``client_id``'s record, if any."""
        i = self._find(int(client_id))
        if i is None:
            return
        n = self._n - 1
        self._ids[i:n] = self._ids[i + 1:n + 1]
        self._rows[i:n] = self._rows[i + 1:n + 1]
        self._n = n

    def __contains__(self, client_id: object) -> bool:
        # Membership tests arrive from generic containers ("is this thing a
        # stored client?"), so a key that cannot denote a client id is simply
        # absent — not a crash.
        try:
            cid = int(client_id)  # type: ignore[arg-type]
            return self._find(cid) is not None
        except (TypeError, ValueError, OverflowError):  # past int64
            return False

    def __len__(self) -> int:
        return self._n

    def client_ids(self) -> Iterator[int]:
        """All client ids with any stored state (ascending)."""
        return iter(self._ids[:self._n].tolist())

    def shard_sizes(self) -> list[int]:
        """Entry count per shard (diagnostics / balance checks)."""
        return np.bincount(self._ids[:self._n] % self.num_shards,
                           minlength=self.num_shards).tolist()

    def record_bytes(self) -> int:
        """Total length of every stored record (the store's payload size)."""
        return self._n * (self._record_len or 0)

    # ------------------------------------------------------------------
    # Checkpointing (inline)
    # ------------------------------------------------------------------
    def _shard_entries(self) -> Iterator[tuple[int, dict[str, dict]]]:
        """``(index, entries)`` of every non-empty shard, ascending; a shard
        is the ids with ``client_id % num_shards == index``, keyed by
        stringified id in ascending id order."""
        ids = self._ids[:self._n].copy()  # no view held across a yield
        shard_of = ids % self.num_shards
        by_shard = np.argsort(shard_of, kind="stable")
        counts = np.bincount(shard_of, minlength=self.num_shards).tolist()
        start = 0
        for index, count in enumerate(counts):
            if not count:
                continue
            take = by_shard[start:start + count]
            start += count
            records = self._widen(self._rows[take])
            yield index, {
                str(cid): client_record_to_entry(records[k].tobytes())
                for k, cid in enumerate(ids[take].tolist())}

    def state_dict(self) -> dict:
        """Exact JSON-clean snapshot; client keys are stringified."""
        return {
            "num_shards": self.num_shards,
            "shards": {str(index): entries
                       for index, entries in self._shard_entries()},
        }

    def load_state_dict(self, state: Mapping) -> None:
        """Restore a :meth:`state_dict` snapshot (replaces all current content).

        The shard count may differ from the snapshot's — entries are re-homed
        by the current ``client_id % num_shards`` law, so resharding a
        checkpoint is safe and bit-identical at the client level.  The input
        is validated before anything is replaced: malformed shards, non-integer
        or negative client keys, and entries that are not a valid
        ``{"sampler": ..., "meta": ...}`` client entry raise ``ValueError``
        naming the offending key, leaving the current content untouched.
        Entries may be plain JSON or already passed through
        :func:`~repro.utils.serialization.from_jsonable`.
        """
        if not isinstance(state, Mapping):
            raise ValueError(
                f"store state must be a mapping, got {type(state).__name__}")
        shards_in = state.get("shards", {})
        if not isinstance(shards_in, Mapping):
            raise ValueError(
                f"store state 'shards' must be a mapping of shard snapshots, "
                f"got {type(shards_in).__name__}")
        cids: list[int] = []
        records: list[bytes] = []
        for shard_key, shard in shards_in.items():
            if not isinstance(shard, Mapping):
                raise ValueError(
                    f"shard {shard_key!r} must be a mapping of client entries, "
                    f"got {type(shard).__name__}")
            for cid_str, entry in shard.items():
                try:
                    cid = int(cid_str)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"shard {shard_key!r} holds non-integer client key "
                        f"{cid_str!r}") from None
                if cid < 0:
                    raise ValueError(
                        f"shard {shard_key!r} holds negative client id {cid}")
                if not isinstance(entry, Mapping):
                    raise ValueError(
                        f"state for client {cid} must be an entry mapping, "
                        f"got {type(entry).__name__}")
                try:
                    record = client_record_from_entry(entry)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(
                        f"state for client {cid} is not a valid client "
                        f"entry: {exc!r}") from None
                cids.append(cid)
                records.append(record)
        rows = self._narrow(records)
        self._clear()
        self.put_rows(cids, rows)

    # ------------------------------------------------------------------
    # Durable sidecar shard files
    # ------------------------------------------------------------------
    def save_shards(self, directory: str | Path) -> dict:
        """Write every non-empty shard to a checksummed file in ``directory``.

        Each file carries ``{"crc32": ..., "entries": {...}}`` and goes
        through :func:`~repro.utils.serialization.durable_write` (prior
        generation rotated to ``<name>.prev``); the directory is fsynced once
        after the batch.  Returns the
        manifest (``num_shards`` plus per-shard CRCs) the owning checkpoint
        must embed — loading matches files against it, so a stale or damaged
        file can never masquerade as the checkpointed generation.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest: dict = {"num_shards": self.num_shards, "shards": {}}
        for index, entries in self._shard_entries():
            crc = crc32_of(entries)
            path = durable_write(
                shard_file_path(directory, index),
                json.dumps({"crc32": crc, "entries": entries}, sort_keys=True))
            manifest["shards"][str(index)] = crc
            corrupt = chaos_fire("shard_corrupt")
            if corrupt is not None:
                # Simulated bit rot: flip one derived bit of the durably
                # written file.  The next load's CRC check must catch it.
                blob = bytearray(path.read_bytes())
                offset = min(len(blob) - 1,
                             int(corrupt["offset_frac"] * len(blob)))
                blob[offset] ^= 1 << corrupt["bit"]
                path.write_bytes(bytes(blob))
        fsync_dir(directory)
        return manifest

    def load_shards(self, directory: str | Path, manifest: Mapping, *,
                    on_corrupt: str = "raise", obs=None) -> list[int]:
        """Restore shard files from ``directory`` against ``manifest``.

        For each shard the manifest names, the current file and its ``.prev``
        sibling are candidates; the first whose recomputed CRC matches the
        manifest is loaded (rotation states where the manifest's generation
        still lives under either name are all covered).  When neither
        matches:

        ``on_corrupt="raise"``
            Abort with :class:`ShardIntegrityError` before touching current
            content — the caller's cue to fall back to the previous
            *checkpoint* generation, whose manifest matches the ``.prev``
            files (the bit-identical recovery path).
        ``on_corrupt="rederive"``
            Quarantine the damaged file (renamed to ``<name>.quarantine``)
            and drop the shard's entries: affected virtual clients re-derive
            from ``(spec.seed, cid)`` on next materialization.  Exact for
            never-advanced clients; detection is always loud (an event plus
            the returned shard list), never a silent load.

        Returns the list of corrupted shard indices (empty on a clean load).
        """
        if on_corrupt not in ("raise", "rederive"):
            raise ValueError(
                f"on_corrupt must be 'raise' or 'rederive', got {on_corrupt!r}")
        directory = Path(directory)
        shards_manifest = dict(manifest.get("shards", {}))
        resolved: dict[int, Mapping] = {}
        corrupted: list[int] = []
        for key in sorted(shards_manifest, key=int):
            index = int(key)
            expected = int(shards_manifest[key])
            path = shard_file_path(directory, index)
            entries = None
            for candidate in (path, previous_path(path)):
                entries = self._read_shard_file(candidate, expected)
                if entries is not None:
                    break
            if entries is None:
                corrupted.append(index)
                if on_corrupt == "raise":
                    raise ShardIntegrityError(
                        f"shard {index} in {directory} failed checksum "
                        f"verification against the checkpoint manifest "
                        f"(crc32 {expected}); the file is missing, torn, or "
                        f"bit-flipped")
                if path.exists():
                    path.replace(path.with_name(path.name + ".quarantine"))
                if obs is not None:
                    obs.event("shard_corrupt_detected", shard=index,
                              path=str(path), crc32=expected,
                              action="quarantined")
                    obs.count("store_shards_quarantined_total")
            else:
                resolved[index] = entries
        # Validate + apply through the same law as the inline path; entries
        # re-home under the current num_shards.
        self.load_state_dict({
            "num_shards": int(manifest.get("num_shards", self.num_shards)),
            "shards": {str(i): e for i, e in resolved.items()},
        })
        return corrupted

    @staticmethod
    def _read_shard_file(path: Path, expected_crc: int) -> Mapping | None:
        """Parse + verify one candidate file; None on any mismatch/damage."""
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError, UnicodeDecodeError):
            # OSError covers a missing file and ValueError JSONDecodeError; a
            # bit flip can also break the UTF-8 encoding itself, which
            # surfaces before the parser.
            return None
        if not isinstance(document, dict) or "entries" not in document:
            return None
        entries = document["entries"]
        if (int(document.get("crc32", -1)) != expected_crc
                or crc32_of(entries) != expected_crc):
            return None
        return entries
