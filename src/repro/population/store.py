"""Sharded persistent per-client state for virtual populations.

A virtual population materializes only the sampled cohort each round and throws
it away afterwards — but some client state must *survive* the discard: the
minibatch-sampler cursor (so a client re-sampled in a later round continues its
stream exactly where it left off) and the local-step counter.  The
:class:`ClientStateStore` holds exactly that state, sharded by
``client_id % num_shards`` so checkpoints and future distribution can move
shards independently.

Each client is one immutable ``bytes`` record
(:func:`~repro.data.batching.pack_client_record`): a fixed 64-byte
little-endian header — PCG64 ``state`` and ``inc`` (16 bytes each),
``has_uint32``, ``uinteger``, ``cursor``, ``batches_drawn``,
``sgd_steps_taken`` — followed by the epoch permutation as int64.  With 8
samples per client a record is 128 bytes, about 160 bytes as a Python object.

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

from repro.chaos.hooks import fire as chaos_fire
from repro.data.batching import client_record_from_entry, client_record_to_entry
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
    """

    def __init__(self, num_shards: int = DEFAULT_SHARDS) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)
        self._shards: list[dict[int, bytes]] = [
            {} for _ in range(self.num_shards)]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _shard(self, client_id: int) -> dict[int, bytes]:
        return self._shards[int(client_id) % self.num_shards]

    def get(self, client_id: int) -> bytes | None:
        """The record stored for ``client_id`` (None if absent)."""
        return self._shard(client_id).get(int(client_id))

    def put(self, client_id: int, record: bytes) -> None:
        """Store ``record`` for ``client_id`` (overwrites)."""
        if not isinstance(record, bytes):
            raise TypeError(
                f"client record must be bytes, got {type(record).__name__}")
        self._shard(client_id)[int(client_id)] = record

    def discard(self, client_id: int) -> None:
        """Drop ``client_id``'s record, if any."""
        self._shard(client_id).pop(int(client_id), None)

    def __contains__(self, client_id: object) -> bool:
        # Membership tests arrive from generic containers ("is this thing a
        # stored client?"), so a key that cannot denote a client id is simply
        # absent — not a crash.
        try:
            cid = int(client_id)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        return cid in self._shards[cid % self.num_shards]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def client_ids(self) -> Iterator[int]:
        """All client ids with any stored state (ascending)."""
        ids = [cid for shard in self._shards for cid in shard]
        return iter(sorted(ids))

    def shard_sizes(self) -> list[int]:
        """Entry count per shard (diagnostics / balance checks)."""
        return [len(shard) for shard in self._shards]

    def record_bytes(self) -> int:
        """Total length of every stored record (the store's payload size)."""
        return sum(len(record) for shard in self._shards
                   for record in shard.values())

    # ------------------------------------------------------------------
    # Checkpointing (inline)
    # ------------------------------------------------------------------
    @staticmethod
    def _entries(shard: dict[int, bytes]) -> dict[str, dict]:
        return {str(cid): client_record_to_entry(record)
                for cid, record in sorted(shard.items())}

    def state_dict(self) -> dict:
        """Exact JSON-clean snapshot; client keys are stringified."""
        return {
            "num_shards": self.num_shards,
            "shards": {str(i): self._entries(shard)
                       for i, shard in enumerate(self._shards) if shard},
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
        rebuilt: list[dict[int, bytes]] = [{} for _ in range(self.num_shards)]
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
                rebuilt[cid % self.num_shards][cid] = record
        self._shards = rebuilt

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
        for index, shard in enumerate(self._shards):
            if not shard:
                continue
            entries = self._entries(shard)
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
