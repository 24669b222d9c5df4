"""Sharded persistent per-client state for virtual populations.

A virtual population materializes only the sampled cohort each round and throws
it away afterwards — but some client state must *survive* the discard: the
minibatch-sampler position (so a client re-sampled in a later round continues
its stream exactly where it left off) and the local-step counter.  The
:class:`ClientStateStore` holds exactly that state, sharded by
``client_id % num_shards`` so checkpoints and future distribution can move
shards independently.

A client's state is two counters, ``(batches_drawn, sgd_steps_taken)``.  The
sampler's generator is consumed only by epoch permutations, so its state, the
permutation and the cursor are a pure function of ``(seed, cid, batch_size,
n, batches_drawn)``: :func:`~repro.data.batching.replay_sampler` rebuilds
them from a fresh ``stream_at("client", cid)``.  Beside the counters the
store keeps a *sampler row* (generator state and permutation) for each client
whose replay its owner deems long, so no restore replays a long history.
Inside there is no Python object per client: ascending ``int64`` id arrays
and ``uint32`` row tables, 16 bytes per client for the counters (at most an
eighth more while a table has spare capacity).  A counter past ``uint32``
raises; nothing wraps.  A round's cohort goes in with one
:meth:`~ClientStateStore.put_many` merge, and an edge's contiguous id range
comes out with one :meth:`~ClientStateStore.get_range`.  Memory is O(clients
ever visited), independent of the population size.

On disk each client is the entry ``{"sampler": <sampler_state_token>,
"meta": {"sgd_steps_taken": n}}``, in shards ``client_id % num_shards``
taken when the store is written or loaded: the owning population's
:attr:`~ClientStateStore.deriver` rebuilds each token from the counters, so
checkpoint documents and shard files keep that layout byte for byte, and
its :attr:`~ClientStateStore.checker` rejects, naming the client, a loaded
entry that is not its counters' state.  A bare store loads the counters
alone.

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
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.chaos.hooks import fire as chaos_fire
from repro.utils.serialization import (crc32_of, durable_write, fsync_dir,
                                       previous_path)

__all__ = ["ClientStateStore", "ShardIntegrityError", "shard_file_path"]

DEFAULT_SHARDS = 64
_COUNTER_MAX = int(np.iinfo(np.uint32).max)


class ShardIntegrityError(RuntimeError):
    """A persisted shard file is missing or fails checksum verification."""


def shard_file_path(directory: str | Path, index: int) -> Path:
    """The canonical file for shard ``index`` inside ``directory``."""
    return Path(directory) / f"shard-{int(index):05d}.json"


def _counter_rows(counters) -> np.ndarray:
    """``(k, 2)`` uint32 rows of ``(batches_drawn, sgd_steps_taken)`` pairs.

    Raises ``TypeError`` for values that are not integers (booleans
    included) and ``ValueError`` for a malformed shape or a value outside
    ``[0, 2**32)``.
    """
    if not (isinstance(counters, np.ndarray) and counters.dtype.kind in "iu"):
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in np.asarray(counters, dtype=object).flat):
            raise TypeError(
                f"client counters must be integer pairs, got {counters!r}")
    counts = np.asarray(counters).reshape(-1, 2)
    if counts.size and (counts.min() < 0 or counts.max() > _COUNTER_MAX):
        raise ValueError(
            f"client counters must lie in [0, {_COUNTER_MAX}]; got "
            f"{counts.min()}..{counts.max()}")
    return counts.astype(np.uint32)


def _entry_counters(entry: Mapping) -> tuple[int, int]:
    """``(batches_drawn, sgd_steps_taken)`` of one on-disk client entry."""
    pair = (entry["sampler"]["batches_drawn"], entry["meta"]["sgd_steps_taken"])
    for value in pair:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"client counters must be integers, got {pair}")
        if not 0 <= value <= _COUNTER_MAX:
            raise ValueError(
                f"client counters must lie in [0, {_COUNTER_MAX}]; got {pair}")
    return int(pair[0]), int(pair[1])


class _Rows:
    """Ascending unique ``int64`` ids, each with one fixed-width ``uint32``
    row.  Both arrays own spare capacity past ``n``; no view of either
    outlives a method call, so :meth:`_reserve` may resize them in place."""

    def __init__(self, width: int) -> None:
        self.ids = np.empty(0, dtype=np.int64)
        self.rows = np.empty((0, width), dtype=np.uint32)
        self.n = 0

    def find(self, client_id: int) -> int | None:
        i = int(np.searchsorted(self.ids[:self.n], client_id))
        return i if i < self.n and self.ids[i] == client_id else None

    def span(self, start: int, stop: int) -> tuple[int, int]:
        """Positions ``[lo, hi)`` of the ids in ``[start, stop)``."""
        lo, hi = np.searchsorted(self.ids[:self.n], [start, stop]).tolist()
        return lo, hi

    def merge(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Write ``rows[i]`` for ``ids[i]``; a later duplicate id wins."""
        if len(ids) != len(rows):
            raise ValueError(f"{len(ids)} client ids for {len(rows)} rows")
        if rows.shape[1] != self.rows.shape[1]:
            if self.n:
                raise ValueError(
                    f"rows of width {rows.shape[1]} for a table of width "
                    f"{self.rows.shape[1]}")
            self.ids = np.empty(0, dtype=np.int64)
            self.rows = np.empty((0, rows.shape[1]), dtype=np.uint32)
        if not (ids[1:] > ids[:-1]).all():
            # Ascending and unique; the last row of a repeated id wins.
            order = np.argsort(ids, kind="stable")
            ids, rows = ids[order], rows[order]
            last = np.append(ids[1:] != ids[:-1], True)
            ids, rows = ids[last], rows[last]
        n = self.n
        pos = np.searchsorted(self.ids[:n], ids)
        hit = pos < n
        hit[hit] = self.ids[pos[hit]] == ids[hit]
        if hit.any():
            self.rows[pos[hit]] = rows[hit]
            new = ~hit
            ids, rows, pos = ids[new], rows[new], pos[new]
        m = len(ids)
        if not m:
            return
        self._reserve(n + m)
        # Open the gaps in place: the old rows in [pos[j], pos[j + 1]) move
        # right by j + 1.  Back to front, no row is overwritten before it
        # moves.
        bounds = np.append(pos, n)
        for j in np.flatnonzero(bounds[:-1] < bounds[1:])[::-1].tolist():
            lo, hi = int(bounds[j]), int(bounds[j + 1])
            self.ids[lo + j + 1:hi + j + 1] = self.ids[lo:hi]
            self.rows[lo + j + 1:hi + j + 1] = self.rows[lo:hi]
        dest = pos + np.arange(m)
        self.ids[dest] = ids
        self.rows[dest] = rows
        self.n = n + m

    def _reserve(self, size: int) -> None:
        capacity = len(self.ids)
        if size <= capacity:
            return
        # Grow by an eighth: in-place realloc, so no second copy of the
        # table is ever live, and at most an eighth of it is spare.
        capacity = max(size, capacity + capacity // 8, 256)
        self.ids.resize(capacity, refcheck=False)
        self.rows.resize((capacity, self.rows.shape[1]), refcheck=False)

    def drop(self, client_id: int) -> None:
        i = self.find(client_id)
        if i is None:
            return
        n = self.n - 1
        self.ids[i:n] = self.ids[i + 1:n + 1]
        self.rows[i:n] = self.rows[i + 1:n + 1]
        self.n = n

    def nbytes(self) -> int:
        """Bytes of the stored rows and their ids, spare capacity excluded."""
        return self.n * (8 + 4 * self.rows.shape[1])


class ClientStateStore:
    """Sharded ``client_id -> (batches_drawn, sgd_steps_taken)`` table with
    exact round-trip.

    :meth:`get` returns the counter pair :meth:`put` was given.
    :attr:`deriver` and :attr:`checker`, set by the owning
    :class:`~repro.population.VirtualPopulation` when it is bound to a run,
    turn counters into on-disk entries and check loaded entries against
    them; :meth:`state_dict` and :meth:`save_shards` of a non-empty store
    need the deriver.  Beside the counters the store keeps the owner's
    *sampler rows* (:meth:`put_samplers`): for a client whose replay would be
    long, its sampler state at one ``batches_drawn``, so a restore need not
    replay it.  Rows are a cache of the replay: they never reach the disk,
    and a row whose ``batches_drawn`` is not the client's is ignored.
    """

    def __init__(self, num_shards: int = DEFAULT_SHARDS) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)
        #: ``deriver(client_ids, counters) -> entries``, in order.
        self.deriver: Callable | None = None
        #: ``checker(client_ids, entries, counters) -> (ids, sampler rows)``;
        #: raises ``ValueError`` naming a client whose entry it rejects.
        self.checker: Callable | None = None
        self._clear()

    def _clear(self) -> None:
        self._counts = _Rows(2)
        self._samplers = _Rows(0)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(self, client_id: int) -> tuple[int, int] | None:
        """``(batches_drawn, sgd_steps_taken)`` of ``client_id`` (None if
        absent)."""
        i = self._counts.find(int(client_id))
        return None if i is None else tuple(self._counts.rows[i].tolist())

    def get_range(self, start: int, stop: int) -> dict[int, tuple[int, int]]:
        """Every stored ``client_id -> counters`` with ``start <= id < stop``."""
        lo, hi = self._counts.span(start, stop)
        return dict(zip(self._counts.ids[lo:hi].tolist(),
                        map(tuple, self._counts.rows[lo:hi].tolist())))

    def put(self, client_id: int, counters: tuple[int, int]) -> None:
        """Store ``(batches_drawn, sgd_steps_taken)`` for ``client_id``
        (overwrites)."""
        self.put_many([int(client_id)], [counters])

    def put_many(self, client_ids, counters) -> None:
        """Store ``counters[i]`` for ``client_ids[i]`` with one merge.

        Same result as calling :meth:`put` for each pair in order, so a
        later duplicate id wins.  Validated before anything changes.
        """
        ids = np.asarray(client_ids, dtype=np.int64).reshape(-1)
        self._counts.merge(ids, _counter_rows(counters))

    def put_samplers(self, client_ids, rows) -> None:
        """Keep ``rows[i]``, a ``uint32`` sampler row whose first word is
        its ``batches_drawn``, for ``client_ids[i]`` (overwrites)."""
        self._samplers.merge(np.asarray(client_ids, dtype=np.int64).reshape(-1),
                             np.asarray(rows, dtype=np.uint32))

    def sampler(self, client_id: int, batches_drawn: int) -> np.ndarray | None:
        """``client_id``'s sampler row kept at ``batches_drawn`` (None if
        there is none at that count)."""
        row = self.sampler_range(client_id, client_id + 1).get(int(client_id))
        return row if row is not None and row[0] == batches_drawn else None

    def sampler_range(self, start: int, stop: int) -> dict[int, np.ndarray]:
        """Every kept ``client_id -> sampler row`` with ``start <= id <
        stop``."""
        lo, hi = self._samplers.span(start, stop)
        return dict(zip(self._samplers.ids[lo:hi].tolist(),
                        self._samplers.rows[lo:hi].copy()))

    def discard(self, client_id: int) -> None:
        """Drop ``client_id``'s counters and sampler row, if any."""
        self._counts.drop(int(client_id))
        self._samplers.drop(int(client_id))

    def __contains__(self, client_id: object) -> bool:
        # Membership tests arrive from generic containers ("is this thing a
        # stored client?"), so a key that cannot denote a client id is simply
        # absent — not a crash.
        try:
            cid = int(client_id)  # type: ignore[arg-type]
            return self._counts.find(cid) is not None
        except (TypeError, ValueError, OverflowError):  # past int64
            return False

    def __len__(self) -> int:
        return self._counts.n

    def client_ids(self) -> Iterator[int]:
        """All client ids with any stored state (ascending)."""
        return iter(self._counts.ids[:self._counts.n].tolist())

    def shard_sizes(self) -> list[int]:
        """Entry count per shard (diagnostics / balance checks)."""
        return np.bincount(self._counts.ids[:self._counts.n] % self.num_shards,
                           minlength=self.num_shards).tolist()

    def payload_bytes(self) -> int:
        """Bytes of stored state: 16 per client (id plus two counters), plus
        the kept sampler rows and their ids."""
        return self._counts.nbytes() + self._samplers.nbytes()

    # ------------------------------------------------------------------
    # Checkpointing (inline)
    # ------------------------------------------------------------------
    def _shard_entries(self) -> Iterator[tuple[int, dict[str, dict]]]:
        """``(index, entries)`` of every non-empty shard, ascending; a shard
        is the ids with ``client_id % num_shards == index``, keyed by
        stringified id in ascending id order."""
        if self.deriver is None and len(self):
            raise RuntimeError(
                "this store has no deriver: client entries are rebuilt by "
                "the VirtualPopulation bound to it")
        n = self._counts.n
        ids = self._counts.ids[:n].copy()  # no view held across a yield
        counts = self._counts.rows[:n].copy()
        shard_of = ids % self.num_shards
        by_shard = np.argsort(shard_of, kind="stable")
        sizes = np.bincount(shard_of, minlength=self.num_shards).tolist()
        start = 0
        for index, size in enumerate(sizes):
            if not size:
                continue
            take = by_shard[start:start + size]
            start += size
            cids = ids[take].tolist()
            yield index, dict(zip(map(str, cids), self.deriver(
                cids, counts[take].tolist())))

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
        or negative client keys, entries without integer counters in
        ``uint32`` range and, with a :attr:`checker`, entries it rejects raise
        ``ValueError`` naming the offending key, leaving the current content
        untouched.  Entries may be plain JSON or already passed
        through :func:`~repro.utils.serialization.from_jsonable`.
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
        counters: list[tuple[int, int]] = []
        entries: list[Mapping] = []
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
                    counters.append(_entry_counters(entry))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(
                        f"state for client {cid} is not a valid client "
                        f"entry: {exc!r}") from None
                cids.append(cid)
                entries.append(entry)
        kept = ([], [])
        if self.checker is not None:
            kept = self.checker(cids, entries, counters)
        self._clear()
        self.put_many(cids, np.array(counters, dtype=np.int64))
        if len(kept[0]):
            self.put_samplers(*kept)

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
