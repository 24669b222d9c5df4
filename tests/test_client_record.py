"""Virtual client state as two counters: the replay and on-disk byte identity.

A virtual client's surviving state in the
:class:`~repro.population.ClientStateStore` is ``(batches_drawn,
sgd_steps_taken)``; its sampler's generator state, epoch permutation and
cursor are replayed from a fresh ``stream_at("client", cid)``.  The
contracts under test:

* a sampler rebuilt from its draw counter continues the minibatch stream
  bit-identically, across epoch wraps;
* the entry derived from a client's counters is exactly the
  ``{"sampler": <token>, "meta": {...}}`` entry the token codec produces, and
  loads back to the same counters;
* a loaded entry whose generator state, permutation, cursor or draw counter
  disagrees with the replay is rejected, inline and from shard files;
* a client past ``REPLAY_LIMIT`` rollovers is restored from its stored
  sampler row, not by replaying its history, and its checkpoint entry and
  load check need no replay either;
* store documents, shard files and their CRC manifests are the same bytes as
  when the store held those token entries, and checkpoints in that layout
  load.
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batching import (
    MinibatchSampler,
    replay_sampler,
    sampler_state_token,
)
from repro.data.dataset import Dataset
from repro.faults.checkpoint import load_checkpoint_file, save_checkpoint_file
from repro.population import (ClientStateStore, PopulationSpec,
                              VirtualPopulation, shard_file_path)
from repro.population.virtual import REPLAY_LIMIT
from repro.utils.rng import RngFactory
from repro.utils.serialization import canonical_bytes, from_jsonable, to_jsonable

SPEC = PopulationSpec.parse("clients=40,edges=4,samples=8,test=8,seed=5")


def _shard(n: int) -> Dataset:
    # Row i carries feature i, so a batch identifies the rows it drew.
    return Dataset(np.arange(float(n))[:, None], np.zeros(n, dtype=np.int64), 2)


def _sampler(n: int, batch: int, seed: int) -> MinibatchSampler:
    return MinibatchSampler(_shard(n), batch, RngFactory(seed).stream_at("client", 0))


def _token_entry(sampler: MinibatchSampler, steps: int) -> dict:
    """A client entry the way the token codec lays it out on disk."""
    return to_jsonable({"sampler": sampler_state_token(sampler),
                        "meta": {"sgd_steps_taken": steps}})


def _advanced_population() -> VirtualPopulation:
    pop = VirtualPopulation(SPEC, store=ClientStateStore(4))
    pop.build_edges(batch_size=3, rng_factory=RngFactory(SPEC.seed))
    for cid in (0, 3, 7, 12, 21, 33, 39):
        client = pop.client(cid)
        for _ in range(cid % 5 + 1):
            client.sampler.next_batch()
        client.sgd_steps_taken = 2 * cid
    return pop


def _token_store_doc(pop: VirtualPopulation) -> dict:
    """``pop.store.state_dict()`` as a store of token entries writes it."""
    shards: dict[str, dict] = {}
    for cid in sorted(pop.live_client_ids):
        client = pop.client(cid)
        index = str(cid % pop.store.num_shards)
        shards.setdefault(index, {})[str(cid)] = {
            "sampler": sampler_state_token(client.sampler),
            "meta": {"sgd_steps_taken": client.sgd_steps_taken}}
    return to_jsonable({"num_shards": pop.store.num_shards, "shards": shards})


def _bound_population(num_shards: int = 4) -> VirtualPopulation:
    pop = VirtualPopulation(SPEC, store=ClientStateStore(num_shards))
    pop.build_edges(batch_size=3, rng_factory=RngFactory(SPEC.seed))
    return pop


def _shard_files(directory, doc: dict) -> dict:
    """Write ``doc``'s shards as shard files with valid CRCs; the manifest."""
    manifest = {"num_shards": doc["num_shards"], "shards": {}}
    for index, entries in doc["shards"].items():
        crc = zlib.crc32(canonical_bytes(entries))
        manifest["shards"][index] = crc
        shard_file_path(directory, int(index)).write_text(
            json.dumps({"crc32": crc, "entries": entries}, sort_keys=True))
    return manifest


class TestCodec:
    @settings(max_examples=80, deadline=None)
    @given(shard=st.integers(1, 12), batch=st.integers(1, 16),
           draws=st.integers(0, 40), more=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_pack_discard_unpack_continues_stream(self, shard, batch, draws,
                                                  more, seed):
        # draws * batch spans several epochs of a small shard, and batch may
        # exceed the shard (the size clamp), so the replay lands mid-epoch,
        # at the boundary, and after wraps.
        continuous = _sampler(shard, batch, seed)
        for _ in range(draws):
            continuous.next_batch()
        revived = MinibatchSampler(
            _shard(shard), batch, RngFactory(seed).stream_at("client", 0),
            batches_drawn=draws)
        assert (revived._rng.bit_generator.state
                == continuous._rng.bit_generator.state)
        assert np.array_equal(revived._order, continuous._order)
        assert revived._cursor == continuous._cursor
        assert revived.batches_drawn == continuous.batches_drawn == draws
        for _ in range(more):
            assert np.array_equal(revived.next_batch()[0],
                                  continuous.next_batch()[0])
        assert (revived._rng.bit_generator.state
                == continuous._rng.bit_generator.state)

    def test_record_layout_and_size(self):
        # A stored client is an int64 id and two uint32 counters.
        store = ClientStateStore(4)
        store.put(5, (3, 4))
        assert store.get(5) == (3, 4)
        assert all(type(v) is int for v in store.get(5))
        assert store.payload_bytes() == 16
        assert store._counts.ids.dtype == np.int64
        assert (store._counts.rows.dtype == np.uint32
                and store._counts.rows.shape[1] == 2)

    def test_restore_keeps_generator_aliases(self):
        # The replay draws from the client's own generator, so every alias
        # of it follows the restored stream.
        source = _sampler(8, 3, 1)
        for _ in range(5):
            source.next_batch()
        alias = RngFactory(1).stream_at("client", 0)
        target = MinibatchSampler(_shard(8), 3, alias, batches_drawn=5)
        assert target._rng is alias
        assert alias.bit_generator.state == source._rng.bit_generator.state
        rng = RngFactory(1).stream_at("client", 0)
        order, cursor = replay_sampler(rng, 8, 3, 5)
        assert np.array_equal(order, source._order) and cursor == source._cursor
        assert rng.bit_generator.state == source._rng.bit_generator.state

    @pytest.mark.parametrize("draws", [0, 1, 5, 17])
    def test_golden_entry_round_trip(self, draws):
        pop = _bound_population()
        client = pop.client(7)
        for _ in range(draws):
            client.sampler.next_batch()
        pop.store.put(7, (draws, 3 * draws))
        entry = pop.store.state_dict()["shards"]["3"]["7"]
        assert entry == _token_entry(client.sampler, 3 * draws)
        assert canonical_bytes(entry) == canonical_bytes(
            _token_entry(client.sampler, 3 * draws))
        # The entry loads back to its counters as plain JSON and after
        # from_jsonable (a live Generator and ndarray, as a loaded
        # checkpoint carries it), bound or bare.
        for doc in ({"shards": {"0": {"7": entry}}},
                    from_jsonable({"shards": {"0": {"7": entry}}})):
            for store in (_bound_population(3).store, ClientStateStore(3)):
                store.load_state_dict(doc)
                assert store.get(7) == (draws, 3 * draws)

    def test_non_pcg64_generator_raises(self):
        # Client streams are PCG64; an entry carrying another generator is
        # not the replay of its counters.
        mt = MinibatchSampler(_shard(8), 3,
                              np.random.Generator(np.random.MT19937(0)))
        mt.next_batch()
        doc = {"shards": {"0": {"4": _token_entry(mt, 1)}}}
        with pytest.raises(ValueError, match="client 4 .*'rng'"):
            _bound_population().load_state_dict({"store": doc})

    def test_malformed_record_raises(self):
        pop = _bound_population()
        pop.client(2).sampler.next_batch()
        pop.flush()
        entry = pop.store.state_dict()["shards"]["2"]["2"]
        bad_counters = [2**32, -1, 1.5, "1", None, True]
        for value in bad_counters:
            for path in (("sampler", "batches_drawn"),
                         ("meta", "sgd_steps_taken")):
                bad = json.loads(json.dumps(entry))
                bad[path[0]][path[1]] = value
                for store in (ClientStateStore(4), _bound_population().store):
                    with pytest.raises(ValueError, match="client 2"):
                        store.load_state_dict({"shards": {"2": {"2": bad}}})
        with pytest.raises(ValueError):
            pop.store.put(3, (2**32, 0))
        with pytest.raises(ValueError):
            pop.store.put(3, (0, -1))
        for bad in ((True, 1), (1.0, 1), {"cursor": 3}, ("1", 2)):
            with pytest.raises(TypeError):
                pop.store.put(3, bad)
        with pytest.raises(TypeError):
            pop.store.put_many([3, 4], np.array([[1, 0], [True, 0]]) > 0)
        assert pop.store.get(3) is None


def _tamper(entry: dict, part: str) -> None:
    """Change one part of an on-disk client entry in place."""
    sampler = entry["sampler"]
    if part == "generator_state":
        sampler["rng"]["state"]["state"]["state"] ^= 1
    elif part == "permutation":
        order = sampler["order"]["__ndarray__"]
        order[0] = (order[0] + 1) % len(order)
    elif part == "cursor":
        sampler["cursor"] = (sampler["cursor"] + 1) % 9
    else:
        sampler[part] += 1


class TestReplayCheck:
    @pytest.mark.parametrize("part", ["generator_state", "permutation",
                                      "cursor", "batches_drawn"])
    @pytest.mark.parametrize("via", ["inline", "shard_files"])
    def test_tampered_entry_is_rejected(self, tmp_path, part, via):
        pop = _advanced_population()
        pop.flush()
        doc = pop.store.state_dict()
        entry = doc["shards"]["1"]["21"]
        before = json.dumps(entry, sort_keys=True)
        _tamper(entry, part)
        assert json.dumps(entry, sort_keys=True) != before
        payload = {"spec": SPEC.to_dict()}
        if via == "inline":
            payload["store"] = doc
        else:
            payload["store_manifest"] = _shard_files(tmp_path, doc)
        fresh = _bound_population(3)
        live = fresh.client(5)
        live.sampler.next_batch()
        with pytest.raises(ValueError, match="client 21"):
            fresh.load_state_dict(payload, shard_dir=tmp_path)
        # Rejected before anything changed: the live client is still live.
        assert fresh.client(5) is live and len(fresh.store) == 0
        # A bare store has nothing to replay: it takes the counters.
        bare = ClientStateStore(4)
        if via == "inline":
            bare.load_state_dict(doc)
        else:
            bare.load_shards(tmp_path, payload["store_manifest"])
        assert 21 in bare

    def test_untampered_entries_load_both_ways(self, tmp_path):
        pop = _advanced_population()
        pop.flush()
        doc = pop.store.state_dict()
        manifest = _shard_files(tmp_path, doc)
        for payload in ({"spec": SPEC.to_dict(), "store": doc},
                        {"spec": SPEC.to_dict(), "store_manifest": manifest}):
            fresh = _bound_population(3)
            fresh.load_state_dict(payload, shard_dir=tmp_path)
            assert ({cid: fresh.store.get(cid) for cid in pop.store.client_ids()}
                    == {cid: pop.store.get(cid)
                        for cid in pop.store.client_ids()})


#: Batches of 3 over SPEC's 8-sample shards that put a client past
#: REPLAY_LIMIT rollovers: ceil(3·LONG/8) - 1 > REPLAY_LIMIT.
LONG = (REPLAY_LIMIT + 2) * 8 // 3 + 1


def _no_replay(monkeypatch) -> None:
    """Fail any replay past a fresh sampler's construction permutation."""
    real = replay_sampler

    def refuse(rng, n, batch_size, batches_drawn):
        if batches_drawn:
            raise AssertionError("a stored client was replayed")
        return real(rng, n, batch_size, batches_drawn)
    monkeypatch.setattr("repro.data.batching.replay_sampler", refuse)
    monkeypatch.setattr("repro.population.virtual.replay_sampler", refuse)


def _uninterrupted(cid: int, draws: int) -> MinibatchSampler:
    """Client ``cid``'s sampler after ``draws`` batches, never restored."""
    sampler = MinibatchSampler(_shard(8), 3,
                               RngFactory(SPEC.seed).stream_at("client", cid))
    for _ in range(draws):
        sampler.next_batch()
    return sampler


def _assert_continues(revived: MinibatchSampler,
                      expected: MinibatchSampler, more: int = 10) -> None:
    """Same generator state, permutation and cursor now and after each of
    ``more`` batches (the shards differ; a batch is rows at the cursor)."""
    for step in range(more + 1):
        if step:
            revived.next_batch()
            expected.next_batch()
        assert (revived._rng.bit_generator.state
                == expected._rng.bit_generator.state)
        assert np.array_equal(revived._order, expected._order)
        assert revived._cursor == expected._cursor


class TestReplayLimit:
    def _long_population(self) -> VirtualPopulation:
        """Client 21 flushed after LONG batches (past the limit), client 3
        after 5."""
        pop = _bound_population()
        for cid, draws in ((21, LONG), (3, 5)):
            client = pop.client(cid)
            for _ in range(draws):
                client.sampler.next_batch()
        pop.end_round(0)
        return pop

    def test_long_client_restores_from_its_row(self, monkeypatch):
        pop = self._long_population()
        assert pop.store.sampler(21, LONG) is not None
        assert pop.store.sampler(3, 5) is None
        # Two counter rows, and one sampler row of 7 + 8 words with its id.
        assert pop.store.payload_bytes() == 2 * 16 + 8 + 4 * (7 + 8)
        _no_replay(monkeypatch)
        expected = _uninterrupted(21, LONG)
        _assert_continues(pop.client(21).sampler, expected)
        pop.end_round(1)
        assert pop.store.sampler(21, LONG + 10) is not None
        # An edge roster restores the same way.
        _assert_continues(pop.edge_clients(2)[1].sampler, expected)

    def test_long_entry_round_trips_without_replay(self, tmp_path,
                                                   monkeypatch):
        pop = self._long_population()
        doc = pop.store.state_dict()
        entry = doc["shards"]["1"]["21"]
        assert entry == _token_entry(_uninterrupted(21, LONG), 0)
        long_doc = {"num_shards": 4, "shards": {"1": {"21": entry}}}
        manifest = _shard_files(tmp_path, long_doc)
        _no_replay(monkeypatch)
        for payload in ({"store": long_doc},
                        {"store_manifest": manifest},
                        from_jsonable({"store": long_doc})):
            fresh = _bound_population(3)
            fresh.load_state_dict(payload, shard_dir=tmp_path)
            assert fresh.store.sampler(21, LONG) is not None
            assert fresh.store.state_dict()["shards"]["0"]["21"] == entry
            _assert_continues(fresh.client(21).sampler,
                              _uninterrupted(21, LONG))

    @pytest.mark.parametrize("part", ["stream", "permutation", "cursor"])
    def test_tampered_long_entry_is_rejected(self, part):
        doc = self._long_population().store.state_dict()
        entry = doc["shards"]["1"]["21"]
        if part == "stream":
            # Client 3's generator: its inc is not client 21's.
            entry["sampler"]["rng"] = doc["shards"]["3"]["3"]["sampler"]["rng"]
        else:
            _tamper(entry, part)
        with pytest.raises(ValueError, match="client 21"):
            _bound_population().load_state_dict({"store": doc})


class TestOnDiskByteIdentity:
    def test_state_dict_document_identical(self, tmp_path):
        pop = _advanced_population()
        token_doc = _token_store_doc(pop)
        pop.flush()
        doc = pop.store.state_dict()
        assert doc == token_doc
        assert (json.dumps(doc, sort_keys=True)
                == json.dumps(token_doc, sort_keys=True))
        # Embedded in a checkpoint file, the bytes (CRC envelope included)
        # match as well.
        new_path = save_checkpoint_file(tmp_path / "new.json", {"store": doc})
        old_path = save_checkpoint_file(tmp_path / "old.json",
                                        {"store": token_doc})
        assert new_path.read_bytes() == old_path.read_bytes()

    def test_shard_files_and_manifest_identical(self, tmp_path):
        pop = _advanced_population()
        token_doc = _token_store_doc(pop)
        pop.flush()
        manifest = pop.store.save_shards(tmp_path)
        expected_manifest = {"num_shards": 4, "shards": {}}
        for index, entries in token_doc["shards"].items():
            crc = zlib.crc32(canonical_bytes(entries))
            expected_manifest["shards"][index] = crc
            expected = json.dumps({"crc32": crc, "entries": entries},
                                  sort_keys=True)
            written = shard_file_path(tmp_path, int(index)).read_text()
            assert written == expected
        assert manifest == expected_manifest

    def test_token_layout_checkpoint_loads(self, tmp_path):
        pop = _advanced_population()
        payload = {"spec": SPEC.to_dict(),
                   "counters": {"clients_materialized_total": 7,
                                "max_live_clients": 7},
                   "store": _token_store_doc(pop)}
        path = save_checkpoint_file(tmp_path / "token.json", payload)
        fresh = VirtualPopulation(SPEC, store=ClientStateStore(3))
        fresh.build_edges(batch_size=3, rng_factory=RngFactory(SPEC.seed))
        # load_checkpoint_file hands back live Generators and ndarrays.
        fresh.load_state_dict(load_checkpoint_file(path))
        assert list(fresh.store.client_ids()) == pop.live_client_ids
        for cid in pop.live_client_ids:
            original, resumed = pop.client(cid), fresh.client(cid)
            assert resumed.sgd_steps_taken == original.sgd_steps_taken
            for _ in range(4):
                assert np.array_equal(original.sampler.next_batch()[0],
                                      resumed.sampler.next_batch()[0])

    def test_token_layout_shard_files_load(self, tmp_path):
        pop = _advanced_population()
        token_doc = _token_store_doc(pop)
        manifest = {"num_shards": 4, "shards": {}}
        for index, entries in token_doc["shards"].items():
            crc = zlib.crc32(canonical_bytes(entries))
            manifest["shards"][index] = crc
            shard_file_path(tmp_path, int(index)).write_text(
                json.dumps({"crc32": crc, "entries": entries}, sort_keys=True))
        store = ClientStateStore(4)
        assert store.load_shards(tmp_path, manifest) == []
        pop.flush()
        for cid in pop.live_client_ids:
            assert store.get(cid) == pop.store.get(cid)
