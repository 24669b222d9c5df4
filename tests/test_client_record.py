"""Packed client records: the codec and the store's on-disk byte identity.

A virtual client's surviving state (sampler generator, epoch permutation,
cursor, draw and step counters) is kept in the
:class:`~repro.population.ClientStateStore` as one ``bytes`` record.  The
contracts under test:

* pack → discard → unpack continues the minibatch stream bit-identically,
  across epoch wraps;
* a record converts to exactly the ``{"sampler": <token>, "meta": {...}}``
  entry the token codec produces, and back;
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
    client_record_from_entry,
    client_record_to_entry,
    pack_client_record,
    restore_client_record,
    sampler_state_token,
)
from repro.data.dataset import Dataset
from repro.faults.checkpoint import load_checkpoint_file, save_checkpoint_file
from repro.population import (ClientStateStore, PopulationSpec,
                              VirtualPopulation, shard_file_path)
from repro.utils.rng import RngFactory
from repro.utils.serialization import canonical_bytes, to_jsonable

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


class TestCodec:
    @settings(max_examples=80, deadline=None)
    @given(shard=st.integers(1, 12), batch=st.integers(1, 16),
           draws=st.integers(0, 40), more=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_pack_discard_unpack_continues_stream(self, shard, batch, draws,
                                                  more, seed):
        # draws * batch spans several epochs of a small shard, so records
        # are taken mid-epoch, at the boundary, and after wraps.
        continuous = _sampler(shard, batch, seed)
        for _ in range(draws):
            continuous.next_batch()
        record = pack_client_record(continuous, draws)
        expected = [continuous.next_batch()[0] for _ in range(more)]

        revived = _sampler(shard, batch, seed)
        assert restore_client_record(revived, record) == draws
        got = [revived.next_batch()[0] for _ in range(more)]
        for ex, gx in zip(expected, got):
            assert np.array_equal(ex, gx)
        assert revived.batches_drawn == continuous.batches_drawn
        assert (revived._rng.bit_generator.state
                == continuous._rng.bit_generator.state)

    def test_record_layout_and_size(self):
        sampler = _sampler(8, 3, 0)
        sampler.next_batch()
        record = pack_client_record(sampler, 4)
        assert isinstance(record, bytes)
        assert len(record) == 64 + 8 * 8  # header + int64 permutation

    def test_restore_keeps_generator_aliases(self):
        source = _sampler(8, 3, 1)
        for _ in range(5):
            source.next_batch()
        target = _sampler(8, 3, 1)
        alias = target._rng
        restore_client_record(target, pack_client_record(source, 0))
        assert target._rng is alias
        assert alias.bit_generator.state == source._rng.bit_generator.state

    @pytest.mark.parametrize("draws", [0, 1, 5, 17])
    def test_golden_entry_round_trip(self, draws):
        sampler = _sampler(7, 3, 11)
        for _ in range(draws):
            sampler.next_batch()
        record = pack_client_record(sampler, 3 * draws)
        entry = client_record_to_entry(record)
        assert entry == _token_entry(sampler, 3 * draws)
        assert canonical_bytes(entry) == canonical_bytes(
            _token_entry(sampler, 3 * draws))
        assert client_record_from_entry(entry) == record
        # The same entry after from_jsonable (a live Generator and ndarray,
        # as a loaded checkpoint carries it) packs to the same record.
        live = {"sampler": sampler_state_token(sampler),
                "meta": {"sgd_steps_taken": 3 * draws}}
        live["sampler"]["rng"] = sampler._rng
        assert client_record_from_entry(live) == record

    def test_non_pcg64_generator_raises(self):
        mt = MinibatchSampler(_shard(6), 2, np.random.Generator(np.random.MT19937(0)))
        with pytest.raises(ValueError, match="PCG64"):
            pack_client_record(mt, 0)
        with pytest.raises(ValueError, match="PCG64"):
            restore_client_record(mt, pack_client_record(_sampler(6, 2, 0), 0))
        entry = _token_entry(mt, 0)
        with pytest.raises(ValueError, match="PCG64"):
            client_record_from_entry(entry)

    def test_malformed_record_raises(self):
        record = pack_client_record(_sampler(6, 2, 0), 0)
        for bad in (record[:10], record + b"\x00"):
            with pytest.raises(ValueError):
                client_record_to_entry(bad)


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
