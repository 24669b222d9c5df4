"""Virtual populations: spec purity, eager-wrap equivalence, cohort lifecycle.

The contracts under test (DESIGN.md §"Virtual populations"):

* every derived artifact — client shards, RNG streams, edge test sets, eval
  cohorts — is a pure function of ``(spec.seed, entity id)``, so cohorts are
  bit-identical across backends, visitation orders, and checkpoint resumes;
* wrapping an eager dataset as a degenerate population changes nothing, bit
  for bit, on any algorithm or backend;
* memory is O(rosters in flight): an edge's materialized clients are flushed
  to the :class:`~repro.population.ClientStateStore` and discarded after the
  edge's last leg of a phase, and a re-materialized client continues its
  minibatch stream exactly where it left off.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.baselines.registry import make_algorithm
from repro.core.hierminimax import HierMinimax
from repro.data.batching import sampler_state_token
from repro.faults import FaultPlan
from repro.membership import ChurnPlan
from repro.multilayer import MultiLevelHierMinimax
from repro.nn.models import make_model_factory
from repro.population import (
    ClientStateStore,
    EagerPopulation,
    PopulationSpec,
    ShardIntegrityError,
    VirtualPopulation,
    as_population,
    resolve_population,
    shard_file_path,
)
from repro.utils.serialization import to_jsonable

SPEC = PopulationSpec.parse("clients=60,edges=6,samples=8,test=12,seed=3")


def spec_factory(spec=SPEC):
    return make_model_factory("logistic", spec.input_dim, spec.num_classes)


# ---------------------------------------------------------------------------
# PopulationSpec: parsing, validation, derivation laws
# ---------------------------------------------------------------------------
class TestPopulationSpec:
    def test_parse_round_trip(self):
        spec = PopulationSpec.parse(
            "clients=1000,edges=10,samples=16,test=32,partition=iid,"
            "eval_edges=4,seed=9")
        assert spec.num_clients == 1000
        assert spec.clients_per_edge == 100
        assert spec.partition == "iid"
        assert PopulationSpec.from_dict(spec.to_dict()) == spec

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ValueError):
            PopulationSpec.parse("clients=7,edges=3")  # not divisible
        with pytest.raises(ValueError):
            PopulationSpec.parse("edges=3,clients=9,nonsense=1")
        with pytest.raises(ValueError):
            PopulationSpec(num_edges=2, clients_per_edge=2, family="no_such")
        with pytest.raises(ValueError):
            PopulationSpec(num_edges=2, clients_per_edge=2,
                           partition="no_such")

    def test_image_family_resolves_input_dim(self):
        from repro.data.synthetic_images import _FAMILIES

        spec = PopulationSpec.parse("edges=2,clients=4,family=mnist_like")
        assert spec.input_dim == _FAMILIES["mnist_like"].side ** 2
        assert spec.input_dim != spec.dim
        sided = PopulationSpec.parse(
            "edges=2,clients=4,family=mnist_like,side=8")
        assert sided.input_dim == 64

    def test_one_class_partition_labels(self):
        # Edge e's shards only carry classes from edge_classes(e), matching
        # the eager one-class-per-edge partition law.
        for e in range(SPEC.num_edges):
            allowed = set(SPEC.edge_classes(e))
            for cid in SPEC.edge_client_ids(e):
                assert set(np.unique(SPEC.client_shard(cid).y)) <= allowed

    def test_client_shard_is_pure(self):
        a, b = SPEC.client_shard(17), SPEC.client_shard(17)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        other = SPEC.client_shard(18)
        assert not np.array_equal(a.X, other.X)

    def test_edge_test_is_pure(self):
        a, b = SPEC.edge_test(2), SPEC.edge_test(2)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_eval_cohort_law(self):
        spec = SPEC.with_eval_edges(3)
        first = spec.eval_edge_ids(4)
        assert np.array_equal(first, spec.eval_edge_ids(4))
        assert len(first) == 3 and len(set(first.tolist())) == 3
        assert SPEC.eval_edge_ids(4) is None  # eval_edges unset -> full pass
        assert spec.with_eval_edges(99).eval_edge_ids(4) is None


# ---------------------------------------------------------------------------
# ClientStateStore: sharding, round-trips
# ---------------------------------------------------------------------------
def _bound_store(num_shards: int, spec: PopulationSpec = SPEC,
                 batch_size: int = 3) -> ClientStateStore:
    """A store whose population is bound, so it can write client entries."""
    pop = VirtualPopulation(spec, store=ClientStateStore(num_shards))
    pop.build_edges(batch_size=batch_size,
                    rng_factory=_rng_factory(seed=spec.seed))
    return pop.store


def _counters(cid: int, draws: int = 1) -> tuple[int, int]:
    """A client's ``(batches_drawn, sgd_steps_taken)`` after ``draws``."""
    return draws, 2 * draws + cid % 3


class TestClientStateStore:
    def test_put_get_discard(self):
        store = ClientStateStore(num_shards=4)
        store.put(11, _counters(11, draws=3))
        assert store.get(11) == _counters(11, draws=3)
        assert 11 in store and len(store) == 1
        assert store.payload_bytes() == 16
        with pytest.raises(TypeError):
            store.put(12, {"cursor": 3})
        store.discard(11)
        assert 11 not in store and store.get(11) is None

    def test_state_dict_round_trip_and_resharding(self):
        store = _bound_store(num_shards=8)
        for cid in (0, 5, 13, 999_983):
            store.put(cid, _counters(cid, draws=cid % 7 + 1))
        # Restoring into a differently-sharded store re-homes every entry;
        # a bare store takes the same document as counters.
        for other in (_bound_store(num_shards=3), ClientStateStore(3)):
            other.load_state_dict(store.state_dict())
            assert list(other.client_ids()) == list(store.client_ids())
            for cid in store.client_ids():
                assert other.get(cid) == store.get(cid)
            assert sum(other.shard_sizes()) == len(store)

    def test_contains_is_false_for_non_castable_ids(self):
        store = ClientStateStore(num_shards=4)
        store.put(3, _counters(3))
        assert "abc" not in store
        assert None not in store
        assert (1, 2) not in store
        assert "3" in store  # int-castable strings still resolve

    def test_load_state_dict_rejects_malformed_input(self):
        store = _bound_store(num_shards=4)
        store.put(7, _counters(7, draws=2))
        entry = store.state_dict()["shards"]["3"]["7"]
        cases = [
            "not a mapping",
            {"shards": "not a mapping"},
            {"shards": {"0": ["not", "a", "mapping"]}},
            {"shards": {"0": {"abc": entry}}},
            {"shards": {"0": {"-5": entry}}},
            {"shards": {"0": {"1": "not a mapping"}}},
            {"shards": {"0": {"1": {"cursor": 0}}}},
            {"shards": {"0": {"1": {"sampler": entry["sampler"]}}}},
            {"shards": {"0": {"1": {"sampler": {**entry["sampler"],
                                                "batches_drawn": 2**32},
                                    "meta": entry["meta"]}}}},
        ]
        for bad in cases:
            with pytest.raises(ValueError):
                store.load_state_dict(bad)
            # Validation failures never clobber the current content.
            assert store.get(7) == _counters(7, draws=2)


class _DictStore:
    """The store's contract as one plain dict: the reference the columnar
    table is checked against."""

    def __init__(self, num_shards: int, deriver) -> None:
        self.num_shards = num_shards
        self.deriver = deriver
        self.counters: dict[int, tuple[int, int]] = {}

    def state_dict(self) -> dict:
        shards: dict[str, dict] = {}
        for cid in sorted(self.counters):
            [entry] = self.deriver([cid], [self.counters[cid]])
            shards.setdefault(str(cid % self.num_shards), {})[str(cid)] = entry
        return {"num_shards": self.num_shards, "shards": shards}


class TestColumnarStore:
    POOL = [_counters(i, draws=i % 9 + 1) for i in range(40)]

    def _assert_matches(self, store, ref, rng):
        assert len(store) == len(ref.counters)
        assert list(store.client_ids()) == sorted(ref.counters)
        assert store.payload_bytes() == 16 * len(ref.counters)
        assert sum(store.shard_sizes()) == len(ref.counters)
        for cid in range(-2, 310):
            assert store.get(cid) == ref.counters.get(cid)
            assert (cid in store) == (cid in ref.counters)
        for _ in range(20):
            start, stop = sorted(rng.integers(-5, 320, size=2).tolist())
            assert store.get_range(start, stop) == {
                cid: pair for cid, pair in ref.counters.items()
                if start <= cid < stop}
        doc = store.state_dict()
        assert doc == ref.state_dict()
        assert (json.dumps(doc, sort_keys=True)
                == json.dumps(ref.state_dict(), sort_keys=True))

    def test_batched_put_and_range_get_match_per_client_calls(self):
        rng = np.random.default_rng(0)
        batched, single = _bound_store(5), _bound_store(5)
        ref = _DictStore(5, batched.deriver)
        for _ in range(12):
            # Unordered ids with repeats, overwriting earlier rounds.
            ids = rng.integers(0, 300, size=int(rng.integers(0, 60))).tolist()
            pairs = [self.POOL[k] for k in
                     rng.integers(0, len(self.POOL), size=len(ids))]
            batched.put_many(ids, pairs)
            for cid, pair in zip(ids, pairs):
                single.put(cid, pair)
                ref.counters[cid] = pair
            for cid in rng.integers(0, 300, size=5).tolist():
                batched.discard(cid)
                single.discard(cid)
                ref.counters.pop(cid, None)
            self._assert_matches(batched, ref, rng)
            self._assert_matches(single, ref, rng)
        reloaded = _bound_store(3)
        reloaded.load_state_dict(batched.state_dict())
        assert {cid: reloaded.get(cid) for cid in reloaded.client_ids()} == (
            ref.counters)

    @pytest.mark.parametrize("samples", [1, 256, 257, 300])
    def test_permutation_dtype_boundaries_round_trip(self, samples):
        # Shard sizes around the old narrowed-permutation dtype limits: the
        # entry derived from the counters is the live sampler's token.
        spec = PopulationSpec.parse(f"clients=12,edges=2,samples={samples},"
                                    f"test=4,seed=1")
        pop = VirtualPopulation(spec, store=ClientStateStore(4))
        pop.build_edges(batch_size=3, rng_factory=_rng_factory(seed=1))
        live = {}
        for cid, draws in ((9, 1), (2, 90), (5, 400)):
            client = pop.client(cid)
            for _ in range(draws):
                client.sampler.next_batch()
            live[cid] = sampler_state_token(client.sampler)
        pop.flush()
        doc = pop.store.state_dict()
        for cid, token in live.items():
            entry = doc["shards"][str(cid % 4)][str(cid)]
            assert entry["sampler"] == to_jsonable(token)
        store = _bound_store(4, spec)
        store.load_state_dict(doc)
        assert [store.get(cid) for cid in (9, 2, 5)] == [
            (1, 0), (90, 0), (400, 0)]

    @pytest.mark.parametrize("samples, clients", [(8, 300), (257, 3)])
    def test_persisted_counters_equal_live_clients(self, samples, clients):
        # One flush of many live clients stores each one's counters, and a
        # client re-derived from them stands where the live one stood.
        spec = PopulationSpec.parse(f"clients={clients},edges=1,"
                                    f"samples={samples},test=4,seed=2")
        pop = VirtualPopulation(spec, store=ClientStateStore(4))
        pop.build_edges(batch_size=3, rng_factory=_rng_factory(seed=2))
        samplers = {}
        for client in pop.edge_clients(0):
            i = client.client_id
            for _ in range(i % 7):
                client.sampler.next_batch()
            client.sgd_steps_taken = 5 * i
            samplers[i] = client.sampler
        pop.end_round(0)
        single = ClientStateStore(4)
        for i in samplers:
            if (i % 7, 5 * i) != (0, 0):  # a never-advanced client is not stored
                single.put(i, (i % 7, 5 * i))
        assert list(pop.store.client_ids()) == list(single.client_ids())
        for i, sampler in samplers.items():
            assert pop.store.get(i) == single.get(i)
            revived = pop.client(i)
            assert revived.sgd_steps_taken == 5 * i
            assert (revived.sampler._rng.bit_generator.state
                    == sampler._rng.bit_generator.state)
            assert np.array_equal(revived.sampler._order, sampler._order)
            assert revived.sampler._cursor == sampler._cursor

    def test_counter_past_uint32_is_rejected(self):
        store = ClientStateStore(4)
        store.put(1, (1, 1))
        for bad in ((2**32, 0), (0, 2**32), (-1, 0), (2**70, 0)):
            with pytest.raises(ValueError):
                store.put(2, bad)
            with pytest.raises(ValueError):
                store.put_many([3, 4], [(1, 1), bad])
        store.put(5, (2**32 - 1, 2**32 - 1))
        assert store.get(5) == (2**32 - 1, 2**32 - 1)
        store.discard(5)
        assert list(store.client_ids()) == [1]

    def test_payload_is_sixteen_bytes_per_client(self):
        # N advanced clients: 16·N bytes of payload, and the arrays, spare
        # capacity included, at most 18·N once past the 256-row minimum.
        spec = PopulationSpec.parse("clients=2000,edges=40,samples=4,test=4,"
                                    "seed=0")
        pop = VirtualPopulation(spec)
        pop.build_edges(batch_size=3, rng_factory=_rng_factory(seed=0))
        store = pop.store
        for edge in range(spec.num_edges):
            for client in pop.edge_clients(edge):
                client.sampler.next_batch()
            pop.release(spec.edge_client_ids(edge))
            advanced = (edge + 1) * spec.clients_per_edge
            assert len(store) == advanced
            assert store.payload_bytes() == 16 * advanced
            if advanced >= 256:
                assert (store._counts.ids.nbytes + store._counts.rows.nbytes
                        <= 18 * advanced)
        assert len(store._counts.ids) > len(store)  # spare capacity was exercised

    @pytest.mark.parametrize("batched", [True, False])
    def test_footprint_is_a_table_not_an_object_per_client(self, batched):
        def footprint(n):
            # The counters as one array, built before tracing starts: the
            # interpreter keeps up to 2,000 freed 2-tuples for reuse, which
            # tracemalloc would charge to the store.
            ids = range(10**6, 10**6 + 3 * n, 3)
            pairs = np.array([(self.POOL[i % len(self.POOL)][0], i)
                              for i in range(n)])
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                store = ClientStateStore()
                if batched:
                    store.put_many(ids, pairs)
                else:
                    for cid, pair in zip(ids, pairs):
                        store.put(cid, pair)
                used = tracemalloc.get_traced_memory()[0] - base
                blocks = len(tracemalloc.take_snapshot().traces)
            finally:
                tracemalloc.stop()
            assert len(store) == n
            return used / n, blocks

        footprint(1_000)  # warm NumPy's and the interpreter's caches
        _, small_blocks = footprint(1_000)
        per_client, blocks = footprint(10_000)
        # An 8-byte id and two 4-byte counters, plus at most an eighth
        # spare.
        assert per_client <= 18.5
        # The allocation count does not follow the client count: an object
        # per client would add at least 9,000 blocks here.
        assert blocks < small_blocks + 1_000


# ---------------------------------------------------------------------------
# Durable shard files: checksums, rotation, corruption recovery
# ---------------------------------------------------------------------------
class TestShardFiles:
    def _store(self, n=10):
        store = _bound_store(num_shards=4)
        for cid in range(n):
            store.put(cid, _counters(cid, draws=cid + 1))
        return store

    def test_save_load_round_trip(self, tmp_path):
        store = self._store()
        manifest = store.save_shards(tmp_path)
        fresh = ClientStateStore(num_shards=4)
        corrupted = fresh.load_shards(tmp_path, manifest)
        assert corrupted == []
        assert list(fresh.client_ids()) == list(store.client_ids())
        for cid in store.client_ids():
            assert fresh.get(cid) == store.get(cid)

    def test_rotation_keeps_previous_generation(self, tmp_path):
        store = self._store()
        first_record = store.get(0)
        first = store.save_shards(tmp_path)
        store.put(0, _counters(0, draws=999))
        store.save_shards(tmp_path)
        assert list(tmp_path.glob("*.prev"))
        # The older manifest still resolves — its generation lives under
        # the .prev names after the rotation.
        fresh = ClientStateStore(num_shards=4)
        assert fresh.load_shards(tmp_path, first) == []
        assert fresh.get(0) == first_record

    def test_corruption_raises_by_default(self, tmp_path):
        store = self._store()
        manifest = store.save_shards(tmp_path)
        victim = shard_file_path(tmp_path, 1)
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        victim.write_bytes(bytes(blob))
        fresh = ClientStateStore(num_shards=4)
        with pytest.raises(ShardIntegrityError):
            fresh.load_shards(tmp_path, manifest)

    def test_corruption_quarantined_under_rederive(self, tmp_path):
        store = self._store()
        manifest = store.save_shards(tmp_path)
        victim = shard_file_path(tmp_path, 1)
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        victim.write_bytes(bytes(blob))
        fresh = ClientStateStore(num_shards=4)
        corrupted = fresh.load_shards(tmp_path, manifest,
                                      on_corrupt="rederive")
        assert corrupted == [1]
        assert victim.with_name(victim.name + ".quarantine").exists()
        # Clients homed on the damaged shard are dropped (rederived later);
        # every other client loads intact — never a silent bad load.
        for cid in store.client_ids():
            if cid % 4 == 1:
                assert fresh.get(cid) is None
            else:
                assert fresh.get(cid) == store.get(cid)

    def test_missing_file_counts_as_corruption(self, tmp_path):
        store = self._store()
        manifest = store.save_shards(tmp_path)
        shard_file_path(tmp_path, 2).unlink()
        fresh = ClientStateStore(num_shards=4)
        with pytest.raises(ShardIntegrityError):
            fresh.load_shards(tmp_path, manifest)


# ---------------------------------------------------------------------------
# Cohort determinism and lifecycle
# ---------------------------------------------------------------------------
class TestVirtualCohorts:
    def test_visitation_order_independence(self):
        # Materializing clients in any order yields bit-identical shards and
        # first minibatches — derivation is per-client, not sequential.
        batches = {}
        for order in ([3, 41, 8], [8, 3, 41]):
            pop = VirtualPopulation(SPEC)
            pop.build_edges(batch_size=4,
                            rng_factory=_rng_factory(seed=SPEC.seed))
            for cid in order:
                client = pop.client(cid)
                draw = client.sampler.next_batch()
                if cid in batches:
                    prev_X, prev_y = batches[cid]
                    assert np.array_equal(prev_X, draw[0])
                    assert np.array_equal(prev_y, draw[1])
                else:
                    batches[cid] = draw

    @pytest.mark.parametrize("backend", ["serial", "thread", "vectorized"])
    def test_run_deterministic_across_backends(self, backend):
        result = _run_virtual(backend=backend)
        reference = _run_virtual(backend="serial")
        assert np.array_equal(result.final_params, reference.final_params)
        assert np.array_equal(result.final_weights, reference.final_weights)

    def test_cohort_discarded_after_round(self):
        algo = HierMinimax(SPEC, spec_factory(), tau1=2, tau2=2, m_edges=2,
                           batch_size=4, seed=0)
        algo.run(rounds=3)
        pop = algo.population
        assert pop.virtual
        assert not pop._live  # end_round cleared the cohort
        cohort_bound = 2 * SPEC.clients_per_edge  # m_edges sampled for train
        assert pop.max_live_clients <= SPEC.num_clients
        assert pop.max_live_clients >= cohort_bound
        assert pop.clients_materialized_total >= pop.max_live_clients
        # Only touched clients persist state; never the whole population.
        assert 0 < len(pop.store) <= pop.clients_materialized_total

    def test_sampler_cursor_round_trip(self):
        # Interrupting a client (flush + discard + re-materialize) must not
        # perturb its minibatch stream.
        continuous = VirtualPopulation(SPEC)
        continuous.build_edges(batch_size=4,
                               rng_factory=_rng_factory(seed=SPEC.seed))
        client = continuous.client(7)
        expected = [client.sampler.next_batch() for _ in range(5)]

        interrupted = VirtualPopulation(SPEC)
        interrupted.build_edges(batch_size=4,
                                rng_factory=_rng_factory(seed=SPEC.seed))
        got = [interrupted.client(7).sampler.next_batch() for _ in range(2)]
        interrupted.end_round(0)  # flush cursors, discard the cohort
        assert not interrupted._live and 7 in interrupted.store
        revived = interrupted.client(7)
        got += [revived.sampler.next_batch() for _ in range(3)]
        for (ex_X, ex_y), (gx, gy) in zip(expected, got):
            assert np.array_equal(ex_X, gx) and np.array_equal(ex_y, gy)

    def test_store_round_trip_across_populations(self):
        # A state_dict written by one population resumes another bit-exactly
        # (the checkpoint path, minus JSON).
        first = VirtualPopulation(SPEC)
        first.build_edges(batch_size=4,
                          rng_factory=_rng_factory(seed=SPEC.seed))
        client = first.client(22)
        for _ in range(3):
            client.sampler.next_batch()
        state = first.state_dict()

        fresh = VirtualPopulation(SPEC)
        fresh.build_edges(batch_size=4,
                          rng_factory=_rng_factory(seed=SPEC.seed))
        fresh.load_state_dict(state)
        resumed_draw = fresh.client(22).sampler.next_batch()
        expected_draw = client.sampler.next_batch()
        assert np.array_equal(expected_draw[0], resumed_draw[0])
        assert np.array_equal(expected_draw[1], resumed_draw[1])

    def test_load_state_dict_rejects_spec_mismatch(self):
        pop = VirtualPopulation(SPEC)
        other = VirtualPopulation(SPEC.with_eval_edges(2))
        with pytest.raises(ValueError, match="different PopulationSpec"):
            other.load_state_dict(pop.state_dict())

    def test_bind_rejects_mismatched_rebind(self):
        pop = VirtualPopulation(SPEC)
        pop.build_edges(batch_size=4, rng_factory=_rng_factory(seed=0))
        with pytest.raises(ValueError):
            pop.build_edges(batch_size=8, rng_factory=_rng_factory(seed=0))


# ---------------------------------------------------------------------------
# Edge-scoped cohorts: a roster lives for its edge's legs, not the round
# ---------------------------------------------------------------------------
def _resident_probe(monkeypatch, algo):
    """Record ``(allowed, live)`` after every edge leg of ``algo``'s run.

    ``allowed`` is the clients of the edges whose leg is running or still
    pending in the current phase: for Phase-1 draw ``i`` of the sampled
    sequence, the drawn edge plus every edge drawn both before and after
    it; for a Phase-2 probe, the probed edge alone.  Also records the live
    count after every ``end_round``.
    """
    import repro.core.engine as engine
    from repro.population.virtual import VirtualEdgeServer

    pop = algo.population
    per_edge = pop.spec.clients_per_edge
    legs: list[tuple[int, int]] = []
    after_round: list[int] = []
    draws: dict = {"seq": [], "i": 0}
    sample = engine.sample_by_weight

    def sample_by_weight(*args, **kwargs):
        out = sample(*args, **kwargs)
        draws["seq"], draws["i"] = [int(e) for e in out], 0
        return out

    def phase1_allowed() -> int:
        seq, i = draws["seq"], draws["i"]
        draws["i"] += 1
        pending = {seq[i]} | (set(seq[:i]) & set(seq[i + 1:]))
        return len(pending) * per_edge

    model_update = VirtualEdgeServer.model_update
    estimate_loss = VirtualEdgeServer.estimate_loss
    end_round = pop.end_round

    def probed_update(self, *args, **kwargs):
        out = model_update(self, *args, **kwargs)
        legs.append((phase1_allowed(), len(pop._live)))
        return out

    def probed_loss(self, *args, **kwargs):
        out = estimate_loss(self, *args, **kwargs)
        legs.append((per_edge, len(pop._live)))
        return out

    def probed_end_round(round_index):
        end_round(round_index)
        after_round.append(len(pop._live))

    monkeypatch.setattr(engine, "sample_by_weight", sample_by_weight)
    monkeypatch.setattr(VirtualEdgeServer, "model_update", probed_update)
    monkeypatch.setattr(VirtualEdgeServer, "estimate_loss", probed_loss)
    monkeypatch.setattr(pop, "end_round", probed_end_round)
    return legs, after_round


#: Final params, weights and communication totals of the tiny runs below,
#: recorded while cohorts still lived for a whole round: releasing rosters
#: earlier must not move a bit.  Each case also keeps its cohort counters
#: and store size ``(materialized_total, max_live, stored)``.
EDGE_SCOPED_DIGESTS = {
    "plain": ("920ee21bc5993168e366efa19b3900677da7f1b173a5fc0f67a8f20b938df872",
              (256, 32, 32)),
    # Crashed and emptied edges are charged no broadcast (41 edge_cloud
    # down-link messages, 61 when they were); model and weights unchanged.
    "churn_rehome": (
        "4fe79c112c09350e709af91ea0c07a858dee7f12fd9d655dd875613e5ec5ed1b",
        (170, 27, 29)),
    "client_dropout": (
        "db032d94f9b89207a7d02c0a9e49c35c3446c9795fb39388dcc4936a155c8e84",
        (256, 32, 32)),
    # Without a cost model the semi-async variant is HierMinimax, bit for bit.
    "semiasync": (
        "920ee21bc5993168e366efa19b3900677da7f1b173a5fc0f67a8f20b938df872",
        (256, 32, 32)),
    "multilevel": (
        "fa40e8fd3bac97151f540b89b8744e2c3e60fb67bc40a808b9a8b9d92547c34b",
        (256, 32, 32)),
}
TINY_SPEC = PopulationSpec.parse("clients=32,edges=4,samples=8,test=8,seed=5")


def _tiny_algo(case: str):
    """The algorithm behind ``EDGE_SCOPED_DIGESTS[case]`` (run 8 rounds)."""
    factory = spec_factory(TINY_SPEC)
    hm = dict(tau1=2, tau2=2, m_edges=4, batch_size=4, seed=1)
    if case == "semiasync":
        algo = make_algorithm("semiasync_hierminimax", TINY_SPEC, factory,
                              **hm)
    elif case == "multilevel":
        algo = MultiLevelHierMinimax(TINY_SPEC, factory, taus=(2, 2),
                                     m_top=4, batch_size=4, seed=1)
    else:
        run = {"plain": {},
               "churn_rehome": {"churn": ChurnPlan.parse(
                   "arrive=0.1,depart=0.1,edge_mttf=3,edge_mttr=2,"
                   "rehome=1,seed=2")},
               "client_dropout": {"faults": FaultPlan.parse(
                   "client_dropout=0.3,seed=4")}}[case]
        algo = HierMinimax(TINY_SPEC, factory, **hm, **run)
    return algo


class TestEdgeScopedCohorts:
    @pytest.mark.parametrize("spec, m_edges, rounds", [
        (PopulationSpec.parse("clients=400,edges=20,samples=4,test=8,"
                              "seed=3"), 5, 12),
        (TINY_SPEC, 4, 8),
        (PopulationSpec.parse("clients=100000,edges=1000,samples=8,test=16,"
                              "eval_edges=20,seed=0"), 5, 4),
    ], ids=["20_edges", "m_equals_edges", "population_100k"])
    def test_resident_set_is_the_rosters_in_flight(self, monkeypatch, spec,
                                                    m_edges, rounds):
        algo = HierMinimax(spec, spec_factory(spec), tau1=2, tau2=2,
                           m_edges=m_edges, batch_size=4, seed=0)
        legs, after_round = _resident_probe(monkeypatch, algo)
        algo.run(rounds=rounds)
        assert len(legs) == 2 * m_edges * rounds
        for allowed, live in legs:
            assert 0 < live <= allowed
        # m_E = 5 draws leave at most 3 rosters in flight (not 2 · m_E).
        bound = (m_edges // 2 + 1) * spec.clients_per_edge
        assert max(live for _, live in legs) <= bound
        assert after_round == [0] * rounds

    @pytest.mark.parametrize("case", sorted(EDGE_SCOPED_DIGESTS))
    def test_release_changes_no_bit(self, monkeypatch, case):
        # m_edges = num_edges: Phase 1 repeats edges non-adjacently, and
        # Phase 2 probes every edge Phase 1 trained, so clients are released
        # and re-derived inside one round.
        algo = _tiny_algo(case)
        pop = algo.population
        release = pop.release
        released = []

        def probed_release(client_ids):
            ids = list(client_ids)
            release(ids)
            assert not set(ids) & set(pop._live)
            released.append(len(ids))

        monkeypatch.setattr(pop, "release", probed_release)
        result = algo.run(rounds=8)
        assert sum(released) > 0
        snap = algo.tracker.snapshot()
        digest = hashlib.sha256()
        digest.update(result.final_params.tobytes())
        digest.update(result.final_weights.tobytes())
        digest.update(json.dumps({"c": snap.cycles, "m": snap.messages,
                                  "f": snap.floats}, sort_keys=True).encode())
        expected_digest, expected_counts = EDGE_SCOPED_DIGESTS[case]
        assert digest.hexdigest() == expected_digest
        assert (pop.clients_materialized_total, pop.max_live_clients,
                len(pop.store)) == expected_counts
        assert not pop._live

    def test_released_client_is_not_counted_twice(self):
        pop = VirtualPopulation(SPEC)
        pop.build_edges(batch_size=4, rng_factory=_rng_factory(seed=0))
        first = pop.edge_clients(2)
        draws = [first[0].sampler.next_batch() for _ in range(2)]
        pop.release(SPEC.edge_client_ids(2))
        assert not pop._live and first[0].client_id in pop.store
        again = pop.edge_clients(2)
        assert again[0] is not first[0]
        assert (pop.clients_materialized_total, pop.max_live_clients) == (
            SPEC.clients_per_edge, SPEC.clients_per_edge)
        # The re-derived client continues its stream, not a fresh one.
        fresh = VirtualPopulation(SPEC)
        fresh.build_edges(batch_size=4, rng_factory=_rng_factory(seed=0))
        reference = fresh.client(first[0].client_id).sampler
        expected = [reference.next_batch() for _ in range(3)]
        assert np.array_equal(again[0].sampler.next_batch()[0],
                              expected[2][0])
        assert np.array_equal(draws[1][0], expected[1][0])
        pop.end_round(0)
        pop.edge_clients(2)
        assert pop.clients_materialized_total == 2 * SPEC.clients_per_edge

    def test_roster_shards_equal_lone_derivations(self):
        for spec in (SPEC, PopulationSpec.parse(
                "clients=24,edges=3,samples=5,test=7,partition=iid,"
                "noise=0.37,seed=9")):
            ids = spec.edge_client_ids(1)
            shards = spec.client_shards(ids)
            for cid, shard in zip(ids, shards):
                # The data law written out per client.
                rng = spec.client_rng(cid)
                classes = np.asarray(spec.edge_classes(1), dtype=np.int64)
                y = classes[rng.integers(0, classes.size,
                                         size=spec.samples_per_client)]
                X = spec.class_means()[y] + spec.noise * rng.standard_normal(
                    (spec.samples_per_client, spec.dim))
                assert np.array_equal(shard.y, y)
                assert shard.X.tobytes() == X.tobytes()
                assert shard.X.flags.c_contiguous

    def test_image_family_roster_derives(self):
        spec = PopulationSpec.parse("clients=8,edges=2,samples=4,test=6,"
                                    "family=mnist_like,side=8,seed=2")
        shards = spec.client_shards(spec.edge_client_ids(1))
        lone = spec.client_shard(6)
        assert np.array_equal(shards[2].X, lone.X)
        assert np.array_equal(shards[2].y, lone.y)
        assert spec.edge_test(0).X.shape == (6, spec.input_dim)


# ---------------------------------------------------------------------------
# Checkpoint / resume (including across a failover boundary)
# ---------------------------------------------------------------------------
#: Final params (and weights) of the two-layer baselines on a churned
#: virtual population, recorded while Phase 1 still derived every sampled
#: client before asking whether it had left: skipping those must not move a
#: bit.
CHURNED_BASELINE_DIGESTS = {
    "drfa": "c5360d7d363ea3d2c6aecc821700e61f1b84e676542a51a5c7f97a623af145ad",
    "fedavg":
        "eb9daabc8c451df95825433f2b6add0b69624be981d868f6141843395c033ef4",
    "stochastic_afl":
        "98612b2a1b268916a3423faa10f34f38bcbb236b3632508f38987696bb13efe0",
}


@pytest.mark.parametrize("name", sorted(CHURNED_BASELINE_DIGESTS))
def test_baselines_derive_no_client_that_has_left(monkeypatch, name):
    spec = PopulationSpec.parse("clients=200,edges=10,samples=8,seed=0")
    algo = make_algorithm(name, spec, spec_factory(spec), batch_size=4,
                          eta_w=0.05, eta_p=1e-3, tau1=2, tau2=2, m_edges=3,
                          seed=0, churn="depart=0.3,seed=1")
    pop = algo.population
    client = pop.client
    derived_after_leaving = []

    def probed_client(cid):
        if not algo.membership.client_active(cid):
            derived_after_leaving.append(cid)
        return client(cid)

    monkeypatch.setattr(pop, "client", probed_client)
    result = algo.run(rounds=10)
    assert derived_after_leaving == []
    digest = hashlib.sha256(result.final_params.tobytes())
    if result.final_weights is not None:
        digest.update(result.final_weights.tobytes())
    assert digest.hexdigest() == CHURNED_BASELINE_DIGESTS[name]


class TestVirtualCheckpointResume:
    def _algo(self, churn=None):
        return HierMinimax(SPEC, spec_factory(), tau1=2, tau2=2, m_edges=2,
                           batch_size=4, seed=0, churn=churn)

    @pytest.mark.parametrize("churn", [
        None,
        "arrive=0.1,depart=0.05,edge_mttf=3,edge_mttr=2,seed=1",
    ], ids=["plain", "churn_failover"])
    def test_resume_is_bit_identical(self, tmp_path, churn):
        plan = ChurnPlan.parse(churn) if churn else None
        uninterrupted = self._algo(plan).run(rounds=6)

        path = tmp_path / "virtual.ckpt.json"
        killed = self._algo(plan)
        killed.run(rounds=3)
        killed.save_checkpoint(path)

        resumed = self._algo(plan)
        assert resumed.load_checkpoint(path) == 3
        result = resumed.run(rounds=3)
        assert np.array_equal(result.final_params,
                              uninterrupted.final_params)
        assert np.array_equal(result.final_weights,
                              uninterrupted.final_weights)


# ---------------------------------------------------------------------------
# Eager-wrap equivalence: the degenerate population changes nothing
# ---------------------------------------------------------------------------
EAGER_ALGOS = ["hierminimax", "semiasync_hierminimax", "hierfavg", "fedavg",
               "stochastic_afl", "drfa"]


class TestEagerEquivalence:
    @pytest.mark.parametrize("name", EAGER_ALGOS)
    def test_wrapped_dataset_bit_identical(self, name, tiny_image_fed,
                                           tiny_logistic_factory):
        kwargs = dict(batch_size=8, seed=0, tau1=2, tau2=2, m_edges=3)
        plain = make_algorithm(name, tiny_image_fed, tiny_logistic_factory,
                               **kwargs).run(rounds=3)
        wrapped = make_algorithm(name, as_population(tiny_image_fed),
                                 tiny_logistic_factory, **kwargs).run(rounds=3)
        assert np.array_equal(plain.final_params, wrapped.final_params)
        if plain.final_weights is not None:
            assert np.array_equal(plain.final_weights, wrapped.final_weights)

    @pytest.mark.parametrize("backend", ["thread", "vectorized"])
    def test_wrapped_dataset_bit_identical_backends(self, backend,
                                                    tiny_image_fed,
                                                    tiny_logistic_factory):
        kwargs = dict(tau1=2, tau2=2, m_edges=3, batch_size=8, seed=0,
                      backend=backend)
        plain = HierMinimax(tiny_image_fed, tiny_logistic_factory,
                            **kwargs).run(rounds=2)
        wrapped = HierMinimax(None, tiny_logistic_factory,
                              population=as_population(tiny_image_fed),
                              **kwargs).run(rounds=2)
        assert np.array_equal(plain.final_params, wrapped.final_params)
        assert np.array_equal(plain.final_weights, wrapped.final_weights)

    def test_multilevel_wrapped_bit_identical(self, tiny_image_fed,
                                              tiny_logistic_factory):
        kwargs = dict(batch_size=8, seed=0, m_top=3)
        plain = MultiLevelHierMinimax(tiny_image_fed, tiny_logistic_factory,
                                      **kwargs).run(rounds=2)
        wrapped = MultiLevelHierMinimax(
            None, tiny_logistic_factory,
            population=as_population(tiny_image_fed), **kwargs).run(rounds=2)
        assert np.array_equal(plain.final_params, wrapped.final_params)

    def test_resolve_population_contract(self, tiny_image_fed):
        pop = resolve_population(None, tiny_image_fed)
        assert isinstance(pop, EagerPopulation)
        assert pop.dataset is tiny_image_fed
        # Spec (or spec string) in the dataset slot resolves to virtual.
        assert resolve_population(None, SPEC).virtual
        assert resolve_population("clients=4,edges=2", None).virtual
        with pytest.raises(ValueError):
            resolve_population(SPEC, tiny_image_fed)


# ---------------------------------------------------------------------------
# Sampled evaluation cohorts
# ---------------------------------------------------------------------------
class TestEvaluationCohort:
    def test_per_edge_cohort_slices_full_pass(self, tiny_image_fed,
                                              tiny_logistic_factory):
        from repro.metrics.evaluation import evaluate_per_edge

        engine = tiny_logistic_factory()
        w = engine.get_params()
        full_acc, full_loss = evaluate_per_edge(engine, w, tiny_image_fed)
        ids = [7, 1, 4]
        acc, loss = evaluate_per_edge(engine, w, tiny_image_fed, edge_ids=ids)
        assert np.array_equal(acc, full_acc[ids])
        assert np.array_equal(loss, full_loss[ids])

    def test_record_flags_cohort(self, tiny_image_fed, tiny_logistic_factory):
        from repro.metrics.evaluation import evaluate_record

        engine = tiny_logistic_factory()
        w = engine.get_params()
        record = evaluate_record(engine, w, tiny_image_fed, edge_ids=[2, 5])
        assert record.extra["eval_edges"] == [2, 5]
        assert record.per_edge_accuracy.size == 2
        full = evaluate_record(engine, w, tiny_image_fed)
        assert "eval_edges" not in full.extra

    def test_eager_eval_cohort_trains(self, tiny_image_fed,
                                      tiny_logistic_factory):
        pop = as_population(tiny_image_fed, eval_edges=3)
        algo = HierMinimax(None, tiny_logistic_factory, population=pop,
                           tau1=2, tau2=2, m_edges=3, batch_size=8, seed=0)
        result = algo.run(rounds=2)
        record = result.history.final().record
        assert len(record.extra["eval_edges"]) == 3
        assert record.per_edge_accuracy.size == 3


# ---------------------------------------------------------------------------
# Memory gauge (satellite: repro.obs.PeakMemoryTracker)
# ---------------------------------------------------------------------------
class TestMemoryGauge:
    def test_tracker_observes_allocations(self):
        from repro.obs import PeakMemoryTracker

        tracker = PeakMemoryTracker()
        try:
            tracker.reset_peak()
            blob = np.ones(300_000)  # ~2.4 MB
            assert tracker.peak_bytes() >= blob.nbytes
            assert tracker.current_bytes() >= 0
        finally:
            tracker.close()

    def test_tracer_track_memory_emits_gauge(self, tmp_path):
        from repro.obs import Tracer

        obs = Tracer(tmp_path / "mem.trace.jsonl", track_memory=True)
        algo = HierMinimax(SPEC, spec_factory(), tau1=2, tau2=2, m_edges=2,
                           batch_size=4, seed=0, obs=obs)
        algo.run(rounds=2)
        gauges = obs.snapshot()["gauges"]
        obs.close()
        assert gauges.get("mem_peak_bytes", 0) > 0

    def test_tracer_default_has_no_tracker(self, tmp_path):
        from repro.obs import Tracer

        obs = Tracer(tmp_path / "plain.trace.jsonl")
        assert obs.mem_tracker is None
        obs.close()


def _rng_factory(seed: int):
    from repro.utils.rng import RngFactory

    return RngFactory(seed)


def _run_virtual(backend: str):
    algo = HierMinimax(SPEC, spec_factory(), tau1=2, tau2=2, m_edges=2,
                       batch_size=4, seed=0, backend=backend)
    try:
        return algo.run(rounds=3)
    finally:
        algo.backend.close()
