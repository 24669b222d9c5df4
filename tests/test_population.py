"""Virtual populations: spec purity, eager-wrap equivalence, cohort lifecycle.

The contracts under test (DESIGN.md §"Virtual populations"):

* every derived artifact — client shards, RNG streams, edge test sets, eval
  cohorts — is a pure function of ``(spec.seed, entity id)``, so cohorts are
  bit-identical across backends, visitation orders, and checkpoint resumes;
* wrapping an eager dataset as a degenerate population changes nothing, bit
  for bit, on any algorithm or backend;
* per-round memory is O(sampled cohort): materialized clients are flushed to
  the :class:`~repro.population.ClientStateStore` and discarded after every
  round, and a re-materialized client continues its minibatch stream exactly
  where it left off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.registry import make_algorithm
from repro.core.hierminimax import HierMinimax
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
class TestClientStateStore:
    def test_put_get_discard(self):
        store = ClientStateStore(num_shards=4)
        store.put(11, {"cursor": 3})
        store.put(11, {"x": 1}, namespace="meta")
        assert store.get(11) == {"cursor": 3}
        assert store.get(11, namespace="meta") == {"x": 1}
        assert 11 in store and len(store) == 1
        store.discard(11)
        assert 11 not in store and store.get(11) is None

    def test_state_dict_round_trip_and_resharding(self):
        store = ClientStateStore(num_shards=8)
        for cid in (0, 5, 13, 999_983):
            store.put(cid, {"cursor": cid % 7})
        # Restoring into a differently-sharded store re-homes every entry.
        other = ClientStateStore(num_shards=3)
        other.load_state_dict(store.state_dict())
        assert list(other.client_ids()) == list(store.client_ids())
        for cid in store.client_ids():
            assert other.get(cid) == store.get(cid)
        assert sum(other.shard_sizes()) == len(store)

    def test_contains_is_false_for_non_castable_ids(self):
        store = ClientStateStore(num_shards=4)
        store.put(3, {"cursor": 1})
        assert "abc" not in store
        assert None not in store
        assert (1, 2) not in store
        assert "3" in store  # int-castable strings still resolve

    def test_load_state_dict_rejects_malformed_input(self):
        store = ClientStateStore(num_shards=4)
        store.put(7, {"cursor": 2})
        cases = [
            "not a mapping",
            {"shards": "not a mapping"},
            {"shards": {"0": ["not", "a", "mapping"]}},
            {"shards": {"0": {"abc": {"cursor": 0}}}},
            {"shards": {"0": {"-5": {"cursor": 0}}}},
            {"shards": {"0": {"1": "not a mapping"}}},
        ]
        for bad in cases:
            with pytest.raises(ValueError):
                store.load_state_dict(bad)
            # Validation failures never clobber the current content.
            assert store.get(7) == {"cursor": 2}


# ---------------------------------------------------------------------------
# Durable shard files: checksums, rotation, corruption recovery
# ---------------------------------------------------------------------------
class TestShardFiles:
    def _store(self, n=10):
        store = ClientStateStore(num_shards=4)
        for cid in range(n):
            store.put(cid, {"cursor": cid, "tag": f"c{cid}"})
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
        first = store.save_shards(tmp_path)
        store.put(0, {"cursor": 999})
        store.save_shards(tmp_path)
        assert list(tmp_path.glob("*.prev"))
        # The older manifest still resolves — its generation lives under
        # the .prev names after the rotation.
        fresh = ClientStateStore(num_shards=4)
        assert fresh.load_shards(tmp_path, first) == []
        assert fresh.get(0) == {"cursor": 0, "tag": "c0"}

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
# Checkpoint / resume (including across a failover boundary)
# ---------------------------------------------------------------------------
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
