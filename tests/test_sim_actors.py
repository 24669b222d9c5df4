"""Tests for the simulation actors: Client, EdgeServer, CloudServer, builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.faults import FaultInjector, FaultPlan
from repro.nn.models import logistic_regression
from repro.ops.projections import project_l2_ball
from repro.sim.builder import build_edge_servers, build_flat_clients
from repro.sim.client import Client
from repro.sim.cloud import CloudServer
from repro.sim.edge import EdgeServer, combine
from repro.topology.comm import CommunicationTracker
from repro.utils.rng import RngFactory

from tests.conftest import make_blob_dataset


def _client(seed=0, n=20, d=4, classes=3, batch=4, cid=0):
    shard = make_blob_dataset(n // classes, classes, d, seed=seed)
    return Client(cid, shard, batch, np.random.default_rng(seed))


def _engine(d=4, classes=3):
    return logistic_regression(d, classes, rng=0)


class TestClient:
    def test_local_sgd_changes_model(self):
        client = _client()
        engine = _engine()
        w0 = engine.get_params()
        w_end, ckpt = client.local_sgd(engine, w0, steps=3, lr=0.1)
        assert not np.array_equal(w_end, w0)
        assert ckpt is None

    def test_returns_copies(self):
        client = _client()
        engine = _engine()
        w0 = engine.get_params()
        w_end, _ = client.local_sgd(engine, w0, steps=1, lr=0.1)
        engine.params_view()[:] = 0.0
        assert not np.all(w_end == 0.0)

    def test_checkpoint_equals_prefix_run(self):
        """The checkpoint after c1 steps must equal an independent c1-step run."""
        engine = _engine()
        w0 = engine.get_params()
        a = _client(seed=5)
        _, ckpt = a.local_sgd(engine, w0, steps=4, lr=0.1, checkpoint_after=2)
        b = _client(seed=5)  # identical rng stream -> identical batches
        w2, _ = b.local_sgd(engine, w0, steps=2, lr=0.1)
        np.testing.assert_allclose(ckpt, w2)

    def test_checkpoint_at_last_step_equals_final(self):
        engine = _engine()
        w0 = engine.get_params()
        client = _client(seed=6)
        w_end, ckpt = client.local_sgd(engine, w0, steps=3, lr=0.1,
                                       checkpoint_after=3)
        np.testing.assert_array_equal(w_end, ckpt)

    def test_deterministic_given_stream(self):
        engine = _engine()
        w0 = engine.get_params()
        a, _ = _client(seed=7).local_sgd(engine, w0, steps=3, lr=0.1)
        b, _ = _client(seed=7).local_sgd(engine, w0, steps=3, lr=0.1)
        np.testing.assert_array_equal(a, b)

    def test_projection_applied(self):
        engine = _engine()
        client = _client()
        w0 = np.full(engine.num_parameters, 10.0)
        w_end, _ = client.local_sgd(engine, w0, steps=1, lr=0.01,
                                    projection=lambda w: project_l2_ball(w, 1.0))
        assert np.linalg.norm(w_end) <= 1.0 + 1e-9

    def test_validations(self):
        engine = _engine()
        client = _client()
        w0 = engine.get_params()
        with pytest.raises(ValueError):
            client.local_sgd(engine, w0, steps=0, lr=0.1)
        with pytest.raises(ValueError):
            client.local_sgd(engine, w0, steps=2, lr=0.0)
        with pytest.raises(ValueError):
            client.local_sgd(engine, w0, steps=2, lr=0.1, checkpoint_after=3)

    def test_sgd_step_counter(self):
        engine = _engine()
        client = _client()
        client.local_sgd(engine, engine.get_params(), steps=5, lr=0.1)
        assert client.sgd_steps_taken == 5

    def test_estimate_loss_finite_positive(self):
        engine = _engine()
        client = _client()
        loss = client.estimate_loss(engine, engine.get_params())
        assert np.isfinite(loss) and loss > 0

    def test_full_loss_uses_entire_shard(self):
        engine = _engine()
        client = _client()
        w = engine.get_params()
        engine.set_params(w)
        expected = engine.loss(client.shard.X, client.shard.y)
        assert client.full_loss(engine, w) == pytest.approx(expected)


class TestEdgeServer:
    def _edge(self, n_clients=3, seed=0):
        clients = [_client(seed=seed + i, cid=i) for i in range(n_clients)]
        return EdgeServer(0, clients)

    def test_requires_clients(self):
        with pytest.raises(ValueError):
            EdgeServer(0, [])

    def test_single_client_equals_client_run(self):
        """With one client and tau2=1, model_update must equal the client's SGD."""
        engine = _engine()
        w0 = engine.get_params()
        edge = EdgeServer(0, [_client(seed=9)])
        w_edge, _ = edge.model_update(engine, w0, tau1=3, tau2=1, lr=0.1)
        w_cli, _ = _client(seed=9).local_sgd(engine, w0, steps=3, lr=0.1)
        np.testing.assert_allclose(w_edge, w_cli)

    def test_aggregation_is_mean(self):
        engine = _engine()
        w0 = engine.get_params()
        clients = [_client(seed=20 + i, cid=i) for i in range(3)]
        edge = EdgeServer(0, clients)
        w_edge, _ = edge.model_update(engine, w0, tau1=2, tau2=1, lr=0.1)
        finals = []
        for i in range(3):
            c = _client(seed=20 + i, cid=i)
            w_end, _ = c.local_sgd(engine, w0, steps=2, lr=0.1)
            finals.append(w_end)
        np.testing.assert_allclose(w_edge, np.mean(finals, axis=0))

    def test_checkpoint_returned_only_when_requested(self):
        engine = _engine()
        edge = self._edge()
        w0 = engine.get_params()
        _, ckpt_none = edge.model_update(engine, w0, tau1=2, tau2=2, lr=0.1)
        assert ckpt_none is None
        _, ckpt = edge.model_update(engine, w0, tau1=2, tau2=2, lr=0.1,
                                    checkpoint=(1, 0))
        assert ckpt is not None and ckpt.shape == w0.shape

    def test_checkpoint_validations(self):
        engine = _engine()
        edge = self._edge()
        w0 = engine.get_params()
        with pytest.raises(ValueError):
            edge.model_update(engine, w0, tau1=2, tau2=2, lr=0.1, checkpoint=(0, 0))
        with pytest.raises(ValueError):
            edge.model_update(engine, w0, tau1=2, tau2=2, lr=0.1, checkpoint=(1, 2))

    def test_tau_validations(self):
        engine = _engine()
        edge = self._edge()
        with pytest.raises(ValueError):
            edge.model_update(engine, engine.get_params(), tau1=0, tau2=1, lr=0.1)

    def test_tracker_accounting_model_update(self):
        engine = _engine()
        edge = self._edge(n_clients=3)
        tracker = CommunicationTracker()
        d = engine.num_parameters
        edge.model_update(engine, engine.get_params(), tau1=2, tau2=2, lr=0.1,
                          checkpoint=(1, 0), tracker=tracker)
        snap = tracker.snapshot()
        assert snap.cycles["client_edge"] == 2  # one per aggregation block
        # downlink: tau2 blocks x 3 clients model broadcasts
        assert snap.messages["client_edge:down"] == 6
        assert snap.floats["client_edge:down"] == 6 * d
        # uplink: 6 model uploads, 3 of them carrying the checkpoint too
        assert snap.messages["client_edge:up"] == 6
        assert snap.floats["client_edge:up"] == (3 * 2 + 3) * d

    def test_estimate_loss_average(self):
        engine = _engine()
        clients = [_client(seed=30 + i, cid=i) for i in range(2)]
        edge = EdgeServer(0, clients)
        w = engine.get_params()
        expected = np.mean([
            _client(seed=30, cid=0).estimate_loss(engine, w),
            _client(seed=31, cid=1).estimate_loss(engine, w),
        ])
        assert edge.estimate_loss(engine, w) == pytest.approx(expected)

    def test_estimate_loss_tracker(self):
        engine = _engine()
        edge = self._edge(n_clients=3)
        tracker = CommunicationTracker()
        edge.estimate_loss(engine, engine.get_params(), tracker=tracker)
        snap = tracker.snapshot()
        assert snap.cycles["client_edge"] == 1
        assert snap.messages["client_edge:up"] == 3
        assert snap.floats["client_edge:up"] == 3  # one scalar per client

    def test_full_loss(self):
        engine = _engine()
        edge = self._edge(n_clients=2)
        w = engine.get_params()
        vals = [c.full_loss(engine, w) for c in edge.clients]
        assert edge.full_loss(engine, w) == pytest.approx(np.mean(vals))


class TestCombine:
    def test_combine_mean(self):
        w = np.zeros(2)
        out, ckpt = combine(w, [("a", 1.0, np.array([0.0, 2.0])),
                                ("b", 1.0, np.array([2.0, 0.0]))],
                            stage="test")
        np.testing.assert_allclose(out, [1.0, 1.0])
        assert ckpt is None

    def test_combine_expected_cohort_divides_only_when_short(self):
        w = np.zeros(2)
        full = [("a", 0.5, np.array([2.0, 2.0])), ("b", 0.5, np.array([4.0, 0.0]))]
        out, _ = combine(w, full, stage="test", expected=2)
        np.testing.assert_allclose(out, [3.0, 1.0])
        out, _ = combine(w, full[:1], stage="test", expected=2)
        np.testing.assert_allclose(out, [2.0, 2.0])

    def test_combine_does_not_mutate_inputs(self):
        a = np.array([1.0, 1.0])
        w = np.zeros(2)
        combine(w, [("a", 1.0, a), ("b", 1.0, np.array([3.0, 3.0]))],
                stage="test")
        np.testing.assert_array_equal(a, [1.0, 1.0])
        np.testing.assert_array_equal(w, [0.0, 0.0])

    def test_combine_empty_keeps_the_model(self):
        inj = FaultInjector(FaultPlan(client_dropout=0.5, seed=0))
        w = np.array([1.0, 2.0])
        out, ckpt = combine(w, [], [], stage="test", faults=inj)
        assert out is w and ckpt is w


class TestCloudServer:
    def test_initial_weights_uniform(self):
        cloud = CloudServer(4)
        np.testing.assert_allclose(cloud.initial_weights(), np.full(4, 0.25))

    def test_build_loss_vector_scaling(self):
        cloud = CloudServer(4)
        v = cloud.build_loss_vector({1: 2.0, 3: 1.0})
        np.testing.assert_allclose(v, [0.0, 4.0, 0.0, 2.0])

    def test_build_loss_vector_unbiased(self):
        """E[v] over uniform subsets must equal the true loss vector."""
        from repro.topology.sampling import sample_uniform_subset

        cloud = CloudServer(5)
        losses = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        gen = np.random.default_rng(0)
        acc = np.zeros(5)
        trials = 4000
        for _ in range(trials):
            sub = sample_uniform_subset(5, 2, gen)
            acc += cloud.build_loss_vector({int(e): losses[e] for e in sub})
        np.testing.assert_allclose(acc / trials, losses, rtol=0.08)

    def test_build_loss_vector_validations(self):
        cloud = CloudServer(3)
        with pytest.raises(ValueError):
            cloud.build_loss_vector({})
        with pytest.raises(ValueError):
            cloud.build_loss_vector({5: 1.0})

    def test_update_weights_projects_to_simplex(self):
        cloud = CloudServer(3)
        p = cloud.initial_weights()
        v = np.array([10.0, 0.0, 0.0])
        p_new = cloud.update_weights(p, v, eta_p=1.0)
        assert p_new.sum() == pytest.approx(1.0)
        assert np.all(p_new >= 0)
        assert p_new[0] > p[0]

    def test_update_weights_tau_scaling(self):
        cloud = CloudServer(3)
        p = cloud.initial_weights()
        v = np.array([0.01, 0.0, 0.0])
        small = cloud.update_weights(p, v, eta_p=0.1, tau1=1, tau2=1)
        large = cloud.update_weights(p, v, eta_p=0.1, tau1=2, tau2=3)
        assert large[0] > small[0]

    def test_update_weights_validations(self):
        cloud = CloudServer(3)
        p = cloud.initial_weights()
        v = np.zeros(3)
        with pytest.raises(ValueError):
            cloud.update_weights(p, v, eta_p=0.0)
        with pytest.raises(ValueError):
            cloud.update_weights(np.zeros(2), v, eta_p=0.1)

    def test_custom_weight_projection(self):
        from repro.ops.projections import project_capped_simplex

        cloud = CloudServer(
            4, weight_projection=lambda x: project_capped_simplex(x, 0.1, 0.5))
        p = cloud.update_weights(cloud.initial_weights(),
                                 np.array([100.0, 0, 0, 0]), eta_p=1.0)
        assert p.max() <= 0.5 + 1e-8
        assert p.min() >= 0.1 - 1e-8


class TestBuilders:
    def test_build_edge_servers_layout(self, tiny_image_fed):
        edges = build_edge_servers(tiny_image_fed, batch_size=2,
                                   rng_factory=RngFactory(0))
        assert len(edges) == tiny_image_fed.num_edges
        assert all(e.num_clients == 3 for e in edges)
        # global client ids are edge-major
        assert edges[0].clients[0].client_id == 0
        assert edges[1].clients[0].client_id == 3

    def test_build_flat_clients_matches_edge_layout(self, tiny_image_fed):
        flat = build_flat_clients(tiny_image_fed, batch_size=2,
                                  rng_factory=RngFactory(0))
        edges = build_edge_servers(tiny_image_fed, batch_size=2,
                                   rng_factory=RngFactory(0))
        assert len(flat) == tiny_image_fed.num_clients
        # same shards, same rng streams -> same first batch
        Xa, _ = flat[4].sampler.next_batch()
        Xb, _ = edges[1].clients[1].sampler.next_batch()
        np.testing.assert_array_equal(Xa, Xb)

    def test_same_seed_same_streams(self, tiny_image_fed):
        a = build_flat_clients(tiny_image_fed, batch_size=2,
                               rng_factory=RngFactory(3))
        b = build_flat_clients(tiny_image_fed, batch_size=2,
                               rng_factory=RngFactory(3))
        Xa, _ = a[0].sampler.next_batch()
        Xb, _ = b[0].sampler.next_batch()
        np.testing.assert_array_equal(Xa, Xb)
