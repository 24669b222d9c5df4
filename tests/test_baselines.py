"""Tests for the four baseline algorithms and the registry."""

from __future__ import annotations

import functools
import inspect
from importlib import import_module

import numpy as np
import pytest

from repro.baselines.drfa import DRFA
from repro.baselines.fedavg import FedAvg
from repro.baselines.hierfavg import HierFAVG
from repro.baselines.registry import ALGORITHMS, _accepted_keywords, \
    make_algorithm
from repro.baselines.stochastic_afl import StochasticAFL
from repro.compression import IdentityCompressor
from repro.core.base import FederatedAlgorithm
from repro.faults import FaultPlan
from repro.obs import Tracer
from repro.ops.projections import project_simplex
from repro.population import as_population
from repro.utils.logging import NullLogger


class TestFedAvg:
    def test_flags_and_slots(self, blob_fed, blob_factory):
        algo = FedAvg(blob_fed, blob_factory, tau1=3, seed=0)
        assert not algo.is_minimax and not algo.uses_hierarchy
        assert algo.slots_per_round == 3
        assert algo.current_weights() is None

    def test_round_changes_model(self, blob_fed, blob_factory):
        algo = FedAvg(blob_fed, blob_factory, eta_w=0.1, seed=0)
        w0 = algo.w.copy()
        algo.run_round(0)
        assert not np.array_equal(algo.w, w0)

    def test_comm_accounting(self, blob_fed, blob_factory):
        algo = FedAvg(blob_fed, blob_factory, m_clients=4, eta_w=0.1, seed=0)
        K = 3
        for k in range(K):
            algo.run_round(k)
        snap = algo.tracker.snapshot()
        assert snap.cycles["client_cloud"] == K
        assert snap.cycles["client_edge"] == 0
        assert snap.messages["client_cloud:down"] == K * 4
        assert snap.messages["client_cloud:up"] == K * 4

    def test_learning(self, blob_fed, blob_factory):
        algo = FedAvg(blob_fed, blob_factory, eta_w=0.2, batch_size=4, seed=0)
        res = algo.run(rounds=60, eval_every=30)
        assert res.history.final().record.average_accuracy > 0.9

    def test_participation_validation(self, blob_fed, blob_factory):
        with pytest.raises(ValueError):
            FedAvg(blob_fed, blob_factory, m_clients=blob_fed.num_clients + 1)

    def test_uniform_vs_data_weighting_differs_with_uneven_shards(self):
        from repro.data.dataset import Dataset, EdgeAreaData, FederatedDataset
        from repro.nn.models import make_model_factory

        gen = np.random.default_rng(0)
        def mk(n, c):
            X = gen.normal(size=(n, 3)) + 2.0 * c
            return Dataset(X, np.full(n, c, dtype=np.int64), 2)
        edges = [EdgeAreaData([mk(4, 0), mk(40, 1)], mk(10, 0))]
        fed = FederatedDataset(edges)
        factory = make_model_factory("logistic", 3, 2)
        a = FedAvg(fed, factory, weight_by_data=True, eta_w=0.1, seed=0)
        b = FedAvg(fed, factory, weight_by_data=False, eta_w=0.1, seed=0)
        a.run_round(0)
        b.run_round(0)
        assert not np.array_equal(a.w, b.w)


class TestStochasticAFL:
    def test_flags_and_slots(self, blob_fed, blob_factory):
        algo = StochasticAFL(blob_fed, blob_factory, seed=0)
        assert algo.is_minimax and not algo.uses_hierarchy
        assert algo.slots_per_round == 1

    def test_weights_over_clients(self, blob_fed, blob_factory):
        algo = StochasticAFL(blob_fed, blob_factory, seed=0)
        assert algo.q.shape == (blob_fed.num_clients,)
        np.testing.assert_allclose(algo.q.sum(), 1.0)

    def test_round_updates_q_on_simplex(self, blob_fed, blob_factory):
        algo = StochasticAFL(blob_fed, blob_factory, eta_w=0.1, eta_q=0.1, seed=0)
        for k in range(5):
            algo.run_round(k)
            assert algo.q.sum() == pytest.approx(1.0)
            assert np.all(algo.q >= -1e-12)

    def test_comm_accounting(self, blob_fed, blob_factory):
        algo = StochasticAFL(blob_fed, blob_factory, m_clients=3, eta_w=0.1,
                             seed=0)
        algo.run_round(0)
        snap = algo.tracker.snapshot()
        assert snap.cycles["client_cloud"] == 2  # model phase + loss phase

    def test_learning(self, blob_fed, blob_factory):
        algo = StochasticAFL(blob_fed, blob_factory, eta_w=0.2, eta_q=0.01,
                             batch_size=4, seed=0)
        res = algo.run(rounds=150, eval_every=75)
        assert res.history.final().record.average_accuracy > 0.9


class TestDRFA:
    def test_flags_and_slots(self, blob_fed, blob_factory):
        algo = DRFA(blob_fed, blob_factory, tau1=3, seed=0)
        assert algo.is_minimax and not algo.uses_hierarchy
        assert algo.slots_per_round == 3

    def test_round_updates_model_and_q(self, blob_fed, blob_factory):
        algo = DRFA(blob_fed, blob_factory, eta_w=0.1, eta_q=0.05, seed=0)
        w0, q0 = algo.w.copy(), algo.q.copy()
        algo.run_round(0)
        assert not np.array_equal(algo.w, w0)
        assert not np.array_equal(algo.q, q0)

    def test_comm_accounting(self, blob_fed, blob_factory):
        algo = DRFA(blob_fed, blob_factory, m_clients=4, eta_w=0.1, seed=0)
        K = 2
        for k in range(K):
            algo.run_round(k)
        snap = algo.tracker.snapshot()
        assert snap.cycles["client_cloud"] == 2 * K
        # uploads carry model + checkpoint (2d floats per sampled client)
        d = algo.engine.num_parameters
        assert snap.floats["client_cloud:up"] == K * (4 * 2 * d + 4 * 1)

    def test_learning(self, blob_fed, blob_factory):
        algo = DRFA(blob_fed, blob_factory, eta_w=0.2, eta_q=0.01, batch_size=4,
                    seed=0)
        res = algo.run(rounds=80, eval_every=40)
        assert res.history.final().record.average_accuracy > 0.9


class TestHierFAVG:
    def test_flags_and_slots(self, blob_fed, blob_factory):
        algo = HierFAVG(blob_fed, blob_factory, tau1=2, tau2=3, seed=0)
        assert not algo.is_minimax and algo.uses_hierarchy
        assert algo.slots_per_round == 6

    def test_comm_accounting(self, blob_fed, blob_factory):
        algo = HierFAVG(blob_fed, blob_factory, tau1=2, tau2=2, m_edges=2,
                        eta_w=0.1, seed=0)
        K = 3
        for k in range(K):
            algo.run_round(k)
        snap = algo.tracker.snapshot()
        assert snap.cycles["edge_cloud"] == K  # no Phase 2
        assert snap.cycles["client_edge"] == K * 2 * 2  # m_e * tau2

    def test_learning(self, blob_fed, blob_factory):
        algo = HierFAVG(blob_fed, blob_factory, eta_w=0.2, batch_size=4, seed=0)
        res = algo.run(rounds=40, eval_every=20)
        assert res.history.final().record.average_accuracy > 0.9

    def test_no_weights(self, blob_fed, blob_factory):
        algo = HierFAVG(blob_fed, blob_factory, seed=0)
        assert algo.current_weights() is None


class TestRegistry:
    def test_all_names_construct_and_run(self, blob_fed, blob_factory):
        for name in ALGORITHMS:
            algo = make_algorithm(name, blob_fed, blob_factory, eta_w=0.1,
                                  eta_p=0.05, tau1=2, tau2=2, m_edges=2, seed=0)
            res = algo.run(rounds=2, eval_every=2)
            assert res.algorithm == name

    def test_unknown_name_raises(self, blob_fed, blob_factory):
        with pytest.raises(ValueError):
            make_algorithm("sgd", blob_fed, blob_factory)

    def test_eta_p_alias_for_two_layer(self, blob_fed, blob_factory):
        algo = make_algorithm("drfa", blob_fed, blob_factory, eta_p=0.123)
        assert algo.eta_q == pytest.approx(0.123)

    def test_m_edges_converted_to_clients(self, blob_fed, blob_factory):
        # blob_fed: 3 edges x 2 clients; m_edges=2 -> m_clients=4
        algo = make_algorithm("fedavg", blob_fed, blob_factory, m_edges=2)
        assert algo.m_clients == 4

    def test_typo_raises(self, blob_fed, blob_factory):
        with pytest.raises(TypeError):
            make_algorithm("fedavg", blob_fed, blob_factory, learning_rate=0.1)

    def test_irrelevant_params_dropped(self, blob_fed, blob_factory):
        # eta_p and tau2 are meaningless for fedavg but must not raise.
        algo = make_algorithm("fedavg", blob_fed, blob_factory, eta_p=0.1,
                              tau2=7, tau1=2)
        assert algo.tau1 == 2


def _keyword_only(klass) -> set[str]:
    params = inspect.signature(klass.__init__).parameters.values()
    return {p.name for p in params if p.kind is p.KEYWORD_ONLY}


def _distinct_values(dataset) -> dict:
    """A non-default value for every constructor keyword of the roster."""
    return {
        "batch_size": 3, "eta_w": 0.07, "seed": 5,
        "projection_w": lambda w: w, "logger": NullLogger(),
        "obs": Tracer(None), "faults": FaultPlan(client_dropout=0.1),
        "backend": "serial", "defense": "median", "timing": "hetero,seed=1",
        "churn": "arrive=0.05", "population": as_population(dataset),
        "eta_p": 0.03, "eta_q": 0.03, "tau1": 3, "tau2": 3, "m_edges": 2,
        "m_clients": 4, "projection_p": lambda p: project_simplex(p),
        "projection_q": lambda q: project_simplex(q),
        "use_checkpoint": False, "compressor": IdentityCompressor(),
        "weight_by_data": False, "staleness": 3,
    }


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_every_declared_keyword_reaches_the_instance(name, blob_fed,
                                                     blob_factory,
                                                     monkeypatch):
    module, _, class_name = ALGORITHMS[name].partition(":")
    cls = getattr(import_module(module), class_name)
    chain = [k for k in cls.__mro__
             if issubclass(k, FederatedAlgorithm) and "__init__" in vars(k)]
    assert chain[-1] is FederatedAlgorithm
    declared = {k: _keyword_only(k) for k in chain}
    keys = _accepted_keywords(cls)
    assert keys == set().union(*declared.values())

    received: dict[type, dict] = {}
    for klass in chain:
        def spy(self, *args, _klass=klass, _init=klass.__init__, **kwargs):
            received[_klass] = kwargs
            _init(self, *args, **kwargs)
        monkeypatch.setattr(klass, "__init__",
                            functools.wraps(klass.__init__)(spy))

    values = _distinct_values(blob_fed)
    algo = make_algorithm(name, None, blob_factory,
                          **{k: values[k] for k in keys})
    try:
        # Each keyword arrives, as the very object passed, at the __init__
        # that declares it ...
        for klass, params in declared.items():
            for key in params:
                assert received[klass][key] is values[key], (klass, key)
        # ... and takes effect on the instance.
        for key in keys - {"faults", "backend", "defense", "timing", "churn",
                           "population"}:
            if hasattr(algo, key):
                assert getattr(algo, key) == values[key], key
        assert algo.obs is values["obs"]
        assert algo.faults.plan is values["faults"]
        assert algo.population is values["population"]
        assert algo.defense is not None
        assert algo.timing.enabled and algo.membership.enabled
    finally:
        algo.close()

    with pytest.raises(TypeError, match="bogus"):
        make_algorithm(name, blob_fed, blob_factory, bogus=1)
