"""Tests for the multi-layer generalization (tree topology + algorithm)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hierminimax import HierMinimax
from repro.faults.plan import FaultPlan
from repro.multilayer.algorithm import MultiLevelHierMinimax
from repro.multilayer.tree import HierarchyTree
from repro.nn.models import make_model_factory

from tests.conftest import make_blob_fed


class TestHierarchyTree:
    def test_regular_paper_layout(self):
        tree = HierarchyTree.regular([10, 3])
        assert tree.depth == 2
        assert tree.num_top_areas == 10
        assert tree.num_clients == 30
        assert tree.level_sizes() == [1, 10, 30]

    def test_regular_four_layers(self):
        tree = HierarchyTree.regular([2, 3, 4])
        assert tree.depth == 3
        assert tree.num_clients == 24
        assert tree.level_sizes() == [1, 2, 6, 24]

    def test_regular_validates(self):
        with pytest.raises(ValueError):
            HierarchyTree.regular([])
        with pytest.raises(ValueError):
            HierarchyTree.regular([3, 0])

    def test_children_of(self):
        tree = HierarchyTree.regular([2, 3])
        assert tree.children_of(0, 0) == [0, 1]
        assert tree.children_of(1, 1) == [3, 4, 5]
        with pytest.raises(IndexError):
            tree.children_of(2, 0)
        with pytest.raises(IndexError):
            tree.children_of(1, 2)

    def test_leaves_under(self):
        tree = HierarchyTree.regular([2, 2, 2])
        np.testing.assert_array_equal(tree.leaves_under(1, 1), [4, 5, 6, 7])
        np.testing.assert_array_equal(tree.leaves_under(0, 0), np.arange(8))
        np.testing.assert_array_equal(tree.leaves_under(3, 5), [5])

    def test_irregular_tree(self):
        tree = HierarchyTree([[[0, 1]], [[0], [1, 2]]])
        assert tree.num_clients == 3
        np.testing.assert_array_equal(tree.leaves_under(1, 1), [1, 2])

    def test_invalid_trees_rejected(self):
        with pytest.raises(ValueError):
            HierarchyTree([])
        with pytest.raises(ValueError):
            HierarchyTree([[[0, 1]], [[0], []]])  # empty child list
        with pytest.raises(ValueError):
            HierarchyTree([[[0, 1]], [[0, 1], [1]]])  # node 1 has two parents
        with pytest.raises(ValueError):
            HierarchyTree([[[0, 1]], [[0], [2]]])  # child 1 missing
        with pytest.raises(ValueError):
            HierarchyTree([[[0], [1]]])  # two roots

    def test_link_names(self):
        assert HierarchyTree.regular([2, 2]).link_names() == ["level_1", "level_2"]

    def test_validate_dataset(self):
        fed = make_blob_fed(num_edges=3, clients_per_edge=2)
        HierarchyTree.regular([3, 2]).validate_dataset(fed)
        with pytest.raises(ValueError):
            HierarchyTree.regular([2, 3]).validate_dataset(fed)


class TestMultiLevelAlgorithm:
    @pytest.fixture()
    def fed(self):
        return make_blob_fed(num_edges=4, clients_per_edge=2, n_per_client=12,
                             dim=4, seed=1)

    @pytest.fixture()
    def factory(self, fed):
        return make_model_factory("logistic", fed.input_dim, fed.num_classes)

    # Prices the tree's links like the links they stand for, so the virtual
    # clocks of the two algorithms must agree too.
    _MIRRORED_COSTS = ("hetero,seed=1,slow_clients=3,"
                       "latency.level_1=0.05,mbps.level_1=100,"
                       "latency.level_2=0.005,mbps.level_2=50")

    @pytest.mark.parametrize("n0, taus, extra", [
        pytest.param(2, (2, 3), {}, id="base"),
        pytest.param(3, (2, 3), {}, id="n0-3"),
        pytest.param(2, (3, 3), {}, id="taus-3-3"),
        pytest.param(3, (2, 3), {"defense": "trimmed_mean"},
                     id="trimmed-mean"),
        # No msg_loss/msg_corrupt: message draws are keyed by link name,
        # which differs by design (edge_cloud vs level_1).
        pytest.param(3, (2, 3), {"faults": FaultPlan(
            client_dropout=0.2, client_straggle=0.2, edge_outage=0.1,
            seed=7)}, id="client-edge-faults"),
        pytest.param(3, (2, 3), {"timing": _MIRRORED_COSTS},
                     id="hetero-cost"),
    ])
    def test_depth2_matches_hierminimax_bitwise(self, n0, taus, extra):
        """With depth 2 and taus (τ2, τ1) the generalization IS Algorithm 1 —
        for any fan-in, periods, defense, faults and cost model: the same
        model, weights and simulated clock after every round."""
        fed = make_blob_fed(num_edges=4, clients_per_edge=n0, n_per_client=12,
                            dim=4, seed=1)
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)
        common = dict(batch_size=4, eta_w=0.1, seed=11, **extra)
        hm = HierMinimax(fed, factory, eta_p=0.05, tau1=taus[1], tau2=taus[0],
                         m_edges=2, **common)
        ml = MultiLevelHierMinimax(fed, factory, taus=taus, eta_p=0.05,
                                   m_top=2, **common)
        for k in range(8):
            hm.run_round(k)
            ml.run_round(k)
            np.testing.assert_array_equal(hm.w, ml.w)
            np.testing.assert_array_equal(hm.p, ml.p)
            assert hm.timing.elapsed_s == ml.timing.elapsed_s
        assert "timing" not in extra or ml.timing.elapsed_s > 0.0

    def test_default_tree_inferred(self, fed, factory):
        algo = MultiLevelHierMinimax(fed, factory, seed=0)
        assert algo.tree.depth == 2
        assert algo.tree.num_top_areas == 4
        assert algo.slots_per_round == 4  # default taus (2, 2)

    def test_three_level_tree_runs_and_learns(self, factory):
        fed = make_blob_fed(num_edges=2, clients_per_edge=4, n_per_client=12,
                            dim=4, seed=1)
        factory = make_model_factory("logistic", fed.input_dim, fed.num_classes)
        tree = HierarchyTree.regular([2, 2, 2])
        algo = MultiLevelHierMinimax(fed, factory, tree=tree, taus=(2, 2, 2),
                                     eta_w=0.15, eta_p=0.02, batch_size=4, seed=0)
        assert algo.slots_per_round == 8
        res = algo.run(rounds=40, eval_every=40)
        assert res.history.final().record.average_accuracy > 0.9
        assert res.final_weights.sum() == pytest.approx(1.0)

    def test_deeper_tree_has_cheaper_top_link(self, factory):
        """At a fixed slot budget, a deeper tree spends fewer top-link cycles."""
        fed = make_blob_fed(num_edges=2, clients_per_edge=4, n_per_client=12,
                            dim=4, seed=1)
        factory = make_model_factory("logistic", fed.input_dim, fed.num_classes)
        flat_tree = HierarchyTree([[[0, 1]],
                                   [[0, 1, 2, 3], [4, 5, 6, 7]]])
        deep_tree = HierarchyTree.regular([2, 2, 2])
        slots = 48
        flat = MultiLevelHierMinimax(fed, factory, tree=flat_tree, taus=(1, 2),
                                     eta_w=0.1, eta_p=0.02, batch_size=4, seed=0)
        deep = MultiLevelHierMinimax(fed, factory, tree=deep_tree, taus=(2, 2, 2),
                                     eta_w=0.1, eta_p=0.02, batch_size=4, seed=0)
        flat.run(rounds=slots // flat.slots_per_round, eval_every=100)
        deep.run(rounds=slots // deep.slots_per_round, eval_every=100)
        assert deep.tracker.snapshot().cycles["level_1"] < \
            flat.tracker.snapshot().cycles["level_1"]

    def test_communication_accounting_exact(self, fed, factory):
        m_top, taus = 2, (2, 3)
        algo = MultiLevelHierMinimax(fed, factory, taus=taus, m_top=m_top,
                                     eta_w=0.1, eta_p=0.02, batch_size=4, seed=0)
        K = 3
        for k in range(K):
            algo.run_round(k)
        cycles = algo.tracker.snapshot().cycles
        assert cycles["level_1"] == 2 * K                      # phase 1 + phase 2
        assert cycles["level_2"] == K * m_top * (taus[0] + 1)  # blocks + loss est.

    def test_validations(self, fed, factory):
        with pytest.raises(ValueError):
            MultiLevelHierMinimax(fed, factory, taus=(2,))  # wrong arity
        with pytest.raises(ValueError):
            MultiLevelHierMinimax(fed, factory, taus=(0, 2))
        with pytest.raises(ValueError):
            MultiLevelHierMinimax(fed, factory, m_top=5)  # only 4 areas

    def test_checkpoint_digit_decoding(self, fed, factory):
        algo = MultiLevelHierMinimax(fed, factory, taus=(3, 4), seed=0)
        seen = set()
        for slot in range(12):
            digits = algo._decode_checkpoint(slot)
            assert 0 <= digits[0] < 3 and 0 <= digits[1] < 4
            seen.add(digits)
        assert len(seen) == 12  # bijective over the round's slots

    def test_weights_follow_hard_area(self, factory):
        """p concentrates on the top-level area with the harder data."""
        from repro.data.dataset import Dataset, EdgeAreaData, FederatedDataset

        gen = np.random.default_rng(0)
        edges = []
        for e in range(2):
            sep = 4.0 if e == 0 else 0.3  # area 1 is nearly inseparable
            centers = sep * np.array([[1.0, 1.0], [-1.0, -1.0]])
            def mk(n):
                y = np.repeat([0, 1], n // 2)
                return Dataset(centers[y] + gen.normal(size=(n, 2)), y, 2)
            edges.append(EdgeAreaData([mk(24), mk(24)], mk(16)))
        fed2 = FederatedDataset(edges)
        factory2 = make_model_factory("logistic", 2, 2)
        algo = MultiLevelHierMinimax(fed2, factory2, taus=(2, 2), eta_w=0.1,
                                     eta_p=0.05, batch_size=6, seed=0)
        algo.run(rounds=40, eval_every=40)
        assert algo.p[1] > 0.6
