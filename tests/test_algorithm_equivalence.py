"""Algorithm-reduction tests: the special cases claimed after Theorems 1–2.

The paper notes that HierMinimax specializes to known algorithms:

* ``τ2 = 1`` recovers DRFA's update pattern.  With one client per edge area the
  two implementations consume *identical* randomness (same cloud stream, same
  client streams), so their trajectories must match **bit for bit**.
* ``τ1 = τ2 = 1`` recovers Stochastic-AFL's pattern (single-step local updates,
  loss estimation at the fresh global model).  The round's only checkpoint slot
  draws nothing from the cloud stream, so with one client per edge both consume
  the same draws in the same order and their final parameters and weights match
  **bit for bit** on every seed tested.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.drfa import DRFA
from repro.baselines.stochastic_afl import StochasticAFL
from repro.core.hierminimax import HierMinimax
from repro.nn.models import make_model_factory

from tests.conftest import make_blob_fed


@pytest.fixture()
def singleton_fed():
    """5 edge areas with exactly one client each — edges ≡ clients."""
    return make_blob_fed(num_edges=5, clients_per_edge=1, n_per_client=16,
                         dim=4, seed=3)


@pytest.fixture()
def singleton_factory(singleton_fed):
    return make_model_factory("logistic", singleton_fed.input_dim,
                              singleton_fed.num_classes)


class TestDRFAReduction:
    def test_tau2_one_matches_drfa_bitwise(self, singleton_fed, singleton_factory):
        """HierMinimax(τ2=1, N0=1) and DRFA(τ1) are the same algorithm."""
        kwargs = dict(batch_size=4, eta_w=0.1, seed=42)
        hm = HierMinimax(singleton_fed, singleton_factory, eta_p=0.05,
                         tau1=3, tau2=1, m_edges=3, **kwargs)
        dr = DRFA(singleton_fed, singleton_factory, eta_q=0.05, tau1=3,
                  m_clients=3, **kwargs)
        for k in range(5):
            hm.run_round(k)
            dr.run_round(k)
            np.testing.assert_array_equal(hm.w, dr.w)
            np.testing.assert_array_equal(hm.p, dr.q)

    def test_tau2_one_same_slot_cost(self, singleton_fed, singleton_factory):
        hm = HierMinimax(singleton_fed, singleton_factory, tau1=3, tau2=1)
        dr = DRFA(singleton_fed, singleton_factory, tau1=3)
        assert hm.slots_per_round == dr.slots_per_round == 3

    def test_reduction_breaks_with_tau2_two(self, singleton_fed,
                                            singleton_factory):
        """Sanity: with τ2 = 2 the trajectories must diverge."""
        kwargs = dict(batch_size=4, eta_w=0.1, seed=42)
        hm = HierMinimax(singleton_fed, singleton_factory, eta_p=0.05,
                         tau1=3, tau2=2, m_edges=3, **kwargs)
        dr = DRFA(singleton_fed, singleton_factory, eta_q=0.05, tau1=3,
                  m_clients=3, **kwargs)
        hm.run_round(0)
        dr.run_round(0)
        assert not np.array_equal(hm.w, dr.w)


class TestAFLReduction:
    def test_tau_one_matches_afl_statistically(self, singleton_fed,
                                               singleton_factory):
        """HierMinimax(τ1=τ2=1, N0=1) is Stochastic-AFL, bit for bit.

        With one client per edge and one local step per round, Phase 1
        samples edges from ``p`` as Stochastic-AFL samples clients from
        ``q``, each edge's single-block ModelUpdate is its one client's SGD
        step, the round's only checkpoint slot makes the checkpoint model
        the new model, and Phase 2 probes the same uniform subset at it:
        both runs consume the same draws in the same order, so their final
        parameters and weights agree exactly on every seed.
        """
        for seed in range(8):
            hm = HierMinimax(singleton_fed, singleton_factory, eta_p=0.05,
                             tau1=1, tau2=1, m_edges=3, batch_size=4,
                             eta_w=0.1, seed=seed)
            afl = StochasticAFL(singleton_fed, singleton_factory, eta_q=0.05,
                                m_clients=3, batch_size=4, eta_w=0.1, seed=seed)
            rh = hm.run(rounds=20, eval_every=20)
            ra = afl.run(rounds=20, eval_every=20)
            np.testing.assert_array_equal(rh.final_params, ra.final_params,
                                          err_msg=f"seed {seed}")
            np.testing.assert_array_equal(rh.final_weights, ra.final_weights,
                                          err_msg=f"seed {seed}")

    def test_same_slot_cost(self, singleton_fed, singleton_factory):
        hm = HierMinimax(singleton_fed, singleton_factory, tau1=1, tau2=1)
        afl = StochasticAFL(singleton_fed, singleton_factory)
        assert hm.slots_per_round == afl.slots_per_round == 1

    def test_same_cloud_communication_per_round(self, singleton_fed,
                                                singleton_factory):
        hm = HierMinimax(singleton_fed, singleton_factory, tau1=1, tau2=1,
                         m_edges=3, eta_w=0.1, eta_p=0.05, seed=0)
        afl = StochasticAFL(singleton_fed, singleton_factory, m_clients=3,
                            eta_w=0.1, eta_q=0.05, seed=0)
        hm.run_round(0)
        afl.run_round(0)
        assert hm.tracker.edge_cloud_cycles == afl.tracker.edge_cloud_cycles == 2
