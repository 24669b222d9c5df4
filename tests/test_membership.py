"""Tests for repro.membership: churn plans, the self-healing hierarchy, and
the bit-identicality / resume guarantees of the dynamic-membership layer.

The load-bearing guarantees:

* a null :class:`ChurnPlan` (or no ``churn=`` argument at all) is
  **bit-identical** to the static-topology code paths, for every algorithm
  and every execution backend,
* every membership transition is a pure function of
  ``(plan.seed, round, entity)`` — independent of algorithm, tracer, or
  resume boundary,
* checkpoints capture the live topology, so a run killed across a failover
  boundary resumes bit-identically, and
* the membership ledger balances: arrivals minus departures equal the net
  change of the active population.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from tests.conftest import make_blob_fed, round_context
from repro.baselines.registry import ALGORITHMS, make_algorithm
from repro.core.hierminimax import HierMinimax
from repro.exec import resolve_backend
from repro.faults import FaultPlan, RetryPolicy, resolve_injector
from repro.membership import (
    ChurnPlan,
    MembershipManager,
    NullMembership,
    NULL_MEMBERSHIP,
    resolve_membership,
)
from repro.multilayer import MultiLevelHierMinimax
from repro.nn.models import make_model_factory
from repro.obs import Tracer, analyze_trace, format_trace_report
from repro.sim.builder import build_edge_servers
from repro.utils.rng import RngFactory


def make_edges(fed):
    return build_edge_servers(fed, batch_size=4, rng_factory=RngFactory(0))

CHURN_SPEC = "arrive=0.08,depart=0.05,edge_mttf=4,edge_mttr=3,seed=1"


def make_hmm(fed, factory, **kw):
    return HierMinimax(fed, factory, batch_size=4, eta_w=0.1, eta_p=0.05,
                       tau1=2, tau2=2, m_edges=2, seed=0, **kw)


def history_points(result):
    return [(p.round_index, p.record.worst_accuracy, p.record.average_accuracy)
            for p in result.history.points]


# --------------------------------------------------------------------- plan
class TestChurnPlan:
    def test_none_is_null(self):
        assert ChurnPlan.none().is_null
        assert ChurnPlan().is_null
        assert not ChurnPlan(arrive=0.1).is_null
        assert not ChurnPlan(edge_mttf=40.0).is_null
        assert not ChurnPlan(link_mttf=40.0).is_null
        assert not ChurnPlan(start_absent=0.5).is_null

    def test_parse_round_trip(self):
        plan = ChurnPlan.parse("arrive=0.05, depart=0.02, edge_mttf=40, "
                               "edge_mttr=4, link_mttf=60, link_mttr=2, "
                               "heartbeat_timeout_s=0.25, rehome=false, "
                               "start_absent=0.1, seed=3")
        assert plan.arrive == 0.05
        assert plan.depart == 0.02
        assert plan.edge_mttf == 40.0
        assert plan.edge_mttr == 4.0
        assert plan.link_mttf == 60.0
        assert plan.link_mttr == 2.0
        assert plan.heartbeat_timeout_s == 0.25
        assert plan.rehome is False
        assert plan.start_absent == 0.1
        assert plan.seed == 3

    def test_parse_empty_is_null(self):
        assert ChurnPlan.parse("").is_null
        assert ChurnPlan.parse("  ").is_null

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown churn"):
            ChurnPlan.parse("arive=0.05")

    def test_parse_rejects_malformed_entry(self):
        with pytest.raises(ValueError):
            ChurnPlan.parse("arrive")

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnPlan(arrive=1.5)
        with pytest.raises(ValueError):
            ChurnPlan(depart=-0.1)
        with pytest.raises(ValueError):
            ChurnPlan(edge_mttf=0.5)  # 0 (off) or >= 1
        with pytest.raises(ValueError):
            ChurnPlan(edge_mttf=10.0, edge_mttr=0.5)
        with pytest.raises(ValueError):
            ChurnPlan(heartbeat_timeout_s=-1.0)

    def test_churn_is_not_a_fault_key(self):
        # churn= is the one way to set churn: a fault spec has no churn tier.
        with pytest.raises(ValueError,
                           match="unknown fault spec key 'churn_arrive'"):
            FaultPlan.parse("churn_arrive=0.05")


# ------------------------------------------------------------- retry policy
class TestRetryPolicy:
    def test_max_backoff_cap(self):
        pol = RetryPolicy(backoff_base_s=0.1, backoff_factor=10.0,
                          max_backoff_s=0.5)
        assert pol.backoff_s(0) == pytest.approx(0.1)
        assert pol.backoff_s(1) == pytest.approx(0.5)
        assert pol.backoff_s(5) == pytest.approx(0.5)

    def test_uncapped_matches_legacy_schedule(self):
        pol = RetryPolicy(backoff_base_s=0.05, backoff_factor=2.0)
        for n in range(6):
            assert pol.backoff_s(n) == pytest.approx(0.05 * 2.0 ** n)

    def test_jitter_is_pure_and_bounded(self):
        pol = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0, jitter=0.5)
        a = pol.backoff_s(1, seed=7, round_index=3, entity="client:2")
        b = pol.backoff_s(1, seed=7, round_index=3, entity="client:2")
        assert a == b  # pure function of (seed, round, entity, attempt)
        base = 0.2
        assert base * 0.5 <= a <= base * 1.5
        # Different entity / round / attempt de-synchronize.
        c = pol.backoff_s(1, seed=7, round_index=3, entity="client:3")
        d = pol.backoff_s(1, seed=7, round_index=4, entity="client:2")
        assert len({a, c, d}) > 1

    def test_jitter_off_without_seed(self):
        pol = RetryPolicy(backoff_base_s=0.1, jitter=0.5)
        assert pol.backoff_s(0) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_parse_via_faultplan(self):
        plan = FaultPlan.parse("msg_loss=0.1,max_retries=3,"
                               "max_backoff_s=0.4,jitter=0.25")
        assert plan.retry.max_retries == 3
        assert plan.retry.max_backoff_s == 0.4
        assert plan.retry.jitter == 0.25


# ---------------------------------------------------------------- resolver
class TestResolveMembership:
    def test_none_and_null_share_instance(self):
        assert resolve_membership(None) is NULL_MEMBERSHIP
        assert resolve_membership("") is NULL_MEMBERSHIP
        assert resolve_membership(ChurnPlan.none()) is NULL_MEMBERSHIP

    def test_spec_and_plan(self):
        m = resolve_membership("arrive=0.1,seed=2")
        assert isinstance(m, MembershipManager)
        assert m.enabled and m.plan.arrive == 0.1
        assert resolve_membership(m) is m

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            resolve_membership(42)

    def test_begin_round_before_bind_raises(self):
        m = MembershipManager(ChurnPlan(arrive=0.1))
        with pytest.raises(RuntimeError, match="bind"):
            m.begin_round(round_context())


# ---------------------------------------------------------------- manager
class TestManagerTransitions:
    def _bound_manager(self, plan=None, **kw):
        fed = make_blob_fed(num_edges=3, clients_per_edge=2)
        edges = make_edges(fed)
        mgr = MembershipManager(plan if plan is not None
                                else ChurnPlan(**kw))
        mgr.bind(edges)
        return mgr

    def test_transitions_deterministic(self):
        runs = []
        for _ in range(2):
            mgr = self._bound_manager(arrive=0.2, depart=0.2, edge_mttf=3,
                                      edge_mttr=2, link_mttf=4, seed=5)
            for k in range(20):
                mgr.begin_round(round_context(round_index=k))
            runs.append(mgr.state_dict())
        assert runs[0] == runs[1]

    def test_start_absent_thins_population(self):
        mgr = self._bound_manager(start_absent=0.5, arrive=0.1, seed=3)
        assert 0 < len(mgr.active) < len(mgr._client_ids)

    def test_rehoming_moves_orphans_to_least_loaded_survivor(self):
        mgr = self._bound_manager(edge_mttf=10, seed=0)
        # Manually crash edge 0 and re-home.
        mgr.edge_up[0] = False
        mgr._rehome_orphans(round_context(), 0, 0)
        orphans = [cid for cid, eid in mgr._initial_home.items() if eid == 0]
        for cid in orphans:
            assert mgr.home[cid] != 0
            assert mgr.edge_up[mgr.home[cid]]
        # Load balance: 2 orphans over 2 survivors -> one each.
        homes = sorted(mgr.home[cid] for cid in orphans)
        assert homes == [1, 2]
        # Rosters reflect the move.
        for cid in orphans:
            roster_ids = [c.client_id for c in mgr.roster(mgr.home[cid])]
            assert cid in roster_ids
        assert all(c.client_id not in orphans for c in mgr.roster(0))

    def test_no_survivors_keeps_homes(self):
        mgr = self._bound_manager(edge_mttf=10, seed=0)
        for e in mgr.edge_up:
            mgr.edge_up[e] = False
        before = dict(mgr.home)
        mgr._rehome_orphans(round_context(), 0, 0)
        assert mgr.home == before

    def test_partitioned_edge_keeps_clients(self):
        mgr = self._bound_manager(link_mttf=10, seed=0)
        mgr.partitioned.add(1)
        assert not mgr.edge_available(1)
        # Partition (unlike crash) never re-homes: clients stay put.
        assert all(eid == mgr._initial_home[cid]
                   for cid, eid in mgr.home.items())

    def test_state_dict_round_trip(self):
        mgr = self._bound_manager(arrive=0.2, depart=0.2, edge_mttf=3,
                                  link_mttf=4, seed=9)
        for k in range(15):
            mgr.begin_round(round_context(round_index=k))
        state = mgr.state_dict()
        other = self._bound_manager(arrive=0.2, depart=0.2, edge_mttf=3,
                                    link_mttf=4, seed=9)
        other.load_state_dict(state)
        assert other.state_dict() == state
        # Resumed manager continues identically.
        mgr.begin_round(round_context(round_index=15))
        other.begin_round(round_context(round_index=15))
        assert mgr.state_dict() == other.state_dict()

    def test_rosters_follow_every_transition(self):
        # Roster ids are kept per round; each transition must start afresh.
        def scan(mgr, eid):
            return [cid for cid in mgr._client_ids
                    if cid in mgr.active and mgr.home.get(cid) == eid]

        kw = dict(arrive=0.3, depart=0.3, edge_mttf=2, edge_mttr=2,
                  link_mttf=3, seed=4)
        mgr = self._bound_manager(**kw)
        changed = 0
        for k in range(20):
            before = [mgr.roster_ids(e) for e in range(3)]
            mgr.begin_round(round_context(round_index=k))
            after = [mgr.roster_ids(e) for e in range(3)]
            assert after == [scan(mgr, e) for e in range(3)]
            assert [[c.client_id for c in mgr.roster(e)]
                    for e in range(3)] == after
            changed += before != after
        assert changed > 0
        other = self._bound_manager(**kw)
        assert [other.roster_ids(e) for e in range(3)] != after
        other.load_state_dict(mgr.state_dict())
        assert [other.roster_ids(e) for e in range(3)] == after

    def test_empty_state_is_noop(self):
        mgr = self._bound_manager(arrive=0.2, seed=1)
        before = mgr.state_dict()
        mgr.load_state_dict({})
        assert mgr.state_dict() == before


# ---------------------------------------------- null-churn bit-identicality
class TestNullChurnBitIdentical:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_all_algorithms_serial(self, name):
        fed = make_blob_fed()
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)
        base = make_algorithm(name, fed, factory, seed=0, batch_size=4,
                              eta_w=0.1).run(rounds=4, eval_every=2)
        for churn in (None, "", ChurnPlan.none()):
            res = make_algorithm(name, fed, factory, seed=0, batch_size=4,
                                 eta_w=0.1, churn=churn,
                                 ).run(rounds=4, eval_every=2)
            np.testing.assert_array_equal(base.final_params,
                                          res.final_params)
            assert history_points(base) == history_points(res)

    def test_multilayer_null_identical(self):
        fed = make_blob_fed()
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)
        base = MultiLevelHierMinimax(fed, factory, seed=0, batch_size=4,
                                     ).run(rounds=4, eval_every=2)
        res = MultiLevelHierMinimax(fed, factory, seed=0, batch_size=4,
                                    churn="").run(rounds=4, eval_every=2)
        np.testing.assert_array_equal(base.final_params, res.final_params)

    @pytest.mark.parametrize("backend", ("serial", "thread", "vectorized"))
    def test_every_backend(self, backend):
        fed = make_blob_fed()
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)
        be = resolve_backend(backend, 2)
        try:
            for name in sorted(ALGORITHMS):
                base = make_algorithm(name, fed, factory, seed=0,
                                      batch_size=4, backend=be,
                                      ).run(rounds=2, eval_every=2)
                res = make_algorithm(name, fed, factory, seed=0,
                                     batch_size=4, backend=be, churn="",
                                     ).run(rounds=2, eval_every=2)
                np.testing.assert_array_equal(base.final_params,
                                              res.final_params)
        finally:
            be.close()

    def test_live_churn_changes_trajectory(self):
        fed = make_blob_fed()
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)
        base = make_hmm(fed, factory).run(rounds=8, eval_every=4)
        res = make_hmm(fed, factory, churn=CHURN_SPEC).run(rounds=8,
                                                           eval_every=4)
        assert not np.array_equal(base.final_params, res.final_params)

    def test_churn_independent_of_backend(self):
        fed = make_blob_fed()
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)
        serial = make_hmm(fed, factory, churn=CHURN_SPEC).run(rounds=6,
                                                              eval_every=3)
        be = resolve_backend("thread", 2)
        try:
            threaded = make_hmm(fed, factory, churn=CHURN_SPEC,
                                backend=be).run(rounds=6, eval_every=3)
        finally:
            be.close()
        np.testing.assert_array_equal(serial.final_params,
                                      threaded.final_params)


# ------------------------------------------------ quarantine across failover
class TestQuarantineSurvivesRehoming:
    def test_quarantined_client_stays_quarantined_after_rehome(self):
        fed = make_blob_fed(num_edges=3, clients_per_edge=2)
        edges = make_edges(fed)
        inj = resolve_injector(FaultPlan(msg_corrupt=0.01, seed=0))
        mgr = MembershipManager(ChurnPlan(edge_mttf=10, seed=0))
        mgr.bind(edges)
        inj.quarantine(0, "client:0")
        assert "client:0" in inj.quarantined
        # Edge 0 crashes; client 0 is re-homed to a surviving edge.
        mgr.edge_up[0] = False
        mgr._rehome_orphans(round_context(round_index=1), 0, 0)
        new_home = mgr.home[0]
        assert new_home != 0
        # Quarantine keys are global (entity ids, not per-edge), so the
        # ban follows the client to its new edge: it still runs no steps and
        # answers no loss probes there.
        assert "client:0" in inj.quarantined
        assert inj.client_steps(2, 0, tau1=2) == 0
        assert inj.client_available(2, 0) is False
        # An innocent sibling on the new edge is unaffected.
        sib = next(c.client_id for c in mgr.roster(new_home)
                   if c.client_id != 0)
        assert inj.client_steps(2, sib, tau1=2) == 2


# ----------------------------------------------- checkpoint/resume exactness
class TestResumeAcrossFailover:
    #: Churn aggressive enough that edge crashes straddle the kill point.
    PLAN = "arrive=0.1,depart=0.08,edge_mttf=3,edge_mttr=2,seed=2"

    @pytest.mark.parametrize("backend", ("serial", "vectorized"))
    def test_resume_bit_identical(self, tmp_path, backend):
        fed = make_blob_fed()
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)
        be = resolve_backend(backend, 2)
        path = tmp_path / "churn.ckpt.json"
        try:
            obs = Tracer(None)
            full = make_hmm(fed, factory, churn=self.PLAN, obs=obs,
                            backend=be).run(rounds=12, eval_every=3)
            counters = obs.snapshot()["counters"]
            # The scenario must actually exercise failover.
            assert counters.get("membership_edge_crashes_total", 0) > 0

            algo = make_hmm(fed, factory, churn=self.PLAN, backend=be)
            algo.run(rounds=6, eval_every=3)
            algo.save_checkpoint(path)

            resumed = make_hmm(fed, factory, churn=self.PLAN, backend=be)
            done = resumed.load_checkpoint(path)
            assert done == 6
            # The live topology came back with the model.
            assert (resumed.membership.state_dict()
                    == algo.membership.state_dict())
            res = resumed.run(rounds=6, eval_every=3)
        finally:
            be.close()
        np.testing.assert_array_equal(full.final_params, res.final_params)
        np.testing.assert_array_equal(full.final_weights, res.final_weights)
        full_pts = history_points(full)
        assert history_points(res) == full_pts[len(full_pts) - len(
            history_points(res)):]

    def test_stale_checkpoint_without_membership_resumes(self, tmp_path):
        fed = make_blob_fed()
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)
        path = tmp_path / "old.ckpt.json"
        algo = make_hmm(fed, factory)
        algo.run(rounds=4, eval_every=2)
        algo.save_checkpoint(path)
        # A churn-free checkpoint loads into a churn-free run unchanged.
        again = make_hmm(fed, factory)
        assert again.load_checkpoint(path) == 4


# ------------------------------------------------------------------- ledger
class TestLedger:
    def test_ledger_balances_and_reports(self, tmp_path):
        fed = make_blob_fed()
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)
        trace = tmp_path / "churn.trace.jsonl"
        obs = Tracer(str(trace))
        algo = make_hmm(fed, factory, churn=CHURN_SPEC, obs=obs)
        algo.run(rounds=12, eval_every=6)
        final_active = len(algo.membership.active)
        obs.close()

        report = analyze_trace(trace)
        assert report.membership_totals  # events made it into the trace
        assert report.membership_initial >= 0
        assert report.membership_final == final_active
        # joined - left == net population delta (the balance invariant).
        assert (report.members_joined - report.members_left
                == report.membership_net_delta)
        text = format_trace_report(report)
        assert "membership:" in text
        assert "ledger balanced" in text

    def test_sim_time_and_comm_charged(self):
        from repro.simtime import SimTimer, make_cost_model

        fed = make_blob_fed()
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)
        plain = make_hmm(fed, factory,
                         timing=SimTimer(make_cost_model("hetero,seed=1")))
        r0 = plain.run(rounds=10, eval_every=5)
        churned = make_hmm(fed, factory, churn=CHURN_SPEC,
                           timing=SimTimer(make_cost_model("hetero,seed=1")))
        r1 = churned.run(rounds=10, eval_every=5)
        # Failover traffic (heartbeats, handoffs, warm joins) is visible in
        # the comm ledger; detection timeouts and re-syncs on the clock.
        assert r1.sim_time_s != r0.sim_time_s
        assert r0.comm.total_bytes != r1.comm.total_bytes
