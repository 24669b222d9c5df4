"""Tests for repro.faults: plan parsing, seeded injection, graceful degradation,
and checkpoint/resume exactness.

The two load-bearing guarantees:

* a null plan (or no ``faults=`` argument at all) is **bit-identical** to the
  pre-fault-layer code paths, and
* a run killed mid-flight and resumed from its checkpoint reproduces the
  uninterrupted run exactly — parameters, weights, history, and comm totals.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from tests.conftest import make_blob_fed, round_context
from repro.baselines.fedavg import FedAvg
from repro.baselines.registry import make_algorithm
from repro.core.hierminimax import HierMinimax
from repro.experiments.presets import fig3_preset
from repro.experiments.runner import run_experiment
from repro.faults import (
    CHECKPOINT_FORMAT,
    CHECKSUM_KEY,
    CheckpointError,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    load_checkpoint_file,
    resolve_injector,
    save_checkpoint_file,
)
from repro.multilayer import MultiLevelHierMinimax
from repro.nn.models import make_model_factory
from repro.obs import Tracer, analyze_trace, format_trace_report
from repro.topology.comm import CommunicationTracker


def make_hmm(fed, factory, **kw):
    return HierMinimax(fed, factory, batch_size=4, eta_w=0.1, eta_p=0.05,
                       tau1=2, tau2=2, m_edges=2, seed=0, **kw)


def history_points(result):
    return [(p.round_index, p.record.worst_accuracy, p.record.average_accuracy)
            for p in result.history.points]


# --------------------------------------------------------------------- plan
class TestFaultPlan:
    def test_none_is_null(self):
        assert FaultPlan.none().is_null
        assert not FaultPlan(client_dropout=0.1).is_null

    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "client_dropout=0.2, edge_outage=0.05, seed=3, max_retries=1")
        assert plan.client_dropout == 0.2
        assert plan.edge_outage == 0.05
        assert plan.seed == 3
        assert plan.retry.max_retries == 1

    def test_parse_empty_spec_is_null(self):
        assert FaultPlan.parse("").is_null

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultPlan.parse("client_dropout=0.2,gremlins=1")

    def test_parse_rejects_non_assignment(self):
        with pytest.raises(ValueError, match="not key=value"):
            FaultPlan.parse("client_dropout")

    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            FaultPlan(client_dropout=1.5)
        with pytest.raises(ValueError):
            FaultPlan(msg_loss=-0.1)

    def test_rejects_bad_slowdown_and_timeout(self):
        with pytest.raises(ValueError):
            FaultPlan(straggler_slowdown=0.5)
        with pytest.raises(ValueError):
            FaultPlan(round_timeout_slots=0)

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_backoff_schedule(self):
        policy = RetryPolicy(max_retries=3, backoff_base_s=0.1,
                             backoff_factor=2.0)
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.4)

    def test_straggler_steps(self):
        assert FaultPlan(client_straggle=0.5).straggler_steps(4) == 2
        # A deadline of one slot at 2x slowdown leaves zero completed steps:
        # the straggler times out into a dropout.
        assert FaultPlan(client_straggle=0.5,
                         round_timeout_slots=1).straggler_steps(4) == 0


# ----------------------------------------------------------------- injector
class TestFaultInjector:
    def test_decisions_are_pure_functions_of_seed(self):
        plan = FaultPlan(client_dropout=0.3, edge_outage=0.2, seed=11)
        a, b = FaultInjector(plan), FaultInjector(plan)
        # Query b in a different order than a: answers must still agree.
        fates_a = [(r, c, a.client_steps(r, c, 4))
                   for r in range(5) for c in range(6)]
        fates_b = [(r, c, b.client_steps(r, c, 4))
                   for r in reversed(range(5)) for c in reversed(range(6))]
        assert sorted(fates_a) == sorted(fates_b)
        assert [a.edge_dark(r, 0) for r in range(20)] == \
               [b.edge_dark(r, 0) for r in range(20)]

    def test_client_fate_stable_within_round(self):
        inj = FaultInjector(FaultPlan(client_dropout=0.5, seed=2))
        first = [inj.client_steps(3, c, 4) for c in range(8)]
        again = [inj.client_steps(3, c, 4) for c in range(8)]
        assert first == again
        # The loss-probe availability shares the same draw.
        for c in range(8):
            assert inj.client_available(3, c) == (first[c] > 0)

    def test_null_plan_is_inert(self):
        inj = resolve_injector(None, obs=None)
        assert not inj.enabled
        assert inj.client_steps(0, 0, 4) == 4
        assert not inj.edge_dark(0, 0)
        arr = np.ones(3)
        out = inj.receive(0, "client_edge", "client:0", arr, 2.0)
        assert out[0] is arr and out[1] == 2.0  # untouched pass-through

    def test_resolve_rejects_bad_type(self):
        with pytest.raises(TypeError, match="FaultPlan"):
            resolve_injector("client_dropout=0.2")

    def test_receive_quarantines_nonfinite_sender(self):
        inj = FaultInjector(FaultPlan(client_dropout=0.01, seed=0))
        bad = np.array([1.0, np.nan, 3.0])
        assert inj.receive(0, "client_edge", "client:5", bad) is None
        assert "client:5" in inj.quarantined
        # Quarantine persists: the sender is dark for the rest of the run.
        assert inj.client_steps(1, 5, 4) == 0
        assert not inj.client_available(2, 5)

    def test_corruption_poisons_then_quarantines(self):
        plan = FaultPlan(msg_corrupt=1.0, seed=0)
        inj = FaultInjector(plan)
        out = inj.receive(0, "edge_cloud", "edge:1", np.ones(16))
        assert out is None  # corrupted -> non-finite -> discarded
        assert "edge:1" in inj.quarantined

    def test_retries_charge_tracker(self):
        plan = FaultPlan(msg_loss=1.0, seed=0)  # every attempt lost
        inj = FaultInjector(plan)
        tracker = CommunicationTracker()
        out = inj.receive(0, "edge_cloud", "edge:0", np.ones(4),
                          floats=4.0, tracker=tracker)
        assert out is None
        # max_retries=2 retransmissions were charged before giving up.
        assert tracker.snapshot().messages["edge_cloud:up"] == \
            plan.retry.max_retries
        assert inj.backoff_s_total == pytest.approx(
            sum(plan.retry.backoff_s(i) for i in range(plan.retry.max_retries)))

    def test_state_dict_round_trip(self):
        inj = FaultInjector(FaultPlan(msg_corrupt=1.0, seed=0))
        inj.receive(0, "edge_cloud", "edge:3", np.ones(4))
        inj.backoff_s_total = 1.25
        clone = FaultInjector(FaultPlan(msg_corrupt=1.0, seed=0))
        clone.load_state_dict(json.loads(json.dumps(inj.state_dict())))
        assert clone.quarantined == inj.quarantined
        assert clone.backoff_s_total == inj.backoff_s_total


# ------------------------------------------------- null-plan bit-identicality
class TestNullPlanBitIdentical:
    def test_hierminimax(self, blob_fed, blob_factory):
        res_plain = make_hmm(blob_fed, blob_factory).run(rounds=4, eval_every=2)
        res_null = make_hmm(blob_fed, blob_factory,
                            faults=FaultPlan.none()).run(rounds=4, eval_every=2)
        np.testing.assert_array_equal(res_plain.final_params,
                                      res_null.final_params)
        np.testing.assert_array_equal(res_plain.final_weights,
                                      res_null.final_weights)
        assert history_points(res_plain) == history_points(res_null)
        assert res_plain.comm.cycles == res_null.comm.cycles
        assert res_plain.comm.messages == res_null.comm.messages

    def test_fedavg(self, blob_fed, blob_factory):
        def run(**kw):
            algo = FedAvg(blob_fed, blob_factory, batch_size=4, eta_w=0.1,
                          tau1=2, seed=0, **kw)
            return algo.run(rounds=4, eval_every=2)
        res_plain, res_null = run(), run(faults=FaultPlan.none())
        np.testing.assert_array_equal(res_plain.final_params,
                                      res_null.final_params)
        assert history_points(res_plain) == history_points(res_null)

    def test_multilayer(self, blob_fed, blob_factory):
        def run(**kw):
            algo = MultiLevelHierMinimax(blob_fed, blob_factory, batch_size=4,
                                         eta_w=0.1, eta_p=0.05, seed=0, **kw)
            return algo.run(rounds=3, eval_every=3)
        res_plain, res_null = run(), run(faults=FaultPlan.none())
        np.testing.assert_array_equal(res_plain.final_params,
                                      res_null.final_params)
        assert history_points(res_plain) == history_points(res_null)


# ----------------------------------------------------- faulted-run behavior
class TestFaultedRuns:
    PLAN = FaultPlan(client_dropout=0.2, edge_outage=0.1, msg_loss=0.1, seed=7)

    def test_seeded_faults_are_deterministic(self, blob_fed, blob_factory):
        res_a = make_hmm(blob_fed, blob_factory, faults=self.PLAN).run(
            rounds=5, eval_every=5)
        res_b = make_hmm(blob_fed, blob_factory, faults=self.PLAN).run(
            rounds=5, eval_every=5)
        np.testing.assert_array_equal(res_a.final_params, res_b.final_params)
        np.testing.assert_array_equal(res_a.final_weights, res_b.final_weights)
        assert res_a.comm.messages == res_b.comm.messages

    def test_faults_actually_perturb_the_run(self, blob_fed, blob_factory):
        res_clean = make_hmm(blob_fed, blob_factory).run(rounds=5, eval_every=5)
        res_fault = make_hmm(blob_fed, blob_factory, faults=self.PLAN).run(
            rounds=5, eval_every=5)
        assert not np.array_equal(res_clean.final_params,
                                  res_fault.final_params)

    def test_converges_under_twenty_percent_dropout(self):
        # The acceptance demo in miniature: 20% dropout must still reach
        # a worst-edge accuracy within 0.15 of the fault-free run.
        fed = make_blob_fed(num_edges=3, clients_per_edge=3, n_per_client=16)
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)
        clean = make_hmm(fed, factory).run(rounds=25, eval_every=25)
        faulted = make_hmm(fed, factory,
                           faults=FaultPlan(client_dropout=0.2, seed=1)).run(
            rounds=25, eval_every=25)
        worst_clean = clean.history.final().record.worst_accuracy
        worst_fault = faulted.history.final().record.worst_accuracy
        assert worst_fault >= worst_clean - 0.15

    def test_total_corruption_stays_finite(self, blob_fed, blob_factory):
        plan = FaultPlan(msg_corrupt=1.0, seed=3)
        algo = make_hmm(blob_fed, blob_factory, faults=plan)
        res = algo.run(rounds=4, eval_every=4)
        assert np.all(np.isfinite(res.final_params))
        assert np.all(np.isfinite(res.final_weights))
        assert algo.faults.quarantined

    def test_fault_metrics_flow_through_obs(self, blob_fed, blob_factory):
        obs = Tracer(None)
        make_hmm(blob_fed, blob_factory, obs=obs,
                 faults=FaultPlan(client_dropout=0.4, msg_loss=0.4,
                                  seed=2)).run(rounds=5, eval_every=5)
        counters = obs.snapshot()["counters"]
        assert counters.get("clients_dropped_total", 0) > 0
        assert counters.get("retries_total", 0) > 0

    def test_stragglers_upload_truncated_updates(self, blob_fed, blob_factory):
        obs = Tracer(None)
        make_hmm(blob_fed, blob_factory, obs=obs,
                 faults=FaultPlan(client_straggle=0.8, seed=4)).run(
            rounds=4, eval_every=4)
        assert obs.snapshot()["counters"].get("stragglers_total", 0) > 0

    def test_each_decision_is_counted_once_per_round_and_entity(
            self, blob_fed, blob_factory):
        """Phase 1 asks ``edge_dark`` per draw and ``client_steps`` once per
        block (``tau2 = 2``); Phase 2, probing every edge, asks ``edge_dark``
        and ``client_available`` again.  The counters still equal the plan's
        decisions, one per (round, entity)."""
        plan = FaultPlan(client_dropout=0.3, client_straggle=0.0,
                         edge_outage=0.25, seed=5)
        obs = Tracer(None)
        algo = HierMinimax(blob_fed, blob_factory, batch_size=4, eta_w=0.1,
                           eta_p=0.05, tau1=2, tau2=2, seed=0, faults=plan,
                           obs=obs)
        rounds = 10
        algo.run(rounds=rounds, eval_every=rounds)
        oracle = FaultInjector(plan)
        dark = {(r, e) for r in range(rounds)
                for e in range(len(algo.edges)) if oracle.edge_dark(r, e)}
        dropped = sum(1 for r in range(rounds)
                      for e, edge in enumerate(algo.edges)
                      if (r, e) not in dark
                      for client in edge.clients
                      if not oracle.client_available(r, client.client_id))
        counters = obs.snapshot()["counters"]
        assert dark and dropped
        assert counters["edge_outages_total"] == len(dark)
        assert counters["clients_dropped_total"] == dropped


# ------------------------------------------------------- checkpoint / resume
class Boom(RuntimeError):
    """Simulated process kill."""


class TestKillAndResume:
    PLAN = FaultPlan(client_dropout=0.2, msg_loss=0.1, seed=5)

    def _kill_resume(self, fed, factory, make_algo):
        full = make_algo().run(rounds=6, eval_every=2)

        killed = make_algo()
        orig = killed.run_round

        def run_round(k):
            if k == 4:
                raise Boom()
            orig(k)

        killed.run_round = run_round
        ckpt = self.tmp_path / "run.ckpt.json"
        with pytest.raises(Boom):
            killed.run(rounds=6, eval_every=2,
                       checkpoint_path=ckpt, checkpoint_every=3)

        resumed = make_algo()
        assert resumed.load_checkpoint(ckpt) == 3
        res = resumed.run(rounds=3, eval_every=2)

        np.testing.assert_array_equal(full.final_params, res.final_params)
        if full.final_weights is not None:
            np.testing.assert_array_equal(full.final_weights,
                                          res.final_weights)
        assert history_points(full) == history_points(res)
        assert full.comm.cycles == res.comm.cycles
        assert full.comm.messages == res.comm.messages
        assert full.comm.floats == pytest.approx(res.comm.floats)

    @pytest.fixture(autouse=True)
    def _tmp(self, tmp_path):
        self.tmp_path = tmp_path

    def test_hierminimax_faulted(self, blob_fed, blob_factory):
        self._kill_resume(blob_fed, blob_factory,
                          lambda: make_hmm(blob_fed, blob_factory,
                                           faults=self.PLAN))

    def test_hierminimax_fault_free(self, blob_fed, blob_factory):
        self._kill_resume(blob_fed, blob_factory,
                          lambda: make_hmm(blob_fed, blob_factory))

    def test_fedavg(self, blob_fed, blob_factory):
        self._kill_resume(
            blob_fed, blob_factory,
            lambda: FedAvg(blob_fed, blob_factory, batch_size=4, eta_w=0.1,
                           tau1=2, seed=0, faults=self.PLAN))

    @pytest.mark.parametrize("faulted", [True, False],
                             ids=["faulted", "fault_free"])
    @pytest.mark.parametrize("name", ["drfa", "stochastic_afl"])
    def test_two_layer_minimax(self, blob_fed, blob_factory, name, faulted):
        # Their mixing weights q and stale losses live in _extra_state.
        run = {"faults": self.PLAN} if faulted else {}
        self._kill_resume(
            blob_fed, blob_factory,
            lambda: make_algorithm(name, blob_fed, blob_factory, batch_size=4,
                                   eta_w=0.1, eta_q=0.05, tau1=2,
                                   m_clients=4, seed=0, **run))

    @pytest.mark.parametrize("faulted", [True, False],
                             ids=["faulted", "fault_free"])
    def test_hierfavg(self, blob_fed, blob_factory, faulted):
        # No mixing weights: everything it resumes lives in the base state.
        run = {"faults": self.PLAN} if faulted else {}
        self._kill_resume(
            blob_fed, blob_factory,
            lambda: make_algorithm("hierfavg", blob_fed, blob_factory,
                                   batch_size=4, eta_w=0.1, tau1=2, tau2=2,
                                   m_edges=2, seed=0, **run))

    def test_load_rejects_wrong_algorithm(self, blob_fed, blob_factory,
                                          tmp_path):
        path = tmp_path / "x.ckpt.json"
        make_hmm(blob_fed, blob_factory).run(rounds=2, eval_every=2,
                                             checkpoint_path=path,
                                             checkpoint_every=2)
        other = FedAvg(blob_fed, blob_factory, batch_size=4, eta_w=0.1,
                       tau1=2, seed=0)
        with pytest.raises(CheckpointError, match="algorithm"):
            other.load_checkpoint(path)


class TestCheckpointFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.ckpt.json"
        state = {"algorithm": "demo", "round": 3,
                 "w": np.linspace(0, 1, 5),
                 "rng": np.random.default_rng(9)}
        save_checkpoint_file(path, state)
        back = load_checkpoint_file(path, expect_algorithm="demo")
        assert back["round"] == 3
        np.testing.assert_array_equal(back["w"], state["w"])
        # The restored generator continues the stream exactly.
        assert back["rng"].random(4).tolist() == \
               np.random.default_rng(9).random(4).tolist()

    def test_format_field_written(self, tmp_path):
        path = tmp_path / "c.ckpt.json"
        save_checkpoint_file(path, {"algorithm": "demo", "round": 0})
        raw = json.loads(path.read_text())
        assert raw["format"] == CHECKPOINT_FORMAT

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint_file(tmp_path / "absent.ckpt.json")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.ckpt.json"
        path.write_text("{ not json")
        with pytest.raises(CheckpointError):
            load_checkpoint_file(path)

    def test_wrong_format_version(self, tmp_path):
        path = tmp_path / "v999.ckpt.json"
        save_checkpoint_file(path, {"algorithm": "demo", "round": 0})
        raw = json.loads(path.read_text())
        raw["format"] = 999
        # Drop the envelope so the mutation reads as a future format, not rot.
        raw.pop(CHECKSUM_KEY, None)
        path.write_text(json.dumps(raw))
        with pytest.raises(CheckpointError, match="reads format"):
            load_checkpoint_file(path)


# ------------------------------------------------------------ runner wiring
class TestRunnerIntegration:
    def test_resume_requires_checkpoint_dir(self):
        preset = fig3_preset("tiny").with_overrides(slots=8, eval_points=1)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_experiment(preset, resume=True)

    def test_runner_rejects_injector_instance(self):
        preset = fig3_preset("tiny").with_overrides(slots=8, eval_points=1)
        inj = FaultInjector(FaultPlan(client_dropout=0.2))
        with pytest.raises(TypeError, match="FaultPlan"):
            run_experiment(preset, algorithms=("hierminimax",), faults=inj)

    def test_runner_checkpoint_resume_matches(self, tmp_path):
        preset = fig3_preset("tiny").with_overrides(slots=24, eval_points=2)
        plan = FaultPlan(client_dropout=0.2, seed=1)
        kw = dict(algorithms=("hierminimax",), faults=plan)
        full = run_experiment(preset, **kw)
        # First leg writes checkpoints; second leg resumes and finishes.
        run_experiment(preset, checkpoint_dir=tmp_path, checkpoint_every=2,
                       **kw)
        resumed = run_experiment(preset, checkpoint_dir=tmp_path, resume=True,
                                 **kw)
        np.testing.assert_array_equal(
            full.results["hierminimax"].final_params,
            resumed.results["hierminimax"].final_params)


# ------------------------------------------------------------- observability
class TestFaultTraceReport:
    def test_fault_events_reach_trace_and_report(self, blob_fed, blob_factory,
                                                 tmp_path):
        path = tmp_path / "run.trace.jsonl"
        with Tracer(str(path)) as obs:
            make_hmm(blob_fed, blob_factory, obs=obs,
                     faults=FaultPlan(client_dropout=0.4, edge_outage=0.2,
                                      seed=7)).run(rounds=5, eval_every=5)
        report = analyze_trace(path)
        assert report.fault_totals
        assert report.faults_injected > 0
        assert report.faults_by_round
        text = format_trace_report(report)
        assert "faults:" in text
        assert "injected" in text

    def test_clean_trace_has_no_fault_section(self, blob_fed, blob_factory,
                                              tmp_path):
        path = tmp_path / "clean.trace.jsonl"
        with Tracer(str(path)) as obs:
            make_hmm(blob_fed, blob_factory, obs=obs).run(rounds=2,
                                                          eval_every=2)
        report = analyze_trace(path)
        assert not report.fault_totals
        assert "faults:" not in format_trace_report(report)


# ------------------------------------------------------------- entry guards
class TestInputValidation:
    def test_local_sgd_rejects_bad_steps_and_lr(self, blob_fed, blob_factory):
        algo = make_hmm(blob_fed, blob_factory)
        client = algo.edges[0].clients[0]
        with pytest.raises(ValueError):
            client.local_sgd(algo.engine, algo.w, steps=0, lr=0.1)
        with pytest.raises(ValueError):
            client.local_sgd(algo.engine, algo.w, steps=2, lr=-0.1)
        with pytest.raises(TypeError):
            client.local_sgd(algo.engine, algo.w, steps=2.5, lr=0.1)

    def test_model_update_rejects_bad_periods(self, blob_fed, blob_factory):
        algo = make_hmm(blob_fed, blob_factory)
        edge = algo.edges[0]
        with pytest.raises(ValueError):
            edge.model_update(round_context(algo.engine), algo.w, tau1=0,
                              tau2=2)
        with pytest.raises(ValueError):
            edge.model_update(round_context(algo.engine, lr=0.0), algo.w,
                              tau1=2, tau2=2)

    def test_compress_requires_explicit_rng(self):
        from repro.compression import QSGDQuantizer
        from repro.sim.edge import compress_upload

        ctx = round_context(compressor=QSGDQuantizer(), comp_rng=None)
        with pytest.raises(ValueError, match="comp_rng"):
            compress_upload(ctx, np.zeros(8), np.ones(8), sender=0)

    def test_run_rejects_bad_round_counts(self, blob_fed, blob_factory):
        algo = make_hmm(blob_fed, blob_factory)
        with pytest.raises(ValueError):
            algo.run(rounds=0)
        with pytest.raises(ValueError):
            algo.run(rounds=2, eval_every=0)
        with pytest.raises(ValueError):
            algo.run(rounds=2, checkpoint_path="x", checkpoint_every=0)


# ------------------------------------------------------- byzantine satellite
class TestAttackSpecKeys:
    def test_parse_attack_fields_round_trip(self):
        plan = FaultPlan.parse("client_dropout=0.1,attack=sign_flip,"
                               "attack_fraction=0.2,attack_scale=5,"
                               "attack_seed=3,attack_start_round=4,"
                               "attack_colluding=1")
        assert plan.client_dropout == 0.1
        byz = plan.byzantine
        assert byz is not None
        assert byz.attack == "sign_flip"
        assert byz.fraction == 0.2
        assert byz.effective_scale == 5.0
        assert byz.seed == 3
        assert byz.start_round == 4
        assert byz.colluding
        assert plan.has_attack and not plan.is_null

    def test_parse_attack_clients(self):
        plan = FaultPlan.parse("attack=gauss,attack_clients=0|3|7")
        assert plan.byzantine.clients == (0, 3, 7)

    def test_attack_only_plan_is_active(self):
        plan = FaultPlan.parse("attack=loss_inflation,attack_fraction=0.3")
        assert not plan.is_null
        assert FaultInjector(plan).enabled

    def test_null_attack_does_not_activate_plan(self):
        from repro.defense import AttackPlan

        plan = FaultPlan(byzantine=AttackPlan.none())
        assert plan.is_null and not plan.has_attack
        assert not FaultInjector(plan).enabled

    def test_guard_zscore_alone_does_not_activate_plan(self):
        plan = FaultPlan.parse("guard_zscore=4.0")
        assert plan.guard_zscore == 4.0
        assert plan.is_null
        assert not FaultInjector(plan).enabled

    def test_rejects_bad_guard_and_attack_values(self):
        with pytest.raises(ValueError):
            FaultPlan(guard_zscore=-1.0)
        with pytest.raises(ValueError):
            FaultPlan.parse("attack=zombie,attack_fraction=0.1")


class TestNormZScoreGuard:
    def guarded(self, **kw):
        kw.setdefault("guard_zscore", 4.0)
        kw.setdefault("msg_loss", 1e-9)  # arms the plan without the attack tier
        return FaultInjector(FaultPlan(**kw))

    def cohort(self, inj, n=10, norm=1.0, round_index=0):
        for i in range(n):
            vec = np.full(4, norm / 2.0)  # ||vec|| = norm
            assert inj.receive(round_index, "client_edge", f"client:{i}",
                               vec) is not None

    def test_anomalous_norm_is_quarantined(self):
        obs = Tracer(None)
        inj = FaultInjector(
            FaultPlan(guard_zscore=4.0, msg_loss=1e-9), obs=obs)
        self.cohort(inj, n=10, norm=1.0)
        out = inj.receive(0, "client_edge", "client:99", np.full(4, 500.0))
        assert out is None
        assert "client:99" in inj.quarantined
        counters = obs.snapshot()["counters"]
        assert counters["norm_guard_rejections_total"] == 1
        assert counters["quarantined_senders"] == 1
        # Quarantine persists: the sender stays dark in later rounds too.
        assert inj.client_available(1, 99) is False

    def test_honest_cohort_all_pass(self):
        # z=10: wide enough that honest Gaussian norm spread (MAD-scaled
        # z-scores of ~4 are routine in a 30-draw cohort) never trips it.
        inj = self.guarded(guard_zscore=10.0)
        gen = np.random.default_rng(0)
        for i in range(30):
            vec = gen.normal(size=8)
            assert inj.receive(0, "client_edge", f"client:{i}",
                               vec) is not None
        assert not inj.quarantined

    def test_small_cohort_never_flags(self):
        # Fewer than GUARD_MIN_COHORT prior uploads: no judgment possible.
        inj = self.guarded()
        self.cohort(inj, n=4, norm=1.0)
        out = inj.receive(0, "client_edge", "client:50", np.full(4, 500.0))
        assert out is not None
        assert not inj.quarantined

    def test_cohorts_are_per_link_and_per_round(self):
        inj = self.guarded()
        self.cohort(inj, n=10, norm=1.0, round_index=0)
        # Same round, different link: separate cohort, no flag.
        out = inj.receive(0, "edge_cloud", "edge:0", np.full(4, 500.0))
        assert out is not None
        # Next round: the cohort is rebuilt from scratch.
        out = inj.receive(1, "client_edge", "client:60", np.full(4, 500.0))
        assert out is not None
        assert not inj.quarantined

    def test_guard_disabled_by_default(self):
        inj = FaultInjector(FaultPlan(msg_loss=1e-9))
        self.cohort(inj, n=10, norm=1.0)
        out = inj.receive(0, "client_edge", "client:99", np.full(4, 500.0))
        assert out is not None

    def test_guard_run_end_to_end(self, blob_fed, blob_factory):
        from repro.defense import AttackPlan

        plan = FaultPlan(guard_zscore=6.0,
                         byzantine=AttackPlan(attack="scale", clients=(0,),
                                              scale=1e6))
        res = make_hmm(blob_fed, blob_factory, faults=plan).run(
            rounds=3, eval_every=3)
        assert np.all(np.isfinite(res.final_params))


class TestStaleCheckpointResume:
    def test_pre_attack_checkpoint_resumes_cleanly(self, blob_fed,
                                                   blob_factory, tmp_path):
        # A checkpoint written before the Byzantine tier existed has no
        # "suspicion" key in the injector state; resuming must not crash and
        # must behave exactly like a fresh-format checkpoint.
        path = tmp_path / "stale.ckpt.json"
        plan = FaultPlan(client_dropout=0.2, seed=5)
        make_hmm(blob_fed, blob_factory, faults=plan).run(
            rounds=3, eval_every=3, checkpoint_path=path, checkpoint_every=3)

        payload = json.loads(path.read_text())
        assert "suspicion" in payload["faults"]
        del payload["faults"]["suspicion"]
        # A checkpoint that old also predates the integrity envelope; keeping
        # the (now stale) checksum would be a bit-rot simulation instead.
        payload.pop(CHECKSUM_KEY, None)
        path.write_text(json.dumps(payload))

        resumed = make_hmm(blob_fed, blob_factory, faults=plan)
        assert resumed.load_checkpoint(path) == 3
        assert resumed.faults.suspicion == {}
        res = resumed.run(rounds=3, eval_every=3)

        full = make_hmm(blob_fed, blob_factory, faults=plan).run(
            rounds=6, eval_every=3)
        np.testing.assert_array_equal(full.final_params, res.final_params)

    def test_injector_state_round_trips_suspicion(self):
        inj = FaultInjector(FaultPlan(msg_loss=0.1))
        inj.suspect(0, "client:3", action="rejected", aggregator="krum")
        inj.suspect(1, "client:3", action="clipped", aggregator="norm_clip")
        state = inj.state_dict()
        fresh = FaultInjector(FaultPlan(msg_loss=0.1))
        fresh.load_state_dict(state)
        assert fresh.suspicion == {"client:3": 2}
