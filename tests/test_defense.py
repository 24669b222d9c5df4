"""Tests for repro.defense: attack models, robust aggregators, and policies.

The two load-bearing guarantees:

* the **null path is bit-identical**: no attack plus the reference mean
  aggregator (installed explicitly or absent) reproduces the pre-defense
  arithmetic exactly, on every execution backend, and
* under a ≥20% model-poisoning attack the robust aggregators keep training
  near the clean trajectory while the plain mean demonstrably does not
  (the bench grid in ``benchmarks/bench_byzantine.py`` measures this at
  scale; here small paired runs assert the ordering).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from tests.conftest import make_blob_fed
from repro.core.hierminimax import HierMinimax
from repro.defense import (
    AttackPlan,
    CoordinateMedian,
    DefensePolicy,
    Krum,
    NormClip,
    TrimmedMean,
    WeightedMean,
    apply_label_flip,
    resolve_defense,
)
from repro.defense.aggregators import AGGREGATORS, resolve_aggregator
from repro.defense.policy import clip_loss_reports, robust_combine
from repro.exec import resolve_backend
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Tracer, analyze_trace, format_trace_report


def make_hmm(fed, factory, **kw):
    return HierMinimax(fed, factory, batch_size=4, eta_w=0.1, eta_p=0.05,
                       tau1=2, tau2=2, m_edges=2, seed=0, **kw)


def all_aggregators():
    return [resolve_aggregator(name) for name in sorted(AGGREGATORS)]


def random_vectors(n=9, d=17, seed=0):
    gen = np.random.default_rng(seed)
    return [gen.normal(size=d) for _ in range(n)]


# --------------------------------------------------------------- attack plan
class TestAttackPlan:
    def test_null_plan(self):
        assert AttackPlan.none().is_null
        assert not AttackPlan(attack="sign_flip", fraction=0.2).is_null
        # An attack name with no victims is still null.
        assert AttackPlan(attack="sign_flip").is_null

    def test_parse_round_trip(self):
        plan = AttackPlan.parse("sign_flip,fraction=0.25,scale=5,seed=3,"
                                "start_round=10,colluding=1")
        assert plan.attack == "sign_flip"
        assert plan.fraction == 0.25
        assert plan.effective_scale == 5.0
        assert plan.seed == 3
        assert plan.start_round == 10
        assert plan.colluding

    def test_parse_explicit_clients(self):
        plan = AttackPlan.parse("gauss,clients=0|3|7")
        assert plan.clients == (0, 3, 7)
        assert plan.is_byzantine(3) and not plan.is_byzantine(4)

    def test_rejects_unknown_attack_and_bad_fraction(self):
        with pytest.raises(ValueError):
            AttackPlan(attack="zombie", fraction=0.1)
        with pytest.raises(ValueError):
            AttackPlan(attack="sign_flip", fraction=1.5)

    def test_roster_is_deterministic_and_seed_dependent(self):
        plan = AttackPlan(attack="sign_flip", fraction=0.3, seed=0)
        assert plan.roster(200) == plan.roster(200)
        other = AttackPlan(attack="sign_flip", fraction=0.3, seed=1)
        assert plan.roster(200) != other.roster(200)
        frac = len(plan.roster(1000)) / 1000
        assert 0.2 < frac < 0.4

    def test_start_round_gates_activity(self):
        plan = AttackPlan(attack="sign_flip", clients=(2,), start_round=5)
        assert not plan.active(4, 2)
        assert plan.active(5, 2)
        assert not plan.active(5, 3)

    def test_colluding_attackers_send_identical_noise(self):
        base = dict(attack="gauss", clients=(0, 1), scale=1.0, seed=0)
        collusive = AttackPlan(colluding=True, **base)
        independent = AttackPlan(colluding=False, **base)
        payload = np.zeros(8)
        a = collusive.tamper_model(3, 0, payload.copy(), None)
        b = collusive.tamper_model(3, 1, payload.copy(), None)
        np.testing.assert_array_equal(a, b)
        c = independent.tamper_model(3, 0, payload.copy(), None)
        d = independent.tamper_model(3, 1, payload.copy(), None)
        assert not np.array_equal(c, d)

    def test_sign_flip_reflects_through_reference(self):
        plan = AttackPlan(attack="sign_flip", clients=(0,), scale=1.0)
        ref = np.full(4, 2.0)
        payload = np.full(4, 3.0)
        out = plan.tamper_model(0, 0, payload, ref)
        np.testing.assert_allclose(out, np.full(4, 1.0))  # ref - (p - ref)

    def test_loss_inflation_scales_scalars(self):
        plan = AttackPlan(attack="loss_inflation", clients=(0,), scale=10.0)
        assert plan.tamper_loss(0, 0, 1.5) == pytest.approx(15.0)

    def test_label_flip_poisons_only_byzantine_shards(self, blob_fed):
        plan = AttackPlan(attack="label_flip", clients=(0,))
        poisoned = apply_label_flip(blob_fed, plan)
        flipped = poisoned.edges[0].clients[0]
        original = blob_fed.edges[0].clients[0]
        c = blob_fed.num_classes
        np.testing.assert_array_equal(flipped.y, (c - 1) - original.y)
        # Honest shards are shared, not copied.
        assert poisoned.edges[0].clients[1] is blob_fed.edges[0].clients[1]
        assert poisoned.edges[1] is not None
        # Null attack: the same dataset object comes back.
        assert apply_label_flip(blob_fed, AttackPlan.none()) is blob_fed


# -------------------------------------------------- aggregator property tests
class TestAggregatorProperties:
    @pytest.mark.parametrize("agg", all_aggregators(),
                             ids=lambda a: a.name)
    def test_permutation_invariance(self, agg):
        vectors = random_vectors()
        ref = np.zeros(vectors[0].size)
        base = agg.combine(vectors, ref=ref).value
        perm = list(reversed(vectors))
        out = agg.combine(perm, ref=ref).value
        np.testing.assert_allclose(out, base, atol=1e-10)

    @pytest.mark.parametrize("agg", all_aggregators(),
                             ids=lambda a: a.name)
    def test_identical_inputs_agree_with_mean(self, agg):
        v = np.linspace(-1.0, 1.0, 13)
        out = agg.combine([v.copy() for _ in range(7)], ref=np.zeros(13))
        np.testing.assert_allclose(out.value, v, atol=1e-12)

    @pytest.mark.parametrize("agg", all_aggregators(),
                             ids=lambda a: a.name)
    def test_honest_inputs_stay_near_mean(self, agg):
        vectors = random_vectors(n=11, seed=3)
        mean = np.mean(vectors, axis=0)
        out = agg.combine(vectors, ref=mean).value
        spread = max(np.linalg.norm(v - mean) for v in vectors)
        assert np.linalg.norm(out - mean) <= spread

    def test_median_breakdown_point(self):
        # floor((n-1)/2) attackers at +1e6 cannot drag the median out of the
        # honest range; one more can.
        honest = [np.full(5, float(i)) for i in range(6)]   # values 0..5
        f = (11 - 1) // 2
        attackers = [np.full(5, 1e6) for _ in range(f)]
        value = CoordinateMedian().combine(honest + attackers).value
        assert value.max() <= 5.0
        broken = CoordinateMedian().combine(
            honest + attackers + [np.full(5, 1e6)]).value
        assert broken.max() > 5.0

    def test_trimmed_mean_tolerates_its_trim_fraction(self):
        honest = [np.full(3, float(i)) for i in range(8)]
        attackers = [np.full(3, -1e9), np.full(3, 1e9)]
        agg = TrimmedMean(trim=0.2)  # k = floor(0.2*10) = 2
        value = agg.combine(honest + attackers).value
        assert 0.0 <= value.min() and value.max() <= 7.0

    def test_trimmed_mean_rejects_persistent_outlier(self):
        vectors = random_vectors(n=10, seed=5)
        vectors.append(np.full(vectors[0].size, 1e6))
        out = TrimmedMean(trim=0.2).combine(vectors)
        assert 10 in out.rejected

    def test_krum_excludes_far_cluster(self):
        gen = np.random.default_rng(0)
        honest = [gen.normal(size=6) for _ in range(8)]
        attackers = [100.0 + gen.normal(size=6) for _ in range(3)]
        out = Krum(m=3).combine(honest + attackers)
        assert set(out.rejected) >= {8, 9, 10}
        assert np.linalg.norm(out.value) < 10.0

    def test_krum_small_cohort_falls_back_to_mean(self):
        vectors = [np.ones(4), 3 * np.ones(4)]
        out = Krum().combine(vectors)
        np.testing.assert_allclose(out.value, 2 * np.ones(4))

    def test_norm_clip_bounds_magnitude(self):
        ref = np.zeros(4)
        honest = [np.ones(4) for _ in range(5)]
        attacker = np.full(4, 1e6)
        out = NormClip(factor=2.0).combine(honest + [attacker], ref=ref)
        assert 5 in out.clipped
        assert np.linalg.norm(out.value) <= 2.0 * np.linalg.norm(np.ones(4)) + 1e-9

    def test_weighted_mean_respects_weights(self):
        out = WeightedMean().combine([np.zeros(3), np.ones(3)],
                                     weights=[1.0, 3.0])
        np.testing.assert_allclose(out.value, np.full(3, 0.75))

    def test_resolve_aggregator_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown aggregator"):
            resolve_aggregator("bogus")


# -------------------------------------------------------------------- policy
class TestDefensePolicy:
    def test_single_name_installs_both_tiers_and_loss_clip(self):
        policy = resolve_defense("trimmed_mean")
        assert policy.edge.name == "trimmed_mean"
        assert policy.cloud.name == "trimmed_mean"
        assert policy.loss_clip is not None
        assert policy.tier("edge") is policy.edge

    def test_mean_policy_is_inactive_at_both_tiers(self):
        policy = resolve_defense("mean")
        assert policy.tier("edge") is None
        assert policy.tier("cloud") is None
        assert policy.loss_clip is None

    def test_per_tier_spec(self):
        policy = resolve_defense("edge=median,cloud=krum,loss_clip=2.5")
        assert policy.edge.name == "median"
        assert policy.cloud.name == "krum"
        assert policy.loss_clip == 2.5

    def test_trim_parameter_flows_through(self):
        policy = resolve_defense("trimmed_mean,trim=0.3,loss_clip=none")
        assert policy.edge.trim == 0.3
        assert policy.loss_clip is None

    def test_rejects_bad_loss_clip_and_keys(self):
        with pytest.raises(ValueError):
            DefensePolicy(loss_clip=0.5)
        with pytest.raises(ValueError, match="unknown defense spec key"):
            resolve_defense("trimmed_mean,gremlins=1")

    def test_clip_loss_reports(self):
        losses = {0: 1.0, 1: 1.2, 2: 0.8, 3: 60.0}
        clipped, ids, cap = clip_loss_reports(losses, 3.0)
        assert ids == [3]
        assert clipped[3] == pytest.approx(cap)
        assert clipped[0] == 1.0
        # Fewer than three reports: identity (same object, no new arithmetic).
        small = {0: 1.0, 1: 50.0}
        assert clip_loss_reports(small, 3.0)[0] is small

    def test_robust_combine_reports_suspects(self):
        inj = FaultInjector(FaultPlan())
        entries = [("client:0", 1.0, np.zeros(3)),
                   ("client:1", 1.0, np.zeros(3) + 0.1),
                   ("client:2", 1.0, np.full(3, 1e6))]
        value = robust_combine(TrimmedMean(trim=0.34), entries,
                               faults=inj, round_index=7)
        assert np.all(np.isfinite(value))
        assert inj.suspicion.get("client:2", 0) >= 1
        assert robust_combine(TrimmedMean(), [], faults=inj) is None


# -------------------------------------------------------- injector tampering
class TestInjectorAttacks:
    def plan(self, **kw):
        kw.setdefault("attack", "sign_flip")
        kw.setdefault("clients", (1,))
        kw.setdefault("scale", 1.0)
        return FaultPlan(byzantine=AttackPlan(**kw))

    def test_byzantine_upload_is_tampered_honest_passes(self):
        inj = FaultInjector(self.plan())
        ref = np.zeros(4)
        payload = np.ones(4)
        (honest,) = inj.receive(0, "client_edge", "client:0", payload.copy(),
                                ref=ref)
        np.testing.assert_array_equal(honest, payload)
        (evil,) = inj.receive(0, "client_edge", "client:1", payload.copy(),
                              ref=ref)
        np.testing.assert_allclose(evil, -payload)

    def test_edge_senders_are_never_byzantine(self):
        inj = FaultInjector(self.plan(clients=(1,)))
        payload = np.ones(4)
        (out,) = inj.receive(0, "edge_cloud", "edge:1", payload.copy(),
                             ref=np.zeros(4))
        np.testing.assert_array_equal(out, payload)

    def test_loss_inflation_targets_scalar_reports(self):
        inj = FaultInjector(self.plan(attack="loss_inflation", scale=10.0))
        (loss,) = inj.receive(0, "client_edge", "client:1", 2.0)
        assert loss == pytest.approx(20.0)
        (honest,) = inj.receive(0, "client_edge", "client:0", 2.0)
        assert honest == 2.0

    def test_attack_events_and_counters_flow_through_obs(self):
        obs = Tracer(None)
        inj = FaultInjector(self.plan(), obs=obs)
        inj.receive(0, "client_edge", "client:1", np.ones(3), ref=np.zeros(3))
        inj.suspect(0, "client:1", action="rejected", aggregator="krum")
        counters = obs.snapshot()["counters"]
        assert counters["byzantine_attacks_total"] == 1
        assert counters["byzantine_filtered_total"] == 1
        assert inj.suspicion == {"client:1": 1}


# ------------------------------------------------- bit-identity regressions
class TestNullPathBitIdentity:
    def history_points(self, result):
        return [(p.round_index, p.record.worst_accuracy,
                 p.record.average_accuracy)
                for p in result.history.points]

    def test_mean_defense_is_bit_identical_to_no_defense(self, blob_fed,
                                                         blob_factory):
        base = make_hmm(blob_fed, blob_factory).run(rounds=6, eval_every=3)
        for defense in ("mean", DefensePolicy(), None,
                        "mean,loss_clip=none"):
            res = make_hmm(blob_fed, blob_factory, defense=defense).run(
                rounds=6, eval_every=3)
            np.testing.assert_array_equal(res.final_params, base.final_params)
            np.testing.assert_array_equal(res.final_weights,
                                          base.final_weights)
            assert self.history_points(res) == self.history_points(base)

    def test_null_attack_plan_is_bit_identical(self, blob_fed, blob_factory):
        base = make_hmm(blob_fed, blob_factory).run(rounds=6, eval_every=3)
        plan = FaultPlan(byzantine=AttackPlan.none())
        res = make_hmm(blob_fed, blob_factory, faults=plan).run(
            rounds=6, eval_every=3)
        np.testing.assert_array_equal(res.final_params, base.final_params)

    @pytest.mark.parametrize("backend_name",
                             ["serial", "thread", "vectorized"])
    def test_null_attack_mean_identical_on_every_backend(
            self, blob_fed, blob_factory, backend_name):
        base = make_hmm(blob_fed, blob_factory).run(rounds=4, eval_every=4)
        backend = resolve_backend(backend_name, 2)
        try:
            res = make_hmm(blob_fed, blob_factory, defense="mean",
                           faults=FaultPlan(byzantine=AttackPlan.none()),
                           backend=backend).run(rounds=4, eval_every=4)
        finally:
            backend.close()
        np.testing.assert_array_equal(res.final_params, base.final_params)
        np.testing.assert_array_equal(res.final_weights, base.final_weights)

    @pytest.mark.parametrize("backend_name",
                             ["serial", "thread", "vectorized"])
    def test_robust_aggregation_identical_across_backends(
            self, blob_fed, blob_factory, backend_name):
        plan = FaultPlan(byzantine=AttackPlan(attack="sign_flip",
                                              fraction=0.3, seed=1))
        serial = make_hmm(blob_fed, blob_factory, faults=plan,
                          defense="trimmed_mean,trim=0.34").run(
            rounds=4, eval_every=4)
        backend = resolve_backend(backend_name, 2)
        try:
            res = make_hmm(blob_fed, blob_factory, faults=plan,
                           defense="trimmed_mean,trim=0.34",
                           backend=backend).run(rounds=4, eval_every=4)
        finally:
            backend.close()
        np.testing.assert_array_equal(res.final_params, serial.final_params)


# ------------------------------------------------------ end-to-end recovery
class TestAttackAndRecovery:
    def test_sign_flip_hurts_mean_but_not_trimmed_mean(self):
        fed = make_blob_fed(num_edges=4, clients_per_edge=4, n_per_client=16,
                            seed=1)
        from repro.nn.models import make_model_factory
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)

        def final_worst(faults=None, defense=None):
            algo = HierMinimax(fed, factory, batch_size=4, eta_w=0.1,
                               eta_p=0.05, tau1=2, tau2=2, m_edges=4, seed=0,
                               faults=faults, defense=defense)
            return algo.run(rounds=60,
                            eval_every=60).history.final().record

        # One attacker per 4-client edge (client ids are global-sequential):
        # 25% byzantine overall, and within every edge cohort the trimmed
        # mean's breakdown point holds.
        plan = FaultPlan(byzantine=AttackPlan(attack="sign_flip",
                                              clients=(0, 4, 8, 12),
                                              scale=10.0))
        clean = final_worst()
        attacked = final_worst(faults=plan)
        defended = final_worst(faults=plan, defense="trimmed_mean,trim=0.3")
        assert clean.worst_accuracy - attacked.worst_accuracy > 0.1
        assert clean.worst_accuracy - defended.worst_accuracy < 0.05

    def test_defense_metrics_and_suspicion(self):
        # Four clients per edge: a cohort wide enough for the trimmed mean to
        # reject (blob_fed's 2-client cohorts have no trimming headroom).
        fed = make_blob_fed(num_edges=3, clients_per_edge=4, n_per_client=12,
                            seed=1)
        from repro.nn.models import make_model_factory
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)
        obs = Tracer(None)
        plan = FaultPlan(byzantine=AttackPlan(attack="sign_flip",
                                              clients=(0, 4, 8), scale=10.0))
        algo = make_hmm(fed, factory, faults=plan,
                        defense="trimmed_mean,trim=0.3", obs=obs)
        algo.run(rounds=5, eval_every=5)
        counters = obs.snapshot()["counters"]
        assert counters.get("byzantine_attacks_total", 0) > 0
        assert counters.get("byzantine_filtered_total", 0) > 0
        assert algo.faults.suspicion

    def test_byzantine_ledger_in_trace_report(self, tmp_path):
        fed = make_blob_fed(num_edges=3, clients_per_edge=4, n_per_client=12,
                            seed=1)
        from repro.nn.models import make_model_factory
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)
        path = tmp_path / "byz.trace.jsonl"
        plan = FaultPlan(byzantine=AttackPlan(attack="sign_flip",
                                              clients=(0, 4, 8), scale=10.0))
        with Tracer(str(path)) as obs:
            make_hmm(fed, factory, faults=plan,
                     defense="trimmed_mean,trim=0.3", obs=obs).run(
                rounds=5, eval_every=5)
        report = analyze_trace(path)
        assert report.attacks_injected > 0
        assert report.attacks_filtered > 0
        assert report.byzantine_by_round
        text = format_trace_report(report)
        assert "byzantine:" in text
        assert "attacked" in text

    def test_clean_trace_has_no_byzantine_section(self, blob_fed,
                                                  blob_factory, tmp_path):
        path = tmp_path / "clean.trace.jsonl"
        with Tracer(str(path)) as obs:
            make_hmm(blob_fed, blob_factory, obs=obs).run(rounds=2,
                                                          eval_every=2)
        report = analyze_trace(path)
        assert not report.attack_totals
        assert "byzantine:" not in format_trace_report(report)

    def test_loss_clip_damps_inflated_minimax_weights(self, blob_fed,
                                                      blob_factory):
        plan = FaultPlan(byzantine=AttackPlan(attack="loss_inflation",
                                              clients=(0, 1), scale=50.0,
                                              seed=0))

        def build(**kw):
            # m_edges=3 so phase 2 collects all three edge reports — the clip
            # needs at least three values for a meaningful median.
            return HierMinimax(blob_fed, blob_factory, batch_size=4,
                               eta_w=0.1, eta_p=0.05, tau1=2, tau2=2,
                               m_edges=3, seed=0, faults=plan, **kw)

        # One round keeps the comparison deterministic: clients 0 and 1 sit in
        # edge 0, so its inflated report yanks p[0] upward in the unclipped
        # run, while the capped report takes a strictly smaller ascent step.
        hot = build()
        hot.run(rounds=1, eval_every=1)
        damped = build(defense="edge=mean,cloud=mean,loss_clip=2.0")
        damped.run(rounds=1, eval_every=1)
        uniform = 1.0 / blob_fed.num_edges
        assert hot.p[0] - uniform > 0.1
        assert damped.p[0] < hot.p[0]
        assert damped.faults.suspicion  # loss_clipped actions were recorded


# ----------------------------------------------------- multilayer + baselines
class TestDefenseAcrossAlgorithms:
    @pytest.mark.parametrize("name", ["fedavg", "stochastic_afl", "drfa",
                                      "hierfavg", "hierminimax"])
    def test_registry_builds_with_defense_and_mean_is_identical(
            self, blob_fed, blob_factory, name):
        from repro.baselines.registry import make_algorithm

        def build(**kw):
            return make_algorithm(name, blob_fed, blob_factory, batch_size=4,
                                  eta_w=0.1, eta_p=0.05, tau1=2, tau2=2,
                                  m_edges=2, seed=0, **kw)

        base = build().run(rounds=4, eval_every=4)
        mean = build(defense="mean").run(rounds=4, eval_every=4)
        np.testing.assert_array_equal(mean.final_params, base.final_params)
        robust = build(defense="median").run(rounds=4, eval_every=4)
        assert np.all(np.isfinite(robust.final_params))

    def test_multilayer_defense_runs_and_filters(self, blob_fed, blob_factory):
        from repro.multilayer import MultiLevelHierMinimax

        obs = Tracer(None)
        plan = FaultPlan(byzantine=AttackPlan(attack="gauss", fraction=0.5,
                                              scale=50.0, seed=0))
        algo = MultiLevelHierMinimax(blob_fed, blob_factory, batch_size=4,
                                     eta_w=0.1, eta_p=0.05, seed=0,
                                     faults=plan, defense="median", obs=obs)
        res = algo.run(rounds=4, eval_every=4)
        assert np.all(np.isfinite(res.final_params))
        counters = obs.snapshot()["counters"]
        assert counters.get("byzantine_attacks_total", 0) > 0

    def test_multilayer_mean_defense_bit_identical(self, blob_fed,
                                                   blob_factory):
        from repro.multilayer import MultiLevelHierMinimax

        def build(**kw):
            return MultiLevelHierMinimax(blob_fed, blob_factory, batch_size=4,
                                         eta_w=0.1, eta_p=0.05, seed=0, **kw)

        base = build().run(rounds=4, eval_every=4)
        mean = build(defense="mean").run(rounds=4, eval_every=4)
        np.testing.assert_array_equal(mean.final_params, base.final_params)

    def test_run_experiment_threads_attack_and_defense(self, tmp_path):
        from repro.experiments.presets import fig3_preset
        from repro.experiments.runner import run_experiment

        preset = fig3_preset(scale="tiny").with_overrides(
            slots=64, eval_points=1, algorithms=("hierminimax",))
        out = run_experiment(preset, seed=0,
                             attack="sign_flip,fraction=0.3,seed=1",
                             defense="trimmed_mean,trim=0.34")
        res = out.results["hierminimax"]
        assert np.all(np.isfinite(res.final_params))
