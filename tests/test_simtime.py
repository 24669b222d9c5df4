"""Simulated-time subsystem: cost models, the virtual clock, and integration.

The load-bearing guarantees:

* cost draws are pure functions of ``(seed, entity)`` — order-independent and
  identical across processes, which makes makespans deterministic across all
  three execution backends and across checkpoint/resume;
* with the default :class:`NullCostModel`, every algorithm's history is
  bit-identical to a run without any ``timing=`` at all;
* the semi-asynchronous variant with ``staleness=0`` reproduces the
  synchronous trajectory *and* makespan exactly, and under a heterogeneous
  cost model with a persistent straggler it reaches the end of training in
  strictly less simulated time;
* nothing under :mod:`repro.simtime` or :mod:`repro.sim` ever consults a wall
  clock (lint test) — the virtual clock must be replayable.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.baselines.registry import ALGORITHMS, make_algorithm
from repro.core.hierminimax import HierMinimax
from repro.core.semiasync import SemiAsyncHierMinimax
from repro.exec import resolve_backend
from repro.faults import FaultPlan
from repro.metrics.history import TrainingHistory
from repro.simtime import (
    HeterogeneousCostModel,
    NULL_TIMING,
    NullCostModel,
    SimTimer,
    make_cost_model,
    resolve_timing,
)

from .conftest import make_blob_fed

COST_SPEC = "hetero,seed=1,device_sigma=0.5,slow_clients=0,slow_factor=10"


def _histories_equal(a: TrainingHistory, b: TrainingHistory) -> bool:
    if len(a.points) != len(b.points):
        return False
    for pa, pb in zip(a.points, b.points):
        if pa.round_index != pb.round_index:
            return False
        if not np.array_equal(pa.record.per_edge_accuracy,
                              pb.record.per_edge_accuracy):
            return False
        if not np.array_equal(pa.record.per_edge_loss,
                              pb.record.per_edge_loss):
            return False
    return True


class TestCostModels:
    def test_same_seed_same_prices(self):
        a = HeterogeneousCostModel(seed=3, device_sigma=0.7, link_sigma=0.2)
        b = HeterogeneousCostModel(seed=3, device_sigma=0.7, link_sigma=0.2)
        for cid in range(8):
            assert a.compute_s(cid, 5) == b.compute_s(cid, 5)
            assert a.transfer_s("client_edge", cid, 100) == \
                b.transfer_s("client_edge", cid, 100)

    def test_order_independent_draws(self):
        """Querying entities in different orders must not change any price."""
        fwd = HeterogeneousCostModel(seed=5, device_sigma=0.6)
        rev = HeterogeneousCostModel(seed=5, device_sigma=0.6)
        ids = list(range(10))
        fwd_prices = [fwd.compute_s(c, 1) for c in ids]
        rev_prices = [rev.compute_s(c, 1) for c in reversed(ids)][::-1]
        assert fwd_prices == rev_prices

    def test_different_seed_different_prices(self):
        a = HeterogeneousCostModel(seed=1, device_sigma=0.5)
        b = HeterogeneousCostModel(seed=2, device_sigma=0.5)
        assert any(a.compute_s(c, 1) != b.compute_s(c, 1) for c in range(8))

    def test_slow_clients_are_slowed(self):
        model = HeterogeneousCostModel(seed=0, device_sigma=0.0,
                                       slow_clients=(3,), slow_factor=10.0)
        assert model.compute_s(3, 1) == 10.0 * model.compute_s(4, 1)

    def test_transfer_pricing(self):
        model = HeterogeneousCostModel(
            seed=0, latency_s={"client_edge": 0.01},
            mbps={"client_edge": 8.0})  # 8 Mbit/s = 1e6 bytes/s
        # 1000 floats = 8000 bytes -> 8 ms on the wire + 10 ms latency.
        assert model.transfer_s("client_edge", 0, 1000) == \
            pytest.approx(0.01 + 0.008)

    def test_unknown_link_uses_default(self):
        model = HeterogeneousCostModel(seed=0)
        assert model.transfer_s("level_7", 0, 10) == \
            model.transfer_s("level_9", 0, 10)

    def test_scale_multiplies_compute(self):
        model = HeterogeneousCostModel(seed=0, device_sigma=0.3)
        assert model.compute_s(1, 4, scale=2.5) == \
            pytest.approx(2.5 * model.compute_s(1, 4))

    def test_parse_round_trip(self):
        model = make_cost_model(
            "hetero,seed=9,slow_clients=0|7,slow_factor=4,"
            "latency.edge_cloud=0.1,mbps.edge_cloud=10")
        assert isinstance(model, HeterogeneousCostModel)
        assert model.seed == 9
        assert model.slow_clients == frozenset({0, 7})
        assert model.latency_s["edge_cloud"] == 0.1
        assert model.mbps["edge_cloud"] == 10.0

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown cost-model"):
            make_cost_model("hetero,warp_speed=1")

    def test_null_specs(self):
        assert make_cost_model(None).is_null
        assert make_cost_model("null").is_null
        assert make_cost_model("none").is_null
        assert resolve_timing("null") is NULL_TIMING
        assert resolve_timing(None) is NULL_TIMING

    def test_validation(self):
        with pytest.raises(ValueError):
            HeterogeneousCostModel(base_step_s=0.0)
        with pytest.raises(ValueError):
            HeterogeneousCostModel(slow_fraction=1.5)
        with pytest.raises(ValueError):
            HeterogeneousCostModel(slow_factor=0.5)


class _UnitCost(NullCostModel):
    """1 s per compute step, 2 s per transfer, 0.5 s per probe — for exact
    arithmetic assertions on the timeline."""

    is_null = False

    def compute_s(self, entity, steps, *, scale=1.0):
        return float(steps) * scale

    def transfer_s(self, link, entity, floats):
        return 2.0

    def probe_s(self, entity):
        return 0.5


class TestSimTimer:
    def test_serial_sums(self):
        t = SimTimer(_UnitCost())
        with t.round(0):
            t.compute(0, 3)
            t.transfer("client_edge", 0, 10)
        assert t.elapsed_s == 5.0
        assert t.last_round_s == 5.0

    def test_parallel_takes_max(self):
        t = SimTimer(_UnitCost())
        with t.round(0):
            with t.parallel():
                with t.branch():
                    t.compute(0, 2)
                with t.branch():
                    t.compute(1, 7)
        assert t.elapsed_s == 7.0

    def test_nested_parallel(self):
        t = SimTimer(_UnitCost())
        with t.round(0):
            with t.parallel():
                with t.branch():          # 2 (transfer) + max(3, 1) = 5
                    t.transfer("l", 0, 1)
                    with t.parallel():
                        with t.branch():
                            t.compute(0, 3)
                        with t.branch():
                            t.compute(1, 1)
                with t.branch():          # 4
                    t.compute(2, 4)
        assert t.elapsed_s == 5.0

    def test_measure_is_isolated(self):
        t = SimTimer(_UnitCost())
        with t.round(0):
            with t.measure() as leg:
                t.compute(0, 6)
            t.compute(1, 1)
        assert leg.duration == 6.0
        assert t.elapsed_s == 1.0  # measured work was not charged

    def test_advance_charges_explicit_duration(self):
        t = SimTimer(_UnitCost())
        with t.round(0):
            t.advance(2.5)
            t.advance(0.0)
            t.advance(-1.0)  # non-positive waits are ignored
        assert t.elapsed_s == 2.5

    def test_now_includes_open_scopes(self):
        t = SimTimer(_UnitCost())
        t.advance(1.0)  # no open scope: straight onto the clock
        with t.round(0):
            t.compute(0, 2)
            assert t.now == 3.0

    def test_wait_until(self):
        t = SimTimer(_UnitCost())
        t.advance(1.0)
        t.wait_until(4.0)
        assert t.elapsed_s == 4.0
        t.wait_until(2.0)  # in the past: no-op
        assert t.elapsed_s == 4.0

    def test_negative_duration_rejected(self):
        class Broken(_UnitCost):
            def compute_s(self, entity, steps, *, scale=1.0):
                return -1.0

        t = SimTimer(Broken())
        with pytest.raises(ValueError, match="nonnegative"):
            t.compute(0, 1)

    def test_null_timing_is_inert(self):
        with NULL_TIMING.round(0):
            NULL_TIMING.compute(0, 100)
            NULL_TIMING.transfer("client_edge", 0, 1e6)
            NULL_TIMING.probe(0)
            NULL_TIMING.advance(10.0)
            NULL_TIMING.wait_until(99.0)
        assert NULL_TIMING.elapsed_s == 0.0
        assert NULL_TIMING.now == 0.0
        assert not NULL_TIMING.enabled


def _run(algo_name, fed, factory, *, timing=None, backend=None, rounds=6,
         faults=None, **kwargs):
    algo = make_algorithm(algo_name, fed, factory, batch_size=4, eta_w=0.1,
                          eta_p=0.01, tau1=2, tau2=2, m_edges=2, seed=0,
                          timing=timing, backend=backend, faults=faults,
                          **kwargs)
    return algo.run(rounds=rounds, eval_every=3)


class TestAlgorithmIntegration:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_null_cost_model_is_bit_identical(self, blob_fed, blob_factory,
                                              name):
        """timing=None and an explicit null timer give the same history."""
        bare = _run(name, blob_fed, blob_factory, timing=None)
        nulled = _run(name, blob_fed, blob_factory,
                      timing=resolve_timing("null"))
        np.testing.assert_array_equal(bare.final_params, nulled.final_params)
        assert _histories_equal(bare.history, nulled.history)
        assert nulled.sim_time_s == 0.0
        assert all(p.sim_time_s == 0.0 for p in nulled.history.points)

    # The semi-async variant is the one algorithm whose *numerics* react to
    # the cost model (arrival times decide which updates each merge sees);
    # every synchronous algorithm must treat the clock as observational.
    @pytest.mark.parametrize(
        "name", sorted(set(ALGORITHMS) - {"semiasync_hierminimax"}))
    def test_cost_model_does_not_change_numerics(self, blob_fed, blob_factory,
                                                 name):
        """The virtual clock is observational: trajectories are unchanged."""
        bare = _run(name, blob_fed, blob_factory, timing=None)
        timed = _run(name, blob_fed, blob_factory,
                     timing=SimTimer(make_cost_model(COST_SPEC)))
        np.testing.assert_array_equal(bare.final_params, timed.final_params)
        assert _histories_equal(bare.history, timed.history)
        assert timed.sim_time_s > 0.0

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_makespan_identical_across_backends(self, blob_fed, blob_factory,
                                                name):
        model = make_cost_model(COST_SPEC)
        spans = {}
        for backend_name in ("serial", "thread", "vectorized"):
            backend = resolve_backend(backend_name, 2)
            try:
                res = _run(name, blob_fed, blob_factory,
                           timing=SimTimer(model), backend=backend)
            finally:
                backend.close()
            spans[backend_name] = res.sim_time_s
        assert len(set(spans.values())) == 1, spans
        assert spans["serial"] > 0.0

    def test_sim_time_monotone_on_history(self, blob_fed, blob_factory):
        res = _run("hierminimax", blob_fed, blob_factory,
                   timing=SimTimer(make_cost_model(COST_SPEC)))
        times = [p.sim_time_s for p in res.history.points]
        assert times == sorted(times)
        assert times[-1] == res.sim_time_s

    def test_straggler_charged_at_slowdown_pace(self):
        """A straggler's truncated update occupies its device for
        ``steps x slowdown`` seconds, not the bare truncated step count."""
        from repro.faults import FaultInjector
        from repro.nn.models import logistic_regression
        from repro.sim.client import Client
        from repro.sim.edge import EdgeServer
        from tests.conftest import make_blob_dataset

        shard = make_blob_dataset(6, 3, 4, seed=0)
        edge = EdgeServer(0, [Client(0, shard, 4,
                                     np.random.default_rng(0))])
        engine = logistic_regression(4, 3, rng=0)
        injector = FaultInjector(FaultPlan(client_straggle=1.0,
                                           straggler_slowdown=3.0, seed=0))
        timing = SimTimer(_UnitCost())
        # tau1=4 at 3x slowdown -> the straggler finishes int(4/3)=1 step,
        # charged at 1 x 3 = 3 s of device time (vs 4 s healthy, 1 s unscaled).
        with timing.round(0):
            edge.model_update(engine, engine.get_params(), tau1=4, tau2=1,
                              lr=0.1, faults=injector, round_index=0,
                              timing=timing)
        # down transfer (2 s) + 3 s compute + up transfer (2 s) = 7 s.
        assert timing.elapsed_s == 7.0

    def test_checkpoint_resume_preserves_clock(self, blob_fed, blob_factory,
                                               tmp_path):
        model = make_cost_model(COST_SPEC)

        def make(cls=HierMinimax, **kw):
            return cls(blob_fed, blob_factory, batch_size=4, eta_w=0.1,
                       eta_p=0.01, tau1=2, tau2=2, m_edges=2, seed=0,
                       timing=SimTimer(model), **kw)

        full = make().run(rounds=6, eval_every=3)
        ckpt = tmp_path / "t.ckpt.json"
        make().run(rounds=3, eval_every=3, checkpoint_path=ckpt,
                   checkpoint_every=3)
        resumed = make()
        assert resumed.load_checkpoint(ckpt) == 3
        res = resumed.run(rounds=3, eval_every=3)
        np.testing.assert_array_equal(full.final_params, res.final_params)
        assert res.sim_time_s == full.sim_time_s


class TestSemiAsync:
    def test_registered(self):
        assert "semiasync_hierminimax" in ALGORITHMS

    def test_staleness_validation(self, blob_fed, blob_factory):
        with pytest.raises(ValueError, match="staleness"):
            SemiAsyncHierMinimax(blob_fed, blob_factory, batch_size=4,
                                 eta_w=0.1, eta_p=0.01, tau1=2, tau2=2,
                                 m_edges=2, seed=0, staleness=-1)

    @pytest.mark.parametrize("staleness", [0, 1, 3])
    def test_null_timing_matches_sync(self, blob_fed, blob_factory,
                                      staleness):
        """Without a cost model every arrival is instantaneous, so any
        staleness bound behaves exactly like the synchronous algorithm."""
        sync = _run("hierminimax", blob_fed, blob_factory)
        semi = _run("semiasync_hierminimax", blob_fed, blob_factory,
                    staleness=staleness)
        np.testing.assert_array_equal(sync.final_params, semi.final_params)
        np.testing.assert_array_equal(sync.final_weights, semi.final_weights)
        assert _histories_equal(sync.history, semi.history)

    def test_staleness_zero_reproduces_sync_exactly(self, blob_fed,
                                                    blob_factory):
        """S=0 forces every round's own cohort: same trajectory, same clock."""
        timing_a = SimTimer(make_cost_model(COST_SPEC))
        timing_b = SimTimer(make_cost_model(COST_SPEC))
        sync = _run("hierminimax", blob_fed, blob_factory, timing=timing_a)
        semi = _run("semiasync_hierminimax", blob_fed, blob_factory,
                    timing=timing_b, staleness=0)
        np.testing.assert_array_equal(sync.final_params, semi.final_params)
        assert semi.sim_time_s == sync.sim_time_s

    def test_bounded_staleness_beats_sync_under_straggler(self):
        """A persistent 10x straggler stalls every synchronous round but only
        a bounded fraction of semi-async merges."""
        fed = make_blob_fed(num_edges=4, clients_per_edge=2)
        from repro.nn.models import make_model_factory
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)
        spec = "hetero,seed=1,device_sigma=0.3,slow_clients=0,slow_factor=10"
        sync = _run("hierminimax", fed, factory,
                    timing=SimTimer(make_cost_model(spec)), rounds=12)
        semi = _run("semiasync_hierminimax", fed, factory,
                    timing=SimTimer(make_cost_model(spec)), rounds=12,
                    staleness=1)
        assert semi.sim_time_s < sync.sim_time_s

    def test_checkpoint_resume_with_inflight(self, blob_fed, blob_factory,
                                             tmp_path):
        """The in-flight buffer survives checkpoint/resume bit-exactly."""
        model = make_cost_model(COST_SPEC)

        def make():
            return SemiAsyncHierMinimax(
                blob_fed, blob_factory, batch_size=4, eta_w=0.1, eta_p=0.01,
                tau1=2, tau2=2, m_edges=2, seed=0, staleness=2,
                timing=SimTimer(model))

        full = make().run(rounds=8, eval_every=4)
        ckpt = tmp_path / "semi.ckpt.json"
        make().run(rounds=4, eval_every=4, checkpoint_path=ckpt,
                   checkpoint_every=4)
        resumed = make()
        assert resumed.load_checkpoint(ckpt) == 4
        res = resumed.run(rounds=4, eval_every=4)
        np.testing.assert_array_equal(full.final_params, res.final_params)
        assert res.sim_time_s == full.sim_time_s


class TestNoWallClock:
    """The simulated clock must be replayable: no wall-clock reads allowed.

    AST-based so prose in docstrings does not trip it — only actual calls
    (or imports of the ``time`` module at all) count.
    """

    FORBIDDEN_ATTRS = {"time", "perf_counter", "monotonic", "now",
                       "process_time", "time_ns", "perf_counter_ns"}
    FORBIDDEN_MODULES = {"time", "datetime"}

    @pytest.mark.parametrize("package", ["simtime", "sim"])
    def test_no_wall_clock_calls(self, package):
        import ast

        root = Path(__file__).resolve().parent.parent / "src/repro" / package
        assert root.is_dir(), root
        offenders = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.name.split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [(node.module or "").split(".")[0]]
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in self.FORBIDDEN_ATTRS
                      and isinstance(node.func.value, ast.Name)
                      and node.func.value.id in ("time", "datetime")):
                    offenders.append(f"{path.name}:{node.lineno}: "
                                     f"{node.func.value.id}.{node.func.attr}()")
                    continue
                else:
                    continue
                for name in names:
                    if name in self.FORBIDDEN_MODULES:
                        offenders.append(
                            f"{path.name}:{node.lineno}: imports {name}")
        assert not offenders, "\n".join(offenders)
