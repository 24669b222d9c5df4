"""Runtime invariant monitoring: tripwire checks over a live training run.

Contracts (``src/repro/invariants.py``): the monitor is off by default, costs
nothing when off, and is bit-identical when on (pure reads only); violations
are recorded with structured diagnostics, emitted as ``invariant`` trace
events, surfaced by ``trace-report``, and upgraded to exceptions only under
``strict=True``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.hierminimax import HierMinimax
from repro.invariants import (
    DEFAULT_CHECKS,
    InvariantMonitor,
    InvariantViolationError,
)
from repro.nn.models import make_model_factory
from repro.obs import NullTracer, Tracer, analyze_trace, format_trace_report

from .conftest import make_blob_fed


@pytest.fixture(scope="module")
def fed():
    return make_blob_fed(num_edges=3, clients_per_edge=2, seed=5)


@pytest.fixture(scope="module")
def factory():
    return make_model_factory("logistic", 5, 3)


def run(fed, factory, *, obs=None, rounds=4):
    algo = HierMinimax(fed, factory, tau1=2, tau2=2, m_edges=2,
                       eta_w=0.05, eta_p=2e-3, batch_size=4, seed=3, obs=obs)
    result = algo.run(rounds=rounds, eval_every=2)
    algo.close()
    return result


# ---------------------------------------------------------------------------
# Wiring: off by default, attached through the tracer, bit-identical when on
# ---------------------------------------------------------------------------
class TestWiring:
    def test_off_by_default(self):
        assert NullTracer().invariants is None
        assert Tracer().invariants is None

    def test_tracer_true_builds_default_monitor(self):
        tracer = Tracer(invariants=True)
        assert isinstance(tracer.invariants, InvariantMonitor)
        custom = InvariantMonitor(checks=("finite_model",))
        assert Tracer(invariants=custom).invariants is custom

    def test_monitored_run_is_bit_identical_and_clean(self, fed, factory):
        ref = run(fed, factory)
        tracer = Tracer(invariants=True)
        got = run(fed, factory, obs=tracer)
        np.testing.assert_array_equal(ref.final_params, got.final_params)
        np.testing.assert_array_equal(ref.final_weights, got.final_weights)
        assert ref.history.as_dict() == got.history.as_dict()
        monitor = tracer.invariants
        assert monitor.ok and monitor.violations == []
        assert monitor.rounds_checked == 4
        counters = tracer.snapshot()["counters"]
        assert counters["invariant_checks_total"] == 4
        assert "invariant_violations_total" not in counters


# ---------------------------------------------------------------------------
# The checks themselves, against rigged algorithm state
# ---------------------------------------------------------------------------
def _healthy_stub():
    """Minimal duck-typed algorithm satisfying every default check."""
    history = SimpleNamespace(final=lambda: None, __len__=lambda self: 0)
    snapshot = SimpleNamespace(cycles={}, messages={}, floats={})
    return SimpleNamespace(
        w=np.zeros(4),
        _history=None,
        current_weights=lambda: np.full(4, 0.25),
        tracker=SimpleNamespace(snapshot=lambda: snapshot),
        membership=SimpleNamespace(enabled=False),
        obs=SimpleNamespace(metrics=None),
    )


class TestChecks:
    def test_finite_model_violation(self):
        algo = _healthy_stub()
        algo.w = np.array([1.0, np.nan, 2.0])
        monitor = InvariantMonitor()
        found = monitor.check_round(algo, 0)
        assert [v.check for v in found] == ["finite_model"]
        assert "non-finite" in found[0].message
        assert not monitor.ok

    def test_simplex_violations(self):
        monitor = InvariantMonitor(checks=("simplex_weights",))
        algo = _healthy_stub()
        algo.current_weights = lambda: np.array([0.7, 0.6])  # sums to 1.3
        assert monitor.check_round(algo, 0)[0].check == "simplex_weights"
        algo.current_weights = lambda: np.array([-0.2, 1.2])  # negative mass
        assert "below simplex" in monitor.check_round(algo, 1)[0].message
        algo.current_weights = lambda: None  # minimization algorithms skip
        assert monitor.check_round(algo, 2) == []

    def test_comm_balance_catches_backwards_ledger(self):
        monitor = InvariantMonitor(checks=("comm_balance",))
        algo = _healthy_stub()
        ticks = [SimpleNamespace(cycles={"up": 5}, messages={}, floats={}),
                 SimpleNamespace(cycles={"up": 3}, messages={}, floats={})]
        algo.tracker = SimpleNamespace(snapshot=lambda: ticks.pop(0))
        assert monitor.check_round(algo, 0) == []  # baseline
        found = monitor.check_round(algo, 1)
        assert found and "went backwards" in found[0].message

    def test_strict_mode_raises(self):
        algo = _healthy_stub()
        algo.w = np.array([np.inf])
        monitor = InvariantMonitor(strict=True)
        with pytest.raises(InvariantViolationError, match="finite_model"):
            monitor.check_round(algo, 0)

    def test_unknown_check_and_duplicate_register_rejected(self):
        with pytest.raises(ValueError, match="unknown invariant check"):
            InvariantMonitor(checks=("no_such_check",))
        monitor = InvariantMonitor()
        with pytest.raises(ValueError, match="already registered"):
            monitor.register("finite_model", lambda a, k: None)

    def test_custom_check_runs(self):
        monitor = InvariantMonitor(checks=())
        monitor.register("always_fails", lambda a, k: f"boom at {k}")
        found = monitor.check_round(_healthy_stub(), 7)
        assert found[0].check == "always_fails"
        assert found[0].round_index == 7
        assert set(DEFAULT_CHECKS) >= {"finite_model", "simplex_weights"}


# ---------------------------------------------------------------------------
# trace-report surfacing
# ---------------------------------------------------------------------------
class TestReportIntegration:
    def test_violations_and_recoveries_appear_in_report(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(str(path)) as tracer:
            tracer.event("invariant", check="simplex_weights", round=3,
                         message="mixing weights sum to 1.3")
            tracer.event("invariant", check="finite_model", round=4,
                         message="model w has 1 non-finite coordinate(s)")
            tracer.event("exec_retry", backend="thread", client=7,
                         attempt=1, reason="timeout")
            tracer.event("checkpoint_fallback", requested="run.ckpt.json",
                         used="run.ckpt.json.prev", round=4, reason="torn")
            tracer.event("chaos", site="thread_hang", occurrence=1)
        report = analyze_trace(path)
        assert report.invariant_violations == 2
        assert report.invariant_totals == {"simplex_weights": 1,
                                           "finite_model": 1}
        assert (3, "simplex_weights",
                "mixing weights sum to 1.3") in report.invariant_records
        assert report.resilience_totals == {"exec_retry": 1,
                                            "checkpoint_fallback": 1,
                                            "chaos": 1}
        assert report.recovery_actions == 2  # injected chaos doesn't count
        text = format_trace_report(report)
        assert "invariants:" in text and "simplex_weights" in text
        assert "resilience:" in text and "checkpoint_fallback" in text

    def test_clean_trace_has_no_ledger_sections(self, fed, factory, tmp_path):
        path = tmp_path / "clean.jsonl"
        run(fed, factory, obs=Tracer(str(path), invariants=True))
        report = analyze_trace(path)
        assert report.invariant_violations == 0
        assert report.recovery_actions == 0
        assert "invariants:" not in format_trace_report(report)
