"""Supervised execution: hung threads, bounded retries, crash/resume.

The supervision contract (``src/repro/exec``): the thread backend watches
every task for hangs (per-task ``timeout_s``) and recovers by re-executing
the task on a fresh worker thread — safe because each task is a pure function
of its descriptor, so a retried task returns bit-identical outputs.  Retries
are bounded by a :class:`~repro.faults.plan.RetryPolicy`; recovery emits
``exec_retry`` events and counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import ChaosCrash, ChaosPlan, chaos
from repro.core.hierminimax import HierMinimax
from repro.core.semiasync import SemiAsyncHierMinimax
from repro.exec import TIMEOUT_ENV, ThreadBackend, make_backend
from repro.faults import RetryPolicy
from repro.nn.models import make_model_factory
from repro.obs import Tracer
from repro.simtime import SimTimer, make_cost_model

from .conftest import make_blob_fed


@pytest.fixture(scope="module")
def fed():
    return make_blob_fed(num_edges=3, clients_per_edge=2, seed=5)


@pytest.fixture(scope="module")
def factory():
    return make_model_factory("logistic", 5, 3)


def run(fed, factory, *, backend=None, obs=None, rounds=4, seed=3):
    algo = HierMinimax(fed, factory, tau1=2, tau2=2, m_edges=2,
                       eta_w=0.05, eta_p=2e-3, batch_size=4, seed=seed,
                       backend=backend, obs=obs)
    result = algo.run(rounds=rounds, eval_every=2)
    algo.close()
    return result


def assert_identical(ref, got):
    np.testing.assert_array_equal(ref.final_params, got.final_params)
    np.testing.assert_array_equal(ref.final_weights, got.final_weights)
    assert ref.history.as_dict() == got.history.as_dict()
    assert ref.comm.total_bytes == got.comm.total_bytes


# ---------------------------------------------------------------------------
# Construction-time validation and environment plumbing
# ---------------------------------------------------------------------------
class TestConfiguration:
    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            ThreadBackend(workers=2, timeout_s=0)

    def test_rejects_non_policy_retry(self):
        with pytest.raises(TypeError):
            ThreadBackend(workers=2, retry=3)

    def test_make_backend_reads_timeout_env(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "2.5")
        backend = make_backend("thread", workers=2)
        assert backend.timeout_s == 2.5
        backend.close()
        monkeypatch.delenv(TIMEOUT_ENV)
        backend = make_backend("thread", workers=2)
        assert backend.timeout_s is None
        backend.close()


# ---------------------------------------------------------------------------
# ThreadBackend: hung tasks and retry budgets
# ---------------------------------------------------------------------------
class TestThreadSupervision:
    def test_hang_retried_bit_identically(self, fed, factory):
        ref = run(fed, factory)
        backend = ThreadBackend(workers=2, timeout_s=1.0)
        tracer = Tracer()
        try:
            with chaos(ChaosPlan(thread_hang=(1,), hang_s=3.0,
                                 seed=0)) as injector:
                got = run(fed, factory, backend=backend, obs=tracer)
        finally:
            backend.close()
        assert injector.fired_sites() == ["thread_hang"]
        assert_identical(ref, got)
        counters = tracer.snapshot()["counters"]
        assert counters.get("exec_retries_total", 0) >= 1

    def test_retry_budget_exhaustion_raises(self, fed, factory):
        backend = ThreadBackend(workers=2, timeout_s=0.2,
                                retry=RetryPolicy(max_retries=0))
        try:
            # Every occurrence hangs, so the single attempt times out and
            # the zero-retry budget is immediately exhausted.
            with chaos(ChaosPlan(thread_hang=tuple(range(64)), hang_s=2.0,
                                 seed=0)):
                with pytest.raises(RuntimeError, match="retry budget"):
                    run(fed, factory, backend=backend)
        finally:
            backend.close()


# ---------------------------------------------------------------------------
# Semi-async in-flight buffer across an injected crash
# ---------------------------------------------------------------------------
class TestSemiAsyncCrashResume:
    @pytest.mark.parametrize("backend_name", ("serial", "vectorized"))
    def test_crash_after_save_resumes_inflight(self, fed, factory, tmp_path,
                                               backend_name):
        model = make_cost_model("hetero,seed=1,device_sigma=0.5")

        def make():
            backend = (None if backend_name == "serial"
                       else make_backend(backend_name, workers=2))
            return SemiAsyncHierMinimax(
                fed, factory, batch_size=4, eta_w=0.1, eta_p=0.01,
                tau1=2, tau2=2, m_edges=2, seed=0, staleness=2,
                timing=SimTimer(model), backend=backend)

        full = make()
        ref = full.run(rounds=8, eval_every=4)
        full.close()
        path = tmp_path / f"semi-{backend_name}.ckpt.json"
        interrupted = make()
        with chaos(ChaosPlan(crash_after_save=(0,), seed=0)):
            with pytest.raises(ChaosCrash):
                interrupted.run(rounds=8, eval_every=4,
                                checkpoint_path=path, checkpoint_every=4)
        interrupted.close()
        resumed = make()
        done = resumed.load_checkpoint(path)
        assert done == 4
        result = resumed.run(rounds=8 - done, eval_every=4)
        resumed.close()
        np.testing.assert_array_equal(ref.final_params, result.final_params)
        assert result.sim_time_s == ref.sim_time_s
