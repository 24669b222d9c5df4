"""Execution-backend tests: bit-identity, RNG tokens, aliasing, resolution.

The contract under test is the one in :mod:`repro.exec.base`: for a fixed seed
every backend — serial, thread, vectorized — produces *bit-identical*
results, including under fault injection and across a checkpoint/resume cycle.
The serial backend defines the bits; the others must reproduce them exactly.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvg
from repro.core.hierminimax import HierMinimax
from repro.data.registry import make_federated_dataset
from repro.exec import (
    SERIAL_BACKEND,
    ClientWork,
    ExecutionBackend,
    SerialBackend,
    ThreadBackend,
    VectorizedBackend,
    available_backends,
    make_backend,
    resolve_backend,
    run_local_steps,
    run_local_steps_kernel,
)
from repro.faults import FaultPlan
from repro.nn.models import make_model_factory
from repro.sim.builder import build_flat_clients
from repro.utils.rng import (
    RngFactory,
    generator_from_token,
    generator_token,
    restore_generator,
)

BACKENDS = ("serial", "thread", "vectorized")


@pytest.fixture(params=BACKENDS)
def backend(request):
    """One live backend per canonical name; pools are closed after the test."""
    b = make_backend(request.param, workers=2)
    yield b
    b.close()


@pytest.fixture(scope="module")
def fed():
    """Small hierarchical dataset shared by the equivalence tests."""
    return make_federated_dataset("emnist_digits", scale="tiny", seed=11)


@pytest.fixture(scope="module")
def logistic_factory(fed):
    return make_model_factory("logistic", fed.input_dim, fed.num_classes)


@pytest.fixture(scope="module")
def mlp_factory(fed):
    return make_model_factory("mlp", fed.input_dim, fed.num_classes,
                              hidden=(12,))


# Weight decay takes its own branch of the stacked kernel's update.
@pytest.fixture(scope="module")
def logistic_l2_factory(fed):
    return make_model_factory("logistic", fed.input_dim, fed.num_classes,
                              l2=1e-3)


@pytest.fixture(scope="module")
def mlp_l2_factory(fed):
    return make_model_factory("mlp", fed.input_dim, fed.num_classes,
                              hidden=(12,), l2=1e-3)


def run_hierminimax(fed, factory, backend, *, rounds=4, faults=None,
                    checkpoint_path=None, checkpoint_every=None):
    algo = HierMinimax(fed, factory, tau1=2, tau2=2, m_edges=5,
                       eta_w=0.05, eta_p=2e-3, batch_size=8, seed=3,
                       faults=faults, backend=backend)
    result = algo.run(rounds=rounds, eval_every=2,
                      checkpoint_path=checkpoint_path,
                      checkpoint_every=checkpoint_every)
    algo.close()
    return result


def run_fedavg(fed, factory, backend, *, rounds=4, faults=None):
    algo = FedAvg(fed, factory, tau1=2, m_clients=15, eta_w=0.05,
                  batch_size=8, seed=3, faults=faults, backend=backend)
    result = algo.run(rounds=rounds, eval_every=2)
    algo.close()
    return result


def assert_results_identical(ref, got):
    """Bitwise comparison of two RunResults (params, weights, history, comm)."""
    np.testing.assert_array_equal(ref.final_params, got.final_params)
    if ref.final_weights is None:
        assert got.final_weights is None
    else:
        np.testing.assert_array_equal(ref.final_weights, got.final_weights)
    assert ref.history.as_dict() == got.history.as_dict()
    assert ref.comm.total_bytes == got.comm.total_bytes
    assert ref.rounds_run == got.rounds_run
    assert ref.slots_run == got.slots_run


# ------------------------------------------------------------ rng token utils
class TestGeneratorToken:
    def test_round_trip_continues_stream(self):
        g = np.random.default_rng(5)
        g.random(7)  # advance past the initial state
        clone = generator_from_token(generator_token(g))
        np.testing.assert_array_equal(g.random(16), clone.random(16))
        np.testing.assert_array_equal(g.integers(0, 100, 8),
                                      clone.integers(0, 100, 8))

    def test_token_survives_pickle_and_json(self):
        g = np.random.default_rng(9)
        g.integers(0, 10, 5)
        token = generator_token(g)
        for round_tripped in (pickle.loads(pickle.dumps(token)),
                              json.loads(json.dumps(token))):
            clone = generator_from_token(round_tripped)
            fresh = generator_from_token(generator_token(g))
            np.testing.assert_array_equal(fresh.random(8), clone.random(8))

    def test_restore_generator_in_place_keeps_aliases(self):
        g = np.random.default_rng(1)
        alias = g  # e.g. a sampler holding the client's generator
        snapshot = generator_token(g)
        g.random(100)
        restore_generator(g, snapshot)
        expected = generator_from_token(snapshot).random(4)
        np.testing.assert_array_equal(alias.random(4), expected)

    def test_restore_from_generator_source(self):
        src = np.random.default_rng(2)
        src.random(3)
        dst = np.random.default_rng(99)
        restore_generator(dst, src)
        np.testing.assert_array_equal(dst.random(5), src.random(5))

    def test_rejects_non_token(self):
        with pytest.raises((ValueError, KeyError, TypeError)):
            generator_from_token({"not": "a token"})


# ----------------------------------------------------- kernel/client aliasing
class TestKernelAliasing:
    def _engine_and_batches(self):
        rng = np.random.default_rng(0)
        engine = make_model_factory("logistic", 6, 3)()
        batches = [(rng.normal(size=(4, 6)), rng.integers(0, 3, 4))
                   for _ in range(3)]
        return engine, batches

    def test_kernel_copies_when_w_start_aliases_engine_params(self):
        engine, batches = self._engine_and_batches()
        w_alias = engine.params_view()  # the aliasing case the contract covers
        w_before = w_alias.copy()
        w_end, _ = run_local_steps_kernel(engine, w_alias, batches, lr=0.1)
        assert not np.array_equal(w_end, w_before)  # training moved the params
        # The returned array is a private copy, not the engine's buffer.
        assert not np.may_share_memory(w_end, engine.params_view())

    def test_kernel_does_not_mutate_caller_array(self):
        engine, batches = self._engine_and_batches()
        w_start = np.zeros(engine.params_view().size)
        w_copy = w_start.copy()
        run_local_steps_kernel(engine, w_start, batches, lr=0.1)
        np.testing.assert_array_equal(w_start, w_copy)

    def test_client_local_sgd_does_not_mutate_w_start(self, fed,
                                                      logistic_factory):
        engine = logistic_factory()
        clients = build_flat_clients(fed, batch_size=4,
                                     rng_factory=RngFactory(0))
        w_start = np.zeros(engine.params_view().size)
        w_copy = w_start.copy()
        w_end, _ = clients[0].local_sgd(engine, w_start, steps=3, lr=0.1)
        np.testing.assert_array_equal(w_start, w_copy)
        assert not np.may_share_memory(w_end, engine.params_view())


# -------------------------------------------------------- dispatch-level bits
MODELS = ("logistic_factory", "mlp_factory", "logistic_l2_factory",
          "mlp_l2_factory")


class TestDispatchEquivalence:
    def _setup(self, fed, factory):
        engine = factory()
        clients = build_flat_clients(fed, batch_size=4,
                                     rng_factory=RngFactory(21))
        w0 = np.zeros(engine.params_view().size)
        return engine, clients, w0

    def _reference(self, fed, factory, work_spec):
        engine, clients, w0 = self._setup(fed, factory)
        work = [ClientWork(clients[i], s, c) for i, s, c in work_spec]
        results = run_local_steps(SERIAL_BACKEND, engine, w0, work, lr=0.05)
        states = [c.sampler.batches_drawn for c in clients]
        return results, states

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("name", BACKENDS[1:])
    def test_matches_serial_with_checkpoints_and_duplicates(
            self, fed, name, model, request):
        """Mixed steps, mid-run checkpoints, and duplicate clients all match —
        for the convex logistic engine AND the non-convex MLP."""
        factory = request.getfixturevalue(model)
        # Client 2 appears twice (with-replacement sampling, as in DRFA/AFL).
        spec = [(0, 3, None), (1, 3, 2), (2, 2, None), (2, 3, 1), (4, 1, None)]
        ref, ref_states = self._reference(fed, factory, spec)
        engine, clients, w0 = self._setup(fed, factory)
        with make_backend(name, workers=2) as b:
            work = [ClientWork(clients[i], s, c) for i, s, c in spec]
            got = run_local_steps(b, engine, w0, work, lr=0.05)
        assert [r.client_id for r in got] == [r.client_id for r in ref]
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(r.w_end, g.w_end)
            if r.w_checkpoint is None:
                assert g.w_checkpoint is None
            else:
                np.testing.assert_array_equal(r.w_checkpoint, g.w_checkpoint)
        assert [c.sampler.batches_drawn for c in clients] == ref_states

    @pytest.mark.parametrize("model", MODELS)
    def test_vectorized_batches_every_eligible_task(self, fed, model,
                                                    request):
        """Both paper models take the batched kernel — no silent fallback.

        The tracer's ``exec_vectorized_tasks_total`` counter must equal the
        task count: a task quietly demoted to the serial fallback would pass
        the bit-identity checks at serial speed, which is exactly the
        regression the batched MLP kernel exists to prevent.
        """
        from repro.obs import Tracer

        factory = request.getfixturevalue(model)
        spec = [(0, 2, None), (1, 2, None), (3, 2, 1)]
        ref, _ = self._reference(fed, factory, spec)
        engine, clients, w0 = self._setup(fed, factory)
        tracer = Tracer(None)
        with VectorizedBackend() as b:
            work = [ClientWork(clients[i], s, c) for i, s, c in spec]
            got = run_local_steps(b, engine, w0, work, lr=0.05, obs=tracer)
        counters = tracer.snapshot()["counters"]
        tracer.close()
        assert counters["exec_vectorized_tasks_total"] == len(spec)
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(r.w_end, g.w_end)

    def test_vectorized_falls_back_for_undeclared_layer(self, fed):
        """A layer subclass without its own ``vector_kind`` is ineligible.

        Eligibility is declared per exact class, never inherited: a subclass
        may override forward/backward, so the batched kernel must not assume
        its bits.  The fallback still matches serial exactly.
        """
        from repro.nn.layers import Linear, ReLU
        from repro.nn.network import NeuralNetwork
        from repro.obs import Tracer

        class CustomReLU(ReLU):  # no vector_kind re-declaration
            pass

        def factory():
            return NeuralNetwork(
                [Linear(fed.input_dim, 12), CustomReLU(),
                 Linear(12, fed.num_classes, weight_init="xavier")],
                input_dim=fed.input_dim, rng=0)

        spec = [(0, 2, None), (1, 2, 1)]
        ref, _ = self._reference(fed, factory, spec)
        engine, clients, w0 = self._setup(fed, factory)
        tracer = Tracer(None)
        with VectorizedBackend() as b:
            work = [ClientWork(clients[i], s, c) for i, s, c in spec]
            got = run_local_steps(b, engine, w0, work, lr=0.05, obs=tracer)
        counters = tracer.snapshot()["counters"]
        tracer.close()
        assert counters["exec_vectorized_tasks_total"] == 0
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(r.w_end, g.w_end)

    def test_ragged_batches_take_their_own_group(self, fed, mlp_factory):
        """Regression: grouping keyed on only the first batch's shapes.

        Tasks whose *later* batches differ in size used to be stacked into
        one group and crash ``np.stack`` mid-kernel.  Now the group key
        carries every step's shapes, and a batch list inconsistent with the
        declared step count is demoted to the serial fallback.
        """
        from repro.exec.base import LocalStepsTask
        from repro.ops.projections import identity_projection

        engine = mlp_factory()
        rng = np.random.default_rng(7)
        dim = fed.input_dim
        w0 = np.zeros(engine.params_view().size)

        def make_task(index, sizes, steps=None):
            batches = [(rng.normal(size=(s, dim)),
                        rng.integers(0, fed.num_classes, size=s))
                       for s in sizes]
            return LocalStepsTask(
                index=index, client_id=index, steps=steps or len(sizes),
                lr=0.05, checkpoint_after=None,
                projection=identity_projection, batches=batches)

        tasks = [make_task(0, [4, 4, 4]),
                 make_task(1, [4, 4, 3]),   # ragged final batch
                 make_task(2, [4, 4, 3]),   # same ragged shape: groups with 1
                 make_task(3, [4, 4, 4]),
                 make_task(4, [4, 4], steps=3)]  # fewer batches than steps
        with VectorizedBackend() as b:
            got = b.run_tasks(engine, w0, tasks)
        for task, g in zip(tasks, got):
            w_end, _ = run_local_steps_kernel(
                engine, w0, task.batches, lr=task.lr,
                projection=task.projection, checkpoint_after=None)
            np.testing.assert_array_equal(w_end, g.w_end)

    @pytest.mark.parametrize("model", ("logistic_factory", "mlp_factory"))
    def test_random_group_compositions_match_serial(self, fed, model,
                                                    request):
        """Property-style: arbitrary dispatch compositions never change bits.

        Randomized rosters (subset, order, duplicates), step counts, and
        checkpoint positions — whatever groups the vectorized backend forms,
        every client's result must equal the serial reference.
        """
        factory = request.getfixturevalue(model)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            spec = []
            for _ in range(n):
                steps = int(rng.integers(1, 5))
                ckpt = (None if rng.random() < 0.5
                        else int(rng.integers(1, steps + 1)))
                spec.append((int(rng.integers(0, 10)), steps, ckpt))
            ref, _ = self._reference(fed, factory, spec)
            engine, clients, w0 = self._setup(fed, factory)
            with VectorizedBackend() as b:
                work = [ClientWork(clients[i], s, c) for i, s, c in spec]
                got = run_local_steps(b, engine, w0, work, lr=0.05)
            for r, g in zip(ref, got):
                np.testing.assert_array_equal(r.w_end, g.w_end, err_msg=(
                    f"seed={seed} spec={spec}"))
                if r.w_checkpoint is not None:
                    np.testing.assert_array_equal(r.w_checkpoint,
                                                  g.w_checkpoint)

    def test_batched_step_ties_to_gradcheck(self, fed, mlp_factory):
        """One batched step == the engine's analytic-gradient step, and the
        analytic gradient itself passes finite-difference gradient check —
        chaining the stacked kernel all the way to first principles."""
        from repro.exec.base import LocalStepsTask
        from repro.nn.gradcheck import gradient_check
        from repro.ops.projections import identity_projection

        engine = mlp_factory()
        engine.initialize(3)
        w0 = engine.get_params()
        rng = np.random.default_rng(11)
        X = rng.normal(size=(6, fed.input_dim))
        y = rng.integers(0, fed.num_classes, size=6)
        task = LocalStepsTask(index=0, client_id=0, steps=1, lr=0.1,
                              checkpoint_after=None,
                              projection=identity_projection,
                              batches=[(X, y)])
        with VectorizedBackend() as b:
            got = b.run_tasks(engine, w0, [task])[0]
        engine.set_params(w0)
        _, grad = engine.loss_and_gradient(X, y)
        np.testing.assert_array_equal(got.w_end, w0 - 0.1 * grad)
        assert gradient_check(engine, X, y, tol=1e-4) < 1e-4


# ------------------------------------------------- full-algorithm equivalence
class TestAlgorithmEquivalence:
    """Satellite 3: whole training runs are bit-identical across backends."""

    @pytest.fixture(scope="class")
    def hm_reference(self, fed, logistic_factory):
        return run_hierminimax(fed, logistic_factory, "serial")

    @pytest.fixture(scope="class")
    def fedavg_reference(self, fed, logistic_factory):
        return run_fedavg(fed, logistic_factory, "serial")

    @pytest.fixture(scope="class")
    def hm_mlp_reference(self, fed, mlp_factory):
        return run_hierminimax(fed, mlp_factory, "serial")

    @pytest.mark.parametrize("name", BACKENDS[1:])
    def test_hierminimax_bitwise(self, fed, logistic_factory, hm_reference,
                                 name):
        got = run_hierminimax(fed, logistic_factory, name)
        assert_results_identical(hm_reference, got)

    @pytest.mark.parametrize("name", BACKENDS[1:])
    def test_hierminimax_mlp_bitwise(self, fed, mlp_factory,
                                     hm_mlp_reference, name):
        """Whole MLP training runs are bit-identical too — the batched MLP
        kernel inherits the full determinism contract, not just the
        dispatch-level checks."""
        got = run_hierminimax(fed, mlp_factory, name)
        assert_results_identical(hm_mlp_reference, got)

    def test_mlp_checkpoint_resume_on_vectorized(self, fed, mlp_factory,
                                                 hm_mlp_reference, tmp_path):
        """A serial MLP run checkpointed mid-flight and resumed on the
        vectorized backend lands exactly on the uninterrupted serial run."""
        ckpt = tmp_path / "hm-mlp-vec.ckpt.json"
        run_hierminimax(fed, mlp_factory, "serial", rounds=2,
                        checkpoint_path=ckpt, checkpoint_every=2)
        resumed = HierMinimax(fed, mlp_factory, tau1=2, tau2=2, m_edges=5,
                              eta_w=0.05, eta_p=2e-3, batch_size=8, seed=3,
                              backend=make_backend("vectorized"))
        assert resumed.load_checkpoint(ckpt) == 2
        result = resumed.run(rounds=2, eval_every=2)
        resumed.close()
        np.testing.assert_array_equal(hm_mlp_reference.final_params,
                                      result.final_params)
        np.testing.assert_array_equal(hm_mlp_reference.final_weights,
                                      result.final_weights)

    @pytest.mark.parametrize("name", BACKENDS[1:])
    def test_fedavg_bitwise(self, fed, logistic_factory, fedavg_reference,
                            name):
        got = run_fedavg(fed, logistic_factory, name)
        assert_results_identical(fedavg_reference, got)

    @pytest.mark.parametrize("name", BACKENDS[1:])
    def test_bitwise_under_faults(self, fed, logistic_factory, name):
        """Dropouts, stragglers, and lossy links do not break the contract."""
        plan = FaultPlan(client_dropout=0.2, client_straggle=0.2,
                         msg_loss=0.1, seed=1)
        ref = run_hierminimax(fed, logistic_factory, "serial", faults=plan)
        got = run_hierminimax(fed, logistic_factory, name, faults=plan)
        assert_results_identical(ref, got)

    @pytest.mark.parametrize("name", BACKENDS[1:])
    def test_checkpoint_resume_across_backends(self, fed, logistic_factory,
                                               hm_reference, name, tmp_path):
        """A serial run checkpointed mid-flight, resumed on another backend,
        lands exactly where the uninterrupted serial run does."""
        ckpt = tmp_path / f"hm-{name}.ckpt.json"
        run_hierminimax(fed, logistic_factory, "serial", rounds=2,
                        checkpoint_path=ckpt, checkpoint_every=2)
        resumed = HierMinimax(fed, logistic_factory, tau1=2, tau2=2, m_edges=5,
                              eta_w=0.05, eta_p=2e-3, batch_size=8, seed=3,
                              backend=make_backend(name, workers=2))
        assert resumed.load_checkpoint(ckpt) == 2
        result = resumed.run(rounds=2, eval_every=2)
        resumed.close()
        np.testing.assert_array_equal(hm_reference.final_params,
                                      result.final_params)
        np.testing.assert_array_equal(hm_reference.final_weights,
                                      result.final_weights)
        assert (hm_reference.history.final().record.per_edge_accuracy
                == result.history.final().record.per_edge_accuracy).all()


# --------------------------------------------------------- backend resolution
class TestResolveBackend:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_backend(None) is SERIAL_BACKEND

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        b = resolve_backend(None)
        try:
            assert isinstance(b, ThreadBackend)
            assert b.workers == 3
        finally:
            b.close()

    def test_instance_passthrough(self):
        b = SerialBackend()
        assert resolve_backend(b, workers=7) is b

    @pytest.mark.parametrize("alias,cls", [
        ("threads", ThreadBackend), ("vec", VectorizedBackend),
        ("sync", SerialBackend)])
    def test_aliases(self, alias, cls):
        b = make_backend(alias)
        try:
            assert isinstance(b, cls)
        finally:
            b.close()

    def test_unknown_name_raises(self):
        for name in ("gpu", "process", "mp"):
            with pytest.raises(ValueError, match="unknown execution backend"):
                make_backend(name)

    def test_available_backends_all_construct(self):
        for name in available_backends():
            b = make_backend(name, workers=2)
            assert isinstance(b, ExecutionBackend)
            assert b.name == name
            b.close()

    def test_context_manager_closes(self):
        with ThreadBackend(workers=2) as b:
            assert isinstance(b, ThreadBackend)
        # Closing twice is harmless.
        b.close()
