"""Experiment runner: preset → datasets → algorithms → paired results.

:func:`run_experiment` executes every algorithm of a preset on the *same*
federated dataset with the same slot budget and returns their
:class:`~repro.core.base.RunResult` objects keyed by algorithm name.  The runner is
what the figures, the tables, ``benchmarks/e2e`` and ``bench_substrate.py``
run through; the CLI demos, the examples and the other benches build their
algorithms directly.

Pass ``obs=Tracer(...)`` to collect per-phase wall-clock attribution, a metrics
snapshot, and (with a :class:`~repro.obs.TraceWriter`) a JSONL run record — all
exposed on the returned :class:`ExperimentOutput`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.baselines.registry import make_algorithm
from repro.core.base import RunResult
from repro.faults import FaultPlan
from repro.data.dataset import FederatedDataset
from repro.data.registry import make_federated_dataset
from repro.exec import ExecutionBackend, resolve_backend
from repro.experiments.presets import ExperimentPreset
from repro.nn.models import ModelFactory, make_model_factory
from repro.obs import NULL_TRACER
from repro.utils.timers import TimerBank

__all__ = ["ExperimentOutput", "build_preset_dataset", "build_preset_model", "run_experiment"]


@dataclass(frozen=True)
class ExperimentOutput:
    """All results of one preset execution.

    Attributes
    ----------
    preset / results:
        The configuration and the per-algorithm :class:`RunResult` objects.
    timings:
        Algorithm → total training wall-clock seconds (one number per run).
    phase_times:
        Algorithm → span name → accumulated seconds, from the ``obs`` tracer
        (``phase1_model_update``, ``phase2_weight_update``, ``evaluate``,
        ``edge_block``, …).  Empty when no tracer was supplied — this is what
        lets benchmarks report per-phase attribution instead of a single
        wall-clock number.
    metrics:
        The tracer's final metrics snapshot (counters / gauges / histograms);
        empty without a tracer.
    setup_times:
        Non-training phases of the experiment itself (``data_gen``).
    sim_times:
        Algorithm → total *simulated* seconds (the virtual-clock makespan of
        the whole run, from the ``cost_model``).  All zeros when no cost
        model was supplied.
    """

    preset: ExperimentPreset
    results: Mapping[str, RunResult]
    timings: Mapping[str, float]
    phase_times: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    metrics: Mapping[str, Any] = field(default_factory=dict)
    setup_times: Mapping[str, float] = field(default_factory=dict)
    sim_times: Mapping[str, float] = field(default_factory=dict)

    def histories(self) -> dict[str, "object"]:
        """Algorithm → :class:`~repro.metrics.history.TrainingHistory`."""
        return {name: res.history for name, res in self.results.items()}


def build_preset_dataset(preset: ExperimentPreset, *, seed: int = 0,
                         ) -> FederatedDataset:
    """Materialize the preset's federated dataset."""
    return make_federated_dataset(
        preset.dataset, seed=seed, scale=preset.scale,
        num_edges=preset.num_edges, clients_per_edge=preset.clients_per_edge,
        partition=preset.partition, similarity=preset.similarity)


def build_preset_model(preset: ExperimentPreset,
                       dataset: FederatedDataset) -> ModelFactory:
    """Model factory matching the preset (logistic or MLP)."""
    return make_model_factory(preset.model, dataset.input_dim, dataset.num_classes,
                              hidden=preset.hidden)


def run_experiment(preset: ExperimentPreset, *, seed: int = 0,
                   algorithms: tuple[str, ...] | None = None,
                   logger=None, obs=None, faults=None,
                   attack=None, defense=None,
                   checkpoint_dir=None, checkpoint_every: int | None = None,
                   resume: bool = False,
                   backend=None, workers: int | None = None,
                   cost_model=None, churn=None,
                   population=None) -> ExperimentOutput:
    """Run every algorithm of ``preset`` on a shared dataset; return paired results.

    Parameters
    ----------
    seed:
        Root seed used for the dataset *and* every algorithm (paired comparison).
    algorithms:
        Optional roster override (default: ``preset.algorithms``).
    logger:
        Optional structured-event callback forwarded to each algorithm.
    obs:
        Optional :class:`~repro.obs.Tracer` shared by the runner (``data_gen``
        span) and every algorithm; per-algorithm span-time deltas land in
        :attr:`ExperimentOutput.phase_times`.
    faults:
        Optional :class:`~repro.faults.FaultPlan` forwarded to every
        algorithm.  Each algorithm gets its *own* injector (bound to ``obs``),
        so fault decisions stay a pure function of ``(plan.seed, round,
        entity)`` and are identical across the roster.
    attack:
        Optional Byzantine attack: an
        :class:`~repro.defense.AttackPlan` or a spec string for
        :meth:`AttackPlan.parse` (``"sign_flip,fraction=0.2"``).  Merged into
        the fault plan (creating a fresh one when ``faults`` is ``None``);
        each algorithm resolves a ``label_flip`` attack from that plan by
        flipping the byzantine clients' training shards.
    defense:
        Optional countermeasure policy — a
        :class:`~repro.defense.DefensePolicy`, aggregator name, or spec
        string for :func:`~repro.defense.resolve_defense` — forwarded to
        every algorithm of the roster.
    checkpoint_dir / checkpoint_every:
        When both are set, each algorithm writes
        ``<checkpoint_dir>/<name>.ckpt.json`` every ``checkpoint_every``
        rounds (atomic writes; see :mod:`repro.faults.checkpoint`).
    resume:
        Restore each algorithm from its checkpoint file before running, when
        one exists — the run then completes only the remaining rounds and its
        history is bit-identical to an uninterrupted run.
    backend / workers:
        Execution backend for client local training, shared by every
        algorithm of the roster: an
        :class:`~repro.exec.ExecutionBackend` instance (caller owns its
        lifecycle), a name (``serial``/``thread``/``vectorized``
        — the runner closes the pool it creates when done), or ``None``
        (``REPRO_BACKEND`` environment variable, default serial).  Results
        are bit-identical for every choice (see :mod:`repro.exec`).
    cost_model:
        Optional simulated-time pricing — a
        :class:`~repro.simtime.CostModel` or a spec string for
        :func:`~repro.simtime.make_cost_model` (``"hetero,seed=1,..."``),
        forwarded to every algorithm as ``timing=``.  Each algorithm builds a
        *fresh* :class:`~repro.simtime.SimTimer` from it, so makespans are
        directly comparable across the roster; totals land in
        :attr:`ExperimentOutput.sim_times` and per-evaluation clocks on each
        history point's ``sim_time_s``.  Numerical trajectories are
        unaffected (the clock is purely observational).  A malformed spec
        string raises when the first algorithm is built, after data
        generation.
    churn:
        Optional dynamic-membership plan — a
        :class:`~repro.membership.ChurnPlan` or a spec string for
        :meth:`ChurnPlan.parse` (``"arrive=0.05,depart=0.02,edge_mttf=40"``).
        Each algorithm gets a *fresh*
        :class:`~repro.membership.MembershipManager` so churn decisions stay
        a pure function of ``(plan.seed, round, entity)`` and are identical
        across the roster.  As for ``cost_model``, a malformed spec string
        raises when the first algorithm is built.
    population:
        Optional virtual population replacing the preset's materialized
        dataset: a :class:`~repro.population.PopulationSpec` or a spec string
        for :meth:`PopulationSpec.parse`
        (``"clients=1000000,edges=1000,samples=2"``).  The preset's data
        knobs (``dataset``/``scale``/``partition``) are ignored; its
        algorithm roster, slot budget, and hyperparameters still apply.
        Each algorithm builds its *own* fresh
        :class:`~repro.population.VirtualPopulation` over the shared spec, so
        cohort derivations stay pure functions of ``(spec.seed, client_id)``
        and runs remain paired.  Incompatible with ``label_flip`` attacks
        (data poisoning needs a materialized dataset): the first algorithm
        built raises :class:`ValueError`.
    """
    obs = obs if obs is not None else NULL_TRACER
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")
    if faults is not None and not isinstance(faults, FaultPlan):
        raise TypeError("run_experiment takes a FaultPlan (each algorithm "
                        f"builds its own injector), got {type(faults).__name__}")
    if attack is not None:
        from repro.defense.attacks import AttackPlan

        plan = AttackPlan.parse(attack) if isinstance(attack, str) else attack
        if not isinstance(plan, AttackPlan):
            raise TypeError("attack must be an AttackPlan or a spec string, "
                            f"got {type(attack).__name__}")
        if not plan.is_null:
            faults = replace(faults if faults is not None else FaultPlan(),
                             byzantine=plan)
    if population is not None and isinstance(population, str):
        from repro.population import PopulationSpec

        population = PopulationSpec.parse(population)
    owns_backend = not isinstance(backend, ExecutionBackend)
    backend = resolve_backend(backend, workers)
    setup = TimerBank()
    with setup("data_gen"), obs.span("data_gen", dataset=preset.dataset,
                                     scale=preset.scale, seed=seed):
        if population is not None:
            # Virtual population: nothing to materialize — the "dataset" the
            # roster shares is the spec itself; each algorithm derives its
            # own lazy cohorts from it.
            dataset = population
        else:
            dataset = build_preset_dataset(preset, seed=seed)
        model_factory = build_preset_model(preset, dataset)
    roster = algorithms if algorithms is not None else preset.algorithms
    timers = TimerBank()
    results: dict[str, RunResult] = {}
    phase_times: dict[str, dict[str, float]] = {}
    try:
        _run_roster(preset, roster, dataset, model_factory, results, phase_times,
                    timers, seed=seed, logger=logger, obs=obs, faults=faults,
                    defense=defense, checkpoint_dir=checkpoint_dir,
                    checkpoint_every=checkpoint_every, resume=resume,
                    backend=backend, cost_model=cost_model, churn=churn)
    finally:
        if owns_backend:
            backend.close()
    return ExperimentOutput(preset=preset, results=results,
                            timings=timers.summary(),
                            phase_times=phase_times,
                            metrics=obs.snapshot() if obs.enabled else {},
                            setup_times=setup.summary(),
                            sim_times={name: res.sim_time_s
                                       for name, res in results.items()})


def _run_roster(preset, roster, dataset, model_factory, results, phase_times,
                timers, *, seed, logger, obs, faults, defense, checkpoint_dir,
                checkpoint_every, resume, backend, cost_model=None,
                churn=None) -> None:
    """Execute each algorithm of ``roster`` in turn, filling the result maps."""
    for name in roster:
        # Plans and specs go in as given: each algorithm builds its own
        # injector, timer and membership manager from them, so one run's
        # state never leaks into the next and the roster stays paired.
        algo = make_algorithm(
            name, dataset, model_factory,
            batch_size=preset.batch_size, eta_w=preset.eta_w, eta_p=preset.eta_p,
            tau1=preset.tau1, tau2=preset.tau2, m_edges=preset.m_edges,
            seed=seed, logger=logger, obs=obs, faults=faults,
            backend=backend, defense=defense, timing=cost_model, churn=churn)
        rounds = preset.rounds_for(algo.slots_per_round)
        eval_every = preset.eval_every_for(algo.slots_per_round)
        ckpt_path = None
        if checkpoint_dir is not None:
            ckpt_path = Path(checkpoint_dir) / f"{name}.ckpt.json"
        if resume and ckpt_path is not None and ckpt_path.exists():
            done = algo.load_checkpoint(ckpt_path)
            rounds = max(0, rounds - done)
        before = obs.span_totals() if obs.enabled else {}
        with timers(name):
            if rounds > 0:
                results[name] = algo.run(
                    rounds=rounds, eval_every=eval_every,
                    checkpoint_path=ckpt_path, checkpoint_every=checkpoint_every)
            else:
                # Checkpoint already covers the full budget: report as-is.
                history = algo._history  # the restored one
                if history is None:
                    from repro.metrics.history import TrainingHistory
                    history = TrainingHistory(algo.name)
                results[name] = algo._build_result(history)
        if obs.enabled:
            after = obs.span_totals()
            phase_times[name] = {
                span: after[span]["total_s"]
                - before.get(span, {}).get("total_s", 0.0)
                for span in after
                if after[span]["total_s"]
                - before.get(span, {}).get("total_s", 0.0) > 0.0
            }
        # Progress marker between roster entries: lets `trace-report --follow`
        # (and any offline reader) see which algorithms have finished while
        # the rest of the roster is still training.
        res = results[name]
        done_fields = {"algorithm": name, "rounds": res.rounds_run,
                       "wall_s": timers.summary().get(name, 0.0)}
        if res.sim_time_s:
            done_fields["sim_time_s"] = res.sim_time_s
        if res.history.points:
            done_fields["worst_accuracy"] = float(
                res.history.final().record.worst_accuracy)
        obs.event("algorithm_done", **done_fields)


def monotone_envelope(y: np.ndarray) -> np.ndarray:
    """Running maximum of a series — the standard smoothing for noisy
    accuracy-vs-rounds curves when extracting crossing times."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"need a 1-D series, got shape {y.shape}")
    return np.maximum.accumulate(y)
