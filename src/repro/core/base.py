"""Shared interface of all federated optimization algorithms in this library.

Every algorithm — HierMinimax and the four baselines — subclasses
:class:`FederatedAlgorithm`, which owns the common machinery: the run's sinks,
the shared compute engine, communication tracking, periodic evaluation,
history recording and checkpoints.  Subclasses implement :meth:`run_round`
(one cloud training round) and declare their per-round slot cost via
:attr:`slots_per_round`; the five methods build their actors and run their
rounds through :class:`~repro.core.engine.RoundEngine`.

The identical wiring guarantees comparisons are *paired*: for a fixed
(dataset, seed), all algorithms see the same initial model and the same per-client
minibatch streams.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data.batching import restore_sampler_state
from repro.data.dataset import FederatedDataset
from repro.defense.policy import resolve_defense
from repro.faults.checkpoint import CheckpointError, load_checkpoint_file, \
    previous_checkpoint_path, save_checkpoint_file
from repro.faults.injector import resolve_injector
from repro.metrics.evaluation import evaluate_record
from repro.membership import resolve_membership
from repro.metrics.history import HistoryPoint, TrainingHistory, \
    history_from_state, history_state
from repro.nn.models import ModelFactory
from repro.obs import NULL_TRACER
from repro.ops.projections import Projection, identity_projection
from repro.population import EagerPopulation, resolve_population
from repro.simtime import resolve_timing
from repro.sim.edge import RoundContext
from repro.topology.comm import CommSnapshot, CommunicationTracker
from repro.exec import ExecutionBackend, resolve_backend
from repro.utils.logging import NullLogger
from repro.utils.rng import RngFactory, restore_generator
from repro.utils.validation import check_positive_float, check_positive_int

__all__ = ["FederatedAlgorithm", "RunResult"]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one training run.

    Attributes
    ----------
    algorithm:
        Algorithm name.
    history:
        Evaluation time series (see :class:`~repro.metrics.history.TrainingHistory`).
    final_params:
        The final global model ``w``.
    final_weights:
        The final mixing weights (``p`` over edges, or ``q`` over clients for the
        two-layer minimax baselines; ``None`` for minimization methods).
    comm:
        Total communication performed.
    rounds_run / slots_run:
        Cloud rounds completed and cumulative training time slots ``T``.
    sim_time_s:
        Total simulated seconds of the run under the installed
        :mod:`repro.simtime` cost model (0.0 without one).
    """

    algorithm: str
    history: TrainingHistory
    final_params: np.ndarray
    final_weights: np.ndarray | None
    comm: CommSnapshot
    rounds_run: int
    slots_run: int
    sim_time_s: float = 0.0


class FederatedAlgorithm(ABC):
    """Base class wiring datasets, actors, evaluation, and accounting together.

    This is the one place the shared and run-wide arguments below are
    declared and resolved: subclasses declare only their own parameters and
    forward the rest as ``**run`` (which is also how
    :func:`~repro.baselines.registry.make_algorithm` learns what each class
    accepts).

    Parameters
    ----------
    dataset:
        The federated data layout.
    model_factory:
        Builds the model architecture; called once for the shared engine.
    batch_size:
        Client minibatch size.
    eta_w:
        Model learning rate ``η_w``.
    seed:
        Root seed; expands into init/sampling/client streams (see
        :class:`~repro.utils.rng.RngFactory`).
    projection_w:
        Projection onto the model domain ``W`` (identity = unconstrained, as in the
        paper's experiments).
    logger:
        Optional structured-event callback (:class:`~repro.utils.logging.RunLogger`).
    obs:
        Optional :class:`~repro.obs.Tracer` receiving spans
        (``run`` → ``cloud_round`` → phases), metrics, and trace events.
        Defaults to the no-op :data:`~repro.obs.NULL_TRACER`; tracing never
        touches an RNG, so results are bit-identical either way.
    faults:
        Optional :class:`~repro.faults.FaultPlan` (or a pre-built
        :class:`~repro.faults.FaultInjector`) injecting client dropouts,
        stragglers, edge outages, and message loss/corruption into the run.
        ``None`` or ``FaultPlan.none()`` disables every fault path — the
        injector has its own RNG streams, so outputs are bit-identical to a
        run without the fault layer.  A ``label_flip`` attack in the plan's
        ``byzantine`` roster poisons data rather than payloads: the
        attackers' shards of an eager dataset are flipped here, once, and a
        virtual population (whose shards are derived, not stored) is
        rejected with :class:`ValueError`.
    backend:
        Execution backend for the per-round client SGD loops: an
        :class:`~repro.exec.ExecutionBackend` instance (shared with the
        caller, who owns its lifecycle), a name (``"serial"``, ``"thread"``,
        ``"vectorized"`` — the algorithm owns the instance; call
        :meth:`close` to release the thread pool), or ``None`` (the
        ``REPRO_BACKEND`` environment variable, default serial).  Every
        backend produces bit-identical results (see :mod:`repro.exec`);
        ``"vectorized"`` batches both paper models (logistic and MLP) into
        stacked cross-client kernels.
    defense:
        Optional Byzantine defense: a :class:`~repro.defense.DefensePolicy`,
        a :class:`~repro.defense.RobustAggregator` (or its name, e.g.
        ``"trimmed_mean"``) installed at every aggregation tier, or a spec
        string (``"edge=median,cloud=krum,loss_clip=2.5"``).  ``None`` — or
        the reference ``"mean"`` rule — keeps the original aggregation code
        paths, bit-identical to a build without the defense subsystem (see
        :mod:`repro.defense`).
    timing:
        Optional simulated-time hook: a :class:`~repro.simtime.SimTimer`, a
        :class:`~repro.simtime.CostModel`, or a cost-model spec string
        (``"hetero,seed=1,slow_clients=0|7"``).  Each round's
        client→edge→cloud dependency graph is replayed on the virtual clock
        and the cumulative makespan surfaces as ``sim_time_s`` on
        :class:`~repro.metrics.history.HistoryPoint` / :class:`RunResult`.
        Defaults to the no-op :data:`~repro.simtime.NULL_TIMING`; the clock
        is purely arithmetic — results are bit-identical with or without it.
    churn:
        Optional dynamic membership: a
        :class:`~repro.membership.ChurnPlan`, a spec string
        (``"arrive=0.05,depart=0.02,edge_mttf=40"``), or a pre-built
        :class:`~repro.membership.MembershipManager`.  Client arrivals and
        departures, edge crash/recover episodes, and edge–cloud partitions
        are advanced at every round boundary; on hierarchical topologies a
        crashed edge's clients are re-homed to surviving edges (see
        :mod:`repro.membership`).  ``None`` keeps the static topology
        through the shared :data:`~repro.membership.NULL_MEMBERSHIP` —
        bit-identical to a build without the membership layer.
    population:
        Optional virtual population: a
        :class:`~repro.population.PopulationSpec`, a spec string
        (``"clients=1000000,edges=1000,samples=2"``), or a pre-built
        :class:`~repro.population.Population`.  When given (``dataset`` must
        then be ``None`` — or the spec may simply be passed in the
        ``dataset`` position), clients are derived on demand each round and
        discarded after, holding memory at O(cohort) regardless of
        population size.  ``None`` wraps ``dataset`` as a degenerate
        :class:`~repro.population.EagerPopulation` — byte-identical to the
        pre-population code path (see :mod:`repro.population`).
    """

    #: Human-readable algorithm name (subclasses override).
    name: str = "base"
    #: Whether the algorithm optimizes mixing weights (solves problem (2)/(3)).
    is_minimax: bool = False
    #: Whether the algorithm uses the client-edge-cloud hierarchy.
    uses_hierarchy: bool = False
    #: Upload compressor and its stream (``None``: full precision).
    compressor = None
    _comp_rng: np.random.Generator | None = None

    def __init__(self, dataset: FederatedDataset, model_factory: ModelFactory, *,
                 batch_size: int = 1, eta_w: float = 1e-3, seed: int = 0,
                 projection_w: Projection = identity_projection,
                 logger=None, obs=None, faults=None, backend=None,
                 defense=None, timing=None, churn=None,
                 population=None) -> None:
        self.obs = obs if obs is not None else NULL_TRACER
        self.faults = resolve_injector(faults, obs=self.obs)
        self.population = _label_flipped(
            resolve_population(population, dataset),
            self.faults.plan.byzantine)
        # For the eager wrap this is the dataset object itself — every
        # downstream consumer sees exactly what it saw before populations
        # existed; for virtual populations it is the lazy dataset view.
        self.dataset = self.population.dataset
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.eta_w = check_positive_float(eta_w, "eta_w")
        self.projection_w = projection_w
        self.rng_factory = RngFactory(seed)
        self.rng = self.rng_factory.stream("cloud")
        self.engine = model_factory(self.rng_factory.stream("init"))
        self.tracker = CommunicationTracker()
        self.logger = logger if logger is not None else NullLogger()
        self.defense = resolve_defense(defense)
        # Pre-resolved per-tier hooks: None means "take the original inline
        # aggregation path" — both for no defense and for the reference mean.
        self._edge_agg = (None if self.defense is None
                          else self.defense.tier("edge"))
        self._cloud_agg = (None if self.defense is None
                           else self.defense.tier("cloud"))
        self._loss_clip = (None if self.defense is None
                           else self.defense.loss_clip)
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = resolve_backend(backend)
        self.timing = resolve_timing(timing)
        self.membership = resolve_membership(churn, obs=self.obs)
        self.w: np.ndarray = self.engine.get_params()
        self.rounds_completed = 0
        self._history: TrainingHistory | None = None
        self._resume_history: TrainingHistory | None = None
        self._ctx: RoundContext | None = None

    # ------------------------------------------------------------------ hooks
    @property
    @abstractmethod
    def slots_per_round(self) -> int:
        """Training time slots consumed by one cloud round (``τ1·τ2`` or ``τ1``)."""

    @abstractmethod
    def run_round(self, round_index: int) -> None:
        """Execute one cloud training round, updating ``self.w`` (and weights)."""

    def current_weights(self) -> np.ndarray | None:
        """The current mixing-weight vector, if the algorithm has one."""
        return None

    # ------------------------------------------------------------------ driver
    def run(self, rounds: int, *, eval_every: int = 1,
            eval_at_start: bool = True,
            checkpoint_path=None, checkpoint_every: int | None = None,
            checkpoint_shard_dir=None,
            ) -> RunResult:
        """Train for ``rounds`` cloud rounds with periodic evaluation.

        Parameters
        ----------
        eval_every:
            Evaluate after every ``eval_every``-th round (the final round is always
            evaluated).
        eval_at_start:
            Also record the untrained model as round ``-1`` (skipped
            automatically when continuing from a restored checkpoint, whose
            history already holds that point).
        checkpoint_path / checkpoint_every:
            When both are set, :meth:`save_checkpoint` is called after every
            ``checkpoint_every``-th round, so a killed process can resume via
            :meth:`load_checkpoint` and reproduce the uninterrupted run
            exactly.  Checkpoints are written atomically; a kill mid-write
            leaves the previous checkpoint intact.
        checkpoint_shard_dir:
            With a virtual population, persist per-client store state as
            checksummed sidecar shard files in this directory instead of
            inlining it into the checkpoint (which then embeds only the
            integrity manifest) — the layout for populations too large for
            one JSON document.
        """
        rounds = check_positive_int(rounds, "rounds")
        eval_every = check_positive_int(eval_every, "eval_every")
        if checkpoint_every is not None:
            checkpoint_every = check_positive_int(checkpoint_every,
                                                  "checkpoint_every")
        if self._resume_history is not None:
            history = self._resume_history
            self._resume_history = None
            eval_at_start = False
        else:
            history = TrainingHistory(self.name)
        self._history = history
        obs = self.obs
        mem_tracker = getattr(obs, "mem_tracker", None)
        # Optional runtime invariant monitor (see repro.invariants), attached
        # to the tracer so one obs= argument threads the whole observability
        # stack.  None on NULL_TRACER and undecorated tracers — the default,
        # zero-cost path.
        invariants = getattr(obs, "invariants", None)
        if obs.enabled and self.timing.enabled:
            # A live tracer can persist the virtual clock's per-round
            # dependency tree, so record it.  Recording is purely additive
            # bookkeeping (no RNG, no arithmetic change): makespans and
            # results are bit-identical with it on or off.
            self.timing.record = True
        with obs.span("run", algorithm=self.name, rounds=rounds) as run_span:
            if eval_at_start:
                with obs.span("evaluate", round=-1):
                    history.append(self._evaluation_point(-1))
            first = self.rounds_completed
            for k in range(first, first + rounds):
                comm_before = self.tracker.snapshot() if obs.enabled else None
                with obs.span("cloud_round", algorithm=self.name,
                              round=k) as round_span:
                    with self.timing.round(k):
                        # Membership transitions happen at the round boundary,
                        # before the round body: detection waits and
                        # handoff/warm-sync transfers land on this round's
                        # clock and in its communication delta.
                        self.membership.begin_round(self._round(k))
                        self.run_round(k)
                    if obs.enabled:
                        delta = self.tracker.snapshot().diff(comm_before)
                        round_span.set(comm={"cycles": delta.cycles,
                                             "messages": delta.messages,
                                             "floats": delta.floats})
                        if self.timing.enabled:
                            round_span.set(sim_s=self.timing.last_round_s)
                            tree = self.timing.last_round_tree
                            if tree is not None:
                                # The round's client→edge→cloud dependency
                                # graph — what the critical-path analyzer
                                # replays into per-entity blame.
                                round_span.set(sim_tree=tree)
                # Cohort lifecycle boundary: flush whatever clients are still
                # live (the round body releases each edge's roster after its
                # last leg) to the population's state store, discard them,
                # and start the next round's cohort.  A no-op for eager
                # populations.
                self.population.end_round(k)
                self.rounds_completed = k + 1
                if invariants is not None:
                    # Pure reads over already-computed state (no RNG, no
                    # arithmetic on the model) — bit-identical on or off.
                    invariants.check_round(self, k, obs=obs)
                if obs.enabled:
                    obs.count("rounds_total")
                    obs.count("edge_cloud_bytes", delta.edge_cloud_bytes)
                    obs.observe("round_time_s", round_span.duration)
                    if self.timing.enabled:
                        obs.gauge("sim_time_s", self.timing.elapsed_s)
                    if mem_tracker is not None:
                        obs.gauge("mem_peak_bytes", mem_tracker.peak_bytes())
                if (k + 1) % eval_every == 0 or k == first + rounds - 1:
                    with obs.span("evaluate", round=k):
                        point = self._evaluation_point(k)
                    history.append(point)
                    if obs.enabled:
                        obs.gauge("worst_group_accuracy",
                                  point.record.worst_accuracy)
                        obs.gauge("average_accuracy",
                                  point.record.average_accuracy)
                    self.logger({
                        "event": "round", "algorithm": self.name, "round": k,
                        "avg_acc": point.record.average_accuracy,
                        "worst_acc": point.record.worst_accuracy,
                        "comm": point.comm.edge_cloud_cycles,
                    })
                if (checkpoint_path is not None and checkpoint_every
                        and (k + 1) % checkpoint_every == 0):
                    with obs.span("checkpoint", round=k):
                        self.save_checkpoint(checkpoint_path,
                                             shard_dir=checkpoint_shard_dir)
                if obs.enabled:
                    # Live progress channel: one (throttled) heartbeat per
                    # round so long runs can be tailed with
                    # ``trace-report --follow``.
                    hb = {"algorithm": self.name, "round": k,
                          "rounds_completed": self.rounds_completed}
                    if self.timing.enabled:
                        hb["sim_time_s"] = self.timing.elapsed_s
                    last = history.final() if len(history) else None
                    if last is not None:
                        hb["worst_accuracy"] = last.record.worst_accuracy
                        hb["average_accuracy"] = last.record.average_accuracy
                    obs.heartbeat(**hb)
            if obs.enabled:
                snap = self.tracker.snapshot()
                run_span.set(comm_total={"cycles": snap.cycles,
                                         "messages": snap.messages,
                                         "floats": snap.floats})
                if self.timing.enabled:
                    run_span.set(sim_total_s=self.timing.elapsed_s)
        return self._build_result(history)

    def close(self) -> None:
        """Release worker pools of a backend this algorithm instantiated.

        No-op for backend *instances* passed in by the caller (shared across
        algorithms; the caller owns their lifecycle).  Safe to call twice.
        """
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "FederatedAlgorithm":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _build_result(self, history: TrainingHistory) -> RunResult:
        """Assemble the :class:`RunResult` for the current state + history."""
        final = history.final() if len(history) else None
        self.logger({
            "event": "run_end", "algorithm": self.name,
            "rounds": self.rounds_completed,
            "slots": self.rounds_completed * self.slots_per_round,
            "comm": self.tracker.edge_cloud_cycles,
            **({"worst_acc": final.record.worst_accuracy} if final else {}),
        })
        weights = self.current_weights()
        return RunResult(
            algorithm=self.name,
            history=history,
            final_params=self.w.copy(),
            final_weights=None if weights is None else weights.copy(),
            comm=self.tracker.snapshot(),
            rounds_run=self.rounds_completed,
            slots_run=self.rounds_completed * self.slots_per_round,
            sim_time_s=self.timing.elapsed_s,
        )

    # ---------------------------------------------------------- checkpointing
    def _client_actors(self) -> list:
        """Every client actor of the run, in a stable (edge-major) order."""
        edges = getattr(self, "edges", None)
        if edges is not None:
            return [client for edge in edges for client in edge.clients]
        return list(getattr(self, "clients", []))

    def _extra_state(self) -> dict:
        """Subclass hook: algorithm-specific checkpoint state (``p``, aux RNGs)."""
        return {}

    def _restore_extra(self, extra: dict) -> None:
        """Subclass hook: inverse of :meth:`_extra_state`."""

    def state_dict(self, *, shard_dir=None) -> dict:
        """Everything needed to resume this run bit-identically.

        Serializable via :mod:`repro.utils.serialization`; written to disk by
        :meth:`save_checkpoint`.  ``shard_dir`` (virtual populations only)
        externalizes the client state store into checksummed sidecar shard
        files there, leaving just the integrity manifest in the payload.
        """
        clients = {}
        if not self.population.virtual:
            # Eager runs snapshot every client inline — the format predating
            # populations, byte for byte.  Virtual runs keep per-client state
            # in the sharded store instead (flushed inside its state_dict);
            # enumerating 10^6 clients here would defeat the subsystem.
            for client in self._client_actors():
                sampler = client.sampler
                clients[str(client.client_id)] = {
                    "rng": sampler._rng,
                    "order": np.asarray(sampler._order),
                    "cursor": sampler._cursor,
                    "batches_drawn": sampler.batches_drawn,
                    "sgd_steps_taken": client.sgd_steps_taken,
                }
        snap = self.tracker.snapshot()
        state = {
            "algorithm": self.name,
            "round": self.rounds_completed,
            "w": self.w,
            "rng": self.rng,
            "clients": clients,
            "comm": {"cycles": dict(snap.cycles),
                     "messages": dict(snap.messages),
                     "floats": dict(snap.floats)},
            "history": (history_state(self._history)
                        if self._history is not None else None),
            "faults": self.faults.state_dict(),
            "membership": self.membership.state_dict(),
            "sim_time_s": self.timing.elapsed_s,
            "extra": self._extra_state(),
        }
        if self.population.virtual:
            state["population"] = self.population.state_dict(
                shard_dir=shard_dir)
        return state

    def save_checkpoint(self, path, *, shard_dir=None) -> None:
        """Atomically write :meth:`state_dict` to ``path``."""
        save_checkpoint_file(path, self.state_dict(shard_dir=shard_dir))

    def load_checkpoint(self, path, *, shard_dir=None,
                        shard_recovery: str = "fallback") -> int:
        """Restore a checkpoint written by :meth:`save_checkpoint`.

        Must be called on a freshly-constructed algorithm with the *same*
        configuration (dataset, seeds, hyperparameters) as the run that wrote
        the checkpoint.  The next :meth:`run` call continues from the restored
        round and appends to the restored history, reproducing the
        uninterrupted run bit-for-bit.

        Recovery: when the current file fails integrity verification (torn
        write, bit rot — including a corrupted sidecar shard under the
        default ``shard_recovery="fallback"``), the previous checkpoint
        generation at :func:`~repro.faults.checkpoint.previous_checkpoint_path`
        is tried next; a successful fallback emits a ``checkpoint_fallback``
        trace event and the run resumes bit-identically from that earlier
        round.  ``shard_recovery="rederive"`` instead quarantines a damaged
        shard and lets its virtual clients re-derive from ``(spec.seed,
        cid)`` — loud detection, but only exact for clients that never
        advanced.

        Returns the number of rounds already completed.
        """
        from repro.population.store import ShardIntegrityError

        candidates = [Path(path), previous_checkpoint_path(path)]
        errors: list[str] = []
        for index, candidate in enumerate(candidates):
            try:
                state = load_checkpoint_file(candidate,
                                             expect_algorithm=self.name)
                self._restore_state(state, shard_dir=shard_dir,
                                    shard_recovery=shard_recovery)
            except (CheckpointError, ShardIntegrityError) as exc:
                errors.append(f"{candidate}: {exc}")
                continue
            if index > 0:
                # The current generation was unusable; say so loudly.
                if self.obs.enabled:
                    self.obs.event("checkpoint_fallback",
                                   requested=str(path), used=str(candidate),
                                   round=self.rounds_completed,
                                   reason=errors[0])
                    self.obs.count("checkpoint_fallbacks_total")
                self.logger({"event": "checkpoint_fallback",
                             "requested": str(path), "used": str(candidate),
                             "round": self.rounds_completed})
            return self.rounds_completed
        raise CheckpointError(
            "no loadable checkpoint generation: " + "; ".join(errors))

    def _restore_state(self, state: dict, *, shard_dir=None,
                       shard_recovery: str = "fallback") -> None:
        """Apply a verified checkpoint payload to this algorithm instance."""
        self.w = np.asarray(state["w"], dtype=np.float64)
        self.rounds_completed = int(state["round"])
        restore_generator(self.rng, state["rng"])
        if self.population.virtual:
            # Per-client state lives in the sharded store; clients re-derive
            # from it lazily the next time the cohort samples them.
            self.population.load_state_dict(state.get("population", {}),
                                            shard_dir=shard_dir,
                                            shard_recovery=shard_recovery,
                                            obs=self.obs)
        else:
            client_states = state["clients"]
            for client in self._client_actors():
                try:
                    cs = client_states[str(client.client_id)]
                except KeyError as exc:
                    raise RuntimeError(
                        f"checkpoint has no state for client {client.client_id}; "
                        f"was it written with a different dataset?") from exc
                restore_sampler_state(client.sampler, cs)
                client.sgd_steps_taken = int(cs["sgd_steps_taken"])
        comm = state["comm"]
        self.tracker.restore(CommSnapshot(
            cycles={k: int(v) for k, v in comm["cycles"].items()},
            messages={k: int(v) for k, v in comm["messages"].items()},
            floats={k: float(v) for k, v in comm["floats"].items()}))
        history = state.get("history")  # pending until run() continues it
        self._history = self._resume_history = (
            None if history is None else history_from_state(history))
        self.faults.load_state_dict(state.get("faults", {}))
        # Checkpoints capture the live topology (active set, home map, edge
        # and link episode states), so resume mid-failover is bit-identical.
        self.membership.load_state_dict(state.get("membership", {}))
        if self.timing.enabled:
            # The shared NULL_TIMING is never mutated; a real timer resumes
            # its virtual clock exactly where the checkpointed run left it.
            self.timing.elapsed_s = float(state.get("sim_time_s", 0.0))
        self._restore_extra(state.get("extra", {}))

    # ---------------------------------------------------------------- helpers
    def _round(self, round_index: int) -> RoundContext:
        """Round ``round_index``'s :class:`~repro.sim.edge.RoundContext`:
        this run's sinks, built once per round and handed to every leg."""
        ctx = self._ctx
        if ctx is None or ctx.round_index != round_index:
            ctx = self._ctx = RoundContext(
                round_index, self.engine, self.eta_w, self.projection_w,
                self.backend, self.tracker, self.faults, self.obs,
                self.timing, self._edge_agg, self._cloud_agg,
                self._loss_clip, self.compressor, self._comp_rng)
        return ctx

    def _evaluation_point(self, round_index: int) -> HistoryPoint:
        # eval_edge_ids is None unless an evaluation cohort was requested
        # (spec.eval_edges / EagerPopulation(eval_edges=...)), in which case a
        # seeded per-round subset of edges is scored instead of all of them —
        # see the estimator note on evaluate_per_edge.
        record = evaluate_record(self.engine, self.w, self.dataset,
                                 edge_ids=self.population.eval_edge_ids(round_index))
        weights = self.current_weights()
        return HistoryPoint(
            round_index=round_index,
            slots=(round_index + 1) * self.slots_per_round,
            comm=self.tracker.snapshot(),
            record=record,
            weights=None if weights is None else weights.copy(),
            sim_time_s=self.timing.elapsed_s,
        )


def _label_flipped(population, attack):
    """The population a ``label_flip`` attack trains on: the attackers'
    shards flipped by :func:`~repro.defense.attacks.apply_label_flip`.

    Every other attack tampers with payloads during the run and leaves the
    data alone.  Flipping here, where ``faults=`` is resolved, is what keeps
    a plan's attack the same for every caller; a caller that also flipped
    its data would flip it back.
    """
    if attack is None or attack.is_null or attack.attack != "label_flip":
        return population
    if population.virtual:
        raise ValueError("label_flip attacks poison materialized shards and "
                         "cannot run against a virtual population")
    from repro.defense.attacks import apply_label_flip

    return EagerPopulation(apply_label_flip(population.dataset, attack),
                           eval_edges=population.eval_edges,
                           eval_seed=population.eval_seed)
