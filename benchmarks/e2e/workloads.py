"""The four end-to-end workloads, as plain data.

Every spec string carries a ``{seed}`` placeholder: the benchmark's ``--seed``
drives the dataset, every algorithm and every plan, so one seed always gives
the same inputs.  This module imports nothing from ``repro``; the workload
subprocess (``child.py``) turns an entry into ``run_experiment`` arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS"]

#: The Figs. 3-4 roster with HierMinimax first, so ``time_to_target_s`` is
#: measured from the start of training rather than after four baselines.
FULL_ROSTER = ("hierminimax", "fedavg", "stochastic_afl", "drfa", "hierfavg")


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a preset, a roster and the scenario around it.

    ``preset`` is ``(figure, scale, overrides)`` for
    :func:`repro.experiments.presets.fig3_preset` / ``fig4_preset``;
    ``target`` is HierMinimax's worst-edge accuracy goal, set well below the
    lowest best-so-far worst-edge accuracy any of seeds 0-39 reached (see
    README.md), so that every seed reaches it.  The optional spec strings
    are passed to ``run_experiment`` after ``{seed}`` is filled.
    """

    name: str
    why: str
    preset: tuple[str, str, dict]
    algorithms: tuple[str, ...]
    backend: str
    target: float
    faults: str | None = None
    churn: str | None = None
    defense: str | None = None
    cost_model: str | None = None
    checkpoint_every: int | None = None
    population: str | None = None
    #: Also measure the program's own JSONL ``Tracer`` on this workload.
    tracer_probe: bool = False

    def specs(self, seed: int) -> dict[str, str | None]:
        """The scenario spec strings with ``{seed}`` filled in."""
        return {key: (None if text is None else text.format(seed=seed))
                for key, text in (("faults", self.faults),
                                  ("churn", self.churn),
                                  ("defense", self.defense),
                                  ("cost_model", self.cost_model),
                                  ("population", self.population))}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fig3-small",
        why=("Fig. 3 roster of 5 algorithms on the batched backend: cheap "
             "kernels, so round orchestration and Phase-2 probes dominate"),
        preset=("fig3", "small", {}),
        algorithms=FULL_ROSTER,
        backend="vectorized",
        target=0.55,
        tracer_probe=True),
    Workload(
        name="fig4-small-serial",
        why=("Fig. 4 MLP, HierMinimax alone on the serial backend: the "
             "single-worker reference, bound by the SGD kernel, where "
             "orchestration-only changes should stay flat"),
        preset=("fig4", "small", {}),
        algorithms=("hierminimax",),
        backend="serial",
        target=0.40),
    Workload(
        name="faults-ckpt-small",
        why=("fig3-small HierMinimax with faults, churn, robust "
             "aggregation, a cost model and checkpoints: the robustness "
             "layers switched on"),
        preset=("fig3", "small", {}),
        algorithms=("hierminimax",),
        backend="vectorized",
        target=0.35,
        faults="client_dropout=0.1,msg_loss=0.05,seed={seed}",
        churn="arrive=0.05,depart=0.02,edge_mttf=20,edge_mttr=4,seed={seed}",
        defense="edge=trimmed_mean,cloud=norm_clip,trim=0.34,loss_clip=2.0",
        cost_model="hetero,seed={seed}",
        checkpoint_every=20),
    Workload(
        name="population-100k",
        why=("100k virtual clients over 1000 edges: the only workload bound "
             "by cohort materialization and store flushes, and by memory"),
        preset=("fig3", "tiny", {"m_edges": 5, "slots": 400,
                                 "eval_points": 20}),
        algorithms=("hierminimax",),
        backend="vectorized",
        target=0.625,
        population=("clients=100000,edges=1000,samples=8,test=16,"
                    "eval_edges=20,seed={seed}")),
)}
