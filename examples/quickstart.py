#!/usr/bin/env python3
"""Quickstart: train HierMinimax on a hierarchical federated task in ~30 seconds.

Builds the paper's EMNIST-Digits-style layout (10 edge areas × 3 clients, one
class per area), runs HierMinimax with the §6.1 period parameters, and prints the
fairness metrics and communication totals.

Run:
    python examples/quickstart.py [--scale tiny|small] [--rounds N] \
        [--trace run.trace.jsonl] [--faults SPEC] \
        [--attack SPEC --defense SPEC] \
        [--checkpoint run.ckpt.json [--checkpoint-every N] [--resume]] \
        [--stop-after K]

With ``--trace`` the run also streams a JSONL span/metric record; inspect it
afterwards with ``python -m repro trace-report run.trace.jsonl``.

``--faults 'client_dropout=0.2,edge_outage=0.05,seed=1'`` trains through the
seeded fault plan (see ``repro.faults.FaultPlan``).  Checkpoint/resume demo::

    python examples/quickstart.py --checkpoint /tmp/qs.ckpt.json --stop-after 100
    python examples/quickstart.py --checkpoint /tmp/qs.ckpt.json --resume

Byzantine demo — 20% sign-flipping clients held off by the trimmed mean::

    python examples/quickstart.py --attack sign_flip,fraction=0.2 \
        --defense trimmed_mean

Time-to-accuracy demo — a seeded heterogeneous cost model prices every
transfer and SGD step, and a virtual clock turns the round dependency graph
into simulated seconds (``sim_time_s`` on every history point; numerical
results are unchanged).  ``--staleness S`` switches to the semi-asynchronous
variant with bounded-staleness edge merges (``S=0`` reproduces the
synchronous run exactly)::

    python examples/quickstart.py --cost-model hetero,seed=1,slow_factor=10
    python examples/quickstart.py --cost-model hetero,seed=1,slow_factor=10 \
        --staleness 1

Dynamic-membership demo — clients arrive and depart, edges crash and recover,
and the hierarchy self-heals by re-homing orphaned clients to surviving
edges (every decision a pure function of ``(seed, round, entity)``)::

    python examples/quickstart.py \
        --churn arrive=0.05,depart=0.02,edge_mttf=40,edge_mttr=4,seed=1

Virtual-population demo — a million clients over a thousand edges in O(cohort)
memory: ``--population`` replaces the eager dataset with a declarative spec
whose sampled clients are derived on demand each round and discarded after
(see DESIGN.md §"Virtual populations")::

    python examples/quickstart.py --rounds 5 \
        --population clients=1000000,edges=1000,samples=8,eval_edges=10,seed=0
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import AttackPlan, FaultPlan, HierMinimax, NullTracer, \
    SemiAsyncHierMinimax, Tracer, make_federated_dataset, make_model_factory
from repro.exec import resolve_backend
from repro.simtime import resolve_timing
from repro.utils.logging import RunLogger


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny", choices=("tiny", "small"),
                        help="dataset size tier")
    parser.add_argument("--rounds", type=int, default=None,
                        help="cloud training rounds (default: scale-dependent)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a JSONL trace of the run here")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault plan, e.g. 'client_dropout=0.2,seed=1'")
    parser.add_argument("--attack", default=None, metavar="SPEC",
                        help="byzantine attack plan, e.g. "
                             "'sign_flip,fraction=0.2'")
    parser.add_argument("--defense", default=None, metavar="SPEC",
                        help="robust-aggregation policy, e.g. 'trimmed_mean' "
                             "or 'edge=median,cloud=krum'")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="checkpoint file to write (and resume from)")
    parser.add_argument("--checkpoint-every", type=int, default=25, metavar="N",
                        help="rounds between checkpoint writes")
    parser.add_argument("--resume", action="store_true",
                        help="restore --checkpoint before training")
    parser.add_argument("--stop-after", type=int, default=None, metavar="K",
                        help="stop after K rounds (simulated kill; rerun "
                             "with --resume to finish)")
    parser.add_argument("--backend", default=None,
                        choices=("serial", "thread", "vectorized"),
                        help="execution backend for client local training "
                             "(bit-identical results for every choice)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker count for the thread backend")
    parser.add_argument("--churn", default=None, metavar="SPEC",
                        help="dynamic-membership plan, e.g. "
                             "'arrive=0.05,depart=0.02,edge_mttf=40,seed=1' "
                             "(client churn, edge failover, self-healing)")
    parser.add_argument("--cost-model", default=None, metavar="SPEC",
                        help="simulated-time cost model, e.g. "
                             "'hetero,seed=1,slow_factor=10' (prices compute "
                             "and transfers; numerical results unchanged)")
    parser.add_argument("--staleness", type=int, default=None, metavar="S",
                        help="use the semi-async variant with staleness "
                             "bound S (0 = exact synchronous reproduction)")
    parser.add_argument("--population", default=None, metavar="SPEC",
                        help="virtual-population spec replacing the eager "
                             "dataset, e.g. 'clients=1000000,edges=1000,"
                             "samples=8,eval_edges=10,seed=0' (see "
                             "repro.population.PopulationSpec.parse)")
    args = parser.parse_args()
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint")

    rounds = args.rounds if args.rounds is not None else (
        300 if args.scale == "tiny" else 1500)

    # 1. Data: 10 edge areas x 3 clients, each area holding one digit class —
    #    or, with --population, a declarative spec materialized lazily.
    if args.population:
        from repro import PopulationSpec

        data = PopulationSpec.parse(args.population)
        print(f"population: {data.num_clients:,} clients / "
              f"{data.num_edges:,} edges (virtual)")
    else:
        data = make_federated_dataset("emnist_digits", seed=args.seed,
                                      scale=args.scale)
        print(f"dataset: {data}")

    # 2. Model: multinomial logistic regression (the paper's convex setting).
    model = make_model_factory("logistic", data.input_dim, data.num_classes)

    # 3. Algorithm 1 with the paper's periods (tau1 = tau2 = 2, m_E = 5).
    obs = (Tracer(args.trace, meta={"example": "quickstart"},
                  write_max_depth=2)
           if args.trace else NullTracer())
    plan = FaultPlan.parse(args.faults) if args.faults else None
    if plan is not None:
        print(f"faults : {args.faults}")
    if args.attack:
        from dataclasses import replace

        plan = replace(plan if plan is not None else FaultPlan(),
                       byzantine=AttackPlan.parse(args.attack))
        print(f"attack : {args.attack}")
    if args.defense:
        print(f"defense: {args.defense}")
    if args.churn:
        print(f"churn  : {args.churn}")
    backend = resolve_backend(args.backend, args.workers)
    if backend.name != "serial":
        print(f"backend: {backend.name}")
    timing = resolve_timing(args.cost_model)
    if timing.enabled:
        print(f"cost model: {args.cost_model}")
    algo_cls = HierMinimax
    extra_kwargs = {}
    if args.staleness is not None:
        algo_cls = SemiAsyncHierMinimax
        extra_kwargs["staleness"] = args.staleness
        print(f"semi-async: staleness={args.staleness}")
    algo = algo_cls(
        data, model,
        tau1=2, tau2=2, m_edges=5,
        eta_w=0.05, eta_p=2e-3, batch_size=8,
        seed=args.seed,
        logger=RunLogger(every=max(1, rounds // 10)),
        obs=obs,
        faults=plan,
        backend=backend,
        defense=args.defense,
        timing=timing,
        churn=args.churn,
        **extra_kwargs,
    )

    # 4. Optional checkpoint/resume: restore, then run only what is left.
    done = 0
    if args.resume:
        done = algo.load_checkpoint(args.checkpoint)
        print(f"resumed from {args.checkpoint} at round {done}")
    run_rounds = rounds - done
    if args.stop_after is not None:
        run_rounds = min(run_rounds, args.stop_after)
    if run_rounds <= 0:
        print("checkpoint already covers the requested rounds; nothing to do")
        backend.close()
        obs.close()
        return

    result = algo.run(
        rounds=run_rounds, eval_every=max(1, rounds // 10),
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every if args.checkpoint else None)
    if args.checkpoint:
        # Always leave a checkpoint at the exact final round, so --resume (or
        # a post-mortem) sees the state the run actually reached.
        algo.save_checkpoint(args.checkpoint)
        if algo.rounds_completed < rounds:
            print(f"\nstopped after round {algo.rounds_completed}; checkpoint "
                  f"saved to {args.checkpoint} (finish with --resume)")
        else:
            print(f"\nfinal checkpoint saved to {args.checkpoint}")
    backend.close()
    obs.close()
    if args.trace:
        print(f"\ntrace written to {args.trace} "
              f"(inspect: python -m repro trace-report {args.trace})")

    record = result.history.final().record
    print("\n--- results ---")
    print(f"average test accuracy : {record.average_accuracy:.4f}")
    print(f"worst edge accuracy   : {record.worst_accuracy:.4f}")
    print(f"accuracy variance x1e4: {record.variance_x1e4:.2f}")
    print(f"per-edge accuracies   : {np.round(record.per_edge_accuracy, 3)}")
    weights = result.final_weights
    if weights is not None and weights.size > 20:
        top = np.argsort(weights)[::-1][:5]
        print(f"edge weights p        : {weights.size} edges; top-5 "
              + ", ".join(f"e{e}={weights[e]:.3f}" for e in top))
    else:
        print(f"edge weights p        : {np.round(weights, 3)}")
    print("\n--- communication ---")
    print(f"edge-cloud cycles     : {result.comm.edge_cloud_cycles}")
    print(f"client-edge cycles    : {result.comm.cycles['client_edge']}")
    print(f"total traffic         : {result.comm.total_bytes / 1e6:.1f} MB")
    if timing.enabled:
        print(f"simulated time        : {result.sim_time_s:.3f} s "
              f"(virtual clock)")


if __name__ == "__main__":
    main()
