"""Command-line interface: regenerate the paper's experiments from a shell.

Usage::

    python -m repro fig3 --scale small --seeds 3 --plot
    python -m repro fig4 --scale tiny
    python -m repro table1 --horizon 100000 --alpha 0.25
    python -m repro table2 --scale small --datasets adult synthetic
    python -m repro tradeoff --horizon 512
    python -m repro trace-report run.trace.jsonl
    python -m repro trace-report live.trace.jsonl --follow
    python -m repro trace-profile run.trace.jsonl --sort self
    python -m repro trace-profile run.trace.jsonl --folded sim > out.folded
    python -m repro perf-check
    python -m repro degradation --scale tiny --faults client_dropout=0.2,seed=1
    python -m repro byzantine --attack sign_flip --defense trimmed_mean
    python -m repro timesim --cost-model hetero,seed=1,slow_factor=10
    python -m repro churn --churn arrive=0.05,depart=0.02,edge_mttf=5,seed=1
    python -m repro info

Every subcommand prints the same reports the benchmark harness archives; ``--out``
additionally saves the raw results as JSON.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HierMinimax (ICPP '24) reproduction toolkit")
    parser.add_argument("--backend", default=None,
                        choices=("serial", "thread", "vectorized"),
                        help="execution backend for client local training "
                             "(default: REPRO_BACKEND env var or serial); "
                             "results are bit-identical for every choice")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker count for the thread backend "
                             "(default: REPRO_WORKERS env var or auto)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, seeds: bool = True):
        p.add_argument("--scale", default="small",
                       choices=("tiny", "small", "paper"))
        p.add_argument("--out", default=None, help="save raw results JSON here")
        if seeds:
            p.add_argument("--seeds", type=int, default=1,
                           help="seed replicates to average")

    p_fig3 = sub.add_parser("fig3", help="Figure 3: convex-loss comparison")
    add_common(p_fig3)
    p_fig3.add_argument("--plot", action="store_true",
                        help="render ASCII accuracy curves")

    p_fig4 = sub.add_parser("fig4", help="Figure 4: non-convex comparison")
    add_common(p_fig4)
    p_fig4.add_argument("--plot", action="store_true")

    p_t1 = sub.add_parser("table1", help="Table 1: complexity/rate orders")
    p_t1.add_argument("--horizon", type=int, default=100_000)
    p_t1.add_argument("--alpha", type=float, default=0.25)

    p_t2 = sub.add_parser("table2", help="Table 2: fairness comparison")
    add_common(p_t2, seeds=False)
    p_t2.add_argument("--datasets", nargs="+", default=None,
                      help="subset of the five Table 2 datasets")

    p_tr = sub.add_parser("tradeoff", help="empirical §5 alpha sweep")
    p_tr.add_argument("--horizon", type=int, default=512)
    p_tr.add_argument("--alphas", type=float, nargs="+",
                      default=(0.0, 0.2, 0.4, 0.6))

    p_trace = sub.add_parser("trace-report",
                             help="analyze a JSONL trace from repro.obs")
    p_trace.add_argument("trace", help="path to a .trace.jsonl file")
    p_trace.add_argument("--timeline", type=int, default=5,
                         help="rounds to show at each end of the timeline")
    p_trace.add_argument("--follow", action="store_true",
                         help="tail a live trace: print heartbeat progress as "
                              "the run appends, then the full report at "
                              "trace end")
    p_trace.add_argument("--poll", type=float, default=0.5, metavar="S",
                         help="--follow poll interval in seconds")
    p_trace.add_argument("--idle-timeout", type=float, default=None,
                         metavar="S",
                         help="--follow gives up after this many seconds "
                              "without new events (default: wait forever)")

    p_prof = sub.add_parser(
        "trace-profile",
        help="profile a JSONL trace: self/cumulative time tables, folded "
             "stacks, speedscope export")
    p_prof.add_argument("trace", help="path to a .trace.jsonl file")
    p_prof.add_argument("--sort", default="self", choices=("self", "cum"),
                        help="order table rows by self or cumulative time")
    p_prof.add_argument("--limit", type=int, default=0,
                        help="rows per table (0 = all)")
    p_prof.add_argument("--folded", default=None, choices=("wall", "sim"),
                        help="print folded stacks for flamegraph.pl / "
                             "speedscope instead of the tables")
    p_prof.add_argument("--speedscope", default=None, metavar="OUT.json",
                        help="also write a speedscope-format profile here")

    p_perf = sub.add_parser(
        "perf-check",
        help="compare fresh BENCH_*.json bench results against the committed "
             "baselines")
    p_perf.add_argument("--baseline-dir", default=".",
                        help="directory holding the committed BENCH_*.json "
                             "baselines (default: repo root)")
    p_perf.add_argument("--results-dir", default="benchmarks/results",
                        help="directory the benchmarks wrote fresh "
                             "BENCH_*.json files into")
    p_perf.add_argument("--bench", action="append", default=None,
                        metavar="NAME",
                        help="check only BENCH_<NAME>.json (repeatable; "
                             "default: every baseline present)")
    p_perf.add_argument("--ratio-tol", type=float, default=None,
                        help="one-sided tolerance for ratio metrics "
                             "(default 0.35)")
    p_perf.add_argument("--update", action="store_true",
                        help="promote the current results to baselines "
                             "instead of checking")

    p_deg = sub.add_parser(
        "degradation",
        help="graceful-degradation demo: fault-free vs faulted HierMinimax")
    p_deg.add_argument("--scale", default="tiny", choices=("tiny", "small"))
    p_deg.add_argument("--rounds", type=int, default=80)
    p_deg.add_argument("--seed", type=int, default=0)
    p_deg.add_argument("--faults", default="client_dropout=0.2,seed=1",
                       help="FaultPlan spec, e.g. "
                            "'client_dropout=0.2,edge_outage=0.05,seed=1'")
    p_deg.add_argument("--tolerance", type=float, default=0.10,
                       help="max tolerated worst-edge accuracy drop")

    p_byz = sub.add_parser(
        "byzantine",
        help="byzantine demo: clean vs attacked (mean) vs attacked+defense")
    p_byz.add_argument("--scale", default="tiny", choices=("tiny", "small"))
    p_byz.add_argument("--rounds", type=int, default=400)
    p_byz.add_argument("--seed", type=int, default=0)
    p_byz.add_argument("--attack", default="sign_flip,scale=5",
                       help="AttackPlan spec, e.g. "
                            "'sign_flip,fraction=0.2,seed=1' or "
                            "'loss_inflation,scale=20'; without an explicit "
                            "roster, --fraction of the clients is compromised "
                            "deterministically (one per edge area)")
    p_byz.add_argument("--fraction", type=float, default=0.2,
                       help="byzantine client fraction when the --attack spec "
                            "does not set one")
    p_byz.add_argument("--defense",
                       default="edge=trimmed_mean,cloud=norm_clip,"
                               "trim=0.34,loss_clip=2.0",
                       help="DefensePolicy spec, e.g. 'trimmed_mean' or "
                            "'edge=median,cloud=krum,loss_clip=3'")
    p_byz.add_argument("--tolerance", type=float, default=0.05,
                       help="max tolerated worst-edge accuracy drop of the "
                            "defended run vs the clean run")

    p_ts = sub.add_parser(
        "timesim",
        help="simulated-time demo: sync vs semi-async HierMinimax makespans")
    p_ts.add_argument("--scale", default="tiny", choices=("tiny", "small"))
    p_ts.add_argument("--rounds", type=int, default=40)
    p_ts.add_argument("--seed", type=int, default=0)
    p_ts.add_argument("--cost-model",
                      default="hetero,seed=1,slow_fraction=0.1,slow_factor=10",
                      help="CostModel spec for repro.simtime.make_cost_model, "
                           "e.g. 'hetero,seed=1,slow_clients=0|7,"
                           "slow_factor=10'")
    p_ts.add_argument("--staleness", type=int, default=1,
                      help="semi-async staleness bound S (0 reproduces the "
                           "synchronous trajectory and makespan exactly)")

    p_ch = sub.add_parser(
        "churn",
        help="dynamic-membership demo: clean vs churn+re-homing vs churn "
             "without failover")
    p_ch.add_argument("--scale", default="tiny", choices=("tiny", "small"))
    p_ch.add_argument("--rounds", type=int, default=150)
    p_ch.add_argument("--seed", type=int, default=0)
    p_ch.add_argument("--churn",
                      default="arrive=0.05,depart=0.02,edge_mttf=5,"
                              "edge_mttr=4,seed=1",
                      help="ChurnPlan spec for repro.membership.ChurnPlan"
                           ".parse; edge_mttf=5 is a 20%% per-round "
                           "edge-crash campaign")
    p_ch.add_argument("--cost-model",
                      default="hetero,seed=1",
                      help="CostModel spec pricing failover traffic "
                           "(simulated makespan; numerical results "
                           "unchanged)")
    p_ch.add_argument("--tolerance", type=float, default=0.15,
                      help="max tolerated worst-edge accuracy drop of the "
                           "re-homed run vs the clean run")

    p_pop = sub.add_parser(
        "population",
        help="virtual-population gate: eager-wrap bit-identity plus a "
             "fixed-memory scale run")
    p_pop.add_argument("--clients", type=int, default=100_000,
                       help="population size of the scale gate "
                            "(default 100k)")
    p_pop.add_argument("--edges", type=int, default=None,
                       help="edge count of the scale gate (default: "
                            "clients // 100, at least 10)")
    p_pop.add_argument("--rounds", type=int, default=2)
    p_pop.add_argument("--m-edges", type=int, default=5,
                       help="edges sampled per round (the cohort knob)")
    p_pop.add_argument("--budget-mb", type=float, default=256.0,
                       help="tracemalloc peak budget for the scale run; "
                            "exceeding it fails the gate")
    p_pop.add_argument("--seed", type=int, default=0)
    p_pop.add_argument("--skip-equivalence", action="store_true",
                       help="run only the scale gate")

    p_chaos = sub.add_parser(
        "chaos",
        help="crash-safety gate: seeded kill-points (torn checkpoint "
             "write, crash after save, bit-flipped shard) must all recover "
             "bit-identically")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="root seed of every injected failure's "
                              "parameters (same seed = byte-identical "
                              "failures)")
    p_chaos.add_argument("--rounds", type=int, default=6,
                         help="rounds per scenario run (>= 5 so two "
                              "checkpoint generations exist with training "
                              "left to resume)")
    p_chaos.add_argument("--backends", default="serial,vectorized",
                         help="comma-separated backends for the "
                              "crash-after-save sweep")
    p_chaos.add_argument("--workdir", default=None,
                         help="keep scenario artifacts (checkpoints, "
                              "shards, quarantined files) here instead of "
                              "a deleted temp dir")

    p_substrate = sub.add_parser(
        "substrate",
        help="execution-substrate gate: logistic AND MLP dispatches must be "
             "bit-identical to serial on every backend with every MLP task "
             "batched, and fused evaluation must match the two-pass bytes")
    p_substrate.add_argument("--scale", default="tiny",
                             choices=["tiny", "small", "paper"],
                             help="dataset scale (default tiny)")
    p_substrate.add_argument("--seed", type=int, default=0,
                             help="seed of the dataset, init and samplers")
    p_substrate.add_argument("--steps", type=int, default=4,
                             help="local SGD steps per dispatched client")

    sub.add_parser("info", help="version and system inventory")
    return parser


def _cmd_figure(args, which: str) -> int:
    from repro.experiments import fig3, fig4, format_figure_report
    from repro.utils.serialization import save_json

    builder = fig3 if which == "fig3" else fig4
    seeds = tuple(range(max(1, args.seeds)))
    fig = builder(scale=args.scale, seeds=seeds)
    print(format_figure_report(fig))
    if getattr(args, "plot", False):
        from repro.plotting import plot_figure_series

        print()
        print(plot_figure_series(fig, field="worst_accuracy"))
    if args.out:
        payload = {name: {"comm_rounds": s.comm_rounds,
                          "average_accuracy": s.average_accuracy,
                          "worst_accuracy": s.worst_accuracy,
                          "rounds_to_target": s.rounds_to_target}
                   for name, s in fig.series.items()}
        save_json(args.out, payload)
        print(f"\nsaved raw series to {args.out}")
    return 0


def _cmd_table1(args) -> int:
    from repro.theory.table1 import format_table1

    print(format_table1(alpha=args.alpha, T=args.horizon))
    return 0


def _cmd_table2(args) -> int:
    from repro.experiments import TABLE2_DATASETS, format_table2, table2
    from repro.utils.serialization import save_json

    datasets = tuple(args.datasets) if args.datasets else TABLE2_DATASETS
    unknown = set(datasets) - set(TABLE2_DATASETS)
    if unknown:
        print(f"unknown datasets: {sorted(unknown)}; "
              f"options: {TABLE2_DATASETS}", file=sys.stderr)
        return 2
    rows = table2(scale=args.scale, datasets=datasets)
    print(format_table2(rows))
    if args.out:
        save_json(args.out, [r.as_tuple() for r in rows])
        print(f"\nsaved rows to {args.out}")
    return 0


def _cmd_tradeoff(args) -> int:
    from repro.baselines.registry import make_algorithm
    from repro.core.schedules import tradeoff_schedule
    from repro.data.registry import make_federated_dataset
    from repro.nn.models import make_model_factory
    from repro.theory.duality import duality_gap

    dataset = make_federated_dataset("emnist_digits", seed=0, scale="tiny",
                                     num_edges=5, clients_per_edge=2)
    factory = make_model_factory("logistic", dataset.input_dim,
                                 dataset.num_classes)
    print(f"{'alpha':>6s} {'tau1':>5s} {'tau2':>5s} {'ec cycles':>10s} "
          f"{'duality gap':>12s}")
    for alpha in args.alphas:
        sched = tradeoff_schedule(args.horizon, alpha, convex=True,
                                  c_w=30.0, c_p=3.0)
        algo = make_algorithm("hierminimax", dataset, factory, batch_size=8,
                              eta_w=sched.eta_w, eta_p=sched.eta_p,
                              tau1=sched.tau1, tau2=sched.tau2, m_edges=3,
                              seed=0)
        result = algo.run(rounds=sched.rounds, eval_every=sched.rounds)
        gap = duality_gap(algo.engine, result.final_params, result.final_weights,
                          dataset, max_iters=300)
        print(f"{alpha:6.2f} {sched.tau1:5d} {sched.tau2:5d} "
              f"{result.comm.edge_cloud_cycles:10d} {gap:12.4f}")
    return 0


def _cmd_trace_report(args) -> int:
    import os

    from repro.obs import analyze_trace, format_trace_report

    try:
        if getattr(args, "follow", False):
            events = _follow_events(args)
            report = analyze_trace(events)
            print()
        else:
            report = analyze_trace(args.trace)
    except FileNotFoundError:
        print(f"no such trace file: {args.trace}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cannot parse trace: {exc}", file=sys.stderr)
        return 2
    try:
        print(format_trace_report(report, timeline=max(0, args.timeline)))
    except BrokenPipeError:
        # Output piped into head/less and the pager closed early: not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.replay_consistent else 1


def _follow_events(args) -> list:
    """Tail the trace, narrating heartbeats live; return all events seen."""
    from repro.obs import follow_trace

    events = []
    for ev in follow_trace(args.trace, poll_s=max(0.05, args.poll),
                           timeout_s=args.idle_timeout):
        events.append(ev)
        if ev.get("ev") == "log" and ev.get("kind") == "heartbeat":
            print(_heartbeat_line(ev.get("fields", {})), flush=True)
        elif ev.get("ev") == "trace_end":
            print("trace end reached", flush=True)
    return events


def _heartbeat_line(fields: dict) -> str:
    parts = []
    if "algorithm" in fields:
        parts.append(f"[{fields['algorithm']}]")
    if "round" in fields:
        parts.append(f"round {fields['round']:>5}")
    if "sim_time_s" in fields:
        parts.append(f"sim {fields['sim_time_s']:.2f}s")
    if "worst_accuracy" in fields:
        parts.append(f"worst acc {fields['worst_accuracy']:.4f}")
    if "average_accuracy" in fields:
        parts.append(f"avg acc {fields['average_accuracy']:.4f}")
    if not parts:
        parts.append(str(fields))
    return "heartbeat  " + "  ".join(parts)


def _cmd_trace_profile(args) -> int:
    from repro.obs.profile import (folded_stacks, format_profile,
                                   profile_trace, write_speedscope)

    try:
        profile = profile_trace(args.trace)
    except FileNotFoundError:
        print(f"no such trace file: {args.trace}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cannot parse trace: {exc}", file=sys.stderr)
        return 2
    if args.speedscope:
        write_speedscope(profile, args.speedscope, name=args.trace)
        print(f"wrote speedscope profile to {args.speedscope}",
              file=sys.stderr)
    if args.folded:
        for line in folded_stacks(profile, clock=args.folded):
            print(line)
    else:
        print(format_profile(profile, sort=args.sort,
                             limit=max(0, args.limit)))
    return 0


def _cmd_perf_check(args) -> int:
    from pathlib import Path

    from repro.obs.perfcheck import (DEFAULT_RATIO_TOL, compare_bench,
                                     format_perfcheck, load_bench)

    base_dir = Path(args.baseline_dir)
    results_dir = Path(args.results_dir)
    if args.bench:
        names = [f"BENCH_{b}.json" for b in args.bench]
    else:
        names = sorted(p.name for p in base_dir.glob("BENCH_*.json"))
        if not names and args.update:
            # First adoption: promote whatever the benches produced.
            names = sorted(p.name for p in results_dir.glob("BENCH_*.json"))
    if not names:
        print(f"no BENCH_*.json baselines in {base_dir}", file=sys.stderr)
        return 2
    failed = missing = 0
    for name in names:
        baseline, current = base_dir / name, results_dir / name
        if args.update:
            if not current.exists():
                print(f"{name}: no fresh result in {results_dir}; "
                      f"run the benchmarks first", file=sys.stderr)
                missing += 1
                continue
            baseline.write_text(current.read_text())
            print(f"{name}: baseline updated from {current}")
            continue
        if not baseline.exists():
            print(f"{name}: no committed baseline in {base_dir}",
                  file=sys.stderr)
            missing += 1
            continue
        if not current.exists():
            print(f"{name}: no fresh result in {results_dir}; "
                  f"run the benchmarks first", file=sys.stderr)
            missing += 1
            continue
        try:
            result = compare_bench(
                load_bench(baseline), load_bench(current),
                ratio_tol=(args.ratio_tol if args.ratio_tol is not None
                           else DEFAULT_RATIO_TOL))
        except ValueError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            missing += 1
            continue
        print(format_perfcheck(result))
        if not result.ok:
            failed += 1
    if missing:
        return 2
    return 1 if failed else 0


def _demo(args):
    """Set-up shared by the degradation, byzantine, timesim and churn demos.

    Returns the emnist-digits dataset at ``--scale``/``--seed``, a builder
    ``build(data=dataset, cls=HierMinimax, **run)`` of the demos' logistic
    HierMinimax configuration (``run`` carries the run-wide arguments:
    ``faults=``, ``timing=``, ``churn=``, …), and the ``run()`` schedule of
    ``--rounds`` rounds with ten evaluations.
    """
    from repro.core.hierminimax import HierMinimax
    from repro.data.registry import make_federated_dataset
    from repro.nn.models import make_model_factory

    dataset = make_federated_dataset("emnist_digits", seed=args.seed,
                                     scale=args.scale)
    factory = make_model_factory("logistic", dataset.input_dim,
                                 dataset.num_classes)

    def build(data=dataset, cls=HierMinimax, **run):
        return cls(data, factory, batch_size=8, eta_w=0.05, eta_p=2e-3,
                   tau1=2, tau2=2, m_edges=5, seed=args.seed, **run)

    return dataset, build, dict(rounds=args.rounds,
                                eval_every=max(1, args.rounds // 10))


def _cmd_degradation(args) -> int:
    """Run HierMinimax with and without a fault plan on the same data.

    This is the acceptance demo of the fault-injection layer: the faulted run
    must still converge, with a worst-edge accuracy within ``--tolerance`` of
    the fault-free run.  Exit code 1 signals the tolerance was exceeded.
    """
    from repro.faults import FaultPlan
    from repro.obs import Tracer

    plan = FaultPlan.parse(args.faults)
    dataset, build, schedule = _demo(args)
    print(f"dataset : {dataset}")
    print(f"plan    : {args.faults}")

    def run(faults, obs=None):
        res = build(obs=obs, faults=faults).run(**schedule)
        return res.history.final().record

    clean = run(None)
    obs = Tracer(None)  # metrics-only: collect the fault counters
    faulted = run(plan, obs=obs)
    counters = obs.snapshot()["counters"]

    drop = clean.worst_accuracy - faulted.worst_accuracy
    print(f"\n{'':24s} {'fault-free':>12s} {'faulted':>12s} {'delta':>9s}")
    for label, attr in (("worst edge accuracy", "worst_accuracy"),
                        ("average accuracy", "average_accuracy")):
        a, b = getattr(clean, attr), getattr(faulted, attr)
        print(f"{label:<24s} {a:12.4f} {b:12.4f} {b - a:+9.4f}")
    print("\nfault counters (faulted run):")
    for key in ("clients_dropped_total", "stragglers_total",
                "edge_outages_total", "messages_lost_total",
                "messages_corrupted_total", "retries_total",
                "stale_loss_fallbacks_total", "rounds_degraded",
                "quarantined_senders"):
        if key in counters:
            print(f"  {key:<28s} {counters[key]:g}")
    ok = drop <= args.tolerance
    print(f"\nworst-edge accuracy drop {drop:+.4f} "
          f"{'within' if ok else 'EXCEEDS'} tolerance {args.tolerance:.2f}")
    return 0 if ok else 1


def _cmd_byzantine(args) -> int:
    """Clean vs attacked-mean vs attacked-defended HierMinimax on shared data.

    The acceptance demo of the defense subsystem: under the attack, the
    defended run must keep its worst-edge accuracy within ``--tolerance`` of
    the clean run.  Exit code 1 signals the tolerance was exceeded.  The
    attacked runs share one fault plan, so the attacker roster and tampering
    draws are identical with and without the defense.
    """
    from dataclasses import replace

    from repro.defense import AttackPlan, apply_label_flip, resolve_defense
    from repro.faults import FaultPlan
    from repro.obs import Tracer

    attack = AttackPlan.parse(args.attack)
    dataset, build, schedule = _demo(args)
    if attack.fraction == 0.0 and not attack.clients:
        # Deterministic roster: --fraction of the clients, one per edge area
        # (the first client of each of the first N areas), so the per-cohort
        # breakdown ratio is the same for every run of the demo.
        cpe = dataset.edges[0].num_clients
        n_byz = max(1, round(args.fraction * dataset.num_clients))
        attack = replace(attack, clients=tuple(
            cpe * e for e in range(min(n_byz, dataset.num_edges))))
    plan = FaultPlan(byzantine=attack)
    policy = resolve_defense(args.defense)
    poisoned = apply_label_flip(dataset, attack)
    print(f"dataset : {dataset}")
    n_byz = len(attack.roster(dataset.num_clients))
    print(f"attack  : {args.attack} "
          f"({n_byz}/{dataset.num_clients} clients byzantine)")
    print(f"defense : {policy.describe() if policy else 'mean'}")

    def run(data, faults, defense, obs=None):
        res = build(data, obs=obs, faults=faults,
                    defense=defense).run(**schedule)
        return res.history.final().record

    clean = run(dataset, None, None)
    undefended = run(poisoned, plan, None)
    obs = Tracer(None)  # metrics-only: collect the attack/defense counters
    defended = run(poisoned, plan, policy, obs=obs)
    counters = obs.snapshot()["counters"]

    print(f"\n{'':24s} {'clean':>10s} {'attacked':>10s} {'defended':>10s}")
    for label, attr in (("worst edge accuracy", "worst_accuracy"),
                        ("average accuracy", "average_accuracy")):
        vals = [getattr(r, attr) for r in (clean, undefended, defended)]
        print(f"{label:<24s} " + " ".join(f"{v:10.4f}" for v in vals))
    print("\nbyzantine counters (defended run):")
    for key in ("byzantine_attacks_total", "byzantine_filtered_total",
                "norm_guard_rejections_total"):
        if key in counters:
            print(f"  {key:<28s} {counters[key]:g}")
    drop = clean.worst_accuracy - defended.worst_accuracy
    ok = drop <= args.tolerance
    print(f"\ndefended worst-edge accuracy drop {drop:+.4f} "
          f"{'within' if ok else 'EXCEEDS'} tolerance {args.tolerance:.2f} "
          f"(undefended drop "
          f"{clean.worst_accuracy - undefended.worst_accuracy:+.4f})")
    return 0 if ok else 1


def _cmd_timesim(args) -> int:
    """Sync vs semi-async HierMinimax under a heterogeneous cost model.

    The acceptance demo of the simulated-time subsystem: on the same data and
    seed, the bounded-staleness variant must reach the synchronous run's final
    worst-edge accuracy (within a small slack) in *strictly less* simulated
    time.  Exit code 1 signals it did not.  The clock is observational, so the
    synchronous trajectory itself is unchanged by the cost model.
    """
    from repro.core.semiasync import SemiAsyncHierMinimax

    dataset, build, schedule = _demo(args)
    print(f"dataset    : {dataset}")
    print(f"cost model : {args.cost_model}")
    print(f"staleness  : {args.staleness}")

    def run(**kwargs):
        res = build(timing=args.cost_model, **kwargs).run(**schedule)
        return res.history.final().record, res.sim_time_s

    sync_rec, sync_t = run()
    semi_rec, semi_t = run(cls=SemiAsyncHierMinimax,
                           staleness=args.staleness)

    print(f"\n{'':24s} {'sync':>12s} {'semi-async':>12s}")
    for label, attr in (("worst edge accuracy", "worst_accuracy"),
                        ("average accuracy", "average_accuracy")):
        a, b = getattr(sync_rec, attr), getattr(semi_rec, attr)
        print(f"{label:<24s} {a:12.4f} {b:12.4f}")
    print(f"{'simulated time (s)':<24s} {sync_t:12.4f} {semi_t:12.4f}")
    faster = semi_t < sync_t
    close = semi_rec.worst_accuracy >= sync_rec.worst_accuracy - 0.02
    speedup = sync_t / semi_t if semi_t > 0 else float("inf")
    print(f"\nsemi-async {'is' if faster else 'is NOT'} faster "
          f"({speedup:.2f}x) and its worst-edge accuracy "
          f"{'matches' if close else 'LAGS'} the synchronous run")
    if args.staleness == 0:
        exact = (semi_t == sync_t
                 and semi_rec.worst_accuracy == sync_rec.worst_accuracy)
        print(f"staleness=0 reproduction: {'exact' if exact else 'BROKEN'}")
        return 0 if exact else 1
    return 0 if faster and close else 1


def _cmd_churn(args) -> int:
    """Clean vs churned-with-re-homing vs churned-without-failover HierMinimax.

    The acceptance demo of the dynamic-membership layer: under a 20%%
    per-round edge-crash campaign with client churn, the self-healing run
    (orphans re-homed to surviving edges) must hold its worst-edge accuracy
    within ``--tolerance`` of the clean run and at least match the run where
    failover is disabled.  The membership ledger must balance: arrivals minus
    departures equal the net change of the active population.  Exit code 1
    signals any of those checks failed.
    """
    from dataclasses import replace

    from repro.membership import ChurnPlan
    from repro.obs import Tracer

    plan = ChurnPlan.parse(args.churn)
    dataset, build, schedule = _demo(args)
    print(f"dataset : {dataset}")
    print(f"churn   : {args.churn}")

    def run(churn, obs=None):
        algo = build(obs=obs, churn=churn, timing=args.cost_model)
        initial = len(algo.membership.active) if algo.membership.enabled else 0
        res = algo.run(**schedule)
        final = len(algo.membership.active) if algo.membership.enabled else 0
        return res, initial, final

    clean, _, _ = run(None)
    obs = Tracer(None)  # metrics-only: collect the membership counters
    rehomed, initial, final = run(plan, obs=obs)
    norehome, _, _ = run(replace(plan, rehome=False))
    counters = obs.snapshot()["counters"]

    recs = {name: res.history.final().record
            for name, res in (("clean", clean), ("re-homed", rehomed),
                              ("no-failover", norehome))}
    print(f"\n{'':24s} {'clean':>12s} {'re-homed':>12s} {'no-failover':>12s}")
    for label, attr in (("worst edge accuracy", "worst_accuracy"),
                        ("average accuracy", "average_accuracy")):
        vals = [getattr(recs[n], attr)
                for n in ("clean", "re-homed", "no-failover")]
        print(f"{label:<24s} " + " ".join(f"{v:12.4f}" for v in vals))
    print(f"{'total traffic (MB)':<24s} "
          + " ".join(f"{res.comm.total_bytes / 1e6:12.2f}"
                     for res in (clean, rehomed, norehome)))
    if args.cost_model:
        print(f"{'simulated time (s)':<24s} "
              + " ".join(f"{res.sim_time_s:12.3f}"
                         for res in (clean, rehomed, norehome)))
    print("\nmembership counters (re-homed run):")
    for key in ("membership_joined_total", "membership_left_total",
                "membership_rehomed_total", "membership_edge_crashes_total",
                "membership_recovered_total", "membership_partitions_total",
                "membership_heals_total", "membership_handoffs_total"):
        if key in counters:
            print(f"  {key:<30s} {counters[key]:g}")

    joined = int(counters.get("membership_joined_total", 0))
    left = int(counters.get("membership_left_total", 0))
    balanced = joined - left == final - initial
    print(f"\nledger: {joined} joined - {left} left == "
          f"{final} - {initial} active "
          f"({'balanced' if balanced else 'IMBALANCED'})")
    drop = recs["clean"].worst_accuracy - recs["re-homed"].worst_accuracy
    survives = (recs["re-homed"].worst_accuracy
                >= recs["no-failover"].worst_accuracy)
    ok = balanced and survives and drop <= args.tolerance
    print(f"re-homed worst-edge accuracy drop {drop:+.4f} "
          f"{'within' if drop <= args.tolerance else 'EXCEEDS'} tolerance "
          f"{args.tolerance:.2f}; re-homing "
          f"{'recovers' if survives else 'DOES NOT recover'} the "
          f"no-failover accuracy "
          f"({recs['re-homed'].worst_accuracy:.4f} vs "
          f"{recs['no-failover'].worst_accuracy:.4f})")
    return 0 if ok else 1


def _cmd_population(args) -> int:
    """Acceptance gate of the virtual-population layer; exit 1 on failure.

    Gate 1 (equivalence): HierMinimax on a tiny eager dataset must produce
    bit-identical parameters when the same dataset is wrapped as a degenerate
    population (``population=as_population(dataset)``) — the virtual plumbing
    may not perturb a single floating-point operation of the eager path.

    Gate 2 (scale): a ``--clients``-sized virtual population (default 100k)
    trains for ``--rounds`` rounds while a tracemalloc peak tracker watches
    Python-heap allocations; the peak must stay under ``--budget-mb``, which
    only holds if per-round memory is O(sampled cohort), not O(population).
    """
    import numpy as np

    from repro.core.hierminimax import HierMinimax
    from repro.data.registry import make_federated_dataset
    from repro.nn.models import make_model_factory
    from repro.obs import PeakMemoryTracker
    from repro.population import PopulationSpec, as_population

    ok = True
    if not args.skip_equivalence:
        dataset = make_federated_dataset("emnist_digits", seed=args.seed,
                                         scale="tiny")
        factory = make_model_factory("logistic", dataset.input_dim,
                                     dataset.num_classes)
        kwargs = dict(tau1=2, tau2=2, m_edges=3, batch_size=8,
                      seed=args.seed)
        eager = HierMinimax(dataset, factory, **kwargs).run(rounds=3)
        wrapped = HierMinimax(None, factory,
                              population=as_population(dataset),
                              **kwargs).run(rounds=3)
        identical = (np.array_equal(eager.final_params,
                                    wrapped.final_params)
                     and np.array_equal(eager.final_weights,
                                        wrapped.final_weights))
        print(f"equivalence: eager vs wrapped-eager "
              f"{'bit-identical' if identical else 'DIVERGED'}")
        ok = ok and identical

    edges = args.edges or max(10, args.clients // 100)
    spec = PopulationSpec(num_edges=edges,
                          clients_per_edge=args.clients // edges,
                          samples_per_client=8, test_per_edge=16,
                          eval_edges=min(5, edges), seed=args.seed)
    factory = make_model_factory("logistic", spec.input_dim,
                                 spec.num_classes)
    tracker = PeakMemoryTracker()
    try:
        algo = HierMinimax(spec, factory, tau1=2, tau2=2,
                           m_edges=min(args.m_edges, edges), batch_size=8,
                           seed=args.seed)
        result = algo.run(rounds=args.rounds)
        peak_mb = tracker.peak_bytes() / 1e6
        pop = algo.population
        print(f"scale: {spec.num_clients:,} clients / {edges:,} edges, "
              f"{args.rounds} rounds -> "
              f"avg acc {result.history.final().record.average_accuracy:.4f}")
        print(f"cohort: materialized {pop.clients_materialized_total:,} "
              f"total, max {pop.max_live_clients:,} per round, "
              f"{len(pop.store):,} with stored state "
              f"({pop.store.record_bytes():,} record bytes)")
        within = peak_mb <= args.budget_mb
        print(f"memory: tracemalloc peak {peak_mb:.1f} MB "
              f"{'within' if within else 'EXCEEDS'} budget "
              f"{args.budget_mb:.0f} MB")
        ok = ok and within
    finally:
        tracker.close()
    return 0 if ok else 1


def _cmd_chaos(args) -> int:
    """Run the deterministic chaos campaign; exit 1 unless every scenario
    recovers bit-identically (see :mod:`repro.chaos.campaign`)."""
    from repro.chaos.campaign import (campaign_ok, format_campaign,
                                      run_campaign)

    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    outcomes = run_campaign(seed=args.seed, rounds=args.rounds,
                            backends=backends, workdir=args.workdir)
    print(format_campaign(outcomes))
    return 0 if campaign_ok(outcomes) else 1


def _cmd_substrate(args) -> int:
    """Acceptance gate of the execution substrate; exit 1 on failure.

    Gate 1 (bit-identity): one multi-step local-training dispatch — logistic
    AND MLP engines, a duplicated client (with-replacement sampling shape),
    mid-run ``checkpoint_after`` snapshots — must come back byte-identical to
    serial from every available backend.  The vectorized backend must take
    the batched kernel for *every* task of both models: a silent per-task
    serial fallback fails the gate even though the bits would match.

    Gate 2 (fused evaluation): the fused ``accuracy_and_loss`` sweep of
    :func:`~repro.metrics.evaluation.evaluate_per_edge` must equal the
    pre-fusion two-pass evaluation (``accuracy`` then ``loss``)
    byte-for-byte on every edge test set.
    """
    import numpy as np

    from repro.data.registry import make_federated_dataset
    from repro.exec import (ClientWork, available_backends, make_backend,
                            run_local_steps)
    from repro.metrics.evaluation import evaluate_per_edge
    from repro.nn.models import make_model_factory
    from repro.obs import Tracer
    from repro.sim.builder import build_flat_clients
    from repro.utils.rng import RngFactory

    fed = make_federated_dataset("emnist_digits", scale=args.scale,
                                 seed=args.seed)
    print(f"dataset : {fed}")
    ckpt = max(1, args.steps // 2)
    ok = True

    print(f"\ngate 1: dispatch bit-identity ({args.steps} steps, "
          f"checkpoint_after={ckpt}, duplicate client)")
    factories = {
        "logistic": make_model_factory("logistic", fed.input_dim,
                                       fed.num_classes, l2=1e-3),
        "mlp": make_model_factory("mlp", fed.input_dim, fed.num_classes,
                                  hidden=(16,), l2=1e-3),
    }
    for model, factory in factories.items():
        engine = factory()
        engine.initialize(args.seed)
        w0 = engine.get_params()

        def dispatch(name):
            clients = build_flat_clients(
                fed, batch_size=8, rng_factory=RngFactory(args.seed + 77))
            work = ([ClientWork(c, args.steps, checkpoint_after=ckpt)
                     for c in clients]
                    + [ClientWork(clients[0], args.steps,
                                  checkpoint_after=ckpt)])
            tracer = Tracer(None)
            with make_backend(name, workers=2) as b:
                results = run_local_steps(b, engine, w0, work, lr=0.05,
                                          obs=tracer)
            counters = tracer.snapshot()["counters"]
            tracer.close()
            ends = np.stack([r.w_end for r in results])
            ckpts = np.stack([r.w_checkpoint for r in results])
            return ends, ckpts, counters, len(work)

        ref_ends, ref_ckpts, _, n_tasks = dispatch("serial")
        for name in available_backends():
            if name == "serial":
                continue
            ends, ckpts, counters, _ = dispatch(name)
            identical = (np.array_equal(ref_ends, ends)
                         and np.array_equal(ref_ckpts, ckpts))
            note = ""
            if name == "vectorized":
                batched = int(counters.get("exec_vectorized_tasks_total", 0))
                note = f"  batched {batched}/{n_tasks}"
                identical = identical and batched == n_tasks
            status = "ok" if identical else "FAIL"
            print(f"  {model:<9s} {name:<11s} {status}{note}")
            ok = ok and identical

    print("\ngate 2: fused evaluation == two-pass bytes")
    for model, factory in factories.items():
        engine = factory()
        engine.initialize(args.seed + 1)
        w = engine.get_params()
        acc_old = np.empty(fed.num_edges)
        loss_old = np.empty(fed.num_edges)
        for j, edge in enumerate(fed.edges):
            acc_old[j] = engine.accuracy(edge.test.X, edge.test.y)
            loss_old[j] = engine.loss(edge.test.X, edge.test.y)
        acc_new, loss_new = evaluate_per_edge(engine, w, fed)
        identical = (acc_old.tobytes() == acc_new.tobytes()
                     and loss_old.tobytes() == loss_new.tobytes())
        print(f"  {model:<9s} {'ok' if identical else 'FAIL'}")
        ok = ok and identical

    print(f"\nsubstrate gate: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_info() -> int:
    import repro

    print(f"repro {repro.__version__} — HierMinimax (ICPP '24) reproduction")
    print(f"algorithms : {sorted(repro.ALGORITHMS)}")
    print(f"datasets   : {list(repro.DATASET_NAMES)}")
    print("docs       : README.md, DESIGN.md, EXPERIMENTS.md")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.backend is not None or args.workers is not None:
        # Subcommands build algorithms through several paths (figures, tables,
        # degradation demo); the environment is the one channel they all
        # consult via repro.exec.resolve_backend.
        import os

        from repro.exec import BACKEND_ENV, WORKERS_ENV

        if args.backend is not None:
            os.environ[BACKEND_ENV] = args.backend
        if args.workers is not None:
            os.environ[WORKERS_ENV] = str(args.workers)
    if args.command in ("fig3", "fig4"):
        return _cmd_figure(args, args.command)
    if args.command == "table1":
        return _cmd_table1(args)
    if args.command == "table2":
        return _cmd_table2(args)
    if args.command == "tradeoff":
        return _cmd_tradeoff(args)
    if args.command == "trace-report":
        return _cmd_trace_report(args)
    if args.command == "trace-profile":
        return _cmd_trace_profile(args)
    if args.command == "perf-check":
        return _cmd_perf_check(args)
    if args.command == "degradation":
        return _cmd_degradation(args)
    if args.command == "byzantine":
        return _cmd_byzantine(args)
    if args.command == "timesim":
        return _cmd_timesim(args)
    if args.command == "churn":
        return _cmd_churn(args)
    if args.command == "population":
        return _cmd_population(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "substrate":
        return _cmd_substrate(args)
    return _cmd_info()
