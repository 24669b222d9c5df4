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

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    def add_common(p, *, seeds: bool = True):
        p.add_argument("--scale", default="small",
                       choices=("tiny", "small", "paper"))
        p.add_argument("--out", default=None, help="save raw results JSON here")
        if seeds:
            p.add_argument("--seeds", type=int, default=1,
                           help="seed replicates to average")

    for name, what in (("fig3", "Figure 3: convex-loss comparison"),
                       ("fig4", "Figure 4: non-convex comparison")):
        p_fig = add(name, _cmd_figure, help=what)
        add_common(p_fig)
        p_fig.add_argument("--plot", action="store_true",
                           help="render ASCII accuracy curves")

    p_t1 = add("table1", _cmd_table1, help="Table 1: complexity/rate orders")
    p_t1.add_argument("--horizon", type=int, default=100_000)
    p_t1.add_argument("--alpha", type=float, default=0.25)

    p_t2 = add("table2", _cmd_table2, help="Table 2: fairness comparison")
    add_common(p_t2, seeds=False)
    p_t2.add_argument("--datasets", nargs="+", default=None,
                      help="subset of the five Table 2 datasets")

    p_tr = add("tradeoff", _cmd_tradeoff, help="empirical §5 alpha sweep")
    p_tr.add_argument("--horizon", type=int, default=512)
    p_tr.add_argument("--alphas", type=float, nargs="+",
                      default=(0.0, 0.2, 0.4, 0.6))

    p_trace = add("trace-report", _cmd_trace_report,
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

    p_prof = add(
        "trace-profile", _cmd_trace_profile,
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

    p_perf = add(
        "perf-check", _cmd_perf_check,
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

    def add_demo(name, help, *, tolerance=False):
        """A comparison demo's subparser with the flags all four share; an
        unset flag keeps the scenario's demo size (repro.experiments
        .scenarios)."""
        p = add(name, _cmd_scenario, help=help)
        p.add_argument("--scale", choices=("tiny", "small"))
        p.add_argument("--rounds", type=int)
        p.add_argument("--seed", type=int)
        if tolerance:
            p.add_argument("--tolerance", type=float,
                           help="max tolerated worst-edge accuracy drop vs "
                                "the clean run")
        return p

    p_deg = add_demo(
        "degradation", tolerance=True,
        help="graceful-degradation demo: fault-free vs faulted HierMinimax")
    p_deg.add_argument("--faults",
                       help="FaultPlan spec, e.g. "
                            "'client_dropout=0.2,edge_outage=0.05,seed=1'")

    p_byz = add_demo(
        "byzantine", tolerance=True,
        help="byzantine demo: clean vs attacked (mean) vs attacked+defense")
    p_byz.add_argument("--attack",
                       help="AttackPlan spec, e.g. "
                            "'sign_flip,fraction=0.2,seed=1' or "
                            "'loss_inflation,scale=20'; without an explicit "
                            "roster, --fraction of the clients is compromised "
                            "deterministically (one per edge area)")
    p_byz.add_argument("--fraction", type=float,
                       help="byzantine client fraction when the --attack spec "
                            "does not set one")
    p_byz.add_argument("--defense",
                       help="DefensePolicy spec, e.g. 'trimmed_mean' or "
                            "'edge=median,cloud=krum,loss_clip=3'")

    p_ts = add_demo(
        "timesim",
        help="simulated-time demo: sync vs semi-async HierMinimax makespans")
    p_ts.add_argument("--cost-model",
                      help="CostModel spec for repro.simtime.make_cost_model, "
                           "e.g. 'hetero,seed=1,slow_clients=0|7,"
                           "slow_factor=10'")
    p_ts.add_argument("--staleness", type=int,
                      help="semi-async staleness bound S (0 reproduces the "
                           "synchronous trajectory and makespan exactly)")

    p_ch = add_demo(
        "churn", tolerance=True,
        help="dynamic-membership demo: clean vs churn+re-homing vs churn "
             "without failover")
    p_ch.add_argument("--churn",
                      help="ChurnPlan spec for repro.membership.ChurnPlan"
                           ".parse; edge_mttf=5 is a 20%% per-round "
                           "edge-crash campaign")
    p_ch.add_argument("--cost-model",
                      help="CostModel spec pricing failover traffic "
                           "(simulated makespan; numerical results "
                           "unchanged)")

    p_pop = add(
        "population", _cmd_population,
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

    p_chaos = add(
        "chaos", _cmd_chaos,
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

    add("info", _cmd_info, help="version and system inventory")
    return parser


def _cmd_figure(args) -> int:
    from repro.experiments import fig3, fig4, format_figure_report
    from repro.utils.serialization import save_json

    make_figure = fig3 if args.command == "fig3" else fig4
    seeds = tuple(range(max(1, args.seeds)))
    fig = make_figure(scale=args.scale, seeds=seeds)
    print(format_figure_report(fig))
    if args.plot:
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


def _cmd_scenario(args) -> int:
    """Run a comparison demo: the scenario of the subcommand at its demo
    size, with every given flag overriding its parameter; print the report
    and exit 1 unless the scenario's check holds."""
    from repro.experiments.scenarios import SCENARIOS, run_scenario

    scenario = SCENARIOS[args.command]
    flags = {key: value for key, value in vars(args).items()
             if value is not None}
    for flag, expand in scenario.flags.items():
        if flag in flags:
            flags.update(expand(flags.pop(flag)))
    run = run_scenario(scenario, "demo", **{
        key: value for key, value in flags.items()
        if key in scenario.sizes["demo"]})
    print(run.report)
    return 0 if run.ok else 1


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
              f"({pop.store.payload_bytes():,} store bytes)")
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


def _cmd_info(args) -> int:
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
        # Subcommands build algorithms through several paths; the environment
        # is the one channel they all consult (repro.exec.resolve_backend).
        import os

        from repro.exec import BACKEND_ENV, WORKERS_ENV

        if args.backend is not None:
            os.environ[BACKEND_ENV] = args.backend
        if args.workers is not None:
            os.environ[WORKERS_ENV] = str(args.workers)
    return args.func(args)
