"""End-to-end paper-run benchmark with an outside-in per-layer wall ledger.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload fig3-small --seed 0 \
        --seconds 20 --trace 0

Every repetition of a workload is a fresh ``python`` subprocess
(``child.py``), one at a time: a single-process closed loop with no pools.
Untraced repetitions are repeated while the next one still fits in
``--seconds`` (at least one).  Set-up is timed in ``SETUP_SAMPLES`` more
fresh interpreters, half before and half after the repetitions; each sample
is rescaled by the host speed its interpreter measured at start (see
README.md) and the median is reported.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` (or a file
path, which also receives the recorded spans as JSON) adds one traced
repetition whose layer functions are wrapped from outside the program (see
``ledger.py``) and reports the per-layer metrics; it times no set-up, which
it does not report.  ``--workload all`` runs every workload in turn.

Outputs are checked on every repetition: final parameters must be finite,
match the committed sha256 digests in ``digests.json`` (seeds 0-2), agree
between traced and untraced runs, and HierMinimax must reach the workload's
worst-edge accuracy target.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ledger import LAYERS
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Fresh-interpreter set-up measurements per workload run (median reported).
SETUP_SAMPLES = 10
#: ``child.reference_seconds()`` at full speed on the host the bounds were
#: set on (a 2-vCPU Xeon VM, Python 3.11): set-up samples are rescaled to
#: this speed.
REFERENCE_S = 0.045
#: A single workload run must end well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0

#: Every end-to-end metric the benchmark computes: name -> unit.
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "hm_rounds_per_s": "1/s",
    "hm_round_p50_ms": "ms", "time_to_target_s": "s",
    "peak_rss_bytes": "bytes", "final_worst_acc": "fraction",
    "hm_edge_cloud_bytes": "bytes", "error_rate": "fraction",
}


#: Every per-layer metric the benchmark computes: name -> unit.
PER_LAYER_UNITS = {
    **{f"{layer}.{field}": unit for layer in LAYERS
       for field, unit in (("calls", "count"), ("self_s", "s"),
                           ("share", "fraction"))},
    "faults.checkpoint_bytes": "bytes",
    "unattributed_share": "fraction",
    "trace_overhead_ratio": "ratio",
    "obs.tracer_overhead_ratio": "ratio",
    "core.run_round.tail_ms": "ms",
}


def declared_metrics(trace: bool) -> list[str]:
    """Metric names BENCHMARK.json declares for this mode, in its order."""
    spec = json.loads(BENCHMARK.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def child_env() -> dict[str, str]:
    """Environment of a workload subprocess: this checkout's ``src`` first,
    one BLAS thread (the bits must not depend on the thread count) and no
    ``REPRO_*`` overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: Workload, seed: int, mode: str, deadline: float,
              work: Path, spans: Path | None = None) -> dict:
    """Run one ``child.py`` repetition; a crash or timeout is an error."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
           "--seed", str(seed), "--mode", mode, "--src", str(SRC),
           "--work", str(work)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        return {"mode": mode, "error": "no time left in the run budget"}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, text=True, check=False)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"mode": mode,
                "error": f"child exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def check(rep: dict, workload: Workload, reference: dict | None,
          baseline: dict | None = None) -> dict[str, str]:
    """Failed algorithm runs of one repetition: ``{algorithm: reason}``.

    ``reference`` holds the committed digests for this seed (``None`` for
    other seeds); ``baseline`` is the untraced repetition a traced one must
    reproduce bit for bit.
    """
    if "error" in rep:
        return {name: rep["error"].strip() for name in workload.algorithms}
    failed: dict[str, str] = {}
    for name in workload.algorithms:
        got = rep["digests"].get(name)
        if got is None:
            failed[name] = "no result"
        elif not rep["finite"][name]:
            failed[name] = "non-finite final parameters"
        elif reference is not None and got != reference.get(name):
            failed[name] = "final-model digest differs from digests.json"
        elif baseline is not None and got != baseline["digests"].get(name):
            failed[name] = f"{rep['mode']} run differs from the untraced run"
    if "hierminimax" not in failed:
        if rep["time_to_target"] is None:
            failed["hierminimax"] = (f"never reached worst-edge accuracy "
                                     f"{workload.target}")
        elif rep.get("checkpoint_matches") is False:
            failed["hierminimax"] = "last checkpoint differs from the result"
    return failed


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, spans: Path | None,
                 reference: dict | None, work: Path) -> dict:
    """Measure one workload; return its metrics, outcome and raw reps."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    #: ``(setup_s, reference_s)`` of each set-up interpreter.
    setups: list[tuple[float, float]] = []

    def sample_setups(count: int) -> None:
        if trace:  # a traced run reports no set-up time
            return
        for _ in range(count):
            probe = run_child(workload, seed, "setup", deadline, work)
            if "error" in probe:
                return
            setups.append((probe["setup_s"], probe["reference_s"]))

    # Set-up samples sit on both sides of the reps, so they span the whole
    # run on a host whose speed drifts.
    sample_setups(SETUP_SAMPLES // 2)
    started = time.perf_counter()
    plain: list[dict] = []
    while True:
        rep_start = time.perf_counter()
        plain.append(run_child(workload, seed, "plain", deadline, work))
        now = time.perf_counter()
        if ("error" in plain[-1]
                or now - started + (now - rep_start) > seconds):
            break
    # Traced reps run right after the untraced ones, so the overhead
    # ratios compare runs close in time.
    extra: list[dict] = []
    if trace:
        extra.append(run_child(workload, seed, "ledger", deadline, work,
                               spans))
        if workload.tracer_probe:
            extra.append(run_child(workload, seed, "tracer", deadline, work))
    sample_setups(SETUP_SAMPLES - len(setups))
    failures = [check(rep, workload, reference) for rep in plain]
    good = [rep for rep, bad in zip(plain, failures) if not bad]
    failures += [check(rep, workload, reference,
                       good[0] if good else None) for rep in extra]
    attempted = len(workload.algorithms) * (len(plain) + len(extra))
    failed = sum(len(f) for f in failures)
    metrics = {}
    if good and (setups or trace):
        metrics = end_to_end(good, setups, failed / attempted)
        if trace and "layers" in extra[0]:
            metrics.update(per_layer(extra, metrics["wall_s"]))
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": [f for f in failures if f], "plain": plain,
            "extra": extra, "setups": setups}


def end_to_end(reps: list[dict], setups: list[tuple[float, float]],
               error_rate: float) -> dict[str, float]:
    """Medians over the untraced repetitions (all of which passed) and over
    the rescaled set-up samples (``setup_s`` only when there are some)."""
    med = statistics.median
    first = reps[0]
    setup = ({"setup_s": med(setup_s * REFERENCE_S / reference_s
                             for setup_s, reference_s in setups)}
             if setups else {})
    return {
        **setup,
        "wall_s": med(r["wall_s"] for r in reps),
        "hm_rounds_per_s": med(r["hm_rounds"] / r["hm_wall_s"] for r in reps),
        "hm_round_p50_ms": med(r["hm_round_p50_ms"] for r in reps),
        "time_to_target_s": med(r["time_to_target"]["s"] for r in reps),
        "peak_rss_bytes": med(r["peak_rss_bytes"] for r in reps),
        "final_worst_acc": first["final_worst_acc"],
        "hm_edge_cloud_bytes": first["hm_edge_cloud_bytes"],
        "error_rate": error_rate,
    }


def per_layer(extra: list[dict], untraced_wall_s: float) -> dict[str, float]:
    """Layer metrics of the traced repetition, plus the tracing costs."""
    traced = extra[0]
    out: dict[str, float] = {}
    attributed = 0.0
    for layer, row in traced["layers"].items():
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.share"] = row["share"]
        if layer != "faults.load_checkpoint":  # runs after the timed window
            attributed += row["share"]
    out["faults.checkpoint_bytes"] = traced["checkpoint_bytes"]
    out["unattributed_share"] = 1.0 - attributed
    # Traced wall over the same run without the wrappers' measured cost:
    # both sides come from one process, so host drift between two runs
    # cannot enter the ratio.
    out["trace_overhead_ratio"] = (
        traced["wall_s"] / (traced["wall_s"] - traced["wrapper_s"]))
    tracer = next((r for r in extra if r["mode"] == "tracer"), None)
    out["obs.tracer_overhead_ratio"] = (
        0.0 if tracer is None or "wall_s" not in tracer
        else tracer["wall_s"] / untraced_wall_s)
    out["core.run_round.tail_ms"] = (traced["tail"] or {"ms": 0.0})["ms"]
    return out


def report(workload: Workload, result: dict, trace: bool) -> None:
    """Human-readable lines: every metric with its unit, then failures."""
    metrics = result["metrics"]
    plain = [r for r in result["plain"] if "error" not in r]
    print(f"== {workload.name}: {len(result['plain'])} untraced rep(s), "
          f"{len(result['setups'])} set-up sample(s), "
          f"{result['failed']}/{result['attempted']} algorithm runs failed")
    for name, unit in END_TO_END_UNITS.items():
        if name in metrics:
            print(f"  {name:<24} {metrics[name]:>16.6g} {unit}")
    if result["setups"]:
        print("  setup_s samples, raw s / reference ms: " + " ".join(
            f"{setup_s:.4f}/{reference_s * 1e3:.1f}"
            for setup_s, reference_s in result["setups"]))
    if plain:
        first = plain[0]
        reached = first["time_to_target"]
        print(f"  hm_round_p50_ms n={first['hm_round_n']} rounds; "
              f"target {workload.target} "
              + (f"reached at round {reached['round']}" if reached
                 else "not reached"))
    if trace and "unattributed_share" in metrics:
        units = PER_LAYER_UNITS
        print(f"  {'layer':<26} {'calls':>9} {'self_s':>9} {'share':>7}")
        rows = sorted(LAYERS, key=lambda l: -metrics[f"{l}.self_s"])
        for layer in rows:
            print(f"  {layer:<26} {metrics[f'{layer}.calls']:>9.0f} "
                  f"{metrics[f'{layer}.self_s']:>9.3f} "
                  f"{metrics[f'{layer}.share']:>7.1%}")
        for name in ("faults.checkpoint_bytes", "unattributed_share",
                     "trace_overhead_ratio", "obs.tracer_overhead_ratio",
                     "core.run_round.tail_ms"):
            print(f"  {name:<26} {metrics[name]:>16.6g} {units[name]}")
        tracer = next((r for r in result["extra"] if "tracer_bytes" in r),
                      None)
        if tracer:
            print(f"  obs.tracer_overhead_ratio: the Tracer wrote "
                  f"{tracer['tracer_bytes']} bytes of JSONL")
        tail = result["extra"][0]["tail"]
        if tail:
            print(f"  core.run_round.tail_ms is HierMinimax's "
                  f"p{tail['pct']:g} over n={tail['n']} traced rounds")
    for failure in result["failures"]:
        for name, reason in failure.items():
            print(f"  FAILED {name}: {reason}")


def load_reference(workload: str, seed: int) -> dict | None:
    """Committed digests for ``(workload, seed)``, or ``None``."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return table.get(workload, {}).get(str(seed))


def record_digests(workload: str, seed: int, digests: dict) -> None:
    """Store ``digests`` as the reference for ``(workload, seed)``."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table.setdefault(workload, {})[str(seed)] = digests
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end paper-run benchmark (see README.md).")
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="untraced measurement time per workload")
    parser.add_argument("--trace", default="0",
                        help="0 = end-to-end metrics; 1 = per-layer metrics "
                             "from a traced run; a path = 1, and write the "
                             "spans there")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this seed's final-params digests in "
                             "digests.json instead of checking them")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    trace = args.trace != "0"
    spans_base = (None if args.trace in ("0", "1")
                  else Path(args.trace).resolve())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    declared = declared_metrics(trace)
    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    attempted = failed = 0
    emitted: dict[str, dict] = {}
    # Checkpoints and Tracer files go to a scratch directory inside the
    # checkout that is removed when the run ends.
    work = Path(tempfile.mkdtemp(prefix=".e2e-work-", dir=ROOT))
    try:
        results = {}
        for name in names:
            spans = spans_base
            if spans is not None and len(names) > 1:
                spans = spans.with_name(f"{spans.stem}.{name}{spans.suffix}")
            reference = (None if args.record_digests
                         else load_reference(name, args.seed))
            results[name] = run_workload(WORKLOADS[name], args.seed,
                                         args.seconds, trace, spans,
                                         reference, work)
            report(WORKLOADS[name], results[name], trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, result in results.items():
        attempted += result["attempted"]
        failed += result["failed"]
        if args.record_digests and not result["failed"]:
            record_digests(name, args.seed, result["plain"][0]["digests"])
        prefix = "" if len(names) == 1 else f"{name}."
        missing = [m for m in declared if m not in result["metrics"]]
        if missing and not result["failed"]:
            raise RuntimeError(f"{name} computed no value for {missing}")
        for metric in declared:
            if metric in result["metrics"]:
                emitted[prefix + metric] = {
                    "value": result["metrics"][metric],
                    "unit": units[metric]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": emitted}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
