"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that set-up time and
peak RSS belong to exactly one run.  It prints one JSON object on its last
stdout line.  Modes:

``setup``   set-up only: imports, backend construction and
            ``run_experiment``'s data generation, with an empty roster;
``plain``   the untraced run (one thin wrapper times HierMinimax rounds);
``ledger``  the traced run: every layer in ``ledger.TARGETS`` wrapped;
``tracer``  untraced, but with the program's own JSONL ``Tracer`` attached.
"""

import time


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python workload (integer arithmetic, then
    small allocations): how fast the host runs this interpreter right now.

    It runs before anything else is imported, so the interpreter's state,
    and hence the work done, is the same on every commit.
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    table = {}
    for i in range(150_000):
        table[i & 1023] = (i, str(i & 63))
    return time.perf_counter() - start


_REFERENCE_S = reference_seconds()
_START = time.perf_counter()  # set-up time includes `import repro`

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import ExitStack, closing  # noqa: E402
from pathlib import Path  # noqa: E402

from ledger import (  # noqa: E402
    Ledger, install, patched, timed, wrapper_costs)
from workloads import WORKLOADS, Workload  # noqa: E402

#: Percentiles considered for a latency tail, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)


def digest(result) -> str:
    """sha256 of a run's final parameters, then its final mixing weights
    (minimax algorithms), as little-endian float64 bytes."""
    import numpy as np

    sha = hashlib.sha256()
    for array in (result.final_params, result.final_weights):
        if array is not None:
            sha.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return sha.hexdigest()


def tail(durations: list[float]) -> dict | None:
    """The highest percentile (nearest rank) with at least ten samples
    beyond it."""
    n = len(durations)
    ordered = sorted(durations)
    for pct in TAIL_PERCENTILES:
        index = math.ceil(n * pct / 100.0) - 1
        if n - 1 - index >= 10:
            return {"pct": pct, "ms": ordered[index] * 1e3, "n": n}
    return None


def build_preset(workload: Workload):
    from repro.experiments.presets import fig3_preset, fig4_preset

    figure, scale, overrides = workload.preset
    make = {"fig3": fig3_preset, "fig4": fig4_preset}[figure]
    return make(scale).with_overrides(**overrides)


def run(workload: Workload, seed: int, mode: str, work: Path,
        spans_path: Path | None) -> dict:
    """Run the workload once; return its measurements and outputs."""
    import numpy as np

    from repro.core.hierminimax import HierMinimax
    from repro.exec import make_backend
    from repro.experiments.runner import run_experiment
    from repro.faults import FaultPlan
    from repro.faults.checkpoint import load_checkpoint_file
    from repro.obs import TraceWriter, Tracer

    preset = build_preset(workload)
    backend = make_backend(workload.backend)
    specs = workload.specs(seed)
    if mode == "setup":
        # Set-up = imports + backend construction + the runner's data_gen.
        pre_call_s = time.perf_counter() - _START
        with closing(backend):
            result = run_experiment(preset, seed=seed, algorithms=(),
                                    backend=backend,
                                    population=specs["population"])
        return {"mode": mode,
                "setup_s": pre_call_s + result.setup_times["data_gen"],
                "reference_s": _REFERENCE_S}
    crossings: list[tuple[float, int, float]] = []

    def logger(event: dict) -> None:
        if (event.get("event") == "round"
                and event.get("algorithm") == "hierminimax"):
            crossings.append((time.perf_counter(), event["round"],
                              event["worst_acc"]))

    ledger = Ledger() if mode == "ledger" else None
    rounds_s: list[float] = []
    out: dict = {"mode": mode}
    with ExitStack() as stack:
        stack.callback(backend.close)
        ckpt_dir = None
        if workload.checkpoint_every:
            ckpt_dir = Path(tempfile.mkdtemp(prefix="ckpt-", dir=work))
            stack.callback(shutil.rmtree, ckpt_dir, True)
        obs = None
        if mode == "tracer":
            trace_file = work / f"tracer-{workload.name}-{seed}.jsonl"
            obs = Tracer(TraceWriter(trace_file))
            stack.callback(trace_file.unlink, True)
            stack.callback(obs.close)
        if ledger is not None:
            stack.enter_context(install(ledger, backend))
        else:
            stack.enter_context(patched(HierMinimax, "run_round",
                                        timed(rounds_s)))
        faults = (None if specs["faults"] is None
                  else FaultPlan.parse(specs["faults"]))
        start = time.perf_counter()
        result = run_experiment(
            preset, seed=seed, algorithms=workload.algorithms,
            logger=logger, obs=obs, backend=backend, faults=faults,
            churn=specs["churn"], defense=specs["defense"],
            cost_model=specs["cost_model"], population=specs["population"],
            checkpoint_dir=ckpt_dir,
            checkpoint_every=workload.checkpoint_every)
        end = time.perf_counter()
        if obs is not None:
            obs.close()
            out["tracer_bytes"] = trace_file.stat().st_size
        hm = result.results["hierminimax"]
        if ckpt_dir is not None:
            # One timed reload of the last checkpoint; it must hold the
            # final model when the round count is a multiple of the period.
            reload = load_checkpoint_file
            if ledger is not None:
                reload = ledger.wrap("faults.load_checkpoint", reload,
                                     span=True)
            state = reload(ckpt_dir / "hierminimax.ckpt.json",
                           expect_algorithm="hierminimax")
            if hm.rounds_run % workload.checkpoint_every == 0:
                out["checkpoint_matches"] = bool(
                    np.array_equal(state["w"], hm.final_params))
    data_gen_s = result.setup_times["data_gen"]
    train_start = start + data_gen_s
    wall_s = end - start - data_gen_s
    reached = None
    for stamp, round_index, worst in crossings:
        if worst >= workload.target:
            reached = {"s": stamp - train_start, "round": round_index}
            break
    out.update({
        "wall_s": wall_s,
        "hm_rounds": hm.rounds_run,
        "hm_wall_s": result.timings["hierminimax"],
        "time_to_target": reached,
        "final_worst_acc": float(hm.history.final().record.worst_accuracy),
        "hm_edge_cloud_bytes": float(hm.comm.edge_cloud_bytes),
        "peak_rss_bytes": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024,
        "digests": {name: digest(res)
                    for name, res in result.results.items()},
        "finite": {name: bool(np.all(np.isfinite(res.final_params)))
                   for name, res in result.results.items()},
    })
    if ledger is None:
        out["hm_round_p50_ms"] = statistics.median(rounds_s) * 1e3
        out["hm_round_n"] = len(rounds_s)
        return out
    out["layers"] = ledger.summary(wall_s)
    out["checkpoint_bytes"] = ledger.checkpoint_bytes
    out["tail"] = tail(ledger.round_s)
    # The reload of the last checkpoint runs after the timed window.
    out["wrapper_s"] = ledger.wrapper_seconds(
        *wrapper_costs(), skip=("faults.load_checkpoint",))
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps({
            "workload": workload.name, "seed": seed,
            "spans": ledger.span_document()}))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "plain", "ledger", "tracer"))
    parser.add_argument("--src", type=Path, required=True,
                        help="the checkout's src/ directory")
    parser.add_argument("--work", type=Path, required=True,
                        help="scratch directory for checkpoints and traces")
    parser.add_argument("--spans", type=Path, default=None,
                        help="write the ledger's spans here (ledger mode)")
    args = parser.parse_args(argv)
    import repro

    if Path(repro.__file__).resolve().parent != (args.src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, "
              f"not from {args.src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        out = run(workload, args.seed, args.mode, args.work, args.spans)
    except Exception:  # noqa: BLE001 - reported to the parent as a failed run
        traceback.print_exc()
        out = {"mode": args.mode, "error": traceback.format_exc(limit=1)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
