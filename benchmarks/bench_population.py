"""Virtual-population bench: fixed-memory training at growing population size.

The headline claim of the population layer is that peak memory tracks the
*sampled cohort*, not the population: a run over 10x the clients at the same
``m_edges`` x ``clients_per_edge`` cohort should allocate (to noise) the same
Python heap.  The bench trains HierMinimax over a small and a 10x population
with identical cohort shape after one untracked warm-up run, records both
tracemalloc peaks, and distills

* ``mem_independence = peak_small / peak_large`` — the gated ratio; it falls
  below the perf-check floor exactly when the large run's memory starts
  scaling with population size,
* the cohort counters, communication totals and client-state store footprint
  (``store_record_bytes``, the summed length of every packed client record)
  of the large run (exact), and
* the raw peaks, gated from above by the one-sided ``memory`` kind, and the
  wall time (informational ``seconds``; machine-dependent).

``python -m repro perf-check`` compares the distillation against the
committed ``BENCH_population.json`` baseline at the repo root.
"""

from __future__ import annotations

import gc
import time

from repro.core.hierminimax import HierMinimax
from repro.nn.models import make_model_factory
from repro.obs import PeakMemoryTracker
from repro.population import PopulationSpec

# Identical cohort shape (m_edges x clients_per_edge), 10x the population.
SMALL = PopulationSpec.parse(
    "edges=20,clients_per_edge=100,samples=4,test=8,eval_edges=5,seed=0")
LARGE = PopulationSpec.parse(
    "edges=200,clients_per_edge=100,samples=4,test=8,eval_edges=5,seed=0")
M_EDGES = 5
ROUNDS = 5


def _train(spec: PopulationSpec, tracker: PeakMemoryTracker) -> dict:
    """Run the spec and distill scalars only, so nothing heavy is retained
    across runs (a held-over store would inflate the next run's peak)."""
    factory = make_model_factory("logistic", spec.input_dim, spec.num_classes)
    gc.collect()
    tracker.reset_peak()
    baseline = tracker.current_bytes()
    t0 = time.perf_counter()
    algo = HierMinimax(spec, factory, tau1=2, tau2=2, m_edges=M_EDGES,
                       batch_size=4, eta_w=0.05, eta_p=2e-3, seed=0)
    result = algo.run(rounds=ROUNDS)
    wall_s = time.perf_counter() - t0
    pop = algo.population
    return {
        "peak_bytes": tracker.peak_bytes() - baseline,
        "wall_s": wall_s,
        "materialized": pop.clients_materialized_total,
        "max_live": pop.max_live_clients,
        "stored": len(pop.store),
        "record_bytes": pop.store.record_bytes(),
        "comm_bytes": result.comm.total_bytes,
        "average_accuracy": result.history.final().record.average_accuracy,
    }


def test_population_memory_independence(bench_trajectory, save_report):
    """10x the population at the same cohort shape: same heap, more clients."""
    tracker = PeakMemoryTracker()
    try:
        # Untracked warm-up: the first run's one-time allocations (lazily
        # imported modules, first-use caches) would otherwise land in the
        # small run's window and inflate the ratio.
        _train(SMALL, tracker)
        small = _train(SMALL, tracker)
        large = _train(LARGE, tracker)
    finally:
        tracker.close()

    small_peak, large_peak = small["peak_bytes"], large["peak_bytes"]
    independence = small_peak / large_peak

    lines = [
        f"{'population':<22s} {'clients':>10s} {'peak MB':>9s} "
        f"{'materialized':>13s} {'max cohort':>10s} {'wall s':>7s}",
        f"{'small':<22s} {SMALL.num_clients:>10,d} {small_peak / 1e6:>9.2f} "
        f"{small['materialized']:>13,d} {small['max_live']:>10,d} "
        f"{small['wall_s']:>7.2f}",
        f"{'large (10x)':<22s} {LARGE.num_clients:>10,d} "
        f"{large_peak / 1e6:>9.2f} "
        f"{large['materialized']:>13,d} {large['max_live']:>10,d} "
        f"{large['wall_s']:>7.2f}",
        f"memory independence ratio (small/large): {independence:.3f}",
    ]
    save_report("population_memory", {
        "small": {"clients": SMALL.num_clients, **small},
        "large": {"clients": LARGE.num_clients, **large},
        "independence": independence,
    }, "\n".join(lines))

    bench_trajectory("population", {
        "mem_independence": {"value": independence, "kind": "ratio"},
        "clients_materialized_total": {
            "value": large["materialized"], "kind": "counter"},
        "max_live_clients": {"value": large["max_live"], "kind": "counter"},
        "stored_clients": {"value": large["stored"], "kind": "counter"},
        "store_record_bytes": {"value": large["record_bytes"], "kind": "bytes"},
        "total_comm_bytes": {"value": large["comm_bytes"], "kind": "bytes"},
        "final_average_accuracy": {
            "value": large["average_accuracy"], "kind": "exact"},
        "mem_peak_small_bytes": {"value": small_peak, "kind": "memory"},
        "mem_peak_large_bytes": {"value": large_peak, "kind": "memory"},
        "wall_large_s": {"value": large["wall_s"], "kind": "seconds"},
    }, context={"small_clients": SMALL.num_clients,
                "large_clients": LARGE.num_clients,
                "m_edges": M_EDGES, "rounds": ROUNDS})

    # The cohort never approached population size, and 10x the population
    # cost (to noise) no extra heap.
    assert large["max_live"] < LARGE.num_clients // 10
    assert independence > 0.5, \
        f"peak memory grew with population size: {small_peak / 1e6:.1f} MB " \
        f"-> {large_peak / 1e6:.1f} MB"
