"""Shared configuration of the reproduction benchmarks.

The ``fig``/``table`` benches regenerate one table or figure of the paper (see
DESIGN.md §4) and print the reproduced rows/series; the ``ablation`` and
``theory_bounds`` benches probe the paper's design knobs and Theorem 1.
``bench_byzantine.py``, ``bench_churn.py`` and ``bench_time_to_accuracy.py``
run a robustness comparison of :mod:`repro.experiments.scenarios` at its bench
size (the ``scenario_bench`` fixture), and ``bench_substrate.py`` /
``bench_population.py`` measure the execution and population layers.  Raw
results are archived as JSON under ``benchmarks/results/``.

Options
-------
``--repro-scale {tiny,small,paper}``
    Size tier of the experiment benches (default ``small``; ``tiny`` for smoke
    runs, ``paper`` for the full §6 hyperparameters — hours of compute).
``--repro-seeds N``
    Number of seed replicates averaged in the figure benches (default 3).
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def pytest_addoption(parser):
    parser.addoption("--repro-scale", action="store", default="small",
                     choices=("tiny", "small", "paper"),
                     help="experiment size tier for the reproduction benches")
    parser.addoption("--repro-seeds", action="store", type=int, default=3,
                     help="seed replicates averaged in figure benches")


@pytest.fixture(scope="session")
def repro_scale(request) -> str:
    return request.config.getoption("--repro-scale")


@pytest.fixture(scope="session")
def repro_seeds(request) -> tuple[int, ...]:
    n = max(1, int(request.config.getoption("--repro-seeds")))
    return tuple(range(n))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def make_tracer(results_dir):
    """Callable fixture: build a :class:`repro.obs.Tracer` whose JSONL trace is
    archived as ``results/<name>.trace.jsonl``.  Tracers are closed at test
    teardown so partial traces still end with their ``trace_end`` record."""
    from repro.obs import Tracer

    tracers: list[Tracer] = []

    def _make(name: str, **kwargs) -> Tracer:
        tracer = Tracer(results_dir / f"{name}.trace.jsonl", **kwargs)
        tracers.append(tracer)
        return tracer

    yield _make
    for tracer in tracers:
        tracer.close()


@pytest.fixture(scope="session")
def bench_trajectory(results_dir):
    """Callable fixture: accumulate normalized perf-trajectory metrics.

    Benches call ``bench_trajectory("substrate", {name: {"value": v, "kind":
    k}}, context={...})`` with the machine-independent distillation of their
    run (counters, traffic bytes, deterministic sim seconds, backend speedup
    ratios; wall times carry kind ``"seconds"`` and never gate).  At session
    teardown each bench's metrics are written as
    ``results/BENCH_<bench>.json`` — the file ``python -m repro perf-check``
    compares against the committed baseline of the same name at the repo
    root.  Metric kinds are validated at contribution time, so a typo fails
    inside the contributing test, not at teardown.
    """
    from repro.obs.perfcheck import normalize_metrics, write_bench

    acc: dict[str, dict] = {}
    contexts: dict[str, dict] = {}

    def _add(bench: str, metrics: dict, *, context: dict | None = None):
        acc.setdefault(bench, {}).update(normalize_metrics(metrics))
        if context:
            contexts.setdefault(bench, {}).update(context)

    yield _add
    for bench, metrics in acc.items():
        write_bench(results_dir / f"BENCH_{bench}.json", bench, metrics,
                    context=contexts.get(bench, {}))


@pytest.fixture
def scenario_bench(benchmark, repro_scale, save_report, bench_trajectory):
    """Callable fixture: ``scenario_bench(scenario, report)`` runs a
    :mod:`repro.experiments.scenarios` scenario at the bench's size, archives
    its report as ``results/<report>_<scale>.json``, emits its gated metrics
    (tiny scale only — the baseline is pinned there) and asserts its
    checks."""
    from repro.experiments.scenarios import run_scenario

    def _run(scenario, report: str):
        size = "tiny" if repro_scale == "tiny" else "small"
        run = benchmark.pedantic(run_scenario, args=(scenario, size),
                                 iterations=1, rounds=1)
        save_report(f"{report}_{repro_scale}", run.payload(), run.report)
        if size == "tiny":
            bench_trajectory(scenario.bench, {
                name: {"value": run.metrics[name], "kind": kind}
                for name, kind in scenario.gated.items()},
                context=vars(run.params))
        assert run.ok, run.report

    return _run


@pytest.fixture(scope="session")
def save_report(results_dir):
    """Callable fixture: archive a payload as JSON, print the text report, and
    append it to the consolidated ``results/reports.txt`` (readable even when
    pytest captures stdout)."""
    from repro.utils.serialization import save_json

    reports_file = results_dir / "reports.txt"

    def _save(name: str, payload, report: str) -> None:
        save_json(results_dir / f"{name}.json", payload)
        with reports_file.open("a") as fh:
            fh.write(f"\n===== {name} =====\n{report}\n")
        print()
        print(report)

    return _save
