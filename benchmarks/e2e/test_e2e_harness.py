"""Tests of the end-to-end benchmark harness itself (not part of tier 1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import time

import pytest

import child
import run
from ledger import (TARGETS, Ledger, _resolve, install, patched, timed,
                    wrapper_costs)
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_nested_self_times_sum_to_wall():
    ledger = Ledger()

    def leaf():
        time.sleep(0.02)

    def middle():
        time.sleep(0.01)
        wrapped_leaf()
        wrapped_leaf()

    def top():
        time.sleep(0.01)
        wrapped_middle()
        wrapped_leaf()

    wrapped_leaf = ledger.wrap("leaf", leaf)
    wrapped_middle = ledger.wrap("middle", middle, span=True)
    wrapped_top = ledger.wrap("top", top, span=True)
    start = time.perf_counter()
    wrapped_top()
    wall = time.perf_counter() - start

    self_total = sum(self_s for _, self_s in ledger.totals.values())
    assert abs(self_total - wall) <= 0.05 * wall
    assert ledger.totals["leaf"][0] == 3
    assert ledger.totals["leaf"][1] == pytest.approx(0.06, rel=0.5)
    assert ledger.totals["middle"][1] == pytest.approx(0.01, rel=0.5)
    top_span, middle_span = ledger.spans
    assert (top_span[1], top_span[4]) == ("top", -1)
    assert (middle_span[1], middle_span[4]) == ("middle", top_span[0])
    # The leaf is finer than a span: folded into its innermost open span.
    assert middle_span[5]["leaf"][0] == 2
    assert top_span[5]["leaf"][0] == 1
    assert middle_span[2] >= top_span[2] and middle_span[3] <= top_span[3]


def test_patched_restores_exactly_the_original():
    class Owner:
        def method(self):
            return 1

    class Child(Owner):
        pass

    original = vars(Owner)["method"]
    sink: list[float] = []
    with patched(Owner, "method", timed(sink)):
        assert Child().method() == 1
    assert vars(Owner)["method"] is original
    with patched(Child, "method", timed(sink)):
        assert Child().method() == 1
    assert "method" not in vars(Child)
    assert len(sink) == 2


def test_wrapper_costs_are_small_and_positive():
    leaf_s, span_s = wrapper_costs(calls=2000, repeats=3)
    assert 0 < leaf_s < 1e-4
    assert 0 < span_s < 1e-4


def test_setup_mode_times_only_set_up(tmp_path):
    out = child.run(shortened("fig3-small"), 0, "setup", tmp_path, None)
    assert set(out) == {"mode", "setup_s", "reference_s"}
    assert 0 < out["setup_s"] < 60
    assert 0 < out["reference_s"] < 60


def test_tail_leaves_ten_samples_beyond():
    rounds = [i / 1000 for i in range(2000)]
    assert child.tail(rounds) == {"pct": 99.5, "ms": pytest.approx(1989.0),
                                  "n": 2000}
    assert child.tail(rounds[:100])["pct"] == 90.0
    assert child.tail(rounds[:10]) is None


def shortened(name: str):
    """The workload at a size that runs in about a second."""
    workload = WORKLOADS[name]
    figure, _, overrides = workload.preset
    population = workload.population
    if population is not None:
        population = population.replace("clients=100000,edges=1000",
                                        "clients=400,edges=20")
    return dataclasses.replace(
        workload, preset=(figure, "tiny", {**overrides, "slots": 160}),
        target=0.0, population=population,
        checkpoint_every=workload.checkpoint_every and 4)


@pytest.fixture(scope="module")
def reps(tmp_path_factory):
    """plain / ledger / tracer repetitions of every shortened workload."""
    out = {}
    for name in WORKLOADS:
        workload = shortened(name)
        work = tmp_path_factory.mktemp(name)
        out[name] = {mode: child.run(workload, 1, mode, work,
                                     work / "spans.json"
                                     if mode == "ledger" else None)
                     for mode in ("plain", "ledger", "tracer")}
    return out


def test_traced_and_untraced_runs_are_bit_identical(reps):
    for name, by_mode in reps.items():
        plain = by_mode["plain"]
        assert plain["digests"], name
        for mode in ("ledger", "tracer"):
            assert by_mode[mode]["digests"] == plain["digests"], (name, mode)
            assert not run.check(by_mode[mode], shortened(name), None, plain)


def test_every_wrapped_attribute_is_restored(tmp_path):
    originals = [(_resolve(t), t.attr, vars(_resolve(t))[t.attr])
                 for t in TARGETS]
    traced = child.run(shortened("faults-ckpt-small"), 2, "ledger", tmp_path,
                       None)
    assert traced["layers"]["core.run"]["calls"] == 1
    for owner, attr, fn in originals:
        assert vars(owner)[attr] is fn, (owner, attr)

    from repro.exec import make_backend

    backend = make_backend("vectorized")
    with install(Ledger(), backend):
        assert "run_tasks" in vars(backend)
        assert all(vars(owner)[attr] is not fn
                   for owner, attr, fn in originals)
    assert "run_tasks" not in vars(backend)
    assert "prepare" not in vars(backend)


def test_traced_run_books_the_robustness_layers(reps):
    faults = reps["faults-ckpt-small"]["ledger"]
    for layer in ("core.run", "core.run_round", "sim.edge.model_update",
                  "faults.receive", "defense.robust_combine",
                  "membership.begin_round", "faults.save_checkpoint",
                  "faults.load_checkpoint", "data.next_batch"):
        assert faults["layers"][layer]["calls"] > 0, layer
    assert faults["checkpoint_bytes"] > 0
    assert faults["tail"]["n"] == faults["hm_rounds"]
    assert 0 < faults["wrapper_s"] < faults["wall_s"]
    population = reps["population-100k"]["ledger"]
    assert population["layers"]["population.client"]["calls"] > 0
    fig3 = reps["fig3-small"]["ledger"]
    assert fig3["layers"]["faults.receive"]["calls"] == 0


def test_emitted_names_are_well_formed_and_declared(reps):
    spec = json.loads(run.BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    declared = {"end_to_end": {m["name"]: m["unit"]
                               for m in spec["end_to_end"]},
                "per_layer": {m["name"]: m["unit"]
                              for m in spec["per_layer"]}}
    for name, by_mode in reps.items():
        e2e = run.end_to_end([by_mode["plain"]], [(0.3, 0.05)], 0.0)
        layers = run.per_layer([by_mode["ledger"], by_mode["tracer"]],
                               by_mode["plain"]["wall_s"])
        for computed, section, units in (
                (e2e, "end_to_end", run.END_TO_END_UNITS),
                (layers, "per_layer", run.PER_LAYER_UNITS)):
            assert set(declared[section]) <= set(computed), (name, section)
            for metric, unit in declared[section].items():
                assert NAME.match(metric), metric
                assert units[metric] == unit, metric


def test_benchmark_json_meets_the_format():
    spec = json.loads(run.BENCHMARK.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200
        assert workload["why"] == WORKLOADS[workload["name"]].why
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 and NAME.match(n) for n in names)
    assert len(json.dumps(spec)) <= 64 * 1024


def test_spans_file_has_parents_and_folds(reps, tmp_path_factory):
    for path in tmp_path_factory.getbasetemp().glob("*/spans.json"):
        doc = json.loads(path.read_text())
        spans = doc["spans"]
        assert spans
        ids = {s["id"] for s in spans}
        assert all(s["parent"] == -1 or s["parent"] in ids for s in spans)
        assert all(s["end"] >= s["start"] for s in spans)
