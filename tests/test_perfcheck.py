"""Tests for the tracked perf trajectory (repro.obs.perfcheck + CLI).

The contract: benches distil runs into normalized ``BENCH_<name>.json``
metric files, a committed baseline lives at the repo root, and
``python -m repro perf-check`` gates with per-kind tolerances — counters and
bytes exactly, deterministic floats at 1e-9 relative, ratios one-sided from
below, memory peaks one-sided from above, and wall-clock seconds never.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.obs.perfcheck import (
    DEFAULT_RATIO_TOL,
    KINDS,
    MEMORY_TOL,
    compare_bench,
    format_perfcheck,
    load_bench,
    normalize_metrics,
    write_bench,
)

BASELINE = {
    "bench": "demo",
    "metrics": {
        "sgd_steps": {"value": 18000, "kind": "counter"},
        "edge_cloud_bytes": {"value": 112691064, "kind": "bytes"},
        "final_worst_accuracy": {"value": 0.8125, "kind": "exact"},
        "vectorized_speedup": {"value": 3.1, "kind": "ratio"},
        "peak_heap_bytes": {"value": 5_000_000, "kind": "memory"},
        "wall_s": {"value": 12.5, "kind": "seconds"},
    },
}


def variant(**overrides):
    doc = json.loads(json.dumps(BASELINE))
    for name, value in overrides.items():
        doc["metrics"][name]["value"] = value
    return doc


# ------------------------------------------------------------- normalization
class TestNormalize:
    def test_bare_values_default_to_exact(self):
        out = normalize_metrics({"x": 3})
        assert out == {"x": {"value": 3.0, "kind": "exact"}}

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown kind"):
            normalize_metrics({"x": {"value": 1, "kind": "cuonter"}})
        assert "counter" in KINDS

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "BENCH_demo.json"
        write_bench(path, "demo", BASELINE["metrics"],
                    context={"scale": "tiny"})
        doc = load_bench(path)
        assert doc["bench"] == "demo"
        assert doc["metrics"] == normalize_metrics(BASELINE["metrics"])
        assert doc["context"] == {"scale": "tiny"}
        assert path.read_text().endswith("\n")

    def test_load_rejects_non_bench_json(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text('{"not": "a bench"}')
        with pytest.raises(ValueError, match="no 'metrics' key"):
            load_bench(path)


# ------------------------------------------------------------------- gating
class TestCompare:
    def check(self, current, name):
        result = compare_bench(BASELINE, current)
        return next(c for c in result.checks if c.name == name)

    def test_identical_passes(self):
        result = compare_bench(BASELINE, BASELINE)
        assert result.ok and not result.failures
        assert {c.status for c in result.checks} == {"ok", "info"}

    def test_counter_regression_fails(self):
        """The demonstrated-failure acceptance case: a drifted counter means
        the run did different work, and the check must gate on it."""
        result = compare_bench(BASELINE, variant(sgd_steps=17000))
        assert not result.ok
        (fail,) = result.failures
        assert fail.name == "sgd_steps" and fail.status == "fail"
        assert "drift -1000" in fail.detail

    def test_bytes_must_match_exactly(self):
        assert self.check(variant(edge_cloud_bytes=112691065),
                          "edge_cloud_bytes").status == "fail"

    def test_exact_tolerates_1e9_relative(self):
        ok = self.check(variant(final_worst_accuracy=0.8125 * (1 + 1e-10)),
                        "final_worst_accuracy")
        assert ok.status == "ok"
        bad = self.check(variant(final_worst_accuracy=0.8126),
                         "final_worst_accuracy")
        assert bad.status == "fail" and "relative error" in bad.detail

    def test_ratio_is_one_sided(self):
        floor = (1 - DEFAULT_RATIO_TOL) * 3.1
        assert self.check(variant(vectorized_speedup=9.0),
                          "vectorized_speedup").status == "ok"  # faster: fine
        assert self.check(variant(vectorized_speedup=floor + 0.01),
                          "vectorized_speedup").status == "ok"
        collapsed = self.check(variant(vectorized_speedup=floor - 0.01),
                               "vectorized_speedup")
        assert collapsed.status == "fail" and "below" in collapsed.detail

    def test_ratio_tol_configurable(self):
        result = compare_bench(BASELINE, variant(vectorized_speedup=3.0),
                               ratio_tol=0.01)
        assert [c.name for c in result.failures] == ["vectorized_speedup"]

    def test_memory_within_tolerance_passes(self):
        ceiling = (1 + MEMORY_TOL) * 5_000_000
        assert self.check(variant(peak_heap_bytes=ceiling),
                          "peak_heap_bytes").status == "ok"

    def test_memory_growth_beyond_tolerance_fails(self):
        ceiling = (1 + MEMORY_TOL) * 5_000_000
        grown = self.check(variant(peak_heap_bytes=ceiling + 1),
                           "peak_heap_bytes")
        assert grown.status == "fail" and "above" in grown.detail

    def test_memory_improvement_passes(self):
        assert self.check(variant(peak_heap_bytes=1_000),
                          "peak_heap_bytes").status == "ok"

    def test_seconds_never_gate(self):
        row = self.check(variant(wall_s=1e6), "wall_s")
        assert row.status == "info" and not row.gating

    def test_missing_metric_gates(self):
        current = json.loads(json.dumps(BASELINE))
        del current["metrics"]["sgd_steps"]
        result = compare_bench(BASELINE, current)
        assert not result.ok
        assert result.failures[0].status == "missing"

    def test_new_metric_passes_with_note(self):
        current = json.loads(json.dumps(BASELINE))
        current["metrics"]["brand_new"] = {"value": 1.0, "kind": "counter"}
        result = compare_bench(BASELINE, current)
        assert result.ok
        row = next(c for c in result.checks if c.name == "brand_new")
        assert row.status == "new" and "--update" in row.detail

    def test_kind_change_fails(self):
        current = json.loads(json.dumps(BASELINE))
        current["metrics"]["sgd_steps"]["kind"] = "ratio"
        result = compare_bench(BASELINE, current)
        assert any(c.name == "sgd_steps" and "kind changed" in c.detail
                   for c in result.failures)

    def test_format_shows_verdict_and_rows(self):
        text = format_perfcheck(compare_bench(BASELINE,
                                              variant(sgd_steps=17000)))
        assert "FAIL" in text and "[ok  ]" in text and "[info]" in text
        ok_text = format_perfcheck(compare_bench(BASELINE, BASELINE))
        assert "PASS" in ok_text


# ----------------------------------------------------------------------- CLI
class TestPerfCheckCLI:
    @pytest.fixture()
    def dirs(self, tmp_path):
        base = tmp_path / "root"
        results = tmp_path / "results"
        base.mkdir(), results.mkdir()
        write_bench(base / "BENCH_demo.json", "demo", BASELINE["metrics"])
        write_bench(results / "BENCH_demo.json", "demo", BASELINE["metrics"])
        return base, results

    def run(self, base, results, *extra):
        return cli.main(["perf-check", "--baseline-dir", str(base),
                         "--results-dir", str(results), *extra])

    def test_pass_exits_zero(self, dirs, capsys):
        base, results = dirs
        assert self.run(base, results) == 0
        assert "PASS" in capsys.readouterr().out

    def test_regression_exits_one(self, dirs, capsys):
        base, results = dirs
        write_bench(results / "BENCH_demo.json", "demo",
                    variant(sgd_steps=17000)["metrics"])
        assert self.run(base, results) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_result_exits_two(self, dirs, capsys):
        base, results = dirs
        (results / "BENCH_demo.json").unlink()
        assert self.run(base, results) == 2
        assert "run the benchmarks first" in capsys.readouterr().err

    def test_no_baselines_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert self.run(empty, empty) == 2
        assert "no BENCH_*.json baselines" in capsys.readouterr().err

    def test_update_promotes_results(self, dirs):
        base, results = dirs
        fresh = variant(sgd_steps=19000)
        write_bench(results / "BENCH_demo.json", "demo", fresh["metrics"])
        assert self.run(base, results, "--update") == 0
        promoted = load_bench(base / "BENCH_demo.json")
        assert promoted["metrics"]["sgd_steps"]["value"] == 19000.0
        assert self.run(base, results) == 0  # and the gate now passes

    def test_bench_selector(self, dirs, capsys):
        base, results = dirs
        assert self.run(base, results, "--bench", "demo") == 0
        assert self.run(base, results, "--bench", "nonexistent") == 2

    def test_repo_baseline_is_checkable(self, capsys):
        """The committed BENCH_substrate.json must stay a valid baseline:
        comparing it against itself passes (guards hand-edits)."""
        doc = load_bench("BENCH_substrate.json")
        assert doc["bench"] == "substrate"
        assert compare_bench(doc, doc).ok
        kinds = {m["kind"] for m in doc["metrics"].values()}
        assert "counter" in kinds and "ratio" in kinds

    def test_population_baseline_gates_its_memory_peaks(self):
        doc = load_bench("BENCH_population.json")
        assert compare_bench(doc, doc).ok
        for name in ("mem_peak_small_bytes", "mem_peak_large_bytes"):
            assert doc["metrics"][name]["kind"] == "memory"
