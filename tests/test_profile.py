"""Tests for the profiler and critical-path layers of repro.obs.

Covers the observability v2 contract: the span profiler's self/cumulative
tables (wall and simulated clocks), folded-stack and speedscope exports, the
critical-path replay of recorded timing trees (chain == makespan, per-entity
blame, parallelism efficiency), lenient ingestion of truncated traces, the
heartbeat progress channel with ``follow_trace``, kill/resume trace
concatenation, and the traced-vs-untraced bit-identicality guarantee on every
execution backend.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import cli
from repro.core.hierminimax import HierMinimax
from repro.data.registry import make_federated_dataset
from repro.exec import available_backends, make_backend
from repro.nn.models import make_model_factory
from repro.obs import (
    NullTracer,
    Tracer,
    TraceWriter,
    analyze_critical_paths,
    analyze_round_tree,
    analyze_trace,
    folded_stacks,
    follow_trace,
    format_critical_path,
    format_profile,
    format_trace_report,
    load_trace,
    profile_trace,
    speedscope_document,
)
from repro.obs.profile import build_span_forest, profile_events
from repro.simtime import SimTimer, make_cost_model

COST_SPEC = "hetero,seed=1,device_sigma=0.3,slow_clients=0,slow_factor=10"


def tiny_algo(obs=None, seed=0, timing=None, backend=None):
    data = make_federated_dataset("emnist_digits", seed=seed, scale="tiny")
    factory = make_model_factory("logistic", data.input_dim, data.num_classes)
    return HierMinimax(data, factory, tau1=2, tau2=2, m_edges=5, batch_size=8,
                       eta_w=0.05, eta_p=2e-3, seed=seed, obs=obs,
                       timing=timing, backend=backend)


def span_ev(name, depth, t, dur, path=None, attrs=None):
    return {"ev": "span", "name": name, "path": path or name, "depth": depth,
            "t": t, "dur_s": dur, "attrs": attrs or {}}


#: A hand-built round tree with a known critical path: the round serially
#: chains a 2-branch parallel fan-out (edge:0 is the straggler at 8 s) and a
#: 2 s cloud step, so the makespan is 10 s while the work is 14 s.
ROUND_TREE = {
    "kind": "round", "round": 3, "dur_s": 10.0, "children": [
        {"kind": "parallel", "label": "edges", "dur_s": 8.0, "children": [
            {"kind": "branch", "label": "edge:0", "dur_s": 8.0, "children": [
                {"kind": "compute", "dur_s": 5.0, "entity": 0},
                {"kind": "transfer", "dur_s": 3.0, "link": "edge_cloud",
                 "entity": 0},
            ]},
            {"kind": "branch", "label": "edge:1", "dur_s": 4.0, "children": [
                {"kind": "compute", "dur_s": 4.0, "entity": 1},
            ]},
        ]},
        {"kind": "compute", "dur_s": 2.0, "entity": "cloud",
         "label": "cloud_update"},
    ],
}


# ------------------------------------------------------- forest reconstruction
class TestSpanForest:
    def test_children_precede_parents(self):
        events = [
            span_ev("inner", 2, 0.1, 0.5, path="run/outer/inner"),
            span_ev("outer", 1, 0.0, 0.6, path="run/outer"),
            span_ev("sibling", 1, 0.7, 0.2, path="run/sibling"),
            span_ev("run", 0, 0.0, 1.0),
        ]
        # Spans are written at close time: "outer" (written after its child)
        # must adopt "inner"; "sibling" closed later at the same depth and
        # stays a direct child of "run".
        forest = build_span_forest(events)
        assert [n.name for n in forest] == ["run"]
        run = forest[0]
        assert [c.name for c in run.children] == ["outer", "sibling"]
        assert [c.name for c in run.children[0].children] == ["inner"]

    def test_proper_nesting_and_self_time(self):
        events = [
            span_ev("a", 1, 0.0, 1.0, path="run/a"),
            span_ev("b", 1, 1.0, 2.0, path="run/b"),
            span_ev("run", 0, 0.0, 4.0),
        ]
        (run,) = build_span_forest(events)
        assert [c.name for c in run.children] == ["a", "b"]
        assert run.self_s == pytest.approx(1.0)  # 4 - (1 + 2)
        assert run.children[0].self_s == pytest.approx(1.0)

    def test_multiple_roots(self):
        events = [
            span_ev("data_gen", 0, 0.0, 0.5),
            span_ev("evaluate", 1, 0.6, 0.1, path="run/evaluate"),
            span_ev("run", 0, 0.6, 0.9),
        ]
        forest = build_span_forest(events)
        assert [n.name for n in forest] == ["data_gen", "run"]
        assert [c.name for c in forest[1].children] == ["evaluate"]

    def test_non_span_events_ignored(self):
        events = [{"ev": "trace_start", "meta": {}},
                  span_ev("run", 0, 0.0, 1.0),
                  {"ev": "trace_end"}]
        assert len(build_span_forest(events)) == 1


# -------------------------------------------------------------- profile tables
class TestProfileTables:
    EVENTS = [
        {"ev": "trace_start", "t": 0.0, "meta": {}},
        span_ev("phase1", 2, 0.0, 3.0, path="run/cloud_round/phase1"),
        span_ev("cloud_round", 1, 0.0, 4.0, path="run/cloud_round",
                attrs={"round": 0, "sim_tree": ROUND_TREE}),
        span_ev("run", 0, 0.0, 5.0),
        {"ev": "trace_end", "t": 5.0},
    ]

    def test_wall_table_self_vs_cum(self):
        profile = profile_events(self.EVENTS)
        assert profile.wall["run"]["cum_s"] == pytest.approx(5.0)
        assert profile.wall["run"]["self_s"] == pytest.approx(1.0)
        assert profile.wall["cloud_round"]["self_s"] == pytest.approx(1.0)
        assert profile.wall["phase1"]["self_s"] == pytest.approx(3.0)
        assert profile.wall_total_s == pytest.approx(5.0)

    def test_sim_table_from_recorded_trees(self):
        profile = profile_events(self.EVENTS)
        assert profile.sim_trees == (ROUND_TREE,)
        assert profile.sim_total_s == pytest.approx(10.0)
        # Leaves aggregate under their kind, scopes under their label; the
        # "round" scope's self time is clamped (children sum to 10 = dur).
        assert profile.sim["compute"]["cum_s"] == pytest.approx(9.0)
        assert profile.sim["transfer"]["cum_s"] == pytest.approx(3.0)
        assert profile.sim["edge:0"]["self_s"] == pytest.approx(0.0)
        assert profile.sim["round"]["self_s"] == pytest.approx(0.0)
        # cloud_update is a *labelled leaf*: it keys by label, not kind.
        assert profile.sim["cloud_update"]["cum_s"] == pytest.approx(2.0)

    def test_format_profile_tables_and_sort(self):
        text = format_profile(profile_events(self.EVENTS))
        assert "wall-clock (per span name):" in text
        assert "simulated time" in text and "total work" in text
        assert "cloud_round" in text and "transfer" in text
        with pytest.raises(ValueError):
            format_profile(profile_events(self.EVENTS), sort="nope")

    def test_format_profile_limit_elides(self):
        text = format_profile(profile_events(self.EVENTS), limit=1)
        assert "rows elided" in text

    def test_folded_wall_stacks(self):
        lines = folded_stacks(profile_events(self.EVENTS), clock="wall")
        folded = dict(line.rsplit(" ", 1) for line in lines)
        assert folded["run"] == str(1_000_000)
        assert folded["run;cloud_round;phase1"] == str(3_000_000)

    def test_folded_sim_stacks(self):
        lines = folded_stacks(profile_events(self.EVENTS), clock="sim")
        folded = {k: int(v) for k, v in
                  (line.rsplit(" ", 1) for line in lines)}
        assert folded["round;edges;edge:0;transfer:edge_cloud:0"] == 3_000_000
        assert folded["round;edges;edge:1;compute:1"] == 4_000_000
        assert sum(folded.values()) == 14_000_000  # total work, not makespan
        with pytest.raises(ValueError):
            folded_stacks(profile_events(self.EVENTS), clock="cpu")

    def test_speedscope_document_shape(self):
        doc = speedscope_document(profile_events(self.EVENTS), name="t")
        assert doc["$schema"].endswith("file-format-schema.json")
        assert len(doc["profiles"]) == 1  # one evented profile per root
        events = doc["profiles"][0]["events"]
        opens = [e for e in events if e["type"] == "O"]
        closes = [e for e in events if e["type"] == "C"]
        assert len(opens) == len(closes) == 3
        # Timestamps are monotone — speedscope rejects out-of-order events.
        stamps = [e["at"] for e in events]
        assert stamps == sorted(stamps)
        json.dumps(doc)  # JSON-serializable end to end


# -------------------------------------------------------------- critical path
class TestCriticalPath:
    def test_chain_equals_makespan(self):
        r = analyze_round_tree(ROUND_TREE)
        assert r.round_index == 3
        assert r.makespan_s == 10.0
        assert r.chain_s == pytest.approx(r.makespan_s)
        assert [s.kind for s in r.chain] == ["compute", "transfer", "compute"]

    def test_parallel_picks_slowest_branch(self):
        r = analyze_round_tree(ROUND_TREE)
        # edge:1 (4 s) loses the barrier to edge:0 (8 s): never on the chain.
        assert all(s.blame != "edge:1" for s in r.chain)
        assert r.blame == pytest.approx({"edge:0": 8.0, "cloud_update": 2.0})
        assert r.top_blame == "edge:0"

    def test_kind_at_link_attribution(self):
        r = analyze_round_tree(ROUND_TREE)
        assert r.by_kind == pytest.approx(
            {"compute": 7.0, "transfer@edge_cloud": 3.0})

    def test_width_work_efficiency(self):
        r = analyze_round_tree(ROUND_TREE)
        assert r.width == 2          # the parallel fan-out has two branches
        assert r.work_s == pytest.approx(14.0)
        assert r.efficiency == pytest.approx(14.0 / (10.0 * 2))

    def test_report_aggregates_rounds(self):
        report = analyze_critical_paths([ROUND_TREE, ROUND_TREE])
        assert len(report.rounds) == 2
        assert report.makespan_s == pytest.approx(20.0)
        assert report.work_s == pytest.approx(28.0)
        assert report.blame["edge:0"] == pytest.approx(16.0)
        assert 0.0 < report.efficiency <= 1.0
        json.dumps(report.as_dict())  # --json embedding stays serializable
        assert report.as_dict()["rounds"][0]["top_blame"] == "edge:0"

    def test_format_sections(self):
        text = format_critical_path(analyze_critical_paths([ROUND_TREE]))
        for needle in ("critical path (1 recorded rounds)",
                       "parallelism efficiency", "blame", "edge:0",
                       "transfer@edge_cloud", "waits on edge:0"):
            assert needle in text

    def test_empty_tree_is_harmless(self):
        r = analyze_round_tree({"kind": "round", "round": 0, "dur_s": 0.0,
                                "children": []})
        assert r.chain == () and r.top_blame is None
        assert r.efficiency == 1.0


# ----------------------------------------------------- real traced runs (sim)
class TestTracedRunProfile:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("prof") / "run.trace.jsonl"
        obs = Tracer(str(path))
        result = tiny_algo(
            obs=obs, timing=SimTimer(make_cost_model(COST_SPEC))).run(
                rounds=6, eval_every=3)
        obs.close()
        return path, result

    def test_profile_matches_trace_report(self, traced):
        path, result = traced
        profile = profile_trace(path)
        report = analyze_trace(path)
        for name, slot in profile.wall.items():
            assert report.span_totals[name]["count"] == slot["count"]
        assert len(profile.sim_trees) == result.rounds_run
        assert profile.sim_total_s == pytest.approx(result.sim_time_s,
                                                    rel=1e-9)

    def test_round_chains_sum_to_makespans(self, traced):
        path, result = traced
        report = analyze_critical_paths(profile_trace(path).sim_trees)
        assert [r.round_index for r in report.rounds] == list(range(6))
        for r in report.rounds:
            assert r.chain_s == pytest.approx(r.makespan_s, rel=1e-9)
            assert r.chain and r.width >= 1
            assert 0.0 < r.efficiency <= 1.0 + 1e-9
        assert report.makespan_s == pytest.approx(result.sim_time_s, rel=1e-9)

    def test_trace_report_embeds_critical_path(self, traced):
        path, _ = traced
        text = format_trace_report(analyze_trace(path))
        assert "critical path (6 recorded rounds)" in text
        assert "parallelism efficiency" in text
        assert "heartbeats" in text

    def test_cli_trace_profile(self, traced, tmp_path, capsys):
        path, _ = traced
        assert cli.main(["trace-profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "wall-clock (per span name):" in out
        assert "simulated time" in out
        ss = tmp_path / "out.speedscope.json"
        assert cli.main(["trace-profile", str(path), "--folded", "sim",
                         "--speedscope", str(ss)]) == 0
        out = capsys.readouterr().out
        assert out and all(line.rsplit(" ", 1)[1].isdigit()
                           for line in out.strip().splitlines())
        assert json.loads(ss.read_text())["profiles"]

    def test_cli_missing_trace(self, tmp_path, capsys):
        assert cli.main(["trace-profile", str(tmp_path / "no.jsonl")]) == 2
        assert "no such trace" in capsys.readouterr().err


# ------------------------------------------------------------ lenient loading
class TestTruncatedTrace:
    @pytest.fixture()
    def truncated(self, tmp_path):
        path = tmp_path / "killed.trace.jsonl"
        obs = Tracer(str(path))
        tiny_algo(obs=obs).run(rounds=3, eval_every=3)
        obs.close()
        # Simulate a SIGKILL mid-write: a final line cut off before its quote.
        with path.open("a") as fh:
            fh.write('{"ev": "span", "name": "pha')
        return path

    def test_lenient_load_warns_and_skips(self, truncated):
        with pytest.warns(UserWarning, match="skipping malformed"):
            events = load_trace(truncated)
        assert all(e.get("ev") != "span" or e["name"] != "pha"
                   for e in events)

    def test_strict_load_raises(self, truncated):
        with pytest.raises(ValueError, match="not a JSON trace record"):
            load_trace(truncated, strict=True)

    def test_truncated_trace_still_reports_and_profiles(self, truncated):
        with pytest.warns(UserWarning):
            report = analyze_trace(truncated)
        assert len(report.rounds) == 3
        with pytest.warns(UserWarning):
            profile = profile_trace(truncated)
        assert profile.wall["cloud_round"]["count"] == 3


# ------------------------------------------------------- heartbeats & follow
class TestHeartbeat:
    def test_throttled_to_every_nth(self):
        buf = io.StringIO()
        obs = Tracer(TraceWriter(buf, flush_every=1), heartbeat_every=3)
        for k in range(7):
            obs.heartbeat(round=k)
        beats = [json.loads(line) for line in buf.getvalue().splitlines()
                 if '"heartbeat"' in line]
        assert [b["fields"]["round"] for b in beats] == [0, 3, 6]

    def test_carries_gauges(self):
        buf = io.StringIO()
        obs = Tracer(TraceWriter(buf, flush_every=1))
        obs.gauge("worst_edge_loss", 1.5)
        obs.heartbeat(round=0)
        beat = next(json.loads(line) for line in buf.getvalue().splitlines()
                    if '"heartbeat"' in line)
        assert beat["fields"]["gauges"] == {"worst_edge_loss": 1.5}

    def test_invalid_throttle_rejected(self):
        with pytest.raises(ValueError):
            Tracer(heartbeat_every=0)

    def test_writerless_and_null_tracers_noop(self):
        Tracer(None).heartbeat(round=0)      # no writer: silently dropped
        NullTracer().heartbeat(round=0)

    def test_traced_run_emits_one_per_round(self, tmp_path):
        path = tmp_path / "hb.trace.jsonl"
        obs = Tracer(str(path))
        tiny_algo(obs=obs).run(rounds=4, eval_every=2)
        obs.close()
        report = analyze_trace(path)
        assert len(report.heartbeats) == 4
        assert [h["round"] for h in report.heartbeats] == list(range(4))
        assert all(h["algorithm"] == "hierminimax"
                   for h in report.heartbeats)


class TestFollowTrace:
    def test_follow_reads_to_trace_end(self, tmp_path):
        path = tmp_path / "done.trace.jsonl"
        obs = Tracer(str(path))
        tiny_algo(obs=obs).run(rounds=2, eval_every=2)
        obs.close()
        events = list(follow_trace(path, poll_s=0.01))
        assert events[-1]["ev"] == "trace_end"
        assert events == load_trace(path)

    def test_partial_final_line_buffered_until_timeout(self, tmp_path):
        path = tmp_path / "live.trace.jsonl"
        path.write_text('{"ev": "trace_start", "t": 0.0, "meta": {}}\n'
                        '{"ev": "log", "t": 0.1, "kind": "heartbeat", '
                        '"fields": {"round": 0}}\n'
                        '{"ev": "log", "t": 0.2, "ki')  # writer mid-append
        events = list(follow_trace(path, poll_s=0.01, timeout_s=0.05))
        # The complete records arrive; the partial line is buffered (never
        # yielded truncated) and the idle timeout ends the tail.
        assert [e["ev"] for e in events] == ["trace_start", "log"]

    def test_cli_follow_narrates_heartbeats(self, tmp_path, capsys):
        path = tmp_path / "f.trace.jsonl"
        obs = Tracer(str(path))
        tiny_algo(obs=obs).run(rounds=3, eval_every=3)
        obs.close()
        rc = cli.main(["trace-report", str(path), "--follow",
                       "--poll", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("heartbeat ") == 3
        assert "trace end reached" in out
        assert "per-phase breakdown" in out  # full report still follows


# ------------------------------------------------- kill/resume concatenation
class TestResumedTraceConcatenation:
    def test_concatenated_traces_profile_identically(self, tmp_path):
        """A run killed after its checkpoint and resumed in a second process
        leaves two traces; concatenated, they must profile to the same
        per-kind simulated-time totals as the uninterrupted run's trace."""
        def timed_algo(obs):
            return tiny_algo(obs=obs,
                             timing=SimTimer(make_cost_model(COST_SPEC)))

        full_path = tmp_path / "full.trace.jsonl"
        with Tracer(str(full_path)) as obs:
            full = timed_algo(obs).run(rounds=6, eval_every=3)

        ckpt = tmp_path / "run.ckpt.json"
        first_path = tmp_path / "first.trace.jsonl"
        with Tracer(str(first_path)) as obs:
            timed_algo(obs).run(rounds=3, eval_every=3,
                                checkpoint_path=ckpt, checkpoint_every=3)
        second_path = tmp_path / "second.trace.jsonl"
        with Tracer(str(second_path)) as obs:
            resumed = timed_algo(obs)
            assert resumed.load_checkpoint(ckpt) == 3
            res = resumed.run(rounds=3, eval_every=3)

        np.testing.assert_array_equal(full.final_params, res.final_params)

        cat = tmp_path / "cat.trace.jsonl"
        cat.write_text(first_path.read_text() + second_path.read_text())
        stitched = profile_trace(cat)
        reference = profile_trace(full_path)

        # Same rounds recorded, in order, with bit-equal per-kind totals.
        assert len(stitched.sim_trees) == 6
        assert stitched.sim_total_s == reference.sim_total_s
        assert set(stitched.sim) == set(reference.sim)
        for key, slot in reference.sim.items():
            assert stitched.sim[key]["count"] == slot["count"]
            assert stitched.sim[key]["cum_s"] == slot["cum_s"], key
            assert stitched.sim[key]["self_s"] == slot["self_s"], key

        # The critical-path replay stitches seamlessly too.
        ref_cp = analyze_critical_paths(reference.sim_trees)
        cat_cp = analyze_critical_paths(stitched.sim_trees)
        assert [r.round_index for r in cat_cp.rounds] == list(range(6))
        assert cat_cp.makespan_s == ref_cp.makespan_s
        assert cat_cp.blame == ref_cp.blame


# ------------------------------------------------ determinism (all backends)
class TestBackendBitIdenticality:
    @pytest.mark.parametrize("name", sorted(available_backends()))
    def test_traced_equals_untraced(self, name, tmp_path):
        """Tracing (spans, metrics, heartbeats, recorded timing trees) never
        perturbs the numerics — on every execution backend."""
        plain_algo = tiny_algo(backend=make_backend(name, workers=2),
                               timing=SimTimer(make_cost_model(COST_SPEC)))
        plain = plain_algo.run(rounds=4, eval_every=2)
        plain_algo.close()

        obs = Tracer(str(tmp_path / f"{name}.trace.jsonl"))
        traced_algo = tiny_algo(obs=obs,
                                backend=make_backend(name, workers=2),
                                timing=SimTimer(make_cost_model(COST_SPEC)))
        traced = traced_algo.run(rounds=4, eval_every=2)
        traced_algo.close()
        obs.close()

        assert np.array_equal(plain.final_params, traced.final_params)
        assert np.array_equal(plain.final_weights, traced.final_weights)
        assert plain.comm.cycles == traced.comm.cycles
        assert plain.comm.floats == traced.comm.floats
        # The virtual clock agrees bit-for-bit as well — recording the round
        # trees adds labels to existing scopes, never new ones.
        assert plain.sim_time_s == traced.sim_time_s

    def test_all_three_backends_present(self):
        assert set(available_backends()) == {"serial", "thread",
                                             "vectorized"}
