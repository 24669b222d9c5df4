"""repro.obs — the telemetry layer of the training stack.

Three cooperating parts (see DESIGN.md §"Observability"):

* :mod:`repro.obs.tracer` — :class:`Tracer` with nestable context-manager
  spans (``run`` → ``cloud_round`` → ``phase1_model_update`` /
  ``phase2_weight_update`` → ``edge_block`` → ``client_local_steps``, plus
  ``evaluate`` and ``data_gen``) and the no-op :class:`NullTracer` default;
* :mod:`repro.obs.metrics` — named counters / gauges / histograms with a
  ``snapshot()`` API;
* :mod:`repro.obs.events` + :mod:`repro.obs.report` — the JSONL run-record
  schema, the :class:`TraceWriter` sink, and the offline ``trace-report``
  analyzer (plus :func:`follow_trace`, the live tail behind
  ``trace-report --follow``);
* :mod:`repro.obs.profile` — the ``trace-profile`` span profiler:
  self/cumulative time tables (wall *and* simulated clock), folded stacks,
  speedscope export;
* :mod:`repro.obs.critical_path` — replays the timing trees recorded by
  :class:`~repro.simtime.SimTimer` into per-round critical chains,
  per-entity blame, and parallelism efficiency;
* :mod:`repro.obs.perfcheck` — normalized ``BENCH_*.json`` bench documents
  and the ``perf-check`` regression gate over them.

Every algorithm, actor, and the experiment runner accept an ``obs=`` keyword
(default :data:`NULL_TRACER`); hot loops pay ~zero cost when tracing is off and
results are bit-identical either way, because the tracer never touches an RNG.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "TraceWriter",
    "format_event",
    "EVENT_KINDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PeakMemoryTracker",
    "TraceReport",
    "RoundRecord",
    "load_trace",
    "analyze_trace",
    "format_trace_report",
    "follow_trace",
    "SpanProfile",
    "profile_trace",
    "format_profile",
    "folded_stacks",
    "speedscope_document",
    "ChainStep",
    "RoundCriticalPath",
    "CriticalPathReport",
    "analyze_round_tree",
    "analyze_critical_paths",
    "format_critical_path",
    "PerfCheckResult",
    "load_bench",
    "write_bench",
    "compare_bench",
    "format_perfcheck",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.critical_path": (
        "ChainStep", "CriticalPathReport", "RoundCriticalPath",
        "analyze_critical_paths", "analyze_round_tree",
        "format_critical_path",
    ),
    "repro.obs.events": ("EVENT_KINDS", "TraceWriter", "format_event"),
    "repro.obs.metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "PeakMemoryTracker",
    ),
    "repro.obs.perfcheck": (
        "PerfCheckResult", "compare_bench", "format_perfcheck", "load_bench",
        "write_bench",
    ),
    "repro.obs.profile": (
        "SpanProfile", "folded_stacks", "format_profile", "profile_trace",
        "speedscope_document",
    ),
    "repro.obs.report": (
        "RoundRecord", "TraceReport", "analyze_trace", "follow_trace",
        "format_trace_report", "load_trace",
    ),
    "repro.obs.tracer": ("NULL_TRACER", "NullTracer", "Span", "Tracer"),
})
