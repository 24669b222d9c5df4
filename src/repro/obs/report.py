"""Offline trace analysis: reconstruct a run from its JSONL trace.

``python -m repro trace-report run.trace.jsonl`` (or
:func:`analyze_trace` / :func:`format_trace_report` programmatically) replays a
trace written by :class:`~repro.obs.tracer.Tracer` and reports

* the per-phase wall-clock breakdown (``phase1_model_update``,
  ``phase2_weight_update``, ``evaluate``, ``data_gen``) and what fraction of
  the measured ``run`` spans those phases cover,
* communication totals replayed from the per-round deltas and the run-final
  snapshot the instrumented :class:`~repro.core.base.FederatedAlgorithm`
  attaches to its spans — these must match the live
  :class:`~repro.topology.comm.CommSnapshot` of the run,
* the round timeline (duration and traffic of each cloud round),
* the fault ledger replayed from ``fault`` events written by
  :class:`~repro.faults.FaultInjector` — injected failures versus the
  recoveries the run survived, in total and per round,
* the byzantine ledger replayed from ``attack``/``defense`` events — uploads
  tampered by the :class:`~repro.defense.AttackPlan` versus the rejections
  and clips the installed :class:`~repro.defense.DefensePolicy` took,
* the membership ledger replayed from ``membership`` events written by
  :class:`~repro.membership.MembershipManager` — client arrivals and
  departures, edge crash/recover episodes, re-homings and partition heals,
  with a joined/left balance check against the population delta,
* the invariant ledger replayed from ``invariant`` events written by an
  attached :class:`~repro.invariants.InvariantMonitor` — which runtime
  invariants were violated, when, and why,
* the resilience ledger replayed from the crash-recovery machinery's events —
  supervised-executor retries (``exec_retry``), checkpoint generation
  fallbacks (``checkpoint_fallback``), detected shard corruption
  (``shard_corrupt_detected``), and injected ``chaos`` kill-points — and
* the final metrics snapshot (counters / gauges / histograms).
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

__all__ = ["TraceReport", "RoundRecord", "load_trace", "analyze_trace",
           "format_trace_report", "follow_trace", "PHASE_SPANS"]

#: Span names treated as "phases" in the breakdown, in display order.
PHASE_SPANS = ("data_gen", "phase1_model_update", "phase2_weight_update",
               "evaluate")

#: Phase spans nested inside ``run`` (data_gen happens outside algorithm runs).
_RUN_PHASES = ("phase1_model_update", "phase2_weight_update", "evaluate")

_BYTES_PER_FLOAT = 8


@dataclass(frozen=True)
class RoundRecord:
    """One ``cloud_round`` span replayed from a trace."""

    algorithm: str
    round_index: int
    start_s: float
    duration_s: float
    floats: float          # payload floats moved during the round (all links)
    cycles: int            # sync cycles completed during the round
    sim_s: float = 0.0     # simulated round makespan (0 without a cost model)

    @property
    def bytes(self) -> float:
        """Wire bytes of the round (floats are float64-equivalent units)."""
        return self.floats * _BYTES_PER_FLOAT


@dataclass(frozen=True)
class TraceReport:
    """Everything :func:`analyze_trace` reconstructs from one trace file."""

    events: int
    span_totals: Mapping[str, Mapping[str, float]]
    run_total_s: float
    phase_times: Mapping[str, float]
    phase_coverage: float          # (phase1+phase2+evaluate) / run wall-clock
    rounds: tuple[RoundRecord, ...]
    comm_cycles: Mapping[str, int]
    comm_messages: Mapping[str, int]
    comm_floats: Mapping[str, float]
    replay_consistent: bool        # per-round deltas sum to the final snapshot
    sim_time_s: float = 0.0        # simulated seconds across the trace's runs
    metrics: Mapping[str, Any] = field(default_factory=dict)
    meta: Mapping[str, Any] = field(default_factory=dict)
    fault_totals: Mapping[str, int] = field(default_factory=dict)
    faults_by_round: Mapping[int, Mapping[str, int]] = field(
        default_factory=dict)
    attack_totals: Mapping[str, int] = field(default_factory=dict)
    defense_totals: Mapping[str, int] = field(default_factory=dict)
    byzantine_by_round: Mapping[int, Mapping[str, int]] = field(
        default_factory=dict)
    membership_totals: Mapping[str, int] = field(default_factory=dict)
    membership_by_round: Mapping[int, Mapping[str, int]] = field(
        default_factory=dict)
    #: Population before round 0 (from the ``population`` ledger entry; -1
    #: when the trace has no membership events).
    membership_initial: int = -1
    #: Population after the last membership transition (-1 when absent).
    membership_final: int = -1
    #: Violations per invariant check name (``invariant`` events).
    invariant_totals: Mapping[str, int] = field(default_factory=dict)
    #: Replayed violation records ``(round, check, message)``, in file order.
    invariant_records: tuple = ()
    #: Recovery machinery actions per event kind (``exec_retry``,
    #: ``checkpoint_fallback``, ``shard_corrupt_detected``, ``chaos``).
    resilience_totals: Mapping[str, int] = field(default_factory=dict)
    #: Recorded per-round timing trees (``sim_tree`` attrs of ``cloud_round``
    #: spans) — input of :mod:`repro.obs.critical_path`.
    sim_trees: tuple = ()
    #: Heartbeat progress records replayed from the trace, in file order.
    heartbeats: tuple = ()

    @property
    def attacks_injected(self) -> int:
        """Total tampered uploads replayed from ``attack`` events."""
        return sum(self.attack_totals.values())

    @property
    def attacks_filtered(self) -> int:
        """Total defense actions (rejections, clips) from ``defense`` events."""
        return sum(self.defense_totals.values())

    @property
    def total_bytes(self) -> float:
        """Replayed traffic volume in wire bytes."""
        return sum(self.comm_floats.values()) * _BYTES_PER_FLOAT

    @property
    def total_cycles(self) -> int:
        """Replayed sync-cycle total across links."""
        return sum(self.comm_cycles.values())

    @property
    def edge_cloud_cycles(self) -> int:
        """Replayed cycles on the cloud-facing links (the theory's measure)."""
        return sum(v for k, v in self.comm_cycles.items()
                   if k in ("edge_cloud", "client_cloud", "level_1"))

    @property
    def members_joined(self) -> int:
        """Total client arrivals replayed from the ``membership`` ledger."""
        return self.membership_totals.get("joined", 0)

    @property
    def members_left(self) -> int:
        """Total client departures replayed from the ``membership`` ledger."""
        return self.membership_totals.get("left", 0)

    @property
    def membership_net_delta(self) -> int:
        """Population change across the trace (final − initial active set).

        The ledger balances when this equals ``members_joined −
        members_left``; 0 when the trace carries no membership events.
        """
        if self.membership_initial < 0 or self.membership_final < 0:
            return 0
        return self.membership_final - self.membership_initial

    @property
    def invariant_violations(self) -> int:
        """Total invariant violations replayed from ``invariant`` events."""
        return sum(self.invariant_totals.values())

    @property
    def recovery_actions(self) -> int:
        """Total crash-recovery actions (retries, fallbacks, detections)."""
        return sum(n for k, n in self.resilience_totals.items() if k != "chaos")

    @property
    def faults_injected(self) -> int:
        """Total injected failures (dropouts, outages, lost/corrupt messages)."""
        return sum(n for k, n in self.fault_totals.items()
                   if not _is_recovery(k))

    @property
    def faults_recovered(self) -> int:
        """Total recovery actions (retries that succeeded, fallbacks, bans)."""
        return sum(n for k, n in self.fault_totals.items() if _is_recovery(k))


def load_trace(path: str | Path, *, strict: bool = False) -> list[dict]:
    """Parse a JSONL trace file into a list of event dicts.

    A run killed mid-write (OOM, SIGKILL, full disk) leaves a truncated final
    line; by default such malformed lines are *skipped with a warning* so the
    surviving prefix still profiles and reports.  Pass ``strict=True`` to get
    the old behaviour: a :class:`ValueError` naming the offending line.
    """
    events = []
    with Path(path).open() as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if strict:
                    raise ValueError(
                        f"{path}:{line_no}: not a JSON trace record: "
                        f"{exc}") from exc
                warnings.warn(
                    f"{path}:{line_no}: skipping malformed trace record "
                    f"(truncated write?): {exc}", stacklevel=2)
    return events


def follow_trace(path: str | Path, *, poll_s: float = 0.5,
                 timeout_s: float | None = None) -> Iterator[dict]:
    """Tail a live trace file, yielding events as the writer appends them.

    Buffers the (possibly partial) final line until its newline arrives, so a
    mid-write poll never yields a truncated record.  Stops when a
    ``trace_end`` event is seen — the writer's close marker — or, when
    ``timeout_s`` is set, after that many seconds without a new event.
    Malformed *complete* lines are skipped with a warning, as in
    :func:`load_trace`.
    """
    buf = ""
    idle_s = 0.0
    with Path(path).open() as fh:
        while True:
            chunk = fh.read()
            if chunk:
                idle_s = 0.0
                buf += chunk
                while True:
                    nl = buf.find("\n")
                    if nl < 0:
                        break
                    line, buf = buf[:nl].strip(), buf[nl + 1:]
                    if not line:
                        continue
                    try:
                        ev = json.loads(line)
                    except json.JSONDecodeError as exc:
                        warnings.warn(f"{path}: skipping malformed trace "
                                      f"record: {exc}", stacklevel=2)
                        continue
                    yield ev
                    if ev.get("ev") == "trace_end":
                        return
            else:
                if timeout_s is not None and idle_s >= timeout_s:
                    return
                time.sleep(poll_s)
                idle_s += poll_s


def _merge_numeric(into: dict, frm: Mapping, cast=float) -> None:
    for k, v in frm.items():
        into[k] = cast(into.get(k, 0)) + cast(v)


def _is_recovery(kind: str) -> bool:
    """Is this ``fault`` event kind a recovery (vs an injected failure)?

    Imported lazily: :mod:`repro.faults` depends on :mod:`repro.obs` for its
    event plumbing, so the reverse import must not happen at module load.
    """
    from repro.faults.injector import RECOVERY_KINDS
    return kind in RECOVERY_KINDS


def analyze_trace(source: str | Path | Iterable[dict]) -> TraceReport:
    """Replay ``source`` (a path or parsed event stream) into a report."""
    events = (load_trace(source) if isinstance(source, (str, Path))
              else list(source))
    span_totals: dict[str, dict] = {}
    rounds: list[RoundRecord] = []
    delta_cycles: dict[str, int] = {}
    delta_messages: dict[str, int] = {}
    delta_floats: dict[str, float] = {}
    final_cycles: dict[str, int] = {}
    final_messages: dict[str, int] = {}
    final_floats: dict[str, float] = {}
    have_final = False
    sim_total = 0.0
    sim_from_rounds = 0.0
    have_sim_final = False
    metrics: Mapping[str, Any] = {}
    meta: Mapping[str, Any] = {}
    fault_totals: dict[str, int] = {}
    faults_by_round: dict[int, dict[str, int]] = {}
    attack_totals: dict[str, int] = {}
    defense_totals: dict[str, int] = {}
    byzantine_by_round: dict[int, dict[str, int]] = {}
    membership_totals: dict[str, int] = {}
    membership_by_round: dict[int, dict[str, int]] = {}
    membership_initial = -1
    membership_final = -1
    invariant_totals: dict[str, int] = {}
    invariant_records: list[tuple] = []
    resilience_totals: dict[str, int] = {}
    resilience_kinds = ("exec_retry", "checkpoint_fallback",
                        "shard_corrupt_detected", "chaos")
    sim_trees: list = []
    heartbeats: list[dict] = []
    for ev in events:
        kind = ev.get("ev")
        if kind == "trace_start":
            meta = ev.get("meta", {})
        elif kind == "metrics":
            metrics = ev.get("data", metrics)
        elif kind == "log" and ev.get("kind") == "heartbeat":
            heartbeats.append(ev.get("fields", {}))
        elif kind == "log" and ev.get("kind") == "fault":
            fields = ev.get("fields", {})
            fault = str(fields.get("fault", "?"))
            fault_totals[fault] = fault_totals.get(fault, 0) + 1
            rnd = int(fields.get("round", -1))
            slot = faults_by_round.setdefault(
                rnd, {"injected": 0, "recovered": 0})
            recovery = fields.get("recovery")
            if recovery is None:
                recovery = _is_recovery(fault)
            slot["recovered" if recovery else "injected"] += 1
        elif kind == "log" and ev.get("kind") == "attack":
            fields = ev.get("fields", {})
            attack = str(fields.get("attack", "?"))
            attack_totals[attack] = attack_totals.get(attack, 0) + 1
            rnd = int(fields.get("round", -1))
            slot = byzantine_by_round.setdefault(
                rnd, {"attacked": 0, "filtered": 0})
            slot["attacked"] += 1
        elif kind == "log" and ev.get("kind") == "membership":
            fields = ev.get("fields", {})
            action = str(fields.get("action", "?"))
            membership_totals[action] = membership_totals.get(action, 0) + 1
            rnd = int(fields.get("round", -1))
            slot = membership_by_round.setdefault(rnd, {})
            slot[action] = slot.get(action, 0) + 1
            active = fields.get("active")
            if active is not None:
                # The opening `population` entry sets the baseline; every
                # later transition carries the post-transition head count.
                if action == "population" or membership_initial < 0:
                    membership_initial = int(active)
                membership_final = int(active)
        elif kind == "log" and ev.get("kind") == "invariant":
            fields = ev.get("fields", {})
            check = str(fields.get("check", "?"))
            invariant_totals[check] = invariant_totals.get(check, 0) + 1
            invariant_records.append((int(fields.get("round", -1)), check,
                                      str(fields.get("message", ""))))
        elif kind == "log" and ev.get("kind") in resilience_kinds:
            key = str(ev.get("kind"))
            resilience_totals[key] = resilience_totals.get(key, 0) + 1
        elif kind == "log" and ev.get("kind") == "defense":
            fields = ev.get("fields", {})
            action = str(fields.get("action", "?"))
            defense_totals[action] = defense_totals.get(action, 0) + 1
            rnd = int(fields.get("round", -1))
            slot = byzantine_by_round.setdefault(
                rnd, {"attacked": 0, "filtered": 0})
            slot["filtered"] += 1
        elif kind == "span":
            name = ev.get("name", "?")
            slot = span_totals.setdefault(name, {"count": 0, "total_s": 0.0})
            slot["count"] += 1
            slot["total_s"] += float(ev.get("dur_s", 0.0))
            attrs = ev.get("attrs", {})
            if name == "cloud_round":
                if "sim_tree" in attrs:
                    sim_trees.append(attrs["sim_tree"])
                comm = attrs.get("comm", {})
                _merge_numeric(delta_cycles, comm.get("cycles", {}), int)
                _merge_numeric(delta_messages, comm.get("messages", {}), int)
                _merge_numeric(delta_floats, comm.get("floats", {}), float)
                sim_s = float(attrs.get("sim_s", 0.0))
                sim_from_rounds += sim_s
                rounds.append(RoundRecord(
                    algorithm=str(attrs.get("algorithm", "?")),
                    round_index=int(attrs.get("round", -1)),
                    start_s=float(ev.get("t", 0.0)),
                    duration_s=float(ev.get("dur_s", 0.0)),
                    floats=float(sum(comm.get("floats", {}).values())),
                    cycles=int(sum(comm.get("cycles", {}).values())),
                    sim_s=sim_s,
                ))
            elif name == "run":
                if "comm_total" in attrs:
                    # Run-final snapshots accumulate across the trace's runs.
                    have_final = True
                    total = attrs["comm_total"]
                    _merge_numeric(final_cycles, total.get("cycles", {}), int)
                    _merge_numeric(final_messages, total.get("messages", {}),
                                   int)
                    _merge_numeric(final_floats, total.get("floats", {}),
                                   float)
                if "sim_total_s" in attrs:
                    have_sim_final = True
                    sim_total += float(attrs["sim_total_s"])
    # Prefer the exact run-final snapshots; fall back to summed round deltas.
    cycles = final_cycles if have_final else delta_cycles
    messages = final_messages if have_final else delta_messages
    floats = final_floats if have_final else delta_floats
    replay_consistent = (not have_final) or _consistent(
        delta_cycles, final_cycles) and _consistent(
        delta_floats, final_floats, rel=1e-9)
    run_total = span_totals.get("run", {}).get("total_s", 0.0)
    phase_times = {p: span_totals.get(p, {}).get("total_s", 0.0)
                   for p in PHASE_SPANS}
    in_run = sum(phase_times[p] for p in _RUN_PHASES)
    coverage = (in_run / run_total) if run_total > 0 else 0.0
    return TraceReport(
        events=len(events),
        span_totals=span_totals,
        run_total_s=run_total,
        phase_times=phase_times,
        phase_coverage=coverage,
        rounds=tuple(rounds),
        comm_cycles=dict(cycles),
        comm_messages=dict(messages),
        comm_floats=dict(floats),
        replay_consistent=replay_consistent,
        sim_time_s=sim_total if have_sim_final else sim_from_rounds,
        metrics=metrics,
        meta=meta,
        fault_totals=fault_totals,
        faults_by_round=faults_by_round,
        attack_totals=attack_totals,
        defense_totals=defense_totals,
        byzantine_by_round=byzantine_by_round,
        membership_totals=membership_totals,
        membership_by_round=membership_by_round,
        membership_initial=membership_initial,
        membership_final=membership_final,
        invariant_totals=invariant_totals,
        invariant_records=tuple(invariant_records),
        resilience_totals=resilience_totals,
        sim_trees=tuple(sim_trees),
        heartbeats=tuple(heartbeats),
    )


def _consistent(deltas: Mapping, finals: Mapping, *, rel: float = 0.0) -> bool:
    """Do summed per-round deltas agree with the run-final snapshot?

    Cycle counts must match exactly; float volumes up to ``rel`` relative
    error (per-round deltas are floating-point differences).  A trace without
    per-round records (``write_max_depth=0``) is vacuously consistent.
    """
    if not deltas:
        return True
    for key in set(deltas) | set(finals):
        a, b = float(deltas.get(key, 0)), float(finals.get(key, 0))
        if abs(a - b) > rel * max(abs(a), abs(b), 1.0):
            return False
    return True


def format_trace_report(report: TraceReport, *, timeline: int = 5) -> str:
    """Human-readable rendering of a :class:`TraceReport`.

    Parameters
    ----------
    timeline:
        Show at most this many rounds from the start and end of the timeline
        (0 hides the timeline section).
    """
    lines: list[str] = []
    algos = sorted({r.algorithm for r in report.rounds})
    lines.append(f"trace: {report.events} events, {len(report.rounds)} rounds"
                 + (f", {len(report.heartbeats)} heartbeats"
                    if report.heartbeats else "")
                 + (f", algorithms: {', '.join(algos)}" if algos else ""))
    if report.meta:
        lines.append(f"meta : {json.dumps(dict(report.meta), sort_keys=True)}")
    lines.append("")
    lines.append(f"run wall-clock        : {report.run_total_s:.3f} s "
                 f"(phases cover {report.phase_coverage:.1%})")
    if report.sim_time_s > 0.0:
        lines.append(f"simulated time        : {report.sim_time_s:.3f} s "
                     f"(virtual clock; cost-model makespan)")
    lines.append("per-phase breakdown:")
    for phase in PHASE_SPANS:
        t = report.phase_times.get(phase, 0.0)
        slot = report.span_totals.get(phase, {})
        share = t / report.run_total_s if report.run_total_s > 0 else 0.0
        lines.append(f"  {phase:<22s} {t:10.3f} s  {share:6.1%}  "
                     f"({int(slot.get('count', 0))} spans)")
    other = {n: s for n, s in report.span_totals.items()
             if n not in PHASE_SPANS + ("run", "cloud_round")}
    for name in sorted(other, key=lambda n: -other[n]["total_s"])[:4]:
        s = other[name]
        lines.append(f"  {name:<22s} {s['total_s']:10.3f} s   (nested; "
                     f"{int(s['count'])} spans)")
    lines.append("")
    lines.append("communication (replayed"
                 + ("" if report.replay_consistent
                    else "; WARNING: deltas disagree with final snapshot")
                 + "):")
    lines.append(f"  total cycles          : {report.total_cycles}")
    lines.append(f"  edge-cloud cycles     : {report.edge_cloud_cycles}")
    lines.append(f"  total traffic         : {report.total_bytes / 1e6:.3f} MB")
    for key in sorted(report.comm_floats):
        mb = report.comm_floats[key] * _BYTES_PER_FLOAT / 1e6
        msgs = report.comm_messages.get(key, 0)
        lines.append(f"    {key:<20s} {mb:10.3f} MB  ({msgs} messages)")
    if report.sim_trees:
        # Imported lazily to keep the module dependency one-way.
        from repro.obs.critical_path import (analyze_critical_paths,
                                             format_critical_path)
        lines.append("")
        lines.append(format_critical_path(
            analyze_critical_paths(report.sim_trees), timeline=timeline))
    if timeline > 0 and report.rounds:
        lines.append("")
        lines.append("round timeline:")
        shown = list(report.rounds)
        if len(shown) > 2 * timeline:
            head, tail = shown[:timeline], shown[-timeline:]
            gap = len(shown) - 2 * timeline
        else:
            head, tail, gap = shown, [], 0
        for r in head:
            lines.append(_round_line(r))
        if gap:
            lines.append(f"  … {gap} rounds elided …")
            for r in tail:
                lines.append(_round_line(r))
    if report.fault_totals:
        lines.append("")
        lines.append(f"faults: {report.faults_injected} injected, "
                     f"{report.faults_recovered} recovery actions, "
                     f"{len(report.faults_by_round)} rounds affected")
        for label, pick in (("injected", lambda k: not _is_recovery(k)),
                            ("recovery", _is_recovery)):
            for kind in sorted(k for k in report.fault_totals if pick(k)):
                lines.append(f"  {kind:<22s} {report.fault_totals[kind]:6d}  "
                             f"({label})")
        by_round = sorted(report.faults_by_round.items())
        if timeline > 0 and by_round:
            lines.append("fault timeline:")
            if len(by_round) > 2 * timeline:
                head, tail = by_round[:timeline], by_round[-timeline:]
                gap = len(by_round) - 2 * timeline
            else:
                head, tail, gap = by_round, [], 0
            for rnd, slot in head:
                lines.append(_fault_round_line(rnd, slot))
            if gap:
                lines.append(f"  … {gap} rounds elided …")
                for rnd, slot in tail:
                    lines.append(_fault_round_line(rnd, slot))
    if report.attack_totals or report.defense_totals:
        lines.append("")
        lines.append(f"byzantine: {report.attacks_injected} attacked uploads, "
                     f"{report.attacks_filtered} filtered/clipped, "
                     f"{len(report.byzantine_by_round)} rounds affected")
        for kind in sorted(report.attack_totals):
            lines.append(f"  {kind:<22s} {report.attack_totals[kind]:6d}  "
                         f"(attack)")
        for action in sorted(report.defense_totals):
            lines.append(f"  {action:<22s} {report.defense_totals[action]:6d}  "
                         f"(defense)")
        by_round = sorted(report.byzantine_by_round.items())
        if timeline > 0 and by_round:
            lines.append("byzantine timeline:")
            if len(by_round) > 2 * timeline:
                head, tail = by_round[:timeline], by_round[-timeline:]
                gap = len(by_round) - 2 * timeline
            else:
                head, tail, gap = by_round, [], 0
            for rnd, slot in head:
                lines.append(_byz_round_line(rnd, slot))
            if gap:
                lines.append(f"  … {gap} rounds elided …")
                for rnd, slot in tail:
                    lines.append(_byz_round_line(rnd, slot))
    if report.membership_totals:
        lines.append("")
        balance = report.members_joined - report.members_left
        lines.append(
            f"membership: {report.members_joined} joined, "
            f"{report.members_left} left, "
            f"{report.membership_totals.get('re-homed', 0)} re-homed, "
            f"{report.membership_totals.get('edge_crash', 0)} edge crashes, "
            f"{report.membership_totals.get('edge_recover', 0)} recoveries")
        if report.membership_initial >= 0:
            lines.append(
                f"  population            : {report.membership_initial} -> "
                f"{report.membership_final} "
                f"(net {report.membership_net_delta:+d}; ledger "
                + ("balanced" if balance == report.membership_net_delta
                   else f"IMBALANCED: joined-left={balance:+d}") + ")")
        for action in sorted(report.membership_totals):
            if action == "population":
                continue
            lines.append(f"  {action:<22s} "
                         f"{report.membership_totals[action]:6d}")
        by_round = sorted(r for r in report.membership_by_round if r >= 0)
        if timeline > 0 and by_round:
            lines.append("membership timeline:")
            if len(by_round) > 2 * timeline:
                head, tail = by_round[:timeline], by_round[-timeline:]
                gap = len(by_round) - 2 * timeline
            else:
                head, tail, gap = by_round, [], 0
            for rnd in head:
                lines.append(_membership_round_line(
                    rnd, report.membership_by_round[rnd]))
            if gap:
                lines.append(f"  … {gap} rounds elided …")
                for rnd in tail:
                    lines.append(_membership_round_line(
                        rnd, report.membership_by_round[rnd]))
    if report.invariant_totals:
        lines.append("")
        lines.append(f"invariants: {report.invariant_violations} violation(s) "
                     f"across {len(report.invariant_totals)} check(s)")
        for check in sorted(report.invariant_totals):
            lines.append(f"  {check:<22s} {report.invariant_totals[check]:6d}")
        for rnd, check, message in report.invariant_records[:2 * timeline]:
            lines.append(f"  round {rnd:>5d}  {check}: {message}")
        elided = len(report.invariant_records) - 2 * timeline
        if timeline > 0 and elided > 0:
            lines.append(f"  … {elided} violation records elided …")
    if report.resilience_totals:
        lines.append("")
        chaos_n = report.resilience_totals.get("chaos", 0)
        lines.append(f"resilience: {report.recovery_actions} recovery "
                     f"action(s)"
                     + (f", {chaos_n} injected kill-point(s)" if chaos_n
                        else ""))
        for kind in sorted(report.resilience_totals):
            lines.append(f"  {kind:<22s} {report.resilience_totals[kind]:6d}")
    counters = report.metrics.get("counters", {}) if report.metrics else {}
    gauges = report.metrics.get("gauges", {}) if report.metrics else {}
    if counters or gauges:
        lines.append("")
        lines.append("metrics:")
        for k in sorted(counters):
            lines.append(f"  {k:<22s} {counters[k]:g}")
        for k in sorted(gauges):
            lines.append(f"  {k:<22s} {gauges[k]:g}  (gauge)")
    return "\n".join(lines)


def _byz_round_line(rnd: int, slot: Mapping[str, int]) -> str:
    return (f"  round {rnd:>5d}  {slot.get('attacked', 0):4d} attacked  "
            f"{slot.get('filtered', 0):4d} filtered")


def _membership_round_line(rnd: int, slot: Mapping[str, int]) -> str:
    parts = "  ".join(f"{slot[a]} {a}" for a in sorted(slot))
    return f"  round {rnd:>5d}  {parts}"


def _fault_round_line(rnd: int, slot: Mapping[str, int]) -> str:
    return (f"  round {rnd:>5d}  {slot.get('injected', 0):4d} injected  "
            f"{slot.get('recovered', 0):4d} recovered")


def _round_line(r: RoundRecord) -> str:
    line = (f"  [{r.algorithm}] round {r.round_index:>5d}  "
            f"{r.duration_s * 1e3:8.2f} ms  {r.bytes / 1e3:10.1f} kB  "
            f"{r.cycles:4d} cycles")
    if r.sim_s > 0.0:
        line += f"  {r.sim_s * 1e3:8.2f} sim-ms"
    return line
