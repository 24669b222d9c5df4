"""Golden of the full text :func:`format_trace_report` renders.

The event stream is built by hand, so every number in the report is fixed:
it fills every ledger the report renders (rounds, faults, byzantine,
membership, invariants, resilience, metrics) over more rounds than the
timelines show, so each timeline elides its middle rounds.
"""

from __future__ import annotations

from repro.obs import analyze_trace, format_trace_report

ROUNDS = 9
TIMELINE = 2


def _log(t: float, kind: str, **fields) -> dict:
    return {"ev": "log", "t": t, "kind": kind, "fields": fields}


def _span(t: float, name: str, dur_s: float, **attrs) -> dict:
    return {"ev": "span", "t": t, "name": name, "path": f"run/{name}",
            "depth": 1, "dur_s": dur_s, "attrs": attrs}


def _every_ledger_trace() -> list[dict]:
    events = [{"ev": "trace_start", "t": 0.0, "meta": {"example": "golden"}},
              _log(0.0, "membership", round=-1, action="population",
                   active=40)]
    active = 40
    for r in range(ROUNDS):
        t = 0.125 * r
        comm = {"cycles": {"client_edge": 4, "edge_cloud": 2},
                "messages": {"edge_cloud:up": 3 + r % 2},
                "floats": {"client_edge:up": 1000.0 * (r + 1),
                           "edge_cloud:up": 250.0}}
        events += [
            _span(t, "phase1_model_update", 0.0625, round=r),
            _span(t + 0.0625, "phase2_weight_update", 0.03125, round=r),
            _span(t, "cloud_round", 0.09375 + 0.001 * r, algorithm="hm",
                  round=r, comm=comm, sim_s=0.5 * (r + 1)),
            _span(t + 0.09375, "evaluate", 0.015625, round=r),
            _log(t, "fault", round=r, fault="client_dropout",
                 entity=f"client:{r}"),
        ]
        if r % 3:
            events.append(_log(t, "fault", round=r, fault="retry_success",
                               entity=f"edge:{r}"))
        if r != 4:
            events.append(_log(t, "attack", round=r, attack="sign_flip"))
        if r % 2:
            events.append(_log(t, "defense", round=r, action="trimmed"))
        active += 1 if r % 2 else -1
        events.append(_log(t, "membership", round=r,
                           action="joined" if r % 2 else "left",
                           active=active))
        if r % 4 == 0:
            events.append(_log(t, "membership", round=r, action="re-homed"))
        if r < 6:
            events.append(_log(t, "invariant", round=r, check="simplex",
                               message=f"weights sum {1 + r / 100:.2f}"))
    events += [
        _log(1.0, "exec_retry", task=3),
        _log(1.0, "chaos", site="torn_write"),
        _span(0.0, "run", 1.25, comm_total={
            "cycles": {"client_edge": 4 * ROUNDS, "edge_cloud": 2 * ROUNDS},
            "messages": {"edge_cloud:up": 31},
            "floats": {"client_edge:up": 45000.0,
                       "edge_cloud:up": 250.0 * ROUNDS}},
            sim_total_s=22.5),
        {"ev": "metrics", "t": 1.25,
         "data": {"counters": {"clients_dropped_total": 9.0},
                  "gauges": {"worst_edge_loss": 0.75}}},
    ]
    return events


GOLDEN = """\
trace: 87 events, 9 rounds, algorithms: hm
meta : {"example": "golden"}

run wall-clock        : 1.250 s (phases cover 78.8%)
simulated time        : 22.500 s (virtual clock; cost-model makespan)
per-phase breakdown:
  data_gen                    0.000 s    0.0%  (0 spans)
  phase1_model_update         0.562 s   45.0%  (9 spans)
  phase2_weight_update        0.281 s   22.5%  (9 spans)
  evaluate                    0.141 s   11.2%  (9 spans)

communication (replayed):
  total cycles          : 54
  edge-cloud cycles     : 18
  total traffic         : 0.378 MB
    client_edge:up            0.360 MB  (0 messages)
    edge_cloud:up             0.018 MB  (31 messages)

round timeline:
  [hm] round     0     93.75 ms        10.0 kB     6 cycles    500.00 sim-ms
  [hm] round     1     94.75 ms        18.0 kB     6 cycles   1000.00 sim-ms
  … 5 rounds elided …
  [hm] round     7    100.75 ms        66.0 kB     6 cycles   4000.00 sim-ms
  [hm] round     8    101.75 ms        74.0 kB     6 cycles   4500.00 sim-ms

faults: 9 injected, 6 recovery actions, 9 rounds affected
  client_dropout              9  (injected)
  retry_success               6  (recovery)
fault timeline:
  round     0     1 injected     0 recovered
  round     1     1 injected     1 recovered
  … 5 rounds elided …
  round     7     1 injected     1 recovered
  round     8     1 injected     1 recovered

byzantine: 8 attacked uploads, 4 filtered/clipped, 8 rounds affected
  sign_flip                   8  (attack)
  trimmed                     4  (defense)
byzantine timeline:
  round     0     1 attacked     0 filtered
  round     1     1 attacked     1 filtered
  … 4 rounds elided …
  round     7     1 attacked     1 filtered
  round     8     1 attacked     0 filtered

membership: 4 joined, 5 left, 3 re-homed, 0 edge crashes, 0 recoveries
  population            : 40 -> 39 (net -1; ledger balanced)
  joined                      4
  left                        5
  re-homed                    3
membership timeline:
  round     0  1 left  1 re-homed
  round     1  1 joined
  … 5 rounds elided …
  round     7  1 joined
  round     8  1 left  1 re-homed

invariants: 6 violation(s) across 1 check(s)
  simplex                     6
  round     0  simplex: weights sum 1.00
  round     1  simplex: weights sum 1.01
  round     2  simplex: weights sum 1.02
  round     3  simplex: weights sum 1.03
  … 2 violation records elided …

resilience: 1 recovery action(s), 1 injected kill-point(s)
  chaos                       1
  exec_retry                  1

metrics:
  clients_dropped_total  9
  worst_edge_loss        0.75  (gauge)"""


def test_full_report_text_is_pinned():
    text = format_trace_report(analyze_trace(_every_ledger_trace()),
                               timeline=TIMELINE)
    assert text == GOLDEN
