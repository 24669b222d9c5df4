"""The communication tracker and the virtual clock bill the same broadcasts.

A down-link fan-out is charged by :func:`repro.sim.edge.fan_out` to the
recipients its sender can reach, and each tier's leg prices a broadcast on
the clock to exactly the recipients it then serves.  Under churn (edge
crashes, re-homing that empties edges, client departures) and without a
fault plan, nothing the sender cannot know about stands between the two
ledgers, so every fan-out's charged recipients must be exactly those the
clock priced a transfer to before the next broadcast on the same link.  A
quarantined edge is charged nothing once it is quarantined.
"""

from __future__ import annotations

import importlib
from dataclasses import replace

import pytest

from repro.baselines.registry import make_algorithm
from repro.defense.attacks import AttackPlan
from repro.faults.plan import FaultPlan
from repro.membership.plan import ChurnPlan
from repro.simtime.cost import HeterogeneousCostModel

ROUNDS = 12
CHURN = "arrive=0.1,depart=0.15,edge_mttf=4,edge_mttr=2,seed=1"

#: Modules whose legs call ``fan_out`` by name.
_CALLERS = ("repro.sim.edge", "repro.core.engine", "repro.core.semiasync",
            "repro.multilayer.algorithm")


class _RecordingCost(HeterogeneousCostModel):
    """A heterogeneous cost model that logs every transfer it prices."""

    def __init__(self, log: list) -> None:
        super().__init__(seed=1)
        self._log = log

    def transfer_s(self, link, entity, floats):
        self._log.append(("priced", link, int(entity)))
        return super().transfer_s(link, entity, floats)


def _instrument(monkeypatch, algo, log: list) -> None:
    """Log every down-link charge and every fan-out's recipients."""
    record = algo.tracker.record

    def logged_record(link, direction, **kw):
        if direction == "down":
            log.append(("charged", link, kw.get("count", 1)))
        record(link, direction, **kw)

    monkeypatch.setattr(algo.tracker, "record", logged_record)
    for name in _CALLERS:
        module = importlib.import_module(name)
        original = getattr(module, "fan_out", None)
        if original is None:
            continue

        def spy(ctx, link, recipients, *, _original=original, **kw):
            recipients = list(recipients)
            live = _original(ctx, link, recipients, **kw)
            log.append(("fan_out", link, ctx.round_index,
                        set(recipients), set(live)))
            return live

        monkeypatch.setattr(module, "fan_out", spy)


def _segments(log: list) -> list[dict]:
    """Cut the log into broadcasts: each down-link charge (or a fan-out that
    charged nobody) opens one on its link, and the transfers priced on that
    link until the next one belong to it."""
    segments: list[dict] = []
    current: dict[str, dict] = {}
    for event in log:
        kind, link = event[0], event[1]
        if kind == "charged":
            current[link] = {"link": link, "count": event[2], "priced": set(),
                             "fan_out": None}
            segments.append(current[link])
        elif kind == "fan_out":
            _, _, round_index, recipients, live = event
            if live:
                # fan_out's own charge opened the segment just before.
                segment = current[link]
                assert segment["fan_out"] is None and segment["count"] == len(
                    live), f"{link}: fan-out charged {segment['count']} " \
                           f"messages to {len(live)} recipients"
            else:
                segment = current[link] = {"link": link, "count": 0,
                                           "priced": set()}
                segments.append(segment)
            segment.update(fan_out=(round_index, recipients, live))
        else:
            segment = current.get(link)
            assert segment is not None, f"{link}: priced before any broadcast"
            segment["priced"].add(event[2])
    return segments


def _run(monkeypatch, name, fed, factory, prepare=None, **run):
    log: list = []
    algo = make_algorithm(name, fed, factory, **{
        "tau1": 2, "tau2": 2, "m_edges": 5, "eta_w": 0.1, "eta_p": 0.05,
        "batch_size": 4, "seed": 0, "timing": _RecordingCost(log), **run})
    _instrument(monkeypatch, algo, log)
    if prepare is not None:
        prepare(algo)
    with algo:
        algo.run(rounds=ROUNDS, eval_every=ROUNDS)
    return algo, _segments(log)


def _check_ledgers_agree(segments) -> None:
    """Every broadcast bills as many recipients on the tracker as on the
    clock, and a fan-out bills the very same ones."""
    for seg in segments:
        assert seg["count"] == len(seg["priced"]), (
            f"{seg['link']}: {seg['count']} messages charged, "
            f"{len(seg['priced'])} recipients priced {sorted(seg['priced'])}")
        if seg["fan_out"] is not None:
            round_index, _, live = seg["fan_out"]
            assert live == seg["priced"], (
                f"round {round_index}, {seg['link']}: charged "
                f"{sorted(live)}, clock priced {sorted(seg['priced'])}")
    # Only membership's point-to-point syncs charge outside fan_out.
    assert all(seg["count"] == 1 for seg in segments
               if seg["fan_out"] is None)


@pytest.mark.parametrize("name", ["hierminimax", "hierfavg",
                                  "semiasync_hierminimax", "drfa"])
def test_tracker_and_clock_bill_the_same_recipients(monkeypatch, name,
                                                    tiny_image_fed,
                                                    tiny_logistic_factory):
    algo, segments = _run(monkeypatch, name, tiny_image_fed,
                          tiny_logistic_factory,
                          churn=ChurnPlan.parse(CHURN))
    _check_ledgers_agree(segments)
    # The churn reached the cloud's fan-outs: some recipient was known
    # unreachable and left uncharged.  Clients departed, and on the
    # hierarchy re-homing emptied a crashed edge.
    top = "client_cloud" if name == "drfa" else "edge_cloud"
    assert any(seg["fan_out"][1] - seg["fan_out"][2] for seg in segments
               if seg["fan_out"] and seg["link"] == top)
    membership = algo.membership
    assert len(membership.active) < tiny_image_fed.num_clients
    if name != "drfa":
        assert set(membership.home.values()) != set(range(
            tiny_image_fed.num_edges))


def test_quarantined_edge_is_charged_no_broadcast(monkeypatch,
                                                  tiny_image_fed,
                                                  tiny_logistic_factory):
    # An attack-only plan enables the injector without dropping, delaying
    # or losing anything, so the two ledgers must still agree.
    plan = replace(FaultPlan(), byzantine=AttackPlan.parse(
        "sign_flip,clients=0,scale=1"))
    quarantine_round, edge = 4, 3

    def quarantine_after_its_round(algo):
        run_round = algo.run_round

        def run_then_quarantine(k):
            run_round(k)
            if k == quarantine_round:
                algo.faults.quarantine(k, f"edge:{edge}")

        monkeypatch.setattr(algo, "run_round", run_then_quarantine)

    _, segments = _run(monkeypatch, "hierminimax", tiny_image_fed,
                       tiny_logistic_factory,
                       prepare=quarantine_after_its_round, m_edges=None,
                       faults=plan)
    _check_ledgers_agree(segments)
    edge_fan_outs = [seg["fan_out"] for seg in segments
                     if seg["fan_out"] and seg["link"] == "edge_cloud"]
    before = [live for k, _, live in edge_fan_outs if k <= quarantine_round]
    after = [(k, recipients, live) for k, recipients, live in edge_fan_outs
             if k > quarantine_round]
    assert any(edge in live for live in before)
    # Full participation: Phase 2 addresses the edge in every later round ...
    assert {k for k, recipients, _ in after if edge in recipients} == set(
        range(quarantine_round + 1, ROUNDS))
    # ... and no fan-out charges it.
    assert not any(edge in live for _, _, live in after)
